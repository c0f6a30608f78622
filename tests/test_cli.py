import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import morphfit
from morphfit import (
    CategorySpec,
    CpdConfig,
    Registration,
    build_category,
    generate_dataset,
    load_space,
    look_at,
    read_manifest,
    read_ply,
    rotation_to_quaternion,
    write_ply,
)
from morphfit.cli import _load_camera, _views_for, build_parser, main, validate_config

PACKAGE_ROOT = str(Path(morphfit.__file__).resolve().parents[1])


def package_env(**extra):
    """Environment of a child process that imports this checkout's package."""
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])),
        **extra,
    }


@pytest.fixture(scope="module")
def mesh_dir(tmp_path_factory, category):
    root = tmp_path_factory.mktemp("cli-meshes")
    write_ply(root / "canonical.ply", category.canonical_mesh)
    instances = root / "instances"
    instances.mkdir()
    for index, mesh in enumerate(category.instance_meshes):
        write_ply(instances / f"model_{index}.ply", mesh)
    held_mesh, _, _ = category.held_out()
    write_ply(root / "observed.ply", held_mesh)
    return root


@pytest.fixture(scope="module")
def space_path(mesh_dir, category, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-space") / "space.mfss"
    code = main([
        "--seed", "1", "build-space",
        "--canonical", str(mesh_dir / "canonical.ply"),
        "--instances", str(mesh_dir / "instances"),
        "--beta", str(category.beta), "--latent", "2",
        "--out", str(out),
    ])
    assert code == 0
    return out


def parse(argv):
    return build_parser().parse_args(argv)


class TestValidateConfig:
    def test_valid_run_has_no_problems(self, mesh_dir):
        args = parse([
            "build-space", "--canonical", str(mesh_dir / "canonical.ply"),
            "--instances", str(mesh_dir / "instances"), "--latent", "2",
            "--beta", "0.1", "--out", "x.mfss",
        ])
        assert validate_config(args) == []

    def test_zero_beta_names_the_invariant(self, mesh_dir):
        args = parse([
            "build-space", "--canonical", str(mesh_dir / "canonical.ply"),
            "--instances", str(mesh_dir / "instances"), "--latent", "2",
            "--beta", "0", "--out", "x.mfss",
        ])
        problems = validate_config(args)
        assert len(problems) == 1
        assert "--beta" in problems[0] and "kernel" in problems[0]

    def test_latent_capped_by_instance_count(self, mesh_dir, tmp_path):
        few = tmp_path / "three"
        few.mkdir()
        for index in range(3):
            (few / f"m{index}.ply").write_bytes(
                (mesh_dir / "instances" / "model_0.ply").read_bytes()
            )
        args = parse([
            "build-space", "--canonical", str(mesh_dir / "canonical.ply"),
            "--instances", str(few), "--latent", "5", "--beta", "0.1",
            "--out", "x.mfss",
        ])
        problems = validate_config(args)
        assert len(problems) == 1
        assert "5" in problems[0] and "2" in problems[0]

    def test_all_violations_reported_together(self, tmp_path):
        args = parse([
            "build-space", "--canonical", str(tmp_path / "missing.ply"),
            "--instances", str(tmp_path / "nodir"), "--latent", "0",
            "--beta", "0", "--lambda", "-1", "--out", "x.mfss",
        ])
        problems = validate_config(args)
        assert len(problems) >= 5

    @pytest.mark.parametrize("flag, value", [
        ("--dense-count", "0"), ("--dense-count", "-5"),
        ("--cloud-leaf", "0"), ("--cloud-leaf", "-0.01"), ("--cloud-leaf", "nan"),
    ])
    def test_cloud_recipe_checked(self, mesh_dir, flag, value):
        args = parse([
            "build-space", "--canonical", str(mesh_dir / "canonical.ply"),
            "--instances", str(mesh_dir / "instances"), "--latent", "2",
            "--beta", "0.1", flag, value, "--out", "x.mfss",
        ])
        problems = validate_config(args)
        assert len(problems) == 1 and problems[0].startswith(flag)

    @pytest.mark.parametrize("command, flag", [
        ("gen-dataset", "--lambda"), ("gen-dataset", "--cloud-leaf"),
        ("gen-dataset", "--dense-count"),
        ("register", "--lambda"), ("register", "--cloud-leaf"),
        ("evaluate", "--lambda"), ("evaluate", "--cloud-leaf"),
        ("pose-noise-eval", "--lambda"), ("pose-noise-eval", "--cloud-leaf"),
    ])
    def test_registration_flags_only_on_build_space(self, command, flag, capsys):
        # The space file carries the category's registration settings.
        argv = [command, "--space", "s", "--canonical", "c", "--out", "o", flag, "1"]
        argv += {"gen-dataset": ["--models", "m"], "register": ["--observed", "x", "--pose", "p"]
                 }.get(command, ["--instance", "x"])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_rho_range_checked(self, mesh_dir, space_path):
        args = parse([
            "gen-dataset", "--space", str(space_path),
            "--canonical", str(mesh_dir / "canonical.ply"),
            "--models", str(mesh_dir / "instances"),
            "--rhos", "0.5,1.5", "--out", "d",
        ])
        assert any("1.5" in p for p in validate_config(args))

    def test_external_oracle_needs_command(self, mesh_dir, space_path):
        args = parse([
            "register", "--space", str(space_path),
            "--canonical", str(mesh_dir / "canonical.ply"),
            "--observed", str(mesh_dir / "observed.ply"),
            "--pose", str(mesh_dir / "canonical.ply"),
            "--oracle", "external", "--out", "r.ply",
        ])
        assert any("--oracle-cmd" in p for p in validate_config(args))


class TestExitCodes:
    def test_validation_failure_exits_2(self, tmp_path, capsys):
        code = main([
            "build-space", "--canonical", str(tmp_path / "nope.ply"),
            "--instances", str(tmp_path), "--out", str(tmp_path / "s.mfss"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert not (tmp_path / "s.mfss").exists()

    def test_runtime_failure_exits_1(self, mesh_dir, tmp_path, capsys):
        garbage = tmp_path / "garbage.mfss"
        garbage.write_bytes(b"not a space file\n")
        code = main([
            "gen-dataset", "--space", str(garbage),
            "--canonical", str(mesh_dir / "canonical.ply"),
            "--models", str(mesh_dir / "instances"),
            "--out", str(tmp_path / "data"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_resolution_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["register", "--res", "96y72", "--space", "s", "--canonical", "c",
                  "--observed", "o", "--pose", "p", "--out", "r"])
        assert exc.value.code == 2

    def test_success_exits_0(self, space_path):
        assert space_path.exists()
        assert not Path(str(space_path) + ".partial").exists()


class TestBuildSpace:
    def test_space_loads_back(self, space_path, category):
        space = load_space(space_path)
        assert space.latent_dim == 2
        assert space.beta == category.beta
        assert len(space.canonical) > 50

    def test_deterministic_given_seed(self, mesh_dir, category, space_path, tmp_path):
        out = tmp_path / "again.mfss"
        code = main([
            "--seed", "1", "build-space",
            "--canonical", str(mesh_dir / "canonical.ply"),
            "--instances", str(mesh_dir / "instances"),
            "--beta", str(category.beta), "--latent", "2",
            "--out", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == space_path.read_bytes()


class TestGenDataset:
    def test_miniature_corpus(self, mesh_dir, space_path, tmp_path, capsys):
        out = tmp_path / "corpus"
        code = main([
            "--seed", "2", "gen-dataset", "--space", str(space_path),
            "--canonical", str(mesh_dir / "canonical.ply"),
            "--models", str(mesh_dir / "instances"),
            "--views", "2", "--rhos", "0.25", "--res", "96x72",
            "--out", str(out),
        ])
        assert code == 0
        header, records = read_manifest(out / "manifest.jsonl")
        assert header["records"] == 6 * 1 * 2
        assert header["seed"] == 2
        assert len(records) == 12
        assert all(r.status == "ok" for r in records)
        assert "12/12" in capsys.readouterr().out

    def test_dense_count_reaches_the_registration_clouds(self, mesh_dir, space_path, tmp_path):
        # build-space's --dense-count sets the sample count of every cloud
        # the category registers, so the targets gen-dataset derives follow it.
        few = tmp_path / "few.mfss"
        assert main([
            "--seed", "1", "build-space", "--canonical", str(mesh_dir / "canonical.ply"),
            "--instances", str(mesh_dir / "instances"), "--beta", "0.1", "--latent", "2",
            "--dense-count", "512", "--out", str(few),
        ]) == 0
        assert load_space(few).registration.dense_count == 512
        targets = []
        for space in (space_path, few):
            out = tmp_path / f"corpus-{space.stem}"
            assert main([
                "gen-dataset", "--space", str(space),
                "--canonical", str(mesh_dir / "canonical.ply"),
                "--models", str(mesh_dir / "instances"),
                "--views", "1", "--rhos", "0", "--res", "96x72", "--out", str(out),
            ]) == 0
            targets.append((out / "0" / "0" / "0" / "target.f32").read_bytes())
        assert targets[0] != targets[1]

    def test_registers_with_the_settings_build_space_fixed(self, mesh_dir, tmp_path, category):
        # gen-dataset takes no registration flags: it re-registers its models
        # exactly as an in-process category built with build-space's settings.
        models = tmp_path / "models"
        models.mkdir()
        for name in ("model_0.ply", "model_1.ply"):
            (models / name).write_bytes((mesh_dir / "instances" / name).read_bytes())
        space = tmp_path / "tuned.mfss"
        assert main([
            "--seed", "5", "build-space", "--canonical", str(mesh_dir / "canonical.ply"),
            "--instances", str(mesh_dir / "instances"), "--beta", str(category.beta),
            "--latent", "2", "--lambda", "3.5", "--outlier-weight", "0.1",
            "--cloud-leaf", "0.04", "--dense-count", "3000", "--out", str(space),
        ]) == 0
        argv = ["--seed", "5", "gen-dataset", "--space", str(space),
                "--canonical", str(mesh_dir / "canonical.ply"), "--models", str(models),
                "--views", "2", "--rhos", "0,0.5", "--res", "96x72",
                "--out", str(tmp_path / "cli")]
        assert main(argv) == 0

        canonical = read_ply(mesh_dir / "canonical.ply")
        recipe = Registration(
            CpdConfig(beta=category.beta, regularization=3.5, outlier_weight=0.1), 0.04, 3000
        )
        spec = build_category(canonical, [read_ply(p) for p in sorted(models.glob("*.ply"))],
                              recipe, seed=5)
        records = generate_dataset(
            spec, _views_for(parse(argv[2:]), canonical), [0.0, 0.5], tmp_path / "lib",
            zoom_resolution=(96, 72), seed=5,
        )
        assert len(records) == 8 and all(r.status == "ok" for r in records)
        for record in records:
            lib = Path(record.paths["target.f32"])
            cli = tmp_path / "cli" / lib.relative_to(tmp_path / "lib")
            assert cli.read_bytes() == lib.read_bytes(), cli


def write_pose(path, view):
    payload = {
        "quaternion": rotation_to_quaternion(view.rotation).tolist(),
        "translation": view.translation.tolist(),
        "focal": list(view.focal),
        "resolution": list(view.resolution),
    }
    path.write_text(json.dumps(payload) + "\n")


@pytest.fixture(scope="module")
def pose_path(mesh_dir):
    view = look_at([0.07, -0.04, 0.6], focal=(103.125, 103.125), resolution=(96, 72))
    path = mesh_dir / "pose.json"
    write_pose(path, view)
    return path


class TestPoseFile:
    def test_manifest_pose_round_trips(self, category, tmp_path):
        # A record's pose is the world-to-camera rotation and translation of
        # the view it was rendered from, in the form --pose reads.
        spec = category.category_spec()
        single = CategorySpec(
            spec.canonical_mesh, spec.canonical_cloud,
            spec.instance_meshes[:1], spec.fields[:1],
        )
        view = look_at([0.07, -0.04, 0.6], focal=(103.125, 99.5),
                       principal_point=(50.0, 33.0), resolution=(96, 72))
        (record,) = generate_dataset(
            single, [view], [0.0], tmp_path / "data", seed=9,
            densify_per_pixel=4.0, densify_max=15000, zoom_resolution=(96, 72),
        )
        pose_path = tmp_path / "pose.json"
        pose_path.write_text(json.dumps(record.pose))
        loaded = _load_camera(pose_path, (256, 192))
        np.testing.assert_allclose(loaded.rotation, view.rotation, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(loaded.translation, view.translation)
        assert loaded.focal == view.focal
        assert loaded.principal_point == view.principal_point
        assert loaded.resolution == view.resolution


class TestRegister:
    def run(self, mesh_dir, space_path, pose_path, out):
        return main([
            "--seed", "4", "register", "--space", str(space_path),
            "--canonical", str(mesh_dir / "canonical.ply"),
            "--observed", str(mesh_dir / "observed.ply"),
            "--pose", str(pose_path), "--res", "96x72",
            "--out", str(out),
        ])

    def test_writes_mesh_and_latent(self, mesh_dir, space_path, pose_path,
                                    tmp_path, category, capsys):
        out = tmp_path / "recon.ply"
        assert self.run(mesh_dir, space_path, pose_path, out) == 0
        recon = read_ply(out)
        assert recon.vertices.shape == category.canonical_mesh.vertices.shape
        np.testing.assert_array_equal(recon.faces, category.canonical_mesh.faces)
        payload = json.loads(out.with_suffix(".latent.json").read_text())
        assert len(payload["latent"]) == 2
        assert payload["degenerate"] is False
        assert np.isfinite(payload["residual"])
        assert "reconstruction error" in capsys.readouterr().out
        assert not Path(str(out) + ".partial").exists()

    def test_identical_runs_identical_bytes(self, mesh_dir, space_path, pose_path, tmp_path):
        a, b = tmp_path / "a.ply", tmp_path / "b.ply"
        assert self.run(mesh_dir, space_path, pose_path, a) == 0
        assert self.run(mesh_dir, space_path, pose_path, b) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".latent.json").read_text() == b.with_suffix(".latent.json").read_text()

    def test_failed_oracle_leaves_no_outputs(self, mesh_dir, space_path, pose_path,
                                             tmp_path, capsys):
        out = tmp_path / "never.ply"
        code = main([
            "register", "--space", str(space_path),
            "--canonical", str(mesh_dir / "canonical.ply"),
            "--observed", str(mesh_dir / "observed.ply"),
            "--pose", str(pose_path), "--res", "96x72",
            "--oracle", "external", "--oracle-cmd", "false",
            "--out", str(out),
        ])
        assert code == 1
        assert "OracleError" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestEvaluateCommands:
    def test_evaluate_writes_reports(self, mesh_dir, space_path, tmp_path, capsys):
        out_csv = tmp_path / "report.csv"
        out_json = tmp_path / "report.json"
        code = main([
            "--seed", "3", "evaluate", "--space", str(space_path),
            "--canonical", str(mesh_dir / "canonical.ply"),
            "--instance", str(mesh_dir / "observed.ply"),
            "--views", "2", "--res", "96x72",
            "--out", str(out_csv), "--json", str(out_json),
        ])
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4  # header + three conditions
        conditions = [r[1] for r in rows[1:]]
        assert conditions == ["oracle-pipeline", "raw-CPD-baseline", "canonical-baseline"]
        payload = json.loads(out_json.read_text())
        assert len(payload) == 3
        assert all(entry["n_views"] == 2 for entry in payload)
        assert "observed" in capsys.readouterr().out

    def test_pose_noise_eval(self, mesh_dir, space_path, tmp_path):
        out_csv = tmp_path / "noise.csv"
        code = main([
            "--seed", "3", "pose-noise-eval", "--space", str(space_path),
            "--canonical", str(mesh_dir / "canonical.ply"),
            "--instance", str(mesh_dir / "observed.ply"),
            "--views", "2", "--res", "96x72",
            "--noise-range", "0.02", "--draws", "2",
            "--out", str(out_csv),
        ])
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        by_condition = {r[1]: r for r in rows[1:]}
        assert set(by_condition) == {"oracle-pipeline", "canonical-baseline"}
        assert by_condition["oracle-pipeline"][2] == "4"  # draws x views


@pytest.fixture(scope="module")
def capped_space_path(space_path, tmp_path_factory):
    """The space with its recipe's CPD capped at one iteration."""
    header, payload = space_path.read_bytes().split(b"\n", 1)
    meta = json.loads(header)
    meta["registration"]["max_iterations"] = 1
    out = tmp_path_factory.mktemp("cli-capped") / "capped.mfss"
    out.write_bytes(json.dumps(meta).encode() + b"\n" + payload)
    return out


@pytest.mark.parametrize("command, flags", [
    ("register", ["--observed", "observed.ply", "--pose", "pose.json"]),
    ("evaluate", ["--instance", "observed.ply", "--views", "1"]),
    ("pose-noise-eval", ["--instance", "observed.ply", "--views", "1", "--draws", "1"]),
])
def test_capped_registration_names_the_observed_file(command, flags, mesh_dir, pose_path,
                                                      capped_space_path, tmp_path, capsys):
    paths = {"observed.ply": str(mesh_dir / "observed.ply"), "pose.json": str(pose_path)}
    code = main([
        command, "--space", str(capped_space_path),
        "--canonical", str(mesh_dir / "canonical.ply"), "--res", "96x72",
        *[paths.get(flag, flag) for flag in flags], "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("warning: registration")] == [
        "warning: registration of instance observed hit the 1-iteration cap without converging"
    ]


class TestCrossRegister:
    def test_writes_corresponding_clouds(self, space_path, tmp_path):
        prefix = tmp_path / "pair"
        code = main([
            "cross-register", "--space", str(space_path),
            "--latent-a", "0.45,-0.6", "--latent-b", "0,0",
            "--out", str(prefix),
        ])
        assert code == 0
        space = load_space(space_path)
        counts = []
        for suffix in ("_a.ply", "_b.ply"):
            # Point-cloud output: a zero-face PLY, checked textually.
            header = Path(str(prefix) + suffix).read_text().splitlines()
            counts.append(int(next(
                line.split()[-1] for line in header if line.startswith("element vertex")
            )))
        assert counts == [len(space.canonical)] * 2

    def test_latent_file_reference(self, mesh_dir, space_path, pose_path, tmp_path):
        recon = tmp_path / "recon.ply"
        assert TestRegister().run(mesh_dir, space_path, pose_path, recon) == 0
        prefix = tmp_path / "viafile"
        code = main([
            "cross-register", "--space", str(space_path),
            "--latent-a", "@" + str(recon.with_suffix(".latent.json")),
            "--latent-b", "0,0", "--out", str(prefix),
        ])
        assert code == 0
        assert Path(str(prefix) + "_a.ply").exists()

    def test_dimension_mismatch_exits_2(self, space_path, tmp_path, capsys):
        code = main([
            "cross-register", "--space", str(space_path),
            "--latent-a", "1,2,3", "--latent-b", "1,2",
            "--out", str(tmp_path / "bad"),
        ])
        assert code == 2


def _malformed_pose(tmp_path, flags):
    (tmp_path / "pose.json").write_text('{"quaternion": [1, 0, 0, 0], "translation": [0, 0')
    return {"--pose": tmp_path / "pose.json"}


def _malformed_ply(tmp_path, flags):
    (tmp_path / "scan.ply").write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
        "property float z\nelement face 1\nproperty list uchar int vertex_indices\n"
        "end_header\n0 0 0\n1 0 zero\n0 1 0\n3 0 1 2\n"
    )
    return {"--observed": tmp_path / "scan.ply"}


def _space_without_registration(tmp_path, flags):
    # A space file from before the header carried the registration settings.
    header, payload = Path(flags["--space"]).read_bytes().split(b"\n", 1)
    meta = json.loads(header)
    del meta["registration"]
    (tmp_path / "old.mfss").write_bytes(json.dumps(meta).encode() + b"\n" + payload)
    return {"--space": tmp_path / "old.mfss"}


def _latent_file(content):
    def make(tmp_path, flags):
        path = tmp_path / "latent.json"
        if content is not None:
            path.write_text(content)
        return {"--latent-a": "@" + str(path)}
    return make


@pytest.mark.parametrize("command, make_inputs, code", [
    ("register", _malformed_pose, 1),
    ("register", _malformed_ply, 1),
    ("register", _space_without_registration, 1),
    ("cross-register", _latent_file(None), 2),
    ("cross-register", _latent_file("{not json"), 2),
    ("cross-register", _latent_file('{"residual": 0.5}'), 2),
    ("cross-register", _latent_file('{"latent": 0.5}'), 2),
], ids=["pose-json", "ply-vertex-row", "space-no-registration", "latent-missing",
        "latent-json", "latent-key", "latent-scalar"])
def test_bad_input_ends_in_one_error_line(command, make_inputs, code, mesh_dir, space_path,
                                         pose_path, tmp_path):
    flags = {"--space": space_path}
    if command == "register":
        flags.update({"--canonical": mesh_dir / "canonical.ply",
                      "--observed": mesh_dir / "observed.ply", "--pose": pose_path,
                      "--res": "96x72", "--out": tmp_path / "recon.ply"})
    else:
        flags.update({"--latent-a": "0,0", "--latent-b": "0,0", "--out": tmp_path / "pair"})
    flags.update(make_inputs(tmp_path, flags))
    argv = [command] + [str(item) for pair in flags.items() for item in pair]
    proc = subprocess.run([sys.executable, "-m", "morphfit", *argv], capture_output=True,
                          text=True, timeout=120, env=package_env())
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    # Runtime errors print one line; argparse prints its usage line first.
    lines = proc.stderr.strip().splitlines()
    assert "error:" in lines[-1], proc.stderr
    assert code == 2 or len(lines) == 1, proc.stderr


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "morphfit", "--help"], capture_output=True,
                          text=True, timeout=60, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: morphfit")


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        # Write the launcher an installer generates for the declared console
        # script, so the entry point is exercised without installing.
        try:
            import tomllib
        except ModuleNotFoundError:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["morphfit"]
        module, attr = target.split(":")
        script = tmp_path / "morphfit"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        script.chmod(0o755)
        env = package_env(PATH=os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")]))
        proc = subprocess.run(
            ["morphfit", "--help"], capture_output=True, text=True, timeout=60,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        # Match the {a,b,...} subcommand choices, not free text: "register"
        # also occurs inside "cross-register" and in the help strings.
        listed = re.search(r"\{([^}]*)\}", proc.stdout)
        assert listed, proc.stdout
        commands = set(listed.group(1).split(","))
        for name in ("build-space", "gen-dataset", "register", "evaluate",
                     "pose-noise-eval", "cross-register"):
            assert name in commands
