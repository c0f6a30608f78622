import argparse
import csv
import errno
import functools
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import morphfit
from morphfit import (
    CpdConfig,
    Registration,
    ValidationError,
    generate_dataset,
    load_space,
    look_at,
    read_manifest,
    read_ply,
    rotation_to_quaternion,
    save_space,
    space_from_fields,
    write_ply,
)
from morphfit import cli as cli_module
from morphfit import cpd as cpd_module
from morphfit import dataset as dataset_module
from morphfit.cli import _load_camera, _views_for, build_parser, main, validate_config
from morphfit.dataset import (
    DENSIFY_MAX, DENSIFY_PER_PIXEL, densify_count, mesh_cloud, register_instances,
)

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

    def test_negative_seed_names_the_flag(self, space_path):
        args = parse(["--seed", "-1", "cross-register", "--space", str(space_path),
                      "--latent-a", "0,0", "--latent-b", "0,0", "--out", "pair"])
        assert validate_config(args) == ["--seed must be in [0, 4294967295], got -1"]

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

    @pytest.mark.parametrize("command, flag, value", [
        ("register", "--splat-radius", "-1"), ("evaluate", "--splat-radius", "-1"),
        ("pose-noise-eval", "--splat-radius", "-1"),
        ("gen-dataset", "--view-radius", "-1"), ("gen-dataset", "--view-radius", "nan"),
        ("evaluate", "--view-radius", "0"), ("pose-noise-eval", "--view-radius", "inf"),
        ("evaluate", "--display-scale", "-1"), ("pose-noise-eval", "--display-scale", "nan"),
        ("register", "--res", "0x5"), ("gen-dataset", "--res", "96x0"),
        ("evaluate", "--res", "0x0"),
        ("register", "--noise-sigma", "nan"), ("evaluate", "--noise-sigma", "inf"),
        ("register", "--ridge", "nan"), ("pose-noise-eval", "--ridge", "inf"),
        ("pose-noise-eval", "--noise-range", "nan"), ("pose-noise-eval", "--noise-range", "inf"),
    ])
    def test_pipeline_numbers_checked(self, mesh_dir, space_path, command, flag, value):
        files = {
            "gen-dataset": ["--models", str(mesh_dir / "instances")],
            "register": ["--observed", str(mesh_dir / "observed.ply"),
                         "--pose", str(mesh_dir / "canonical.ply")],
        }.get(command, ["--instance", str(mesh_dir / "observed.ply")])
        args = parse([
            command, "--space", str(space_path), "--canonical", str(mesh_dir / "canonical.ply"),
            *files, flag, value, "--out", "o",
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

    @pytest.mark.parametrize("flags, problem", [
        (["--noise-sigma", "0.5"], "--noise-sigma 0.5 needs --oracle noisy, got --oracle gt"),
        (["--oracle", "external", "--oracle-cmd", "cat", "--noise-sigma", "0.1"],
         "--noise-sigma 0.1 needs --oracle noisy, got --oracle external"),
        (["--oracle-cmd", "false"], "--oracle-cmd needs --oracle external, got --oracle gt"),
        (["--oracle", "noisy", "--noise-sigma", "0.1", "--oracle-cmd", "cat"],
         "--oracle-cmd needs --oracle external, got --oracle noisy"),
        (["--oracle", "noisy", "--noise-sigma", "0.1"], None),
        (["--oracle", "external", "--oracle-cmd", "cat"], None),
        (["--oracle-cmd", "  "], None),
    ])
    def test_oracle_flags_pair(self, mesh_dir, space_path, flags, problem):
        # A flag that the chosen oracle would ignore is refused.
        args = parse([
            "evaluate", "--space", str(space_path), "--canonical", str(mesh_dir / "canonical.ply"),
            "--instance", str(mesh_dir / "observed.ply"), *flags, "--out", "o",
        ])
        assert validate_config(args) == ([problem] if problem else [])

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


class TestOneParser:
    """One process builds the command-line tree once and parses every command
    with it as a fresh process would."""

    def test_two_commands_build_the_tree_once(self, monkeypatch, tmp_path):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        argv = ["cross-register", "--space", str(tmp_path / "missing.mfss"),
                "--latent-a", "0", "--latent-b", "0", "--out", str(tmp_path / "pair")]
        assert main(argv) == 2
        assert main(argv) == 2
        assert built.count("morphfit") == 1

    def test_errors_after_a_command_print_what_a_fresh_process_prints(
            self, space_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
        latents = ["--latent-a", "0,0", "--latent-b", "0,0"]
        assert main(["cross-register", "--space", str(space_path), *latents,
                     "--out", str(tmp_path / "pair")]) == 0
        capsys.readouterr()
        for argv in (["register", "--space", str(space_path)],  # argparse's usage error
                     ["build-space", "--beta", "wide"],
                     ["--seed", "-1", "cross-register", "--space", str(space_path), *latents,
                      "--out", str(tmp_path / "refused")]):  # a NUMERIC_RULES row
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            fresh = subprocess.run([sys.executable, "-m", "morphfit", *argv],
                                   capture_output=True, text=True, timeout=120,
                                   env=package_env(COLUMNS="80"))
            assert code == fresh.returncode == 2
            assert capsys.readouterr().err == fresh.stderr


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

    def test_oversized_cloud_ends_in_one_line(self, mesh_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cpd_module, "MAX_CLOUD_POINTS", 50)
        out = tmp_path / "fine.mfss"
        code = main([
            "build-space", "--canonical", str(mesh_dir / "canonical.ply"),
            "--instances", str(mesh_dir / "instances"), "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValidationError: registration clouds of ")
        assert err.count("\n") == 1 and "--cloud-leaf" in err and "--dense-count" in err
        assert not out.exists()


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
        meshes = [read_ply(p) for p in sorted(models.glob("*.ply"))]
        canonical_cloud = mesh_cloud(canonical, recipe, 5, 0)
        trained = register_instances(canonical_cloud, meshes, recipe, seed=5)
        records = generate_dataset(
            canonical, meshes, [t.field for t in trained], _views_for(parse(argv[2:]), canonical),
            [0.0, 0.5], tmp_path / "lib",
            zoom_resolution=(96, 72), seed=5,
        )
        assert len(records) == 8 and all(r.status == "ok" for r in records)
        for record in records:
            lib = Path(record.paths["target.f32"])
            cli = tmp_path / "cli" / lib.relative_to(tmp_path / "lib")
            assert cli.read_bytes() == lib.read_bytes(), cli


def without_fields(space, out):
    """A copy of a space file without its "fields" member, as written before it existed."""
    header, payload = Path(space).read_bytes().split(b"\n", 1)
    meta = json.loads(header)
    del meta["fields"]
    out.write_bytes(json.dumps(meta).encode() + b"\n" + payload)
    return out


def sample_digests(corpus):
    return {str(p.relative_to(corpus)): hashlib.sha1(p.read_bytes()).hexdigest()
            for p in sorted(corpus.rglob("*")) if p.is_file()}


def _training_dir(mesh_dir, tmp_path):
    return mesh_dir / "instances"


def _one_mesh_changed(mesh_dir, tmp_path):
    models = tmp_path / "changed"
    shutil.copytree(mesh_dir / "instances", models)
    mesh = read_ply(models / "model_3.ply")
    vertices = mesh.vertices.copy()
    vertices[0] += 1e-3
    write_ply(models / "model_3.ply", mesh.with_vertices(vertices))
    return models


def _one_model_moved(mesh_dir, tmp_path):
    # model_2 is the second mesh here, the third in the training directory.
    models = tmp_path / "moved"
    models.mkdir()
    for name in ("model_0.ply", "model_2.ply"):
        shutil.copyfile(mesh_dir / "instances" / name, models / name)
    return models


class TestStoredFields:
    """gen-dataset reuses build-space's registration of a mesh exactly when it
    would register the same mesh, seed and stream salt again."""

    def gen(self, mesh_dir, space, models, out, seed=1):
        return main([
            "--seed", str(seed), "gen-dataset", "--space", str(space),
            "--canonical", str(mesh_dir / "canonical.ply"), "--models", str(models),
            "--views", "1", "--rhos", "0", "--res", "48x36", "--out", str(out),
        ])

    @pytest.mark.parametrize("make_models, seed, registered", [
        (_training_dir, 1, 0),
        (_training_dir, 2, 6),
        (_one_mesh_changed, 1, 1),
        (_one_model_moved, 1, 1),
    ], ids=["training-dir", "other-seed", "one-mesh-changed", "one-model-moved"])
    def test_registers_only_what_the_space_lacks(self, mesh_dir, space_path, tmp_path,
                                                  cpd_calls, make_models, seed, registered):
        models = make_models(mesh_dir, tmp_path)
        assert self.gen(mesh_dir, space_path, models, tmp_path / "kept", seed) == 0
        assert len(cpd_calls) == registered
        # The space without the member re-registers every model, to the same bytes.
        plain = without_fields(space_path, tmp_path / "plain.mfss")
        assert load_space(plain).fields == ()
        cpd_calls.clear()
        assert self.gen(mesh_dir, plain, models, tmp_path / "plain", seed) == 0
        assert len(cpd_calls) == len(list(models.glob("*.ply")))
        kept, again = sample_digests(tmp_path / "kept"), sample_digests(tmp_path / "plain")
        del kept["manifest.jsonl"], again["manifest.jsonl"]
        assert kept == again

    @pytest.mark.parametrize("key", ["cloud_leaf", "regularization"])
    def test_a_hand_edited_recipe_registers_every_model(self, mesh_dir, space_path, tmp_path,
                                                        cpd_calls, capsys, key):
        header, payload = space_path.read_bytes().split(b"\n", 1)
        meta = json.loads(header)
        meta["registration"][key] *= 1.5
        edited = tmp_path / "edited.mfss"
        edited.write_bytes(json.dumps(meta).encode() + b"\n" + payload)
        assert self.gen(mesh_dir, edited, mesh_dir / "instances", tmp_path / "out") == 0
        assert len(cpd_calls) == 6
        # An entry without its own recipe does not take the header's: the
        # space is refused before anything is registered or written.
        for entry in meta["fields"]:
            del entry["registration"]
        edited.write_bytes(json.dumps(meta).encode() + b"\n" + payload)
        cpd_calls.clear()
        capsys.readouterr()
        assert self.gen(mesh_dir, edited, mesh_dir / "instances", tmp_path / "old") == 1
        assert capsys.readouterr().err == (
            f"error: SpaceFileError: {edited}: fields[0] records no registration settings; "
            "rebuild the space with build-space\n")
        assert len(cpd_calls) == 0
        assert not (tmp_path / "old").exists()

    def test_reused_capped_fields_warn_as_re_registration_does(
            self, mesh_dir, category, tmp_path, monkeypatch, capsys, cpd_calls):
        monkeypatch.setattr(cli_module, "CpdConfig",
                            functools.partial(CpdConfig, max_iterations=1))
        space = tmp_path / "capped.mfss"
        assert main(["--seed", "1", "build-space", "--canonical", str(mesh_dir / "canonical.ply"),
                     "--instances", str(mesh_dir / "instances"), "--beta", str(category.beta),
                     "--latent", "2", "--out", str(space)]) == 0
        expected = [f"warning: registration of instance {i} hit the 1-iteration cap "
                    "without converging" for i in range(6)]
        assert capsys.readouterr().err.splitlines() == expected
        runs = []
        for name, path in (("kept", space), ("plain", without_fields(space, tmp_path / "p.mfss"))):
            cpd_calls.clear()
            code = self.gen(mesh_dir, path, mesh_dir / "instances", tmp_path / name)
            runs.append((code, capsys.readouterr().err, len(cpd_calls)))
        assert runs[0][1].splitlines() == expected
        assert [run[:2] for run in runs] == [runs[1][:2]] * 2
        assert [run[2] for run in runs] == [0, 6]

    def test_dataset_workload_corpus_is_the_same_without_them(self, tmp_path, monkeypatch,
                                                               cpd_calls):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        dataset = workloads.Dataset()
        ctx = dataset.setup(tmp_path, dataset.category(1))
        ((argv, items),) = dataset.commands(ctx)
        corpus = ctx["out"] / "corpus"
        runs = []
        for strip in (False, True):
            if strip:
                without_fields(ctx["space"], ctx["space"])
            cpd_calls.clear()
            assert workloads.cli(argv) == 0
            runs.append((len(cpd_calls), sample_digests(corpus)))
            shutil.rmtree(corpus)
        assert [count for count, _ in runs] == [0, 2]
        assert len(runs[0][1]) == 8 * items + 1
        assert runs[0][1] == runs[1][1]


def _one_point_inputs(category, root):
    """Meshes 5 m off the origin: a 10 m voxel leaf merges each into one point,
    too few for the target interpolation's affine tail."""
    instances = root / "instances"
    instances.mkdir()
    write_ply(root / "canonical.ply",
              category.canonical_mesh.with_vertices(category.canonical_mesh.vertices + 5.0))
    for index, mesh in enumerate(category.instance_meshes[:3]):
        write_ply(instances / f"m{index}.ply", mesh.with_vertices(mesh.vertices + 5.0))
    return instances


def test_one_point_canonical_cloud_ends_in_one_error_line(category, tmp_path, capsys, cpd_calls):
    instances = _one_point_inputs(category, tmp_path)
    space = tmp_path / "one.mfss"
    assert main(["build-space", "--canonical", str(tmp_path / "canonical.ply"),
                 "--instances", str(instances), "--beta", "0.1", "--latent", "1",
                 "--cloud-leaf", "10", "--out", str(space)]) == 1
    assert capsys.readouterr().err == (
        "error: ValidationError: canonical cloud of 1 point(s) at --cloud-leaf 10 admits no "
        "target interpolant: interpolation needs at least 4 canonical points, got 1\n")
    # Refused before any instance is registered, and nothing is written.
    assert cpd_calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["canonical.ply", "instances"]


@pytest.fixture(scope="module")
def one_point_space(category, tmp_path_factory):
    """A one-point space as build-space used to write it, saved with save_space."""
    root = tmp_path_factory.mktemp("one-point")
    instances = _one_point_inputs(category, root)
    registration = Registration(CpdConfig(0.1, 2.0, 0.0), 10.0, 8192)
    cloud = mesh_cloud(read_ply(root / "canonical.ply"), registration, 0, 0)
    assert len(cloud) == 1
    trained = register_instances(cloud, [read_ply(p) for p in sorted(instances.glob("*.ply"))],
                                 registration)
    save_space(space_from_fields(cloud, [t.field for t in trained], 0.1, 1, registration),
               root / "one.mfss")
    return root


ONE_POINT_RUNS = {
    "gen-dataset": "--models {inputs}/instances --views 1 --rhos 0 --out {out}/corpus",
    "register": "--observed {inputs}/instances/m0.ply --pose {pose} --out {out}/r.ply",
    "evaluate": "--instance {inputs}/instances/m0.ply --views 1 --out {out}/e.csv",
}


@pytest.mark.parametrize("command", ONE_POINT_RUNS)
def test_space_no_target_can_span_ends_in_one_error_line(command, one_point_space, pose_path,
                                                          tmp_path, capsys):
    args = ONE_POINT_RUNS[command].format(inputs=one_point_space, out=tmp_path,
                                          pose=pose_path).split()
    assert main([command, "--space", str(one_point_space / "one.mfss"),
                 "--canonical", str(one_point_space / "canonical.ply"), "--res", "48x36",
                 *args]) == 1
    assert capsys.readouterr().err == (
        "error: RasterizeError: interpolation needs at least 4 canonical points, got 1\n")
    # No file, and for gen-dataset no <out> directory either.
    assert list(tmp_path.iterdir()) == []


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
        view = look_at([0.07, -0.04, 0.6], focal=(103.125, 99.5),
                       principal_point=(50.0, 33.0), resolution=(96, 72))
        (record,) = generate_dataset(
            category.canonical_mesh, category.instance_meshes[:1], category.fields[:1],
            [view], [0.0], tmp_path / "data", seed=9,
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

    @pytest.mark.parametrize("field, value", [
        ("resolution", 5), ("resolution", ["a", "b"]), ("focal", "ab"),
        ("principal_point", [1]), ("translation", [0, 1]),
    ])
    def test_bad_field_names_the_file(self, tmp_path, field, value):
        pose = {"quaternion": [1, 0, 0, 0], "translation": [0, 0, 0.6], field: value}
        path = tmp_path / "odd_pose.json"
        path.write_text(json.dumps(pose))
        with pytest.raises(ValidationError, match="odd_pose.json"):
            _load_camera(path, (96, 72))

    @pytest.mark.parametrize("field, value", [
        ("focal", [0, 0]), ("focal", [-275, -275]), ("focal", [1e-300, 1e-300]),
        ("focal", [1e308, 1e308]), ("principal_point", [float("nan"), 36.0]),
    ])
    def test_degenerate_camera_ends_in_one_error_line(self, mesh_dir, space_path, pose_path,
                                                      tmp_path, capsys, field, value):
        pose = {**json.loads(pose_path.read_text()), field: value}
        path = tmp_path / "odd_pose.json"
        path.write_text(json.dumps(pose))
        out = tmp_path / "recon.ply"
        assert main(command_argv("register", mesh_dir, space_path, path, out)) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: ValidationError: pose file {path} is not a valid pose")
        assert not out.exists()


@pytest.fixture(scope="module")
def moved_canonical_space_path(space_path, tmp_path_factory):
    """The space with its canonical cloud scaled by 1.01 and all else kept."""
    header, payload = space_path.read_bytes().split(b"\n", 1)
    size = 24 * json.loads(header)["n"]
    moved = np.frombuffer(payload[:size], "<f8") * 1.01
    out = tmp_path_factory.mktemp("cli-moved") / "moved.mfss"
    out.write_bytes(header + b"\n" + moved.tobytes() + payload[size:])
    return out


class TestRegister:
    def run(self, mesh_dir, space_path, pose_path, out, seed=4, observed="observed.ply"):
        return main([
            "--seed", str(seed), "register", "--space", str(space_path),
            "--canonical", str(mesh_dir / "canonical.ply"),
            "--observed", str(mesh_dir / observed),
            "--pose", str(pose_path), "--res", "96x72",
            "--out", str(out),
        ])

    @pytest.mark.parametrize("space", ["space_path", "capped_space_path"])
    def test_equal_requests_register_once(self, space, mesh_dir, space_path, pose_path,
                                          tmp_path, request, capsys, cpd_calls, sample_calls):
        # The second request reuses the first's cloud, dense samples and
        # registration, warns as it did, and writes the bytes the first wrote.
        # space_path is a parameter so that its build-space registrations run
        # before cpd_calls counts, also when this test runs alone.
        space = request.getfixturevalue(space)
        errs = []
        for out in (tmp_path / "a.ply", tmp_path / "b.ply"):
            assert self.run(mesh_dir, space, pose_path, out) == 0
            errs.append(capsys.readouterr().err)
        assert cpd_calls == [1]
        assert len(sample_calls) == 3  # the cloud and the two meshes' dense samples
        assert errs[0] == errs[1]
        assert errs[0].count("warning: registration") == int(space.stem == "capped")
        for suffix in (".ply", ".latent.json"):
            a, b = (tmp_path / f"{name}{suffix}" for name in "ab")
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("key, value", [
        ("observed", "instances/model_0.ply"), ("seed", 5),
        ("space_path", "moved_canonical_space_path"), ("space_path", "capped_space_path"),
    ], ids=["observed", "seed", "canonical-cloud", "recipe"])
    def test_another_instance_or_space_registers_again(self, key, value, mesh_dir, space_path,
                                                       pose_path, tmp_path, request,
                                                       cpd_calls):
        inputs = {"mesh_dir": mesh_dir, "space_path": space_path, "pose_path": pose_path}
        assert self.run(**inputs, out=tmp_path / "a.ply") == 0
        if key == "space_path":
            value = request.getfixturevalue(value)
        assert self.run(**{**inputs, key: value}, out=tmp_path / "b.ply") == 0
        assert cpd_calls == [1, 1]

    def test_external_oracle_never_registers(self, mesh_dir, space_path, pose_path,
                                             tmp_path, cpd_calls, sample_calls):
        argv = ["--oracle", "external", "--oracle-cmd", FAILING_ORACLE]
        for _ in range(2):
            assert main(command_argv("register", mesh_dir, space_path, pose_path,
                                     tmp_path / "never.ply", *argv)) == 1
        assert cpd_calls == []
        assert len(sample_calls) == 3  # it reuses the cloud and the dense samples

    @pytest.mark.parametrize("change, draws, registrations", [
        ("seed", 6, [1, 1]), ("observed", 6, [1, 1]), ("canonical", 5, [1]),
    ], ids=["seed", "observed", "canonical"])
    def test_another_input_draws_again(self, change, draws, registrations, mesh_dir,
                                       space_path, pose_path, tmp_path, cpd_calls,
                                       sample_calls):
        # Another seed draws all three again; the observed file rewritten in
        # place with one vertex moved, the cloud and the samples; another
        # canonical mesh, only the samples, since the cloud and the
        # registration do not read it.
        meshes = tmp_path / "meshes"
        meshes.mkdir()
        for name in ("canonical.ply", "observed.ply"):
            shutil.copy(mesh_dir / name, meshes / name)
        assert self.run(meshes, space_path, pose_path, tmp_path / "a.ply") == 0
        seed = 4
        if change == "seed":
            seed = 5
        else:
            path = meshes / f"{change}.ply"
            mesh = read_ply(path)
            vertices = np.array(mesh.vertices)
            vertices[0] += 1e-3
            write_ply(path, mesh.with_vertices(vertices))
        assert self.run(meshes, space_path, pose_path, tmp_path / "b.ply", seed=seed) == 0
        assert len(sample_calls) == draws
        assert cpd_calls == registrations

    def test_farther_pose_draws_fewer_samples_and_keeps_the_registration(
            self, mesh_dir, space_path, pose_path, tmp_path, category, cpd_calls, sample_calls):
        near = _load_camera(pose_path, (96, 72))
        far = look_at(5.0 * near.position, focal=near.focal, resolution=(96, 72))
        near_count, far_count = (
            densify_count(category.canonical_mesh, [view], DENSIFY_PER_PIXEL, DENSIFY_MAX)
            for view in (near, far))
        assert near_count == DENSIFY_MAX > far_count
        far_path = tmp_path / "far.json"
        write_pose(far_path, far)
        for pose, out in ((pose_path, "a.ply"), (far_path, "b.ply")):
            assert self.run(mesh_dir, space_path, pose, tmp_path / out) == 0
        assert len(sample_calls) == 5  # the cloud once, the dense samples twice
        assert cpd_calls == [1]

    @pytest.mark.parametrize("failing", [1, 3], ids=["cloud", "dense"])
    def test_failed_draw_is_not_kept(self, failing, mesh_dir, space_path, pose_path,
                                     tmp_path, monkeypatch, cpd_calls, sample_calls, capsys):
        # Draw 1 is the observed cloud's, draw 3 the observed mesh's dense
        # samples: after either fails, the next request draws that part again.
        counted = dataset_module.sample_mesh_surface

        def fail_once(*args, **kwargs):
            if len(sample_calls) == failing - 1:
                sample_calls.append(1)
                raise ValidationError("draw failed")
            return counted(*args, **kwargs)

        monkeypatch.setattr(dataset_module, "sample_mesh_surface", fail_once)
        assert self.run(mesh_dir, space_path, pose_path, tmp_path / "a.ply") == 1
        assert capsys.readouterr().err == "error: ValidationError: draw failed\n"
        assert self.run(mesh_dir, space_path, pose_path, tmp_path / "b.ply") == 0
        assert len(sample_calls) == failing + {1: 3, 3: 2}[failing]
        assert cpd_calls == [1]

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

    def test_failed_oracle_says_why(self, mesh_dir, space_path, pose_path, tmp_path, capsys):
        code = main([
            "register", "--space", str(space_path),
            "--canonical", str(mesh_dir / "canonical.ply"),
            "--observed", str(mesh_dir / "observed.ply"),
            "--pose", str(pose_path), "--res", "96x72",
            "--oracle", "external", "--oracle-cmd", FAILING_ORACLE,
            "--out", str(tmp_path / "never.ply"),
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: OracleError: oracle command exited with 3: model weights missing"
        ]


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

    def test_every_view_failing_names_the_first_failure(self, mesh_dir, space_path, tmp_path,
                                                         capsys):
        code = main([
            "evaluate", "--space", str(space_path),
            "--canonical", str(mesh_dir / "canonical.ply"),
            "--instance", str(mesh_dir / "observed.ply"),
            "--views", "2", "--res", "96x72",
            "--oracle", "external", "--oracle-cmd", FAILING_ORACLE,
            "--out", str(tmp_path / "report.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: EvaluationError: every view failed for condition 'oracle-pipeline' "
            "(view 0: OracleError: oracle command exited with 3: model weights missing)"
        )
        assert list(tmp_path.iterdir()) == []


# An external oracle that explains its failure on stderr, after a line of noise.
FAILING_ORACLE = "sh -c 'echo loading >&2; echo model weights missing >&2; echo >&2; exit 3'"


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

    def test_coordinates_beyond_float32_exit_1_and_leave_nothing(self, space_path, tmp_path,
                                                                 capsys):
        code = main([
            "cross-register", "--space", str(space_path),
            "--latent-a", "1e300,0", "--latent-b", "0,0", "--out", str(tmp_path / "z"),
        ])
        assert code == 1
        assert "exceeds the float32 range" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("latent", ["nan,0", "0,inf", "0,1e999"])
    def test_non_finite_latent_exits_2(self, space_path, tmp_path, capsys, latent):
        with pytest.raises(SystemExit) as exc:
            main(["cross-register", "--space", str(space_path),
                  "--latent-a", latent, "--latent-b", "0,0", "--out", str(tmp_path / "z")])
        assert exc.value.code == 2
        assert f"latent code '{latent}' has non-finite entries" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_dimension_mismatch_exits_2(self, space_path, tmp_path, capsys):
        code = main([
            "cross-register", "--space", str(space_path),
            "--latent-a", "1,2,3", "--latent-b", "1,2",
            "--out", str(tmp_path / "bad"),
        ])
        assert code == 2


def command_argv(command, mesh_dir, space_path, pose_path, out, *extra):
    """A small run of ``command`` that writes to ``out``."""
    canonical, observed = mesh_dir / "canonical.ply", mesh_dir / "observed.ply"
    sweep = ["--space", space_path, "--canonical", canonical, "--instance", observed,
             "--views", "1", "--res", "96x72"]
    inputs = {
        "build-space": ["--canonical", canonical, "--instances", mesh_dir / "instances",
                        "--latent", "2"],
        "gen-dataset": ["--space", space_path, "--canonical", canonical,
                        "--models", mesh_dir / "instances", "--views", "1", "--rhos", "0",
                        "--res", "48x36"],
        "register": ["--space", space_path, "--canonical", canonical, "--observed", observed,
                     "--pose", pose_path, "--res", "96x72"],
        "evaluate": sweep,
        "pose-noise-eval": [*sweep, "--draws", "1"],
        "cross-register": ["--space", space_path, "--latent-a", "0.1,0", "--latent-b", "0,0"],
    }[command]
    return [command, *map(str, inputs), *map(str, extra), "--out", str(out)]


class TestOutputLocations:
    """Output locations are checked with the arguments: exit 2 before any work,
    one line each, and no file made."""

    @pytest.mark.parametrize("command", [
        "build-space", "register", "evaluate", "pose-noise-eval", "cross-register"])
    def test_out_in_a_missing_directory(self, command, mesh_dir, space_path, pose_path,
                                        tmp_path, capsys):
        out = tmp_path / "missing" / "out"
        assert main(command_argv(command, mesh_dir, space_path, pose_path, out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --out {str(out)!r}: {str(out.parent)!r} is not an existing directory"]
        assert list(tmp_path.iterdir()) == []

    def test_json_in_a_missing_directory(self, mesh_dir, space_path, pose_path, tmp_path,
                                         capsys):
        report = tmp_path / "missing" / "report.json"
        argv = command_argv("evaluate", mesh_dir, space_path, pose_path,
                            tmp_path / "report.csv", "--json", report)
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --json {str(report)!r}: {str(report.parent)!r} is not an existing directory"]
        assert list(tmp_path.iterdir()) == []

    def test_json_naming_the_out_file(self, mesh_dir, space_path, pose_path, tmp_path, capsys):
        same = f"{tmp_path}/./report.csv"
        argv = command_argv("evaluate", mesh_dir, space_path, pose_path,
                            tmp_path / "report.csv", "--json", same)
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --json {same!r} names the --out file"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["notes", "notes/corpus"])
    def test_gen_dataset_out_through_a_file(self, out, mesh_dir, space_path, pose_path,
                                            tmp_path, capsys):
        notes = tmp_path / "notes"
        notes.write_text("notes\n")
        argv = command_argv("gen-dataset", mesh_dir, space_path, pose_path, tmp_path / out)
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --out {str(tmp_path / out)!r}: {str(notes)!r} is not a directory"]
        assert list(tmp_path.iterdir()) == [notes]
        assert notes.read_text() == "notes\n"

    @pytest.mark.parametrize("command, out, taken", [
        ("register", "recon.ply", "recon.latent.json"),
        ("cross-register", "z", "z_b.ply"),
    ])
    def test_output_naming_a_directory(self, command, out, taken, mesh_dir, space_path,
                                       pose_path, tmp_path, capsys):
        (tmp_path / taken).mkdir()
        argv = command_argv(command, mesh_dir, space_path, pose_path, tmp_path / out)
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: output {str(tmp_path / taken)!r} is a directory"]
        assert list(tmp_path.iterdir()) == [tmp_path / taken]


def _no_space_left(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestAllOrNothing:
    """A command's outputs are committed together: after a failure each exists
    only under its .partial name."""

    def test_cross_register_failing_on_the_second_cloud(self, space_path, tmp_path, capsys):
        code = main(["cross-register", "--space", str(space_path), "--latent-a", "0,0",
                     "--latent-b", "1e300,0", "--out", str(tmp_path / "z")])
        assert code == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ValidationError: a coordinate of ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["z_a.ply.partial"]

    def test_register_failing_on_the_latent_file(self, mesh_dir, space_path, pose_path,
                                                 tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli_module, "json",
                            types.SimpleNamespace(loads=json.loads, dumps=_no_space_left))
        out = tmp_path / "recon.ply"
        assert main(command_argv("register", mesh_dir, space_path, pose_path, out)) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: MorphFitError: cannot write {tmp_path / 'recon.latent.json'}: "
            "No space left on device"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["recon.ply.partial"]

    def test_evaluate_failing_on_the_json_report(self, mesh_dir, space_path, pose_path,
                                                 tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli_module, "report_to_json", _no_space_left)
        argv = command_argv("evaluate", mesh_dir, space_path, pose_path,
                            tmp_path / "report.csv", "--json", tmp_path / "report.json")
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: MorphFitError: cannot write {tmp_path / 'report.json'}: "
            "No space left on device")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv.partial"]

    def test_os_error_at_commit_ends_in_one_line(self, mesh_dir, space_path, pose_path,
                                                 tmp_path):
        # A directory where the second cloud's partial file goes: the write
        # itself fails, after the first cloud is written.
        (tmp_path / "z_b.ply.partial").mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "morphfit", *command_argv(
                "cross-register", mesh_dir, space_path, pose_path, tmp_path / "z")],
            capture_output=True, text=True, timeout=120, env=package_env())
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: MorphFitError: cannot write {tmp_path / 'z_b.ply'}: Is a directory"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "z_a.ply.partial", "z_b.ply.partial"]


class TestSampleWrites:
    """gen-dataset writes its samples before it commits the manifest: a failed
    sample write ends in one line, exit 1, and no manifest."""

    def test_sample_directory_through_a_file(self, mesh_dir, space_path, pose_path, tmp_path):
        out = tmp_path / "corpus"
        out.mkdir()
        (out / "0").write_text("notes\n")
        proc = subprocess.run(
            [sys.executable, "-m", "morphfit",
             *command_argv("gen-dataset", mesh_dir, space_path, pose_path, out)],
            capture_output=True, text=True, timeout=120, env=package_env())
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert [line for line in proc.stderr.splitlines() if line.startswith("error:")] == [
            f"error: MorphFitError: cannot write {out / '0' / '0' / '0'}: Not a directory"]
        assert sorted(p.name for p in out.iterdir()) == ["0"]

    def test_full_disk_during_a_sample_write(self, mesh_dir, space_path, pose_path, tmp_path,
                                             monkeypatch, capsys):
        monkeypatch.setattr(dataset_module, "write_mask", _no_space_left)
        out = tmp_path / "corpus"
        assert main(command_argv("gen-dataset", mesh_dir, space_path, pose_path, out)) == 1
        assert [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("error:")] == [
            f"error: MorphFitError: cannot write {out / '0' / '0' / '0'}: "
            "No space left on device"]
        assert not (out / "manifest.jsonl").exists()


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


def _space_header(header):
    def make(tmp_path, flags):
        payload = Path(flags["--space"]).read_bytes().split(b"\n", 1)[1]
        (tmp_path / "bad.mfss").write_bytes(header + b"\n" + payload)
        return {"--space": tmp_path / "bad.mfss"}
    return make


def _latent_file(content):
    def make(tmp_path, flags):
        path = tmp_path / "latent.json"
        if content is not None:
            path.write_text(content)
        return {"--latent-a": "@" + str(path)}
    return make


def _seed(value):
    return lambda tmp_path, flags: {"--seed": value}


@pytest.mark.parametrize("command, make_inputs, code", [
    ("register", _seed(-1), 2),
    ("register", _seed(2**32), 2),
    ("register", _malformed_pose, 1),
    ("register", _malformed_ply, 1),
    ("register", _space_without_registration, 1),
    ("cross-register", _space_header(b"[1, 2]"), 1),
    ("cross-register", _space_header(b'"MFSS1"'), 1),
    ("cross-register", _latent_file(None), 2),
    ("cross-register", _latent_file("{not json"), 2),
    ("cross-register", _latent_file('{"residual": 0.5}'), 2),
    ("cross-register", _latent_file('{"latent": 0.5}'), 2),
], ids=["negative-seed", "seed-two-words", "pose-json", "ply-vertex-row",
        "space-no-registration", "space-header-list", "space-header-string", "latent-missing",
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
    argv = ["--seed", str(flags.pop("--seed", 0)), command]
    argv += [str(item) for pair in flags.items() for item in pair]
    proc = subprocess.run([sys.executable, "-m", "morphfit", *argv], capture_output=True,
                          text=True, timeout=120, env=package_env())
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    # Runtime errors print one line; argparse prints its usage line first.
    lines = proc.stderr.strip().splitlines()
    assert "error:" in lines[-1], proc.stderr
    assert code == 2 or len(lines) == 1, proc.stderr


ESCAPES = {
    "splat-radius": ("register", ["--splat-radius", "1000000"], 2,
                     "error: --splat-radius must be in [0, 32], got 1000000"),
    "dense-count": ("build-space", ["--dense-count", "100000000000"], 2,
                    "error: --dense-count must be in [1, 1048576], got 100000000000"),
    "views": ("evaluate", ["--views", "1000000000000"], 2,
              "error: --views must be in [1, 1024], got 1000000000000"),
    "noise-sigma": ("register", ["--oracle", "gt", "--noise-sigma", "0.5"], 2,
                    "error: --noise-sigma 0.5 needs --oracle noisy, got --oracle gt"),
    "oracle-cmd": ("register", ["--oracle-cmd", "false"], 2,
                   "error: --oracle-cmd needs --oracle external, got --oracle gt"),
    "scale": ("gen-dataset", ["--scale", "1e308"], 1,
              "error: ValidationError: a value of "),
    "rhos": ("gen-dataset", ["--rhos", "0.25,0.2500001"], 2,
             "error: --rhos 0.25 and 0.2500001 both name sample directory '0.25'"),
}


@pytest.mark.parametrize("case", ESCAPES)
def test_refused_argument_ends_in_one_error_line(case, mesh_dir, space_path, pose_path,
                                                 tmp_path):
    """Arguments that would exhaust memory, that the run would ignore, or that scale
    a target beyond float32: one error line, and no output or partial file."""
    command, flags, code, line = ESCAPES[case]
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "morphfit",
         *command_argv(command, mesh_dir, space_path, pose_path, out, *flags)],
        capture_output=True, text=True, timeout=120, env=package_env())
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    errors = [text for text in proc.stderr.splitlines() if text.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(line), proc.stderr
    if case == "scale":
        assert errors[0].endswith(
            f" exceeds the float32 range of tensor {out / '0' / '0' / '0' / 'target.f32'}")
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


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
        # The entry point that sets the BLAS thread policy, not cli.main.
        assert target == "morphfit.__main__:main"
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


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

RECORDING_ORACLE = """\
import json, os, sys
from pathlib import Path

Path(sys.argv[1]).write_text(json.dumps({name: os.environ.get(name) for name in %r}))
tmp = Path(sys.argv[2])
req = json.loads((tmp / "request.json").read_text())
w, h = req["resolution"]
(tmp / req["output"]).write_bytes(bytes(4 * 3 * w * h))
(tmp / (req["output"] + ".json")).write_text(
    json.dumps({"shape": [h, w, 3], "dtype": "f32", "semantic": "prediction"}) + "\\n"
)
""" % (THREAD_VARIABLES,)


def run_python(args, **threads):
    """A child interpreter with the BLAS thread variables set to ``threads`` only."""
    env = {k: v for k, v in package_env().items() if k not in THREAD_VARIABLES}
    proc = subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          timeout=300, env={**env, **threads})
    assert proc.returncode == 0, proc.stderr
    return proc


class TestBlasThreadPolicy:
    def test_outputs_do_not_depend_on_the_thread_count(self, mesh_dir, category, tmp_path):
        digests = {}
        for label, threads in (("default", {}), ("pinned", dict.fromkeys(THREAD_VARIABLES, "1"))):
            out = tmp_path / label
            out.mkdir()
            run_python(["-m", "morphfit", "--seed", "1", "build-space",
                        "--canonical", mesh_dir / "canonical.ply",
                        "--instances", mesh_dir / "instances", "--beta", category.beta,
                        "--latent", "2", "--out", out / "space.mfss"], **threads)
            run_python(["-m", "morphfit", "--seed", "1", "evaluate", "--space", out / "space.mfss",
                        "--canonical", mesh_dir / "canonical.ply",
                        "--instance", mesh_dir / "observed.ply", "--views", "4",
                        "--res", "96x72", "--out", out / "report.csv",
                        "--json", out / "report.json"], **threads)
            digests[label] = {path.name: hashlib.sha1(path.read_bytes()).hexdigest()
                              for path in sorted(out.iterdir())}
        assert len(digests["default"]) == 3
        assert digests["default"] == digests["pinned"]

    @pytest.mark.parametrize("threads", [{}, {"OMP_NUM_THREADS": "2"}], ids=["unset", "user-set"])
    def test_external_oracle_sees_the_starting_environment(self, threads, mesh_dir, space_path,
                                                           pose_path, tmp_path):
        script = tmp_path / "oracle.py"
        script.write_text(RECORDING_ORACLE)
        seen = tmp_path / "seen.json"
        run_python(["-m", "morphfit", "register", "--space", space_path,
                    "--canonical", mesh_dir / "canonical.ply",
                    "--observed", mesh_dir / "observed.ply", "--pose", pose_path,
                    "--res", "96x72", "--oracle", "external",
                    "--oracle-cmd", f"{sys.executable} {script} {seen}",
                    "--out", tmp_path / "recon.ply"], **threads)
        assert json.loads(seen.read_text()) == {name: threads.get(name)
                                                for name in THREAD_VARIABLES}

    @pytest.mark.parametrize("threads, expected", [
        ({}, dict.fromkeys(THREAD_VARIABLES, "1")),
        ({"OMP_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2",
                                    "MKL_NUM_THREADS": None}),
    ], ids=["unset", "user-set"])
    def test_entry_point_pins_only_when_no_variable_is_set(self, threads, expected):
        # Setting the unset ones would override the user's choice: OpenBLAS
        # reads OPENBLAS_NUM_THREADS before OMP_NUM_THREADS.
        code = ("import json, os, sys\n"
                "from morphfit.__main__ import main\n"
                "assert main(['--seed', '-1', 'cross-register', '--space', 'x', '--latent-a', '0',"
                " '--latent-b', '0', '--out', 'y']) == 2\n"
                f"print(json.dumps({{name: os.environ.get(name) for name in {THREAD_VARIABLES!r}}}))\n")
        assert json.loads(run_python(["-c", code], **threads).stdout) == expected

    def test_a_process_with_numpy_loaded_keeps_its_environment(self, monkeypatch, space_path):
        from morphfit import __main__ as entry, oracle

        for name in THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        code = entry.main(["--seed", "-1", "cross-register", "--space", str(space_path),
                           "--latent-a", "0,0", "--latent-b", "0,0", "--out", "pair"])
        assert code == 2
        assert not set(THREAD_VARIABLES) & set(os.environ)
        assert oracle.CHILD_ENV is None
