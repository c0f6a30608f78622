import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import morphfit
from morphfit import write_ply

PACKAGE_ROOT = str(Path(morphfit.__file__).resolve().parents[1])


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": PACKAGE_ROOT})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestLazyExports:
    def test_every_export_resolves_and_is_listed(self):
        listing = dir(morphfit)
        for name in morphfit.__all__:
            assert getattr(morphfit, name) is not None
            assert name in listing

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            morphfit.no_such_name

    def test_submodule_import_still_returns_the_module(self):
        from morphfit import io

        assert io.__name__ == "morphfit.io"
        assert io.read_ply is morphfit.read_ply

    def test_importing_the_package_loads_no_numpy(self):
        assert run_python("import sys, morphfit, morphfit.__main__; "
                          "print('numpy' in sys.modules)") == ["False"]


# Runs the command line in a fresh interpreter; prints its status and
# whether scipy.interpolate was loaded.
RUN_MAIN = (
    "import sys\n"
    "from morphfit.__main__ import main\n"
    "status = main(sys.argv[1:])\n"
    "print(status, 'scipy.interpolate' in sys.modules)\n"
)


def _write_inputs(category, root):
    instances = root / "instances"
    instances.mkdir()
    write_ply(root / "canonical.ply", category.canonical_mesh)
    for index, mesh in enumerate(category.instance_meshes[:3]):
        write_ply(instances / f"m{index}.ply", mesh)
    return instances


def test_build_space_never_loads_scipy_interpolate(category, tmp_path):
    instances = _write_inputs(category, tmp_path)
    out = run_python(RUN_MAIN, "build-space", "--canonical", tmp_path / "canonical.ply",
                     "--instances", instances, "--beta", category.beta, "--latent", "1",
                     "--out", tmp_path / "space.mfss")
    assert out[-2:] == ["0", "False"]


@pytest.fixture(scope="module")
def built_space(category, tmp_path_factory):
    """Inputs and a space file for the commands that rasterize targets."""
    from morphfit import look_at, rotation_to_quaternion
    from morphfit.cli import main

    root = tmp_path_factory.mktemp("rasterizing")
    instances = _write_inputs(category, root)
    write_ply(root / "held_out.ply", category.held_out()[0])
    view = look_at([0.07, -0.04, 0.6], focal=(51.5, 51.5), resolution=(48, 36))
    (root / "pose.json").write_text(json.dumps({
        "quaternion": rotation_to_quaternion(view.rotation).tolist(),
        "translation": view.translation.tolist(),
        "focal": list(view.focal),
        "resolution": list(view.resolution),
    }))
    assert main(["build-space", "--canonical", str(root / "canonical.ply"),
                 "--instances", str(instances), "--beta", str(category.beta),
                 "--latent", "1", "--out", str(root / "space.mfss")]) == 0
    return root


RASTERIZING = {
    "gen-dataset": "--models {inputs}/instances --rhos 0 --views 2 --out {out}/corpus",
    "register": "--observed {inputs}/held_out.ply --pose {inputs}/pose.json --out {out}/r.ply",
    "evaluate": "--instance {inputs}/held_out.ply --views 2 --out {out}/e.csv",
    "pose-noise-eval": "--instance {inputs}/held_out.ply --views 2 --draws 1 --out {out}/p.csv",
}


@pytest.mark.parametrize("command", RASTERIZING)
def test_rasterizing_commands_never_load_scipy_interpolate(built_space, tmp_path, command):
    args = RASTERIZING[command].format(inputs=built_space, out=tmp_path).split()
    out = run_python(RUN_MAIN, command, "--space", built_space / "space.mfss",
                     "--canonical", built_space / "canonical.ply", "--res", "48x36", *args)
    assert out[-2:] == ["0", "False"]


def test_only_io_names_partial_files():
    """io.commit is the one place that spells the ``.partial`` suffix; docstrings
    may describe it."""
    offenders = []
    for source in sorted(Path(morphfit.__file__).parent.rglob("*.py")):
        if source.name == "io.py":
            continue
        tree = ast.parse(source.read_text())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        offenders += [f"{source.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and ".partial" in node.value and id(node) not in docstrings]
    assert offenders == []


def test_only_geometry_seeds_streams():
    """geometry.stream is the one place that builds a SeedSequence or a
    generator; every other draw asks it for a named stream."""
    offenders = []
    for source in sorted(Path(morphfit.__file__).parent.rglob("*.py")):
        tree = ast.parse(source.read_text())
        if source.name == "geometry.py":
            tree.body = [node for node in tree.body if getattr(node, "name", None) != "stream"]
        offenders += [f"{source.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Name) and node.id in ("SeedSequence", "default_rng")
                      or isinstance(node, ast.Attribute)
                      and node.attr in ("SeedSequence", "default_rng")]
    assert offenders == []


def test_only_geometry_forms_gaussian_kernels():
    """geometry owns the Gaussian kernel: every other module reads the one it
    keeps, apart from interpolate_instance's per-instance kernel, which would
    only evict the canonical one if it were kept."""
    offenders = []
    for source in sorted(Path(morphfit.__file__).parent.rglob("*.py")):
        if source.name == "geometry.py":
            continue
        tree = ast.parse(source.read_text())
        if source.name == "dataset.py":
            tree.body = [node for node in tree.body
                         if getattr(node, "name", None) != "interpolate_instance"]
        offenders += [f"{source.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and "gaussian_kernel" in (
                          getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert offenders == []


def test_only_imaging_rasterizes_targets():
    """imaging.zoom is the one builder of the oracle's sample, so training samples
    and inference inputs are made the same way: no other module rasterizes a target."""
    offenders = []
    for source in sorted(Path(morphfit.__file__).parent.rglob("*.py")):
        if source.name == "imaging.py":
            continue
        tree = ast.parse(source.read_text())
        offenders += [f"{source.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and "rasterize_target" in (
                          getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert offenders == []


def test_each_pipeline_default_is_one_constant():
    """The image size, splat radius and focal rule are each decided once: every
    signature default and command-line default for them is that constant."""
    from morphfit import cli, geometry, imaging

    constants = {
        "resolution": geometry.DEFAULT_VIEW_RESOLUTION,
        "zoom_resolution": geometry.DEFAULT_VIEW_RESOLUTION,
        "target_resolution": geometry.DEFAULT_VIEW_RESOLUTION,
        "focal": geometry.DEFAULT_FOCAL,
        "splat_radius": imaging.DEFAULT_SPLAT_RADIUS,
    }
    checked, drifted = set(), []
    for source in sorted(Path(morphfit.__file__).parent.glob("[!_]*.py")):
        module = importlib.import_module(f"morphfit.{source.stem}")
        for name, obj in vars(module).items():
            if not (inspect.isfunction(obj) or inspect.isclass(obj)) \
                    or obj.__module__ != module.__name__:
                continue
            try:
                parameters = inspect.signature(obj).parameters.values()
            except (TypeError, ValueError):  # a class without an inspectable signature
                continue
            for param in parameters:
                if param.name in constants and param.default is not param.empty:
                    checked.add(f"{name}.{param.name}")
                    if param.default != constants[param.name]:
                        drifted.append(f"{name}.{param.name} = {param.default!r}")
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    for command, parser in sub.choices.items():
        for action in parser._actions:
            flag = {"res": "resolution", "splat_radius": "splat_radius"}.get(action.dest)
            if flag is not None:
                checked.add(f"{command} {action.option_strings[0]}")
                if action.default != constants[flag]:
                    drifted.append(f"{command} {action.option_strings[0]} = {action.default!r}")
    assert drifted == []
    # The focal rule: one ratio, which the camera default and the command line share.
    assert cli.FOCAL_PER_WIDTH is geometry.FOCAL_PER_WIDTH
    assert geometry.DEFAULT_FOCAL == (geometry.FOCAL_PER_WIDTH * 256,) * 2 == (275.0, 275.0)
    # Every copy the guard is meant to see was seen.
    expected = {"CameraView.focal", "CameraView.resolution", "zoom.target_resolution",
                "splat_position_image.splat_radius"}
    expected |= {f"{fn}.{name}" for fn in ("complete_view", "pose_noise_experiment",
                                           "generate_dataset")
                 for name in ("zoom_resolution", "splat_radius")}
    expected |= {f"{command} {flag}" for command in ("gen-dataset", "register", "evaluate",
                                                     "pose-noise-eval")
                 for flag in ("--res", "--splat-radius")}
    assert checked == expected


def test_densify_recipe_is_read_in_one_place():
    """The densify recipe is two constants that densify_count reads at call time:
    no function or class takes it as a parameter, and no other code reads them."""
    recipe = {"DENSIFY_PER_PIXEL", "DENSIFY_MAX"}
    parameters = {"densify_per_pixel", "densify_max", "per_pixel", "max_points"}
    taking, readers = [], set()
    for source in sorted(Path(morphfit.__file__).parent.rglob("*.py")):
        tree = ast.parse(source.read_text())
        taking += [f"{source.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.arg) and node.arg in parameters
                   or isinstance(node, ast.AnnAssign)
                   and getattr(node.target, "id", None) in parameters]
        for top in tree.body:
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias) else None)
                if name in recipe:
                    readers.add(f"{source.stem}.{getattr(top, 'name', top.lineno)}")
    assert taking == []
    assert readers == {"dataset.densify_count"}


def test_each_numeric_flag_has_one_rule():
    """Every int or float option of the command line is checked by exactly one row of
    ``cli.NUMERIC_RULES``, every row names an option that some command has, and the
    bounded rows read the constants the library checks."""
    from morphfit import cli, geometry, imaging

    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    numeric = {(action.dest, action.option_strings[0])
               for p in (parser, *sub.choices.values()) for action in p._actions
               if action.type in (int, float)}
    rows = [(dest, flag) for dest, flag, _, _ in cli.NUMERIC_RULES]
    assert len({dest for dest, _ in rows}) == len(rows)
    assert set(rows) == numeric
    tests = {dest: test for dest, _, _, test in cli.NUMERIC_RULES}
    for dest, bound in (("seed", geometry.MAX_SEED),
                        ("splat_radius", imaging.MAX_SPLAT_RADIUS),
                        ("dense_count", geometry.MAX_SURFACE_SAMPLES),
                        ("views", geometry.MAX_VIEWS)):
        assert tests[dest](bound) and not tests[dest](bound + 1)
