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


def test_build_space_never_loads_scipy_interpolate(category, tmp_path):
    instances = tmp_path / "instances"
    instances.mkdir()
    write_ply(tmp_path / "canonical.ply", category.canonical_mesh)
    for index, mesh in enumerate(category.instance_meshes[:3]):
        write_ply(instances / f"m{index}.ply", mesh)
    code = (
        "import sys\n"
        "from morphfit.__main__ import main\n"
        "status = main(sys.argv[1:])\n"
        "print(status, 'scipy.interpolate' in sys.modules)\n"
    )
    out = run_python(code, "build-space", "--canonical", tmp_path / "canonical.ply",
                     "--instances", instances, "--beta", category.beta, "--latent", "1",
                     "--out", tmp_path / "space.mfss")
    assert out[-2:] == ["0", "False"]
