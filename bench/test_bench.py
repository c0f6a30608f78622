"""Self-tests of the benchmark: its readers and its correctness checks.

    PYTHONPATH=src python3 -m pytest -q bench

The readers must read what the program writes, and every check must
reject a deliberately wrong output.
"""
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402
from formats import read_pgm, read_ply, read_space, read_tensor  # noqa: E402
from inputs import Category, icosphere, write_ply  # noqa: E402
from morphfit import Mesh, PointCloud, ShapeSpace, save_space  # noqa: E402
from morphfit import io as mio  # noqa: E402


@pytest.fixture(scope="module")
def category():
    return Category.from_seed(3)


@pytest.fixture(scope="module")
def space_ctx(tmp_path_factory):
    """Inputs, a space and one gen-dataset round, as the dataset workload makes them."""
    dataset = workloads.Dataset()
    ctx = dataset.setup(tmp_path_factory.mktemp("dataset"), dataset.category(3))
    run_commands(dataset, ctx)
    return ctx


def run_commands(workload, ctx):
    for argv, _ in workload.commands(ctx):
        assert workloads.cli(argv) == 0


def test_readers_read_program_files(tmp_path):
    unit, faces = icosphere(1)
    mio.write_ply(tmp_path / "m.ply", Mesh(unit, faces))
    vertices, read_faces = read_ply(tmp_path / "m.ply")
    np.testing.assert_allclose(vertices, unit, atol=1e-8)
    np.testing.assert_array_equal(read_faces, faces)

    image = np.random.default_rng(0).normal(size=(5, 7, 3))
    mio.write_tensor(tmp_path / "t.f32", image, "test")
    np.testing.assert_array_equal(read_tensor(tmp_path / "t.f32"), image.astype("<f4"))

    mask = np.random.default_rng(1).random((5, 7)) > 0.5
    mio.write_mask(tmp_path / "m.pgm", mask)
    np.testing.assert_array_equal(read_pgm(tmp_path / "m.pgm"), mask)

    basis = np.linalg.qr(np.random.default_rng(2).normal(size=(3 * len(unit), 2)))[0]
    space = ShapeSpace(PointCloud(unit), 0.3, np.arange(3.0 * len(unit)), basis, 2)
    save_space(space, tmp_path / "s.mfss")
    read = read_space(tmp_path / "s.mfss")
    assert read["beta"] == 0.3 and read["latent_dim"] == 2
    np.testing.assert_array_equal(read["canonical"], unit)
    np.testing.assert_array_equal(read["mean"], space.mean)
    np.testing.assert_array_equal(read["basis"], basis)


def test_build_check_rejects_a_space_without_the_deformations(tmp_path, category):
    build = workloads.Build()
    ctx = build.setup(tmp_path, category)
    run_commands(build, ctx)
    assert build.check(ctx, category)[0] == []

    good = read_space(ctx["out"] / "space.mfss")
    n3 = good["mean"].size
    empty = ShapeSpace(PointCloud(good["canonical"]), good["beta"], np.zeros(n3),
                       np.eye(n3)[:, :workloads.LATENT], workloads.LATENT)
    save_space(empty, ctx["out"] / "space.mfss")
    assert any("fits training instances" in p for p in build.check(ctx, category)[0])


def test_dataset_check_accepts_real_output_and_rejects_wrong_ones(space_ctx):
    dataset = workloads.Dataset()
    category = dataset.category(3)
    problems, error, baseline = dataset.check(space_ctx, category)
    assert problems == [] and 0 < error < baseline

    corpus = space_ctx["out"] / "corpus"
    target = corpus / "0" / "0" / "1" / "target.f32"
    original = target.read_bytes()
    target.write_bytes((np.frombuffer(original, "<f4") * 2).astype("<f4").tobytes())
    assert any("rho=0 target leaves" in p for p in dataset.check(space_ctx, category)[0])
    target.write_bytes(original)

    obs = corpus / "1" / "0.5" / "2" / "obs.pos.f32"
    obs.rename(obs.with_suffix(".moved"))
    assert any("lacks files" in p for p in dataset.check(space_ctx, category)[0])
    obs.with_suffix(".moved").rename(obs)

    manifest = corpus / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines[:-1]) + "\n")
    assert any("missing from the manifest" in p for p in dataset.check(space_ctx, category)[0])
    manifest.write_text("\n".join(lines) + "\n")
    assert dataset.check(space_ctx, category)[0] == []


def test_register_check_rejects_the_canonical_mesh(tmp_path, category):
    register = workloads.Register()
    ctx = register.setup(tmp_path, category)
    ctx["poses"] = ctx["poses"][:1]
    run_commands(register, ctx)
    assert register.check(ctx, category)[0] == []

    write_ply(ctx["out"] / "pose_00.ply", *category.mesh())
    assert any("not below" in p for p in register.check(ctx, category)[0])


def test_evaluate_check_rejects_failed_views_and_a_losing_pipeline(space_ctx):
    evaluate = workloads.Evaluate()
    category = evaluate.category(3)
    run_commands(evaluate, space_ctx)
    problems, pipeline, raw = evaluate.check(space_ctx, category)
    assert problems == [] and pipeline < raw

    report = space_ctx["out"] / "report.json"
    rows = json.loads(report.read_text())
    rows[0]["failed_views"] = 1
    report.write_text(json.dumps(rows))
    assert any("not every view" in p for p in evaluate.check(space_ctx, category)[0])
    rows[0]["failed_views"] = 0
    rows[0]["mean"] = 1.0
    report.write_text(json.dumps(rows))
    problems = evaluate.check(space_ctx, category)[0]
    assert any("not below both baselines" in p for p in problems)


def test_traced_layers_add_up_to_the_traced_wall_time(space_ctx):
    import morphfit.cli
    import morphfit.cpd

    originals = morphfit.cpd.e_step, morphfit.cli.main
    argv = ["evaluate", "--space", space_ctx["space"], "--canonical", space_ctx["canonical"],
            "--instance", space_ctx["held_out"] / "held_01.ply", "--views", "2",
            "--res", "64x48", "--out", space_ctx["out"] / "small.csv"]
    with spans.Tracer() as tracer:
        assert morphfit.cpd.e_step is not originals[0]
        t0 = time.perf_counter()
        assert workloads.cli(argv) == 0
        wall_ms = (time.perf_counter() - t0) * 1e3
    assert (morphfit.cpd.e_step, morphfit.cli.main) == originals
    metrics = tracer.metrics(wall_ms, 2)
    layers = sum(metrics[name] for name in spans.SELF_METRICS) + metrics["trace.uncovered_ms"]
    assert layers == pytest.approx(metrics["trace.wall_ms"], rel=1e-9)
    assert metrics["cpd.calls"] == 1.5 and metrics["cpd.iterations"] > 0
    assert metrics["imaging.rasterize_pixels"] > 0 and metrics["evaluation.error_ms"] > 0
