import csv
import dataclasses
import json
import re
import sys

import numpy as np
import pytest

from helpers import densify_recipe, per_pixel_target

from morphfit import (
    CpdConfig,
    EmptyRenderError,
    EvalRow,
    EvaluationError,
    OracleSpec,
    PointCloud,
    RasterizeError,
    ValidationError,
    gaussian_kernel,
    pose_noise_experiment,
    registration_error,
    report_to_csv,
    report_to_json,
    viewpoint_sphere,
)
from morphfit import evaluation as evaluation_module
from morphfit import geometry, imaging
from morphfit.evaluation import (
    COND_CANONICAL,
    COND_PIPELINE,
    COND_RAW_CPD,
    POSE_NOISE_CONDITIONS,
    complete_view,
    prepare_instance,
)
from morphfit.imaging import PositionImage, splat_position_image, target_field

FAST = dict(zoom_resolution=(96, 72))
# Every test densifies by the small-render recipe; the module- and
# class-scoped fixtures set it themselves.
pytestmark = pytest.mark.usefixtures("densify")


class TestRegistrationError:
    def test_identical_clouds_zero(self):
        cloud = np.random.default_rng(0).normal(size=(40, 3))
        assert registration_error(cloud, cloud) == 0.0

    def test_unit_offset_single_point(self):
        assert registration_error([(1.0, 0.0, 0.0)], [(0.0, 0.0, 0.0)]) == 1.0

    def test_subset_query_zero(self):
        reference = np.random.default_rng(1).normal(size=(30, 3))
        assert registration_error(reference[:7], reference) == 0.0

    def test_asymmetric(self):
        a = [(0.0, 0.0, 0.0)]
        b = [(0.0, 0.0, 0.0), (10.0, 0.0, 0.0)]
        assert registration_error(a, b) == 0.0
        assert registration_error(b, a) == 50.0

    def test_quadratic_in_scale(self):
        rng = np.random.default_rng(2)
        q, r = rng.normal(size=(25, 3)), rng.normal(size=(35, 3))
        base = registration_error(q, r)
        np.testing.assert_allclose(registration_error(3.0 * q, 3.0 * r), 9.0 * base, rtol=1e-12)

    def test_accepts_point_clouds(self):
        pts = np.random.default_rng(3).normal(size=(12, 3))
        assert registration_error(PointCloud(pts), pts) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            registration_error(np.empty((0, 3)), [(0.0, 0.0, 0.0)])


class TestEvalRow:
    def test_population_stats(self):
        row = EvalRow("x", COND_PIPELINE, (1.0, 2.0, 3.0, 4.0))
        assert row.n_views == 4
        assert row.mean == 2.5
        np.testing.assert_allclose(row.std, np.std([1, 2, 3, 4]))

    def test_failure_flag_threshold(self):
        # 1 of 20 is exactly 5%, not over it.
        assert not EvalRow("x", COND_PIPELINE, (0.0,) * 19, failed=1).flagged
        assert EvalRow("x", COND_PIPELINE, (0.0,) * 18, failed=2).flagged


@pytest.fixture(scope="module")
def few_views():
    return viewpoint_sphere(4, 0.6, focal=(103.125, 103.125), resolution=(96, 72))


@pytest.fixture(scope="module")
def held_out(category):
    mesh, cloud, _ = category.held_out()
    return mesh, cloud


@pytest.fixture(scope="module")
def gt_rows(category, held_out, few_views):
    mesh, cloud = held_out
    with densify_recipe():
        return pose_noise_experiment(
            category.space, mesh, cloud, few_views, OracleSpec("ground_truth"),
            category.canonical_mesh, instance_label="held-out", seed=3, **FAST,
        )


def test_canonical_kernel_formed_once_per_sweep(category, held_out, few_views, monkeypatch):
    # The registration, its target field, the kernel products, and each view's
    # warps and raw-CPD baseline all read one kept canonical kernel: the sweep
    # forms it once, not per view or draw.
    canonical = category.space.canonical.points
    formed = []

    def counted(queries, anchors, beta):
        formed.append(all(np.array_equal(getattr(points, "points", points), canonical)
                          for points in (queries, anchors)))
        return gaussian_kernel(queries, anchors, beta)

    monkeypatch.setattr(geometry, "gaussian_kernel", counted)
    mesh, cloud = held_out
    rows = pose_noise_experiment(
        category.space, mesh, cloud, few_views, OracleSpec("ground_truth"),
        category.canonical_mesh, 0.02, draws=2, instance_label="held-out", seed=3, **FAST,
    )
    assert [row.condition for row in rows] == [COND_PIPELINE, COND_RAW_CPD, COND_CANONICAL]
    assert all(row.failed == 0 for row in rows)
    assert formed == [True]


class TestEvaluateInstance:
    """The plain sweep: ``pose_noise_experiment`` at its defaults, as ``evaluate`` runs it."""

    def test_all_conditions_reported(self, gt_rows, few_views):
        assert [row.condition for row in gt_rows] == [
            COND_PIPELINE, COND_RAW_CPD, COND_CANONICAL,
        ]
        for row in gt_rows:
            assert row.instance == "held-out"
            assert row.n_views == len(few_views)
            assert row.failed == 0
            assert row.capped == 0
            assert all(np.isfinite(e) for e in row.errors)

    def test_pipeline_beats_canonical_baseline(self, gt_rows):
        by = {row.condition: row for row in gt_rows}
        assert by[COND_PIPELINE].mean < by[COND_CANONICAL].mean

    def test_canonical_row_is_constant(self, gt_rows):
        row = next(r for r in gt_rows if r.condition == COND_CANONICAL)
        assert len(set(row.errors)) == 1
        assert row.std == 0.0

    def test_deterministic(self, category, held_out, few_views, gt_rows):
        mesh, cloud = held_out
        again = pose_noise_experiment(
            category.space, mesh, cloud, few_views, OracleSpec("ground_truth"),
            category.canonical_mesh, instance_label="held-out", seed=3, **FAST,
        )
        assert again == gt_rows

    def test_noise_does_not_help(self, category, held_out, few_views, gt_rows):
        mesh, cloud = held_out
        noisy_rows = pose_noise_experiment(
            category.space, mesh, cloud, few_views,
            OracleSpec("noisy", noise_sigma=0.01),
            category.canonical_mesh, instance_label="held-out", seed=3, **FAST,
        )
        noisy = next(r for r in noisy_rows if r.condition == COND_PIPELINE)
        clean = next(r for r in gt_rows if r.condition == COND_PIPELINE)
        assert noisy.mean >= clean.mean

    def test_unknown_condition_rejected(self, category, held_out, few_views):
        mesh, cloud = held_out
        with pytest.raises(ValidationError):
            pose_noise_experiment(
                category.space, mesh, cloud, few_views, OracleSpec("ground_truth"),
                category.canonical_mesh, conditions=("nearest-neighbor",), **FAST,
            )

    def test_no_views_rejected(self, category, held_out):
        mesh, cloud = held_out
        with pytest.raises(ValidationError):
            pose_noise_experiment(
                category.space, mesh, cloud, [], OracleSpec("ground_truth"),
                category.canonical_mesh, **FAST,
            )

    def test_capped_baseline_views_are_reported(self, category, held_out, few_views,
                                                tmp_path, capsys):
        mesh, cloud = held_out
        capped = dataclasses.replace(
            category.registration, cpd=CpdConfig(beta=category.beta, max_iterations=1)
        )
        space = dataclasses.replace(category.space, registration=capped)
        rows = pose_noise_experiment(
            space, mesh, cloud, few_views, OracleSpec("ground_truth"),
            category.canonical_mesh, conditions=(COND_RAW_CPD,), **FAST,
        )
        assert rows[0].n_views == rows[0].capped == len(few_views)
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "raw-CPD" in line] == [
            f"warning: raw-CPD baseline of view {i} hit the 1-iteration cap without converging"
            for i in range(len(few_views))
        ]
        report_to_json(rows, tmp_path / "report.json")
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload[0]["capped_views"] == len(few_views)

    def test_capped_instance_registration_names_the_instance(self, category, held_out,
                                                            few_views, capsys):
        mesh, cloud = held_out
        capped = dataclasses.replace(
            category.registration, cpd=CpdConfig(beta=category.beta, max_iterations=1)
        )
        space = dataclasses.replace(category.space, registration=capped)
        pose_noise_experiment(
            space, mesh, cloud, few_views, OracleSpec("ground_truth"),
            category.canonical_mesh, conditions=(COND_PIPELINE,),
            instance_label="held-out", **FAST,
        )
        assert capsys.readouterr().err.splitlines() == [
            "warning: registration of instance held-out hit the 1-iteration cap without converging"
        ]

    def test_all_views_failing_raises(self, category, held_out, few_views):
        mesh, cloud = held_out
        broken = OracleSpec("external", command="false")
        with pytest.raises(EvaluationError):
            pose_noise_experiment(
                category.space, mesh, cloud, few_views, broken,
                category.canonical_mesh, conditions=(COND_PIPELINE,), **FAST,
            )

    def test_failed_target_field_is_named(self, category, held_out, few_views, monkeypatch,
                                          cpd_calls):
        # The instance's registration is the one CPD before the target field
        # fails; its error ends the sweep before any view or raw-CPD baseline.
        mesh, cloud = held_out

        def fail(*args, **kwargs):
            raise RasterizeError("no solution")

        monkeypatch.setattr(evaluation_module, "target_field", fail)
        # A registration whose field failed is not kept: the next sweep
        # registers and fails again.
        for calls in ([1], [1, 1]):
            with pytest.raises(RasterizeError, match="^no solution$"):
                pose_noise_experiment(
                    category.space, mesh, cloud, few_views, OracleSpec("ground_truth"),
                    category.canonical_mesh, **FAST,
                )
            assert cpd_calls == calls

    def test_external_oracle_field_stays_zero_after_a_registration(self, category, held_out,
                                                                   few_views, cpd_calls):
        mesh, cloud = held_out
        truth, external = OracleSpec("ground_truth"), OracleSpec("external", command="false")
        points = category.space.canonical.points
        fields = [
            prepare_instance(category.space, mesh, cloud, few_views, oracle,
                             category.canonical_mesh, instance_label="held-out")[2](points)
            for oracle in (truth, external, truth)
        ]
        assert cpd_calls == [1]
        assert np.abs(fields[0]).max() > 0 and not fields[1].any()
        np.testing.assert_array_equal(fields[2], fields[0])

    def test_kept_dense_samples_are_read_only(self, category, held_out, few_views):
        # A later call reuses these arrays: a caller writing into them would
        # change that call's samples.
        mesh, cloud = held_out
        prepared = prepare_instance(category.space, mesh, cloud, few_views,
                                    OracleSpec("ground_truth"), category.canonical_mesh,
                                    instance_label="held-out")
        for dense in prepared[:2]:
            with pytest.raises(ValueError, match="read-only"):
                dense[0] = 0.0

    def test_failed_observed_render_is_named_and_counted(self, category, held_out, few_views,
                                                         monkeypatch):
        mesh, cloud = held_out
        views = list(few_views)

        def blind_first_view(view):
            if view is views[0]:
                raise EmptyRenderError("nothing in view")

        _on_observed_renders(monkeypatch, blind_first_view)
        rows = pose_noise_experiment(
            category.space, mesh, cloud, views, OracleSpec("ground_truth"),
            category.canonical_mesh, 0.02, draws=2, **FAST,
        )
        by = {row.condition: row for row in rows}
        assert (by[COND_PIPELINE].failed, by[COND_PIPELINE].n_views) == (2, 2 * len(views) - 2)
        assert (by[COND_RAW_CPD].failed, by[COND_RAW_CPD].n_views) == (1, len(views) - 1)
        with pytest.raises(EvaluationError, match=re.escape(
                "(view 0: EmptyRenderError: nothing in view)")):
            pose_noise_experiment(
                category.space, mesh, cloud, views[:1], OracleSpec("ground_truth"),
                category.canonical_mesh, conditions=(COND_RAW_CPD,), **FAST,
            )


class TestTargetValues:
    @pytest.mark.parametrize("zoom_resolution, padded", [((96, 72), False), ((48, 72), True)])
    def test_offset_target_matches_per_pixel_interpolation(
            self, category, held_out, few_views, monkeypatch, zoom_resolution, padded):
        # The oracle must see the interpolated deltas at every pixel of the
        # zoomed render shifted by the offset, repeats included.
        seen = {}
        zoom, infer = evaluation_module.zoom, evaluation_module.infer

        def keep_zoom(*args, **kwargs):
            seen["zoom"] = zoom(*args, **kwargs)
            return seen["zoom"]

        def keep_sample(spec, sample, **kwargs):
            seen["sample"] = sample
            return infer(spec, sample, **kwargs)

        def keep_deltas(canonical, deltas):
            seen["deltas"] = deltas
            return target_field(canonical, deltas)

        monkeypatch.setattr(evaluation_module, "zoom", keep_zoom)
        monkeypatch.setattr(evaluation_module, "infer", keep_sample)
        monkeypatch.setattr(evaluation_module, "target_field", keep_deltas)
        mesh, cloud = held_out
        oracle = OracleSpec("ground_truth")
        canonical_dense, observed_dense, true_field = prepare_instance(
            category.space, mesh, cloud, few_views[:1], oracle, category.canonical_mesh,
            instance_label="held-out",
        )
        delta_true = seen["deltas"]
        offset = np.array([0.004, -0.003, 0.002])
        complete_view(category.space, canonical_dense,
                      splat_position_image(observed_dense, few_views[0]), few_views[0],
                      true_field, oracle, offset=offset, zoom_resolution=zoom_resolution)
        assert seen["zoom"].padded is padded

        canonical = seen["sample"].canonical
        believed = PositionImage(
            np.where(canonical.mask[..., None], canonical.data - offset, 0.0), canonical.mask
        )
        expected = per_pixel_target(believed, category.space.canonical, delta_true)
        apparent = seen["sample"].target
        np.testing.assert_array_equal(apparent.mask, canonical.mask)
        np.testing.assert_allclose(
            apparent.data, np.where(canonical.mask[..., None], expected - offset, 0.0),
            rtol=0.0, atol=1e-12,
        )


# An external oracle that predicts zero deltas everywhere.
EXTERNAL_ZERO = """\
import json, sys
from pathlib import Path

tmp = Path(sys.argv[1])
request = json.loads((tmp / "request.json").read_text())
width, height = request["resolution"]
(tmp / request["output"]).write_bytes(bytes(12 * width * height))
(tmp / (request["output"] + ".json")).write_text(
    json.dumps({"shape": [height, width, 3], "dtype": "f32", "semantic": "prediction"}))
"""


class TestCompleteView:
    @pytest.fixture(scope="class")
    def inputs(self, category, held_out, few_views):
        mesh, cloud = held_out
        with densify_recipe():
            canonical_dense, observed_dense, true_field = prepare_instance(
                category.space, mesh, cloud, few_views[:1], OracleSpec("ground_truth"),
                category.canonical_mesh, instance_label="held-out",
            )
        observed = splat_position_image(observed_dense, few_views[0])
        return canonical_dense, observed, few_views[0], true_field

    @pytest.mark.parametrize("offset", [(0.0, 0.0, 0.0), (0.004, -0.003, 0.002)])
    def test_one_distinct_pass_per_view(self, category, inputs, monkeypatch, offset):
        # The target's rasterizer and the owner lookup share one pass over
        # the distinct positions of the believed zoom grid.
        canonical_dense, observed, view, true_field = inputs
        distinct_rows, zoom = geometry.distinct_rows, evaluation_module.zoom
        calls, zooms = [], []

        def counted(rows):
            calls.append(len(rows))
            return distinct_rows(rows)

        def keep_zoom(*args, **kwargs):
            zooms.append(zoom(*args, **kwargs))
            return zooms[-1]

        for name, module in list(sys.modules.items()):
            if (name == "morphfit" or name.startswith("morphfit.")) and \
                    getattr(module, "distinct_rows", None) is distinct_rows:
                monkeypatch.setattr(module, "distinct_rows", counted)
        monkeypatch.setattr(evaluation_module, "zoom", keep_zoom)
        complete_view(category.space, canonical_dense, observed, view, true_field,
                      OracleSpec("ground_truth"), offset=offset,
                      zoom_resolution=FAST["zoom_resolution"])
        assert len(calls) == 1
        assert calls[0] <= zooms[0].grid.mask.size

    @pytest.mark.parametrize("kind", ["ground_truth", "noisy", "external"])
    def test_a_view_spreads_only_what_its_oracle_reads(self, category, inputs, monkeypatch,
                                                       tmp_path, kind):
        # Every oracle reads the target; only the external one writes the
        # zoomed observed and canonical views for its child.
        canonical_dense, observed, view, true_field = inputs
        spread, zoom = imaging._spread, evaluation_module.zoom
        spreads, zooms = [], []

        def counted(image, row_at, col_at):
            spreads.append(image)
            return spread(image, row_at, col_at)

        def keep_zoom(*args, **kwargs):
            zooms.append(zoom(*args, **kwargs))
            return zooms[-1]

        monkeypatch.setattr(imaging, "_spread", counted)
        monkeypatch.setattr(evaluation_module, "zoom", keep_zoom)
        script = tmp_path / "zero.py"
        script.write_text(EXTERNAL_ZERO)
        spec = OracleSpec(kind, noise_sigma=0.01, command=f"{sys.executable} {script}")
        complete_view(category.space, canonical_dense, observed, view, true_field, spec,
                      zoom_resolution=FAST["zoom_resolution"],
                      oracle_noise=np.random.default_rng(0))
        (zoomed,) = zooms
        assert isinstance(spreads[0], imaging.DeformationImage)
        views = {id(image) for image in spreads[1:]}
        if kind == "external":
            assert len(spreads) == 3
            assert views == {id(zoomed.observed_grid), id(zoomed.grid)}
        else:
            assert len(spreads) == 1
            assert {"observed", "canonical"}.isdisjoint(vars(zoomed))

    def test_negative_zero_samples_complete_as_with_zero_added(self, category, inputs):
        # At zero offset the samples are rendered without ``+ offset``, which
        # turned a -0.0 coordinate into +0.0; the result must not tell.
        canonical_dense, observed, view, true_field = inputs
        signed = canonical_dense.copy()
        signed[np.abs(signed) < 0.02] = -0.0
        render = splat_position_image(signed, view)
        assert (np.signbit(render.data) & (render.data == 0.0))[render.mask].any()
        results = [complete_view(category.space, samples, observed, view, true_field,
                                 OracleSpec("ground_truth"),
                                 zoom_resolution=FAST["zoom_resolution"])
                   for samples in (signed, signed + 0.0)]
        signed_result, added_result = results
        assert signed_result.latent.tobytes() == added_result.latent.tobytes()
        assert signed_result.field.weights.tobytes() == added_result.field.weights.tobytes()
        assert signed_result.residual == added_result.residual
        assert signed_result.degenerate == added_result.degenerate


class TestPoseNoise:
    def test_zero_noise_reproduces_plain_run(self, category, held_out, few_views, gt_rows):
        mesh, cloud = held_out
        zero = pose_noise_experiment(
            category.space, mesh, cloud, few_views, OracleSpec("ground_truth"),
            category.canonical_mesh, 0.0, draws=1, conditions=POSE_NOISE_CONDITIONS,
            instance_label="held-out", seed=3, **FAST,
        )
        assert zero == [row for row in gt_rows if row.condition in POSE_NOISE_CONDITIONS]

    def test_noise_degrades_reconstruction(self, category, held_out, few_views):
        mesh, cloud = held_out
        clean = pose_noise_experiment(
            category.space, mesh, cloud, few_views, OracleSpec("ground_truth"),
            category.canonical_mesh, 0.0, draws=2, conditions=POSE_NOISE_CONDITIONS,
            seed=3, **FAST,
        )
        noisy = pose_noise_experiment(
            category.space, mesh, cloud, few_views, OracleSpec("ground_truth"),
            category.canonical_mesh, 0.05, draws=2, conditions=POSE_NOISE_CONDITIONS,
            seed=3, **FAST,
        )
        clean_row = next(r for r in clean if r.condition == COND_PIPELINE)
        noisy_row = next(r for r in noisy if r.condition == COND_PIPELINE)
        assert noisy_row.n_views == 2 * len(few_views)
        assert noisy_row.mean >= clean_row.mean

    def test_each_observed_view_is_rendered_once(self, category, held_out, few_views,
                                                 monkeypatch):
        mesh, cloud = held_out
        observed_renders = []
        _on_observed_renders(monkeypatch, observed_renders.append)
        three = pose_noise_experiment(
            category.space, mesh, cloud, few_views, OracleSpec("ground_truth"),
            category.canonical_mesh, 0.05, draws=3, seed=3, **FAST,
        )
        assert observed_renders == list(few_views)
        # Rows pool the draws draw-major: the first draw's errors are those of a one-draw run.
        one = pose_noise_experiment(
            category.space, mesh, cloud, few_views, OracleSpec("ground_truth"),
            category.canonical_mesh, 0.05, draws=1, conditions=(COND_PIPELINE,), seed=3,
            **FAST,
        )
        by = {row.condition: row for row in three}
        assert by[COND_PIPELINE].errors[:len(few_views)] == one[0].errors
        assert by[COND_PIPELINE].n_views == 3 * len(few_views)
        assert by[COND_RAW_CPD].n_views == len(few_views)

    def test_negative_range_rejected(self, category, held_out, few_views):
        mesh, cloud = held_out
        with pytest.raises(ValidationError):
            pose_noise_experiment(
                category.space, mesh, cloud, few_views, OracleSpec("ground_truth"),
                category.canonical_mesh, -0.1, **FAST,
            )


def _on_observed_renders(monkeypatch, action):
    """Call ``action(view)`` before each of evaluation's renders of the observed points."""
    prepare, splat = evaluation_module.prepare_instance, evaluation_module.splat_position_image
    observed = []

    def keep_observed(*args, **kwargs):
        prepared = prepare(*args, **kwargs)
        observed.append(prepared[1])
        return prepared

    def spy(points, view, *args, **kwargs):
        if any(points is dense for dense in observed):
            action(view)
        return splat(points, view, *args, **kwargs)

    monkeypatch.setattr(evaluation_module, "prepare_instance", keep_observed)
    monkeypatch.setattr(evaluation_module, "splat_position_image", spy)


class TestReports:
    def rows(self):
        return [
            EvalRow("a", COND_PIPELINE, (1e-6, 3e-6), failed=0),
            EvalRow("a", COND_CANONICAL, (2e-4, 2e-4), failed=1),
        ]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "report.csv"
        report_to_csv(self.rows(), path)
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["instance", "condition", "n_views", "mean", "std"]
        assert parsed[1][:3] == ["a", COND_PIPELINE, "2"]
        assert float(parsed[1][3]) == 2e-6
        assert float(parsed[2][3]) == 2e-4

    def test_json_payload(self, tmp_path):
        path = tmp_path / "report.json"
        report_to_json(self.rows(), path, display_scale=1e6)
        payload = json.loads(path.read_text())
        assert payload[0]["mean"] == pytest.approx(2.0)
        assert payload[0]["per_view"] == pytest.approx([1.0, 3.0])
        assert payload[1]["failed_views"] == 1
        assert payload[0]["capped_views"] == payload[1]["capped_views"] == 0
        assert payload[1]["flagged"] is True
