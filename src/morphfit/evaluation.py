"""The single-view pipeline, its error metric and the viewpoint sweeps.

:func:`prepare_instance` runs once per observed instance and
:func:`complete_view` once per observed render and believed pose: zoom,
oracle, completion.  ``register`` runs them for one view; the
experiments run them per view and pose draw, next to a raw registration
baseline and the undeformed canonical baseline, under optional
translational pose noise on the believed canonical pose.  The metric is the mean, over query points, of the
squared distance to the nearest reference point.  It is deliberately
asymmetric.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .completion import fit_latent, pixels_to_sparse_deltas
from .cpd import cpd_nonrigid
from .dataset import densify_mesh, target_delta, warn_if_capped
from .errors import EvaluationError, MorphFitError, ValidationError
from .geometry import Mesh, PointCloud, apply_deformation, voxel_downsample
from .imaging import splat_position_image, target_field, zoom
from .oracle import OracleSpec, infer, shifted, zoomed_sample
from .shape_space import ShapeSpace

__all__ = [
    "COND_PIPELINE",
    "COND_RAW_CPD",
    "COND_CANONICAL",
    "EvalRow",
    "registration_error",
    "prepare_instance",
    "complete_view",
    "pose_noise_experiment",
    "report_to_csv",
    "report_to_json",
]

COND_PIPELINE = "oracle-pipeline"
COND_RAW_CPD = "raw-CPD-baseline"
COND_CANONICAL = "canonical-baseline"
DEFAULT_CONDITIONS = (COND_PIPELINE, COND_RAW_CPD, COND_CANONICAL)
# Pose noise moves only the believed canonical pose, which the raw baseline
# never uses, so its row would repeat evaluate's; pose-noise-eval leaves it out.
POSE_NOISE_CONDITIONS = (COND_PIPELINE, COND_CANONICAL)


def registration_error(query, reference) -> float:
    """Mean squared nearest-neighbor distance from query to reference (m^2).

    Not symmetric: every query point looks up its nearest reference point,
    unmatched reference points cost nothing.
    """
    q = query.points if isinstance(query, PointCloud) else np.asarray(query, np.float64)
    r = reference.points if isinstance(reference, PointCloud) else np.asarray(reference, np.float64)
    if q.size == 0 or r.size == 0:
        raise ValidationError("registration_error needs non-empty clouds")
    dist, _ = cKDTree(r).query(q)
    return float(np.mean(dist * dist))


@dataclass(frozen=True)
class EvalRow:
    """Per-(instance, condition) summary over views.

    ``errors`` holds the per-view values (m^2) of the views that
    succeeded; ``failed`` counts the views that did not, and ``capped``
    the succeeded views whose registration stopped at the iteration cap.
    """

    instance: str
    condition: str
    errors: tuple
    failed: int = 0
    capped: int = 0

    @property
    def n_views(self) -> int:
        return len(self.errors)

    @property
    def mean(self) -> float:
        return float(np.mean(self.errors))

    @property
    def std(self) -> float:
        return float(np.std(self.errors))

    @property
    def flagged(self) -> bool:
        total = self.failed + self.n_views
        return total > 0 and self.failed > 0.05 * total


def _median_spacing(points: np.ndarray) -> float:
    dist, _ = cKDTree(points).query(points, k=2)
    spacing = float(np.median(dist[:, 1]))
    return spacing if spacing > 0 else 1e-6


def prepare_instance(
    space: ShapeSpace,
    instance_mesh: Mesh,
    instance_cloud: PointCloud,
    views,
    oracle_spec: OracleSpec,
    canonical_mesh: Mesh,
    *,
    instance_label: str,
    seed: int = 0,
    densify_per_pixel: float = 20.0,
    densify_max: int = 60000,
):
    """Dense samples of both meshes and the instance's true canonical deltas.

    The samples are dense enough for gap-free splats at the views' mean
    distance.  The deltas are the instance's full deformation, recovered
    once by registering ``instance_cloud`` with the space's recipe and
    reused for every view's ground-truth target; a cap warning names it
    ``instance_label``.  The external oracle reads only that target's mask
    and scale, so it gets zeros and no registration runs.  Returns
    ``(canonical_dense, observed_dense, delta_true)``.
    """
    views = list(views)
    if not views:
        raise ValidationError("need at least one view")
    if space.registration is None:
        raise ValidationError("the space carries no registration settings")
    canonical_dense, observed_dense = (
        densify_mesh(
            mesh, views, densify_per_pixel, densify_max,
            np.random.default_rng(np.random.SeedSequence([int(seed), 8, salt])),
        )[0]
        for salt, mesh in enumerate((canonical_mesh, instance_mesh))
    )
    if oracle_spec.kind == "external":
        return canonical_dense, observed_dense, np.zeros((len(space.canonical), 3))
    registered = cpd_nonrigid(instance_cloud, space.canonical, space.registration.cpd)
    warn_if_capped(registered, f"registration of instance {instance_label}")
    return canonical_dense, observed_dense, target_delta(registered.field, 0.0)


def complete_view(
    space: ShapeSpace,
    canonical_dense: np.ndarray,
    observed_img,
    view,
    true_field,
    oracle_spec: OracleSpec,
    *,
    offset=(0.0, 0.0, 0.0),
    zoom_resolution=(256, 192),
    splat_radius: int = 1,
    oracle_seed: int = 0,
    ridge: float = 0.0,
):
    """One view through zoom, rasterize, oracle and completion.

    ``observed_img`` is the observed instance's render from ``view``; only
    the canonical model is rendered here.  ``offset`` displaces the
    believed canonical pose: the canonical model is rendered shifted, the
    pipeline maps its own render back through the believed pose, and the
    oracle reports the apparent offsets between the two renders (true
    deltas minus the pose error), which is what a consistent predictor
    would see.  ``true_field`` is the
    :func:`~morphfit.imaging.target_field` of the true deltas.  Returns the
    :class:`~morphfit.completion.CompletionResult`.
    """
    offset = np.asarray(offset, dtype=np.float64)
    zoomed = zoom(observed_img,
                  splat_position_image(canonical_dense + offset, view, splat_radius),
                  zoom_resolution)
    predicted = infer(oracle_spec, zoomed_sample(zoomed, true_field, offset), seed=oracle_seed)

    sparse = pixels_to_sparse_deltas(
        predicted.data, shifted(zoomed.canonical, offset).data, predicted.mask, space.canonical
    )
    return fit_latent(space, sparse, ridge)


def pose_noise_experiment(
    space: ShapeSpace,
    instance_mesh: Mesh,
    instance_cloud: PointCloud,
    views,
    oracle_spec: OracleSpec,
    canonical_mesh: Mesh,
    noise_range: float = 0.0,
    *,
    draws: int = 1,
    instance_label: str = "instance",
    conditions=DEFAULT_CONDITIONS,
    zoom_resolution=(256, 192),
    splat_radius: int = 1,
    seed: int = 0,
    ridge: float = 0.0,
    densify_per_pixel: float = 20.0,
    densify_max: int = 60000,
):
    """Viewpoint sweep of the full pipeline against the baselines.

    Each view's observed render is made once.  The pipeline runs on it once
    per draw, a per-axis uniform translation in [-noise_range, noise_range]
    displacing the believed canonical pose; then the raw registration
    baseline runs once on the same render, since pose noise touches only
    the canonical render.  Rows pool all draws, draw-major.  The defaults
    are the plain sweep: no pose noise, one draw, every condition.  A
    condition whose every view fails raises an EvaluationError naming the
    first failure.  The instance must be held out of the space's
    construction for the numbers to mean anything; that discipline is the
    caller's.
    """
    if noise_range < 0 or not np.isfinite(noise_range):
        raise ValidationError(f"noise_range must be >= 0, got {noise_range}")
    if draws < 1:
        raise ValidationError(f"draws must be >= 1, got {draws}")
    conditions = tuple(conditions)
    for condition in conditions:
        if condition not in DEFAULT_CONDITIONS:
            raise ValidationError(f"unknown condition {condition!r}")
    views = list(views)
    canonical_dense, observed_dense, delta_true = prepare_instance(
        space, instance_mesh, instance_cloud, views, oracle_spec, canonical_mesh,
        instance_label=instance_label, seed=seed, densify_per_pixel=densify_per_pixel,
        densify_max=densify_max,
    )
    # Per condition: the error of each succeeded cell, and why each failed one failed.
    errors = {COND_PIPELINE: {}, COND_RAW_CPD: {}}
    failures = {COND_PIPELINE: [], COND_RAW_CPD: []}
    cpd_capped = 0
    leaf = _median_spacing(space.canonical.points)
    want_pipeline = COND_PIPELINE in conditions
    want_cpd = COND_RAW_CPD in conditions
    if want_pipeline:
        try:
            true_field = target_field(space.canonical, delta_true)
        except MorphFitError as exc:  # every view rasterizes with it, so every view fails
            failures[COND_PIPELINE] = [_why("target field", exc)] * (draws * len(views))
            want_pipeline = False
    for view_index, view in enumerate(views if want_pipeline or want_cpd else ()):
        try:
            observed_img = splat_position_image(observed_dense, view, splat_radius)
        except MorphFitError as exc:
            reason = _why(f"view {view_index}", exc)
            if want_pipeline:
                failures[COND_PIPELINE] += [reason] * draws
            if want_cpd:
                failures[COND_RAW_CPD].append(reason)
            continue
        for draw_index in range(draws if want_pipeline else 0):
            oracle_seed = int(
                np.random.default_rng(
                    np.random.SeedSequence([int(seed), 5, draw_index, view_index])
                ).integers(2**62)
            )
            offset = np.zeros(3)
            if noise_range > 0:
                offset = np.random.default_rng(
                    np.random.SeedSequence([int(seed), 4, draw_index, view_index])
                ).uniform(-noise_range, noise_range, 3)
            try:
                result = complete_view(
                    space, canonical_dense, observed_img, view, true_field, oracle_spec,
                    offset=offset, zoom_resolution=zoom_resolution,
                    splat_radius=splat_radius, oracle_seed=oracle_seed, ridge=ridge,
                )
                reconstructed = apply_deformation(space.canonical, result.field)
                errors[COND_PIPELINE][draw_index, view_index] = registration_error(
                    instance_cloud, reconstructed
                )
            except MorphFitError as exc:
                failures[COND_PIPELINE].append(_why(f"view {view_index}", exc))
        if want_cpd:
            try:
                partial = voxel_downsample(observed_img.data[observed_img.mask], leaf)
                registered = cpd_nonrigid(partial, space.canonical, space.registration.cpd)
                cpd_capped += warn_if_capped(registered, f"raw-CPD baseline of view {view_index}")
                moved = apply_deformation(space.canonical, registered.field)
                errors[COND_RAW_CPD][view_index] = registration_error(instance_cloud, moved)
            except MorphFitError as exc:
                failures[COND_RAW_CPD].append(_why(f"view {view_index}", exc))
        # Freed before the next view renders, so two frames are never held.
        del observed_img

    rows = []
    for condition in conditions:
        if condition == COND_CANONICAL:
            base = registration_error(instance_cloud, space.canonical)
            rows.append(EvalRow(instance_label, condition, (base,) * (draws * len(views))))
            continue
        done, failed = errors[condition], failures[condition]
        if not done:
            raise EvaluationError(f"every view failed for condition {condition!r} ({failed[0]})")
        rows.append(EvalRow(instance_label, condition, tuple(done[k] for k in sorted(done)),
                            len(failed), cpd_capped if condition == COND_RAW_CPD else 0))
    return rows


def _why(where: str, exc: MorphFitError) -> str:
    return f"{where}: {type(exc).__name__}: {exc}"


def report_to_csv(rows, path, display_scale: float = 1.0) -> None:
    """Write rows as CSV; display_scale=1e6 echoes micro-scaled tables."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "condition", "n_views", "mean", "std"])
        for row in rows:
            writer.writerow([
                row.instance, row.condition, row.n_views,
                repr(row.mean * display_scale), repr(row.std * display_scale),
            ])


def report_to_json(rows, path, display_scale: float = 1.0) -> None:
    payload = [
        {
            "instance": row.instance,
            "condition": row.condition,
            "n_views": row.n_views,
            "failed_views": row.failed,
            "capped_views": row.capped,
            "flagged": row.flagged,
            "mean": row.mean * display_scale,
            "std": row.std * display_scale,
            "per_view": [e * display_scale for e in row.errors],
        }
        for row in rows
    ]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
