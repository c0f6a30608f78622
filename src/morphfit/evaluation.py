"""The single-view pipeline, its error metric and the viewpoint sweeps.

:func:`prepare_instance` runs once per observed instance and
:func:`complete_view` once per observed render and believed pose: zoom,
oracle, completion.  ``register`` runs them for one view; the
experiments run them per view and pose draw, next to a raw registration
baseline and the undeformed canonical baseline, under optional
translational pose noise on the believed canonical pose.  The metric is the mean, over query points, of the
squared distance to the nearest reference point.  It is deliberately
asymmetric.

Nothing an instance is prepared from depends on the pose, so the process
keeps one prepared instance, in three parts: the observed instance's
registration cloud (:func:`observed_cloud`), the dense samples of both
meshes and the registration with its target field.  Each part keeps only
its most recent entry that succeeded, keyed by value; a later call with
an equal key reuses it instead of drawing or registering again.
Separate processes share nothing.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .completion import fit_latent, pixels_to_sparse_deltas
from .cpd import cpd_nonrigid
from .dataset import (
    DENSIFY_MAX, DENSIFY_PER_PIXEL, densify_count, densify_mesh, mesh_cloud, target_delta,
    warn_if_capped,
)
from .errors import EvaluationError, MorphFitError, ValidationError
from .geometry import (
    DEFAULT_VIEW_RESOLUTION, OBSERVED_SALT, Mesh, PointCloud, _as_readonly, _kept,
    apply_deformation, stream, voxel_downsample,
)
from .imaging import DEFAULT_SPLAT_RADIUS, splat_position_image, target_field, zoom
from .oracle import OracleSpec, infer, shifted, zoomed_sample
from .shape_space import Registration, ShapeSpace

__all__ = [
    "COND_PIPELINE",
    "COND_RAW_CPD",
    "COND_CANONICAL",
    "EvalRow",
    "registration_error",
    "observed_cloud",
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


def _mesh_key(mesh: Mesh) -> tuple:
    return mesh.vertices.tobytes(), mesh.faces.tobytes()


def observed_cloud(mesh: Mesh, registration: Registration, seed: int) -> PointCloud:
    """The registration cloud of an observed instance: its
    :func:`~morphfit.dataset.mesh_cloud` at ``OBSERVED_SALT``.

    Part of the prepared instance the process keeps (see
    :func:`prepare_instance`): a later call whose mesh vertices and faces,
    ``registration`` and ``seed`` are equal, by value, returns the kept
    cloud without drawing.  One cloud is kept, the most recent; a draw that
    raised is not kept.  Separate processes share nothing.
    """
    key = (*_mesh_key(mesh), registration, seed)
    return _kept("cloud", key, lambda: mesh_cloud(mesh, registration, seed, OBSERVED_SALT))


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
    densify_per_pixel: float = DENSIFY_PER_PIXEL,
    densify_max: int = DENSIFY_MAX,
):
    """Dense samples of both meshes and the instance's true target field.

    The samples are dense enough for gap-free splats at the views' mean
    distance.  The field is the :func:`~morphfit.imaging.target_field` of
    the instance's full deformation, recovered once by registering
    ``instance_cloud`` with the space's recipe and reused for every view's
    ground-truth target; a cap warning names it ``instance_label``.  The
    external oracle reads only that target's mask and scale, so its field
    interpolates zeros and no registration runs.  Returns
    ``(canonical_dense, observed_dense, true_field)``.

    None of this depends on the views beyond the sample counts, so the
    process keeps one prepared instance, one entry per part, the most
    recent, compared by value: the registration cloud
    (:func:`observed_cloud`); the dense samples, keyed by both meshes'
    vertices and faces, ``seed`` and each mesh's
    :func:`~morphfit.dataset.densify_count`; and the registration with its
    field, keyed by the points of ``instance_cloud`` and
    ``space.canonical`` and by ``space.registration``.  A later call with
    an equal key reuses a part, and a reused registration prints the same
    cap warning.  The kept samples are read-only.  A draw, registration or
    field that raised is not kept, so the next call tries again.
    Separate processes share nothing.
    """
    views = list(views)
    if not views:
        raise ValidationError("need at least one view")
    if space.registration is None:
        raise ValidationError("the space carries no registration settings")
    meshes = (canonical_mesh, instance_mesh)
    counts = tuple(densify_count(mesh, views, densify_per_pixel, densify_max) for mesh in meshes)
    canonical_dense, observed_dense = _kept(
        "samples", (*map(_mesh_key, meshes), seed, counts),
        lambda: tuple(_as_readonly(densify_mesh(mesh, views, densify_per_pixel, densify_max,
                                                stream(seed, "pipeline_dense", salt))[0])
                      for salt, mesh in enumerate(meshes)),
    )
    if oracle_spec.kind == "external":
        zeros = np.zeros((len(space.canonical), 3))
        return canonical_dense, observed_dense, target_field(space.canonical, zeros)
    key = (instance_cloud.points.tobytes(), space.canonical.points.tobytes(), space.registration)
    registered, true_field = _kept("registration", key, lambda: _registered(space, instance_cloud))
    warn_if_capped(registered, f"registration of instance {instance_label}")
    return canonical_dense, observed_dense, true_field


def _registered(space: ShapeSpace, instance_cloud: PointCloud):
    """``instance_cloud`` registered by the space's recipe, and its target field."""
    registered = cpd_nonrigid(instance_cloud, space.canonical, space.registration.cpd)
    return registered, target_field(space.canonical, target_delta(registered.field, 0.0))


def complete_view(
    space: ShapeSpace,
    canonical_dense: np.ndarray,
    observed_img,
    view,
    true_field,
    oracle_spec: OracleSpec,
    *,
    offset=(0.0, 0.0, 0.0),
    zoom_resolution=DEFAULT_VIEW_RESOLUTION,
    splat_radius: int = DEFAULT_SPLAT_RADIUS,
    oracle_noise: np.random.Generator | None = None,
    ridge: float = 0.0,
):
    """One view through zoom, rasterize, oracle and completion.

    ``observed_img`` is the observed instance's render from ``view``; only
    the canonical model is rendered here.  ``offset`` displaces the
    believed canonical pose: the canonical model is rendered shifted, the
    pipeline maps its own render back through the believed pose, and the
    oracle reports the apparent offsets between the two renders (true
    deltas minus the pose error), which is what a consistent predictor
    would see.  ``true_field`` is the target field
    :func:`prepare_instance` returns; ``oracle_noise`` is the generator a
    noisy oracle draws from.  Returns the
    :class:`~morphfit.completion.CompletionResult`.
    """
    offset = np.asarray(offset, dtype=np.float64)
    zoomed = zoom(observed_img,
                  splat_position_image(canonical_dense + offset, view, splat_radius),
                  zoom_resolution)
    predicted = infer(oracle_spec, zoomed_sample(zoomed, true_field, offset),
                      noise=oracle_noise)

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
    zoom_resolution=DEFAULT_VIEW_RESOLUTION,
    splat_radius: int = DEFAULT_SPLAT_RADIUS,
    seed: int = 0,
    ridge: float = 0.0,
    densify_per_pixel: float = DENSIFY_PER_PIXEL,
    densify_max: int = DENSIFY_MAX,
):
    """Viewpoint sweep of the full pipeline against the baselines.

    Each view's observed render is made once.  The pipeline runs on it once
    per draw, a per-axis uniform translation in [-noise_range, noise_range]
    displacing the believed canonical pose; then the raw registration
    baseline runs once on the same render, since pose noise touches only
    the canonical render.  Rows pool all draws, draw-major.  The defaults
    are the plain sweep: no pose noise, one draw, every condition.  A
    condition whose every view fails raises an EvaluationError naming the
    first failure; :func:`prepare_instance`'s RasterizeError ends the run
    before any view does.  The instance must be held out of the space's
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
    canonical_dense, observed_dense, true_field = prepare_instance(
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
    for view_index, view in enumerate(views if want_pipeline or want_cpd else ()):
        try:
            observed_img = splat_position_image(observed_dense, view, splat_radius)
        except MorphFitError as exc:  # an unwanted condition's list is never read
            reason = _why(view_index, exc)
            failures[COND_PIPELINE] += [reason] * draws
            failures[COND_RAW_CPD].append(reason)
            continue
        for draw_index in range(draws if want_pipeline else 0):
            offset = stream(seed, "pose_noise", draw_index, view_index).uniform(
                -noise_range, noise_range, 3)
            try:
                result = complete_view(
                    space, canonical_dense, observed_img, view, true_field, oracle_spec,
                    offset=offset, zoom_resolution=zoom_resolution,
                    splat_radius=splat_radius, ridge=ridge,
                    oracle_noise=stream(seed, "oracle_noise", draw_index, view_index),
                )
                reconstructed = apply_deformation(space.canonical, result.field)
                errors[COND_PIPELINE][draw_index, view_index] = registration_error(
                    instance_cloud, reconstructed
                )
            except MorphFitError as exc:
                failures[COND_PIPELINE].append(_why(view_index, exc))
        if want_cpd:
            try:
                partial = voxel_downsample(observed_img.data[observed_img.mask], leaf)
                registered = cpd_nonrigid(partial, space.canonical, space.registration.cpd)
                cpd_capped += warn_if_capped(registered, f"raw-CPD baseline of view {view_index}")
                moved = apply_deformation(space.canonical, registered.field)
                errors[COND_RAW_CPD][view_index] = registration_error(instance_cloud, moved)
            except MorphFitError as exc:
                failures[COND_RAW_CPD].append(_why(view_index, exc))
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


def _why(view_index: int, exc: MorphFitError) -> str:
    return f"view {view_index}: {type(exc).__name__}: {exc}"


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
