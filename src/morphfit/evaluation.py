"""The single-view pipeline, its error metric and the viewpoint sweeps.

:func:`prepare_instance` runs once per observed instance and
:func:`complete_view` once per view: render, zoom, oracle, completion.
``register`` runs them for one view; the experiments run them per view,
next to a raw registration baseline and the undeformed canonical
baseline, under optional translational pose noise on the believed
canonical pose.  The metric is the mean, over query points, of the
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
from .dataset import densify_mesh, register_instances, target_delta, warn_if_capped
from .errors import EvaluationError, MorphFitError, ValidationError
from .geometry import Mesh, PointCloud, apply_deformation, voxel_downsample
from .imaging import DeformationImage, PositionImage, rasterize_target, splat_position_image, zoom
from .oracle import OracleSample, OracleSpec, infer
from .shape_space import ShapeSpace

__all__ = [
    "COND_PIPELINE",
    "COND_RAW_CPD",
    "COND_CANONICAL",
    "EvalRow",
    "registration_error",
    "prepare_instance",
    "complete_view",
    "evaluate_instance",
    "pose_noise_experiment",
    "report_to_csv",
    "report_to_json",
]

COND_PIPELINE = "oracle-pipeline"
COND_RAW_CPD = "raw-CPD-baseline"
COND_CANONICAL = "canonical-baseline"
DEFAULT_CONDITIONS = (COND_PIPELINE, COND_RAW_CPD, COND_CANONICAL)
# Raw registration is pointless to repeat per pose draw (pose noise touches
# only the canonical render), so noise runs default to the cheap pair.
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


def _shifted_positions(image: PositionImage, offset: np.ndarray) -> PositionImage:
    if not offset.any():
        return image
    return PositionImage(
        np.where(image.mask[..., None], image.data - offset, 0.0), image.mask
    )


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
    distance = float(np.mean([np.linalg.norm(v.position) for v in views]))
    canonical_dense, observed_dense = (
        densify_mesh(
            mesh, distance, views[0].focal, densify_per_pixel, densify_max,
            np.random.default_rng(np.random.SeedSequence([int(seed), 8, salt])),
        )[0]
        for salt, mesh in enumerate((canonical_mesh, instance_mesh))
    )
    if oracle_spec.kind == "external":
        return canonical_dense, observed_dense, np.zeros((len(space.canonical), 3))
    (field,) = register_instances(space.canonical, [instance_cloud], space.registration,
                                  labels=[instance_label])
    return canonical_dense, observed_dense, target_delta(field, 0.0)


def complete_view(
    space: ShapeSpace,
    canonical_dense: np.ndarray,
    observed_dense: np.ndarray,
    view,
    delta_true: np.ndarray,
    oracle_spec: OracleSpec,
    *,
    offset=(0.0, 0.0, 0.0),
    zoom_resolution=(256, 192),
    splat_radius: int = 1,
    oracle_seed: int = 0,
    ridge: float = 0.0,
):
    """One view through render, zoom, rasterize, oracle and completion.

    ``offset`` displaces the believed canonical pose: the canonical model
    is rendered shifted, the pipeline maps its own render back through the
    believed pose, and the oracle reports the apparent offsets between the
    two renders (true deltas minus the pose error), which is what a
    consistent predictor would see.  Returns the
    :class:`~morphfit.completion.CompletionResult` and the observed render
    (for the raw-registration baseline).
    """
    offset = np.asarray(offset, dtype=np.float64)
    observed_img = splat_position_image(observed_dense, view, splat_radius)
    canonical_img = splat_position_image(canonical_dense + offset, view, splat_radius)
    zoomed = zoom(observed_img, canonical_img, zoom_resolution)

    believed = _shifted_positions(zoomed.canonical, offset)
    true_target = rasterize_target(believed, space.canonical, delta_true)
    mask = true_target.mask
    apparent = DeformationImage(
        np.where(mask[..., None], true_target.data - offset, 0.0), mask, 1.0
    )
    sample = OracleSample(zoomed.observed, zoomed.canonical, apparent)
    predicted = infer(oracle_spec, sample, seed=oracle_seed)

    sparse = pixels_to_sparse_deltas(
        predicted.data, believed.data, predicted.mask, space.canonical
    )
    return fit_latent(space, sparse, ridge), observed_img


def evaluate_instance(
    space: ShapeSpace,
    instance_mesh: Mesh,
    instance_cloud: PointCloud,
    views,
    oracle_spec: OracleSpec,
    canonical_mesh: Mesh,
    *,
    conditions=DEFAULT_CONDITIONS,
    **options,
):
    """Viewpoint sweep of the full pipeline against the baselines.

    This is :func:`pose_noise_experiment` with no pose noise and one draw;
    ``options`` are its keyword arguments.  The instance must be held out
    of the space's construction for the numbers to mean anything; that
    discipline is the caller's.
    """
    return pose_noise_experiment(
        space, instance_mesh, instance_cloud, views, oracle_spec, canonical_mesh,
        0.0, draws=1, conditions=conditions, **options,
    )


def pose_noise_experiment(
    space: ShapeSpace,
    instance_mesh: Mesh,
    instance_cloud: PointCloud,
    views,
    oracle_spec: OracleSpec,
    canonical_mesh: Mesh,
    noise_range: float,
    *,
    draws: int = 5,
    instance_label: str = "instance",
    conditions=POSE_NOISE_CONDITIONS,
    zoom_resolution=(256, 192),
    splat_radius: int = 1,
    seed: int = 0,
    ridge: float = 0.0,
    densify_per_pixel: float = 20.0,
    densify_max: int = 60000,
):
    """Pipeline sweep with a uniformly mistaken canonical pose.

    Per draw and view, a per-axis uniform translation in
    [-noise_range, noise_range] displaces the believed canonical pose;
    rows pool all draws.  noise_range = 0 with one draw is
    :func:`evaluate_instance`.
    """
    if noise_range < 0 or not np.isfinite(noise_range):
        raise ValidationError(f"noise_range must be >= 0, got {noise_range}")
    if draws < 1:
        raise ValidationError(f"draws must be >= 1, got {draws}")
    views = list(views)
    canonical_dense, observed_dense, delta_true = prepare_instance(
        space, instance_mesh, instance_cloud, views, oracle_spec, canonical_mesh,
        instance_label=instance_label, seed=seed, densify_per_pixel=densify_per_pixel,
        densify_max=densify_max,
    )
    conditions = tuple(conditions)
    pipeline_errors, cpd_errors = [], []
    pipeline_failed = cpd_failed = cpd_capped = 0
    leaf = _median_spacing(space.canonical.points)
    want_pipeline = COND_PIPELINE in conditions
    want_cpd = COND_RAW_CPD in conditions
    for draw_index in range(draws):
        for view_index, view in enumerate(views):
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
            observed_img = None
            if want_pipeline:
                try:
                    result, observed_img = complete_view(
                        space, canonical_dense, observed_dense, view, delta_true,
                        oracle_spec, offset=offset, zoom_resolution=zoom_resolution,
                        splat_radius=splat_radius, oracle_seed=oracle_seed, ridge=ridge,
                    )
                    reconstructed = apply_deformation(space.canonical, result.field)
                    pipeline_errors.append(
                        registration_error(instance_cloud, reconstructed)
                    )
                except MorphFitError:
                    pipeline_failed += 1
            if want_cpd and draw_index == 0:
                # The observed render does not depend on the pose draw.
                try:
                    if observed_img is None:
                        observed_img = splat_position_image(
                            observed_dense, view, splat_radius
                        )
                    partial = voxel_downsample(observed_img.data[observed_img.mask], leaf)
                    registered = cpd_nonrigid(partial, space.canonical, space.registration.cpd)
                    cpd_capped += warn_if_capped(
                        registered, f"raw-CPD baseline of view {view_index}"
                    )
                    moved = apply_deformation(space.canonical, registered.field)
                    cpd_errors.append(registration_error(instance_cloud, moved))
                except MorphFitError:
                    cpd_failed += 1

    rows = []
    n_cells = draws * len(views)
    for condition in conditions:
        if condition == COND_PIPELINE:
            rows.append(EvalRow(instance_label, condition, tuple(pipeline_errors), pipeline_failed))
        elif condition == COND_RAW_CPD:
            rows.append(EvalRow(instance_label, condition, tuple(cpd_errors), cpd_failed,
                                cpd_capped))
        elif condition == COND_CANONICAL:
            base = registration_error(instance_cloud, space.canonical)
            rows.append(EvalRow(instance_label, condition, (base,) * n_cells, 0))
        else:
            raise ValidationError(f"unknown condition {condition!r}")
    for row in rows:
        if row.condition != COND_CANONICAL and row.n_views == 0:
            raise EvaluationError(
                f"every view failed for condition {row.condition!r}"
            )
    return rows


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
