"""Training-corpus generation: morphs, renders, targets, manifest.

Each category instance is morphed part-way toward the canonical shape by
a blend factor rho, rendered together with the canonical model from a
ring of viewpoints, zoomed, and paired with a rasterized target image of
the remaining deformation.  A JSON-lines manifest records everything
needed to regenerate any single sample byte-for-byte.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cpd import cpd_nonrigid
from .errors import DatasetError, MorphFitError, ValidationError
from .geometry import (
    CameraView,
    DeformationField,
    Mesh,
    PointCloud,
    gaussian_kernel,
    rotation_to_quaternion,
    sample_mesh_surface,
    voxel_downsample,
)
from .imaging import rasterize_target, splat_position_image, zoom
from .io import write_mask, write_tensor
from .shape_space import Registration

__all__ = [
    "CategorySpec",
    "SampleRecord",
    "build_category",
    "register_instances",
    "warn_if_capped",
    "default_cloud_leaf",
    "interpolate_instance",
    "target_delta",
    "generate_dataset",
    "read_manifest",
    "densify_mesh",
    "mesh_cloud",
    "sample_count_formula",
]

MANIFEST_NAME = "manifest.jsonl"
SAMPLE_FILES = ("canon.pos.f32", "canon.mask.pgm", "obs.pos.f32", "obs.mask.pgm", "target.f32")
# Skipped samples beyond this fraction of the run abort it.
MAX_SKIP_FRACTION = 0.001


@dataclass(frozen=True)
class CategorySpec:
    """One object category prepared for generation.

    ``fields[i]`` warps the canonical cloud onto instance i.  Held-out
    test instances must simply not be included here.
    """

    canonical_mesh: Mesh
    canonical_cloud: PointCloud
    instance_meshes: tuple
    fields: tuple

    def __post_init__(self):
        meshes = tuple(self.instance_meshes)
        fields = tuple(self.fields)
        if len(meshes) != len(fields):
            raise ValidationError(
                f"instance lists disagree: {len(meshes)} meshes, {len(fields)} fields"
            )
        if len(meshes) < 1:
            raise ValidationError("category needs at least one training instance")
        for index, f in enumerate(fields):
            if not isinstance(f, DeformationField):
                raise ValidationError(f"fields[{index}] is not a DeformationField")
            if not np.array_equal(f.anchors.points, self.canonical_cloud.points):
                raise ValidationError(
                    f"fields[{index}] is not anchored at the canonical cloud"
                )
        object.__setattr__(self, "instance_meshes", meshes)
        object.__setattr__(self, "fields", fields)

    @property
    def instance_count(self) -> int:
        return len(self.instance_meshes)


@dataclass(frozen=True)
class SampleRecord:
    """Self-contained provenance for one exported sample."""

    instance_index: int
    rho: float
    view_index: int
    paths: dict
    pose: dict
    crop_box: tuple
    scale_factors: tuple
    padded: bool
    resolution: tuple
    export_scale: float
    splat_radius: int
    split: str
    seed: int
    status: str = "ok"
    reason: str | None = None

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "SampleRecord":
        raw = json.loads(line)
        raw["crop_box"] = tuple(raw["crop_box"]) if raw["crop_box"] is not None else None
        raw["scale_factors"] = (
            tuple(raw["scale_factors"]) if raw["scale_factors"] is not None else None
        )
        raw["resolution"] = tuple(raw["resolution"])
        return SampleRecord(**raw)


def build_category(
    canonical_mesh: Mesh,
    instance_meshes,
    registration: Registration,
    *,
    seed: int = 0,
) -> CategorySpec:
    """Derive the canonical cloud by the recipe and register every instance onto it.

    Hold test instances out by not passing them.
    """
    instance_meshes = tuple(instance_meshes)
    if not instance_meshes:
        raise ValidationError("need at least one instance mesh")
    canonical_cloud = mesh_cloud(
        canonical_mesh, registration.cloud_leaf, seed, 0, registration.dense_count
    )
    fields = register_instances(canonical_cloud, instance_meshes, registration, seed=seed)
    return CategorySpec(canonical_mesh, canonical_cloud, instance_meshes, fields)


def register_instances(canonical_cloud: PointCloud, instances, registration: Registration,
                       *, seed: int = 0, labels=None):
    """Register instances onto the canonical cloud by the category's recipe.

    A Mesh first becomes :func:`mesh_cloud` with the recipe's leaf and
    count, drawn from the stream salted with its index plus one; a
    PointCloud is registered as it is.  Every instance whose CPD stops at
    the iteration cap is reported by a ``warning:`` line on stderr, which
    names it by its entry in ``labels`` (default: its index).  Returns the
    fields, anchored at the canonical cloud.
    """
    instances = tuple(instances)
    labels = range(len(instances)) if labels is None else labels
    fields = []
    for index, (instance, label) in enumerate(zip(instances, labels, strict=True)):
        if isinstance(instance, Mesh):
            instance = mesh_cloud(instance, registration.cloud_leaf, seed, index + 1,
                                  registration.dense_count)
        result = cpd_nonrigid(instance, canonical_cloud, registration.cpd)
        warn_if_capped(result, f"registration of instance {label}")
        fields.append(result.field)
    return tuple(fields)


def warn_if_capped(result, subject: str) -> bool:
    """Print a ``warning:`` line on stderr when a CPD result stopped at its
    iteration cap; returns whether it did."""
    if not result.converged:
        print(f"warning: {subject} hit the {result.iterations}-iteration cap "
              "without converging", file=sys.stderr)
    return not result.converged


def default_cloud_leaf(canonical_mesh: Mesh) -> float:
    """The recipe's default voxel leaf: 1/16 of the canonical bounding-box diagonal."""
    diag = float(np.linalg.norm(np.ptp(canonical_mesh.vertices, axis=0)))
    if diag <= 0:
        raise ValidationError("canonical mesh is degenerate (zero extent)")
    return diag / 16.0


def mesh_cloud(mesh: Mesh, leaf: float, seed: int, salt: int, count: int) -> PointCloud:
    """Registration stand-in for a mesh: a surface sample, voxel-downsampled.

    ``count`` area-weighted surface samples drawn from the stream
    ``(seed, 3, salt)``, where ``salt`` tells apart the meshes of one run,
    are merged per voxel of size ``leaf``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 3, salt]))
    pts, _, _ = sample_mesh_surface(mesh, count, rng)
    return voxel_downsample(pts, leaf)


def interpolate_instance(instance_mesh: Mesh, field: DeformationField, rho: float) -> Mesh:
    """Morph an instance mesh a fraction ``rho`` of the way to canonical shape.

    ``field`` is the canonical-to-instance deformation; vertices move by
    the kernel-blended inverse of it.  rho = 0 is the exact identity,
    rho = 1 the full inverse deformation.
    """
    if not (0.0 <= rho <= 1.0):
        raise ValidationError(f"rho must be in [0, 1], got {rho}")
    if rho == 0.0:
        return instance_mesh
    kernel = gaussian_kernel(instance_mesh.vertices, field.anchors, field.beta)
    return instance_mesh.with_vertices(
        instance_mesh.vertices + kernel @ (-rho * field.weights)
    )


def target_delta(field: DeformationField, rho: float) -> np.ndarray:
    """Per-canonical-point offsets remaining after a rho-morph.

    Evaluated at the field's own anchors (the canonical points); linear
    in (1 - rho), so rho = 1 leaves zero and rho = 0 the full instance
    deformation.
    """
    if not (0.0 <= rho <= 1.0):
        raise ValidationError(f"rho must be in [0, 1], got {rho}")
    kernel = gaussian_kernel(field.anchors, field.anchors, field.beta)
    return kernel @ ((1.0 - rho) * field.weights)


def densify_mesh(mesh: Mesh, view_distance: float, focal, per_pixel: float = 20.0,
                 max_points: int = 60000, rng=None):
    """Surface samples dense enough for gap-free splatting.

    Point count targets ``per_pixel`` samples per expected pixel footprint
    at the given viewing distance; returns (points, face_indices,
    barycentric) so the pattern can be re-posed on a morphed copy.
    """
    tri = mesh.vertices[mesh.faces]
    area = float(
        0.5 * np.linalg.norm(
            np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1
        ).sum()
    )
    pixels = area * focal[0] * focal[1] / max(view_distance, 1e-9) ** 2
    count = int(min(max(math.ceil(per_pixel * pixels), mesh.vertices.shape[0], 64), max_points))
    return sample_mesh_surface(mesh, count, rng)


def sample_count_formula(total_models: int, n_rhos: int, n_views: int) -> int:
    """Records produced from a category: (total - canonical - 2 test) per cell."""
    return (total_models - 3) * n_rhos * n_views


def _sample_seed(seed: int, instance: int, rho_index: int, view_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), instance, rho_index, view_index])


def _rho_dirname(rho: float) -> str:
    return format(float(rho), "g")


def generate_dataset(
    category: CategorySpec,
    views,
    rhos,
    out_dir,
    *,
    zoom_resolution: tuple[int, int] = (256, 192),
    export_scale: float = 1000.0,
    seed: int = 0,
    split_fraction: float = 0.9,
    splat_radius: int = 1,
    densify_per_pixel: float = 20.0,
    densify_max: int = 60000,
) -> list[SampleRecord]:
    """Export every (instance, rho, view) sample plus the manifest.

    The manifest is written as ``manifest.jsonl.partial`` during the run
    and renamed only on success, so interrupted runs are recognizable.
    Individual render failures are recorded as skipped; more than 0.1% of
    them abort the run.
    """
    views = list(views)
    rhos = [float(r) for r in rhos]
    if not views or not rhos:
        raise ValidationError("need at least one view and one rho")
    for r in rhos:
        if not (0.0 <= r <= 1.0):
            raise ValidationError(f"rho must be in [0, 1], got {r}")
    if not (0.0 < split_fraction <= 1.0):
        raise ValidationError(f"split_fraction must be in (0, 1], got {split_fraction}")
    if export_scale <= 0:
        raise ValidationError(f"export_scale must be > 0, got {export_scale}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    view_distance = float(np.mean([np.linalg.norm(v.position) for v in views]))
    focal = views[0].focal

    canon_rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2**31]))
    canon_pts, _, _ = densify_mesh(
        category.canonical_mesh, view_distance, focal, densify_per_pixel, densify_max, canon_rng
    )
    canon_renders = []
    for view in views:
        try:
            canon_renders.append(splat_position_image(canon_pts, view, splat_radius))
        except MorphFitError as exc:
            # A view that cannot see the canonical model fails every sample
            # that uses it; record the failure per sample instead of aborting.
            canon_renders.append(exc)

    records: list[SampleRecord] = []
    skipped = 0
    total = category.instance_count * len(rhos) * len(views)
    for inst in range(category.instance_count):
        mesh = category.instance_meshes[inst]
        inst_rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2**31 + 1, inst]))
        _, face_idx, bary = densify_mesh(
            mesh, view_distance, focal, densify_per_pixel, densify_max, inst_rng
        )
        for rho_index, rho in enumerate(rhos):
            morphed = interpolate_instance(mesh, category.fields[inst], rho)
            # Same barycentric pattern re-posed on the morphed vertices, so
            # surface samples correspond across rho values.
            obs_pts = np.einsum("ij,ijk->ik", bary, morphed.vertices[morphed.faces[face_idx]])
            delta = target_delta(category.fields[inst], rho)
            for view_index, view in enumerate(views):
                record = _generate_sample(
                    category, views[view_index], inst, rho, rho_index, view_index,
                    obs_pts, canon_renders[view_index], delta, out_dir,
                    zoom_resolution, export_scale, seed, split_fraction, splat_radius,
                )
                if record.status != "ok":
                    skipped += 1
                records.append(record)

    manifest_partial = out_dir / (MANIFEST_NAME + ".partial")
    with open(manifest_partial, "w") as fh:
        header = {
            "kind": "header",
            "instances": category.instance_count,
            "rhos": rhos,
            "views": len(views),
            "zoom_resolution": list(zoom_resolution),
            "export_scale": export_scale,
            "seed": int(seed),
            "split_fraction": split_fraction,
            "splat_radius": splat_radius,
            "records": total,
            "skipped": skipped,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for record in records:
            fh.write(record.to_json() + "\n")
    if skipped > MAX_SKIP_FRACTION * total:
        raise DatasetError(
            f"{skipped} of {total} samples failed (> {MAX_SKIP_FRACTION:.1%}); "
            f"manifest left at {manifest_partial}"
        )
    manifest_partial.rename(out_dir / MANIFEST_NAME)
    return records


def _generate_sample(
    category, view, inst, rho, rho_index, view_index, obs_pts, canon_render,
    delta, out_dir, zoom_resolution, export_scale, seed, split_fraction, splat_radius,
) -> SampleRecord:
    sample_dir = out_dir / str(inst) / _rho_dirname(rho) / str(view_index)
    seed_seq = _sample_seed(seed, inst, rho_index, view_index)
    split = "train" if np.random.default_rng(seed_seq).random() < split_fraction else "val"
    pose = {
        "quaternion": rotation_to_quaternion(view.rotation).tolist(),
        "translation": view.translation.tolist(),
        "focal": list(view.focal),
        "principal_point": list(view.principal_point),
        "resolution": list(view.resolution),
    }
    base = dict(
        instance_index=inst,
        rho=rho,
        view_index=view_index,
        pose=pose,
        resolution=tuple(int(v) for v in zoom_resolution),
        export_scale=float(export_scale),
        splat_radius=int(splat_radius),
        split=split,
        seed=int(seed),
    )
    try:
        if isinstance(canon_render, MorphFitError):
            raise canon_render
        observed = splat_position_image(obs_pts, view, splat_radius)
        zoomed = zoom(observed, canon_render, zoom_resolution)
        target = rasterize_target(zoomed.canonical, category.canonical_cloud, delta)
    except MorphFitError as exc:
        return SampleRecord(
            paths={}, crop_box=None, scale_factors=None, padded=False,
            status="skipped", reason=f"{type(exc).__name__}: {exc}", **base,
        )
    sample_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: str(sample_dir / name) for name in SAMPLE_FILES}
    write_tensor(paths["canon.pos.f32"], zoomed.canonical.data, "canonical position image (m)")
    write_mask(paths["canon.mask.pgm"], zoomed.canonical.mask)
    write_tensor(paths["obs.pos.f32"], zoomed.observed.data, "observed position image (m)")
    write_mask(paths["obs.mask.pgm"], zoomed.observed.mask)
    write_tensor(
        paths["target.f32"],
        target.data * export_scale,
        f"target deformation image (m x {export_scale:g})",
    )
    return SampleRecord(
        paths=paths,
        crop_box=tuple(zoomed.crop_box),
        scale_factors=tuple(zoomed.scale_factors),
        padded=zoomed.padded,
        **base,
    )


def read_manifest(path) -> tuple[dict, list[SampleRecord]]:
    """Parse a manifest back into (header, records)."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: manifest is not UTF-8 text: {exc}") from exc
    if not lines:
        raise DatasetError(f"{path}: empty manifest")
    header = _parse_manifest_line(path, 1, lines[0], json.loads)
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise DatasetError(f"{path}:1: not a manifest header")
    records = [
        _parse_manifest_line(path, number, line, SampleRecord.from_json)
        for number, line in enumerate(lines[1:], start=2)
    ]
    return header, records


def _parse_manifest_line(path: Path, number: int, line: str, parse):
    try:
        return parse(line)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise DatasetError(
            f"{path}:{number}: bad manifest line: {type(exc).__name__}: {exc}"
        ) from exc
