"""Training-corpus generation: morphs, renders, targets, manifest.

Each category instance is morphed part-way toward the canonical shape by
a blend factor rho, rendered together with the canonical model from a
ring of viewpoints, zoomed, and paired with a rasterized target image of
the remaining deformation.  A JSON-lines manifest records everything
needed to regenerate any single sample byte-for-byte.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cpd import cpd_nonrigid
from .errors import DatasetError, MorphFitError, ValidationError
from .geometry import (
    DEFAULT_VIEW_RESOLUTION,
    DeformationField,
    Mesh,
    PointCloud,
    _kept_kernel,
    barycentric_points,
    gaussian_kernel,
    rotation_to_quaternion,
    sample_mesh_surface,
    stream,
    voxel_downsample,
)
from .imaging import (
    DEFAULT_SPLAT_RADIUS, PositionImage, _built, splat_position_image, target_field, zoom,
)
from .io import commit, write_mask, write_tensor, writing
from .shape_space import Registration, TrainingField

__all__ = [
    "SampleRecord",
    "register_instances",
    "warn_if_capped",
    "default_cloud_leaf",
    "interpolate_instance",
    "target_delta",
    "generate_dataset",
    "read_manifest",
    "densify_count",
    "densify_mesh",
    "mesh_cloud",
    "rho_problems",
    "sample_count_formula",
]

MANIFEST_NAME = "manifest.jsonl"
SAMPLE_FILES = ("canon.pos.f32", "canon.mask.pgm", "obs.pos.f32", "obs.mask.pgm", "target.f32")
# Skipped samples beyond this fraction of the run abort it.
MAX_SKIP_FRACTION = 0.001
DENSIFY_PER_PIXEL = 20.0  # densify_count's samples per expected pixel footprint
DENSIFY_MAX = 60000  # densify_count's cap on them


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
        return json.dumps(vars(self), sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "SampleRecord":
        raw = json.loads(line)
        for key in ("crop_box", "scale_factors"):  # None on a skipped record
            raw[key] = tuple(raw[key]) if raw[key] is not None else None
        raw["resolution"] = tuple(raw["resolution"])
        return SampleRecord(**raw)


def register_instances(canonical_cloud: PointCloud, meshes, registration: Registration,
                       *, seed: int = 0, stored=()):
    """Register meshes onto the canonical cloud by the category's recipe.

    Each mesh first becomes its :func:`mesh_cloud`, drawn from the stream
    salted with its index plus one.  ``stored`` holds TrainingFields made
    by this cloud (a space's ``fields``): a mesh whose digest, seed and
    salt match one of them that was registered by ``registration`` takes
    it instead of being registered again, which gives the same field.
    Every mesh whose CPD stopped at the iteration cap is reported by a
    ``warning:`` line on stderr, which names it by its index.  Returns the
    TrainingFields, anchored at the canonical cloud.
    """
    reusable = {(t.mesh_sha1, t.seed, t.salt): t for t in stored
                if t.registration == registration}
    trained = []
    for index, mesh in enumerate(meshes):
        salt, digest = index + 1, _mesh_sha1(mesh)
        kept = reusable.get((digest, seed, salt))
        if kept is None:
            result = cpd_nonrigid(mesh_cloud(mesh, registration, seed, salt), canonical_cloud,
                                  registration.cpd)
            kept = TrainingField(result.field, digest, seed, salt, result.iterations,
                                 result.converged, registration)
        warn_if_capped(kept, f"registration of instance {index}")
        trained.append(kept)
    return tuple(trained)


def _mesh_sha1(mesh: Mesh) -> str:
    """Hex sha1 of a mesh's vertex count (<i8), vertices (<f8) and faces (<i8)."""
    digest = hashlib.sha1(len(mesh.vertices).to_bytes(8, "little"))
    digest.update(np.ascontiguousarray(mesh.vertices, dtype="<f8"))
    digest.update(np.ascontiguousarray(mesh.faces, dtype="<i8"))
    return digest.hexdigest()


def warn_if_capped(result, subject: str) -> bool:
    """Print a ``warning:`` line on stderr when a CpdResult or TrainingField
    stopped at its iteration cap; returns whether it did."""
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


def mesh_cloud(mesh: Mesh, registration: Registration, seed: int, salt: int) -> PointCloud:
    """Registration stand-in for a mesh by the category's recipe.

    The recipe's ``dense_count`` area-weighted surface samples, drawn from
    the ``"cloud"`` stream at ``salt`` (see :data:`~morphfit.geometry.STREAMS`),
    which tells apart the meshes of one run, are merged per voxel of size
    ``cloud_leaf``.
    """
    pts, _, _ = sample_mesh_surface(mesh, registration.dense_count, stream(seed, "cloud", salt))
    return voxel_downsample(pts, registration.cloud_leaf)


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
    kernel = _kept_kernel(field.anchors.points, field.anchors.points, field.beta)
    return kernel @ ((1.0 - rho) * field.weights)


def densify_count(mesh: Mesh, views) -> int:
    """How many samples :func:`densify_mesh` draws, known before any draw.

    :data:`DENSIFY_PER_PIXEL` samples per expected pixel footprint at the
    views' mean distance and the first view's focal lengths, at least the
    vertex count and 64, at most :data:`DENSIFY_MAX`; both read at call time.
    """
    view_distance = float(np.mean([np.linalg.norm(v.position) for v in views]))
    focal = views[0].focal
    pixels = mesh.area * focal[0] * focal[1] / max(view_distance, 1e-9) ** 2
    # Clamped as a float, so an infinite pixel count takes the cap.
    return math.ceil(min(max(mesh.vertices.shape[0], 64, DENSIFY_PER_PIXEL * pixels), DENSIFY_MAX))


def densify_mesh(mesh: Mesh, views, rng: np.random.Generator):
    """Surface samples dense enough for gap-free splatting, drawn from ``rng``.

    Draws :func:`densify_count` samples; returns (points, face_indices,
    barycentric) so the pattern can be re-posed on a morphed copy.
    """
    return sample_mesh_surface(mesh, densify_count(mesh, views), rng)


def rho_problems(rhos) -> list[str]:
    """What is wrong with ``rhos``: none listed, one outside [0, 1], or two that
    name one sample directory, ``format(rho, "g")``."""
    problems = [] if rhos else ["rhos must list at least one value"]
    problems += [f"rhos entries must be in [0, 1], got {rho}" for rho in rhos if not 0 <= rho <= 1]
    named = {}
    for rho in rhos:
        name = format(rho, "g")
        if name in named:
            problems.append(f"rhos {named[name]!r} and {rho!r} both name sample directory {name!r}")
        else:
            named[name] = rho
    return problems


def sample_count_formula(total_models: int, n_rhos: int, n_views: int) -> int:
    """Records produced from a category: (total - canonical - 2 test) per cell."""
    return (total_models - 3) * n_rhos * n_views


def generate_dataset(
    canonical_mesh: Mesh,
    meshes,
    fields,
    views,
    rhos,
    out_dir,
    *,
    zoom_resolution: tuple[int, int] = DEFAULT_VIEW_RESOLUTION,
    export_scale: float = 1000.0,
    seed: int = 0,
    split_fraction: float = 0.9,
    splat_radius: int = DEFAULT_SPLAT_RADIUS,
) -> list[SampleRecord]:
    """Export every (instance, rho, view) sample plus the manifest.

    ``fields[i]`` warps the canonical cloud, its anchors, onto
    ``meshes[i]``; held-out test instances must simply not be passed.
    Every mesh is densified by :func:`densify_count`'s recipe.  The
    manifest is committed through :func:`morphfit.io.commit`, so an
    interrupted run leaves it only as ``manifest.jsonl.partial``.
    Individual render failures are recorded as skipped; more than 0.1% of
    them abort the run, leaving the manifest under that name.  A target
    field's RasterizeError (the shared anchors decide it) ends the run at once,
    before ``out_dir`` exists: the first sample written, or the manifest, makes it.
    """
    meshes, fields, views = list(meshes), list(fields), list(views)
    rhos = [float(r) for r in rhos]
    if not meshes or len(fields) != len(meshes):
        raise ValidationError(f"need at least one mesh and one field per mesh, "
                              f"got {len(meshes)} meshes and {len(fields)} fields")
    if not views:
        raise ValidationError("need at least one view")
    if problems := rho_problems(rhos):
        raise ValidationError(problems[0])
    if not (0.0 < split_fraction <= 1.0):
        raise ValidationError(f"split_fraction must be in (0, 1], got {split_fraction}")
    if export_scale <= 0:
        raise ValidationError(f"export_scale must be > 0, got {export_scale}")
    out_dir = Path(out_dir)

    canon_pts, _, _ = densify_mesh(canonical_mesh, views, stream(seed, "dataset_canonical"))
    # Each canonical view is kept as its foreground alone (flat pixel indices
    # and positions); a sample rebuilds its full frame just before the zoom,
    # so the run holds one frame at a time, not one per view.
    canon_views = []
    poses = []
    for view in views:
        poses.append({
            "quaternion": rotation_to_quaternion(view.rotation).tolist(),
            "translation": view.translation.tolist(),
            "focal": list(view.focal),
            "principal_point": list(view.principal_point),
            "resolution": list(view.resolution),
        })
        try:
            canon_views.append(_foreground(splat_position_image(canon_pts, view, splat_radius)))
        except MorphFitError as exc:
            # A view that cannot see the canonical model fails every sample
            # that uses it; record the failure per sample instead of aborting.
            canon_views.append(exc)
    del canon_pts

    common = dict(resolution=tuple(int(v) for v in zoom_resolution),
                  export_scale=float(export_scale), splat_radius=int(splat_radius),
                  seed=int(seed))
    records: list[SampleRecord] = []
    skipped = 0
    total = len(meshes) * len(rhos) * len(views)
    for inst, (mesh, field) in enumerate(zip(meshes, fields)):
        _, face_idx, bary = densify_mesh(mesh, views, stream(seed, "dataset_instance", inst))
        for rho_index, rho in enumerate(rhos):
            morphed = interpolate_instance(mesh, field, rho)
            # Same barycentric pattern re-posed on the morphed vertices, so
            # surface samples correspond across rho values.
            obs_pts = barycentric_points(morphed.vertices[morphed.faces], face_idx, bary)
            target = target_field(field.anchors, target_delta(field, rho))
            for view_index, (view, pose, canon_view) in enumerate(
                    zip(views, poses, canon_views)):
                draw = stream(seed, "split", inst, rho_index, view_index).random()
                base = dict(common, instance_index=inst, rho=rho, view_index=view_index,
                            pose=pose, split="train" if draw < split_fraction else "val")
                try:
                    if isinstance(canon_view, MorphFitError):
                        raise canon_view
                    # The source frames are temporaries, freed when the zoom
                    # returns: only their copied pixels are kept.
                    sample = zoom(splat_position_image(obs_pts, view, splat_radius),
                                  _frame(canon_view, view.resolution), target, zoom_resolution)
                except MorphFitError as exc:
                    skipped += 1
                    records.append(SampleRecord(
                        paths={}, crop_box=None, scale_factors=None, padded=False,
                        status="skipped", reason=f"{type(exc).__name__}: {exc}", **base,
                    ))
                    continue
                sample_dir = out_dir / str(inst) / format(rho, "g") / str(view_index)
                paths = {name: str(sample_dir / name) for name in SAMPLE_FILES}
                with writing(sample_dir):
                    sample_dir.mkdir(parents=True, exist_ok=True)
                    # Target first: one beyond float32 is refused before any file.
                    write_tensor(paths["target.f32"], sample.target.data * export_scale,
                                 f"target deformation image (m x {export_scale:g})")
                    write_tensor(paths["canon.pos.f32"], sample.canonical.data,
                                 "canonical position image (m)")
                    write_mask(paths["canon.mask.pgm"], sample.canonical.mask)
                    write_tensor(paths["obs.pos.f32"], sample.observed.data,
                                 "observed position image (m)")
                    write_mask(paths["obs.mask.pgm"], sample.observed.mask)
                records.append(SampleRecord(
                    paths=paths, crop_box=tuple(sample.crop_box),
                    scale_factors=tuple(sample.scale_factors), padded=sample.padded, **base,
                ))
                # Free this sample's images before the next one renders; held
                # across iterations they add about 6 MB to the peak RSS.
                del sample

    header = {
        "kind": "header",
        "instances": len(meshes),
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

    def write_manifest(path):
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for record in records:
                fh.write(record.to_json() + "\n")
        if skipped > MAX_SKIP_FRACTION * total:
            raise DatasetError(
                f"{skipped} of {total} samples failed (> {MAX_SKIP_FRACTION:.1%}); "
                f"manifest left at {path}"
            )

    with writing(out_dir):  # not yet made if every sample was skipped
        out_dir.mkdir(parents=True, exist_ok=True)
    commit({out_dir / MANIFEST_NAME: write_manifest})
    return records


def _foreground(image: PositionImage) -> tuple[np.ndarray, np.ndarray]:
    """An image's flat foreground pixel indices and their positions, for :func:`_frame`."""
    lit = np.flatnonzero(image.mask)
    return lit, image.data.reshape(-1, 3)[lit]


def _frame(view, resolution) -> PositionImage:
    """The position image of a :func:`_foreground` pair at ``resolution`` (width, height)."""
    lit, positions = view
    width, height = resolution
    data = np.zeros((height * width, 3))
    data[lit] = positions
    mask = np.zeros(height * width, dtype=bool)
    mask[lit] = True
    return _built(PositionImage, data.reshape(height, width, 3), mask.reshape(height, width))


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
