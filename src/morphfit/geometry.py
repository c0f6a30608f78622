"""Point clouds, meshes, the Gaussian kernel, and viewpoint generation.

Everything downstream (registration, shape spaces, completion, rendering)
is built on the primitives in this module.  All types are immutable after
construction and all operations are pure functions.

Conventions fixed here and inherited by every other module:

* Kernel matrices are oriented rows=queries, cols=anchors.
* 3n-vectors flatten point-major: (p0x, p0y, p0z, p1x, ...).
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ValidationError

__all__ = [
    "PointCloud",
    "Mesh",
    "DeformationField",
    "CameraView",
    "gaussian_kernel",
    "apply_deformation",
    "expand_kernel",
    "flatten_offsets",
    "unflatten_offsets",
    "voxel_downsample",
    "distinct_rows",
    "viewpoint_sphere",
    "look_at",
    "sample_mesh_surface",
    "rotation_to_quaternion",
    "quaternion_to_rotation",
]

DEFAULT_VIEW_RESOLUTION = (256, 192)
DEFAULT_FOCAL = (275.0, 275.0)


def _as_readonly(arr: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.flags.writeable = False
    return out


def _check_points(points: np.ndarray, name: str) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValidationError(f"{name} must have shape (n, 3), got {points.shape}")
    if points.shape[0] < 1:
        raise ValidationError(f"{name} must contain at least one point")
    if not np.all(np.isfinite(points)):
        raise ValidationError(f"{name} contains non-finite coordinates")
    return points


@dataclass(frozen=True)
class PointCloud:
    """Ordered set of 3D positions in meters."""

    points: np.ndarray

    def __post_init__(self):
        points = _check_points(self.points, "points")
        object.__setattr__(self, "points", _as_readonly(points))

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class Mesh:
    """Triangle mesh with optional per-vertex colors.

    ``vertices`` is (m, 3) float meters, ``faces`` is (f, 3) vertex indices,
    ``vertex_colors`` is (m, 3) uint8 RGB or None.
    """

    vertices: np.ndarray
    faces: np.ndarray
    vertex_colors: np.ndarray | None = None

    def __post_init__(self):
        vertices = _check_points(self.vertices, "vertices")
        if vertices.shape[0] < 3:
            raise ValidationError("mesh needs at least 3 vertices")
        faces = np.asarray(self.faces, dtype=np.int64)
        if faces.ndim != 2 or faces.shape[1] != 3 or faces.shape[0] < 1:
            raise ValidationError(f"faces must have shape (f, 3), got {faces.shape}")
        if faces.min() < 0 or faces.max() >= vertices.shape[0]:
            raise ValidationError("face index out of range")
        degenerate = (
            (faces[:, 0] == faces[:, 1])
            | (faces[:, 1] == faces[:, 2])
            | (faces[:, 0] == faces[:, 2])
        )
        if degenerate.any():
            raise ValidationError(f"{int(degenerate.sum())} degenerate faces")
        colors = self.vertex_colors
        if colors is not None:
            colors = np.asarray(colors)
            if colors.shape != (vertices.shape[0], 3):
                raise ValidationError(
                    f"vertex_colors must have shape ({vertices.shape[0]}, 3)"
                )
            colors = _as_readonly(colors, dtype=np.uint8)
        object.__setattr__(self, "vertices", _as_readonly(vertices))
        object.__setattr__(self, "faces", _as_readonly(faces, dtype=np.int64))
        object.__setattr__(self, "vertex_colors", colors)

    def with_vertices(self, vertices: np.ndarray) -> "Mesh":
        """Same topology and colors, new vertex positions."""
        return Mesh(vertices, self.faces, self.vertex_colors)


@dataclass(frozen=True)
class DeformationField:
    """Smooth warp defined by per-anchor 3D offset weights.

    Applying the field to a point set adds the kernel-blended weights:
    ``out = targets + K(targets, anchors) @ weights``.
    """

    anchors: PointCloud
    weights: np.ndarray
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValidationError(f"kernel width beta must be > 0, got {self.beta}")
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.shape != (len(self.anchors), 3):
            raise ValidationError(
                f"weights shape {weights.shape} does not match "
                f"{len(self.anchors)} anchors"
            )
        if not np.all(np.isfinite(weights)):
            raise ValidationError("weights contain non-finite entries")
        object.__setattr__(self, "weights", _as_readonly(weights))


@dataclass(frozen=True)
class CameraView:
    """Rigid world-to-camera pose plus pinhole intrinsics.

    ``rotation`` maps world to camera coordinates (rows are the camera axes
    expressed in world frame); the camera looks along +z with x right and
    y down.  ``resolution`` is (width, height) pixels.
    """

    rotation: np.ndarray
    translation: np.ndarray
    focal: tuple[float, float] = DEFAULT_FOCAL
    principal_point: tuple[float, float] | None = None
    resolution: tuple[int, int] = DEFAULT_VIEW_RESOLUTION

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        if rot.shape != (3, 3):
            raise ValidationError(f"rotation must be 3x3, got {rot.shape}")
        if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-8):
            raise ValidationError("rotation is not orthonormal")
        if np.linalg.det(rot) < 0:
            raise ValidationError("rotation has negative determinant")
        trans = np.asarray(self.translation, dtype=np.float64).reshape(3)
        width, height = self.resolution
        if width < 1 or height < 1:
            raise ValidationError(f"resolution must be positive, got {self.resolution}")
        pp = self.principal_point
        if pp is None:
            pp = (width / 2.0, height / 2.0)
        object.__setattr__(self, "rotation", _as_readonly(rot))
        object.__setattr__(self, "translation", _as_readonly(trans))
        object.__setattr__(self, "focal", (float(self.focal[0]), float(self.focal[1])))
        object.__setattr__(self, "principal_point", (float(pp[0]), float(pp[1])))
        object.__setattr__(self, "resolution", (int(width), int(height)))

    @property
    def position(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.rotation.T @ self.translation

    def to_camera(self, points: np.ndarray) -> np.ndarray:
        return points @ self.rotation.T + self.translation

    def shifted(self, offset) -> "CameraView":
        """View of the same camera with the scene shifted by ``offset``.

        Equivalent to leaving the scene alone and moving the camera by
        ``-offset``.
        """
        offset = np.asarray(offset, dtype=np.float64).reshape(3)
        return dataclasses.replace(
            self, translation=self.translation + self.rotation @ offset
        )


def _points_of(cloud) -> np.ndarray:
    if isinstance(cloud, PointCloud):
        return cloud.points
    if isinstance(cloud, Mesh):
        return cloud.vertices
    return _check_points(np.asarray(cloud, dtype=np.float64), "points")


def gaussian_kernel(queries, anchors, beta: float) -> np.ndarray:
    """Gaussian interaction kernel between two point sets.

    Entry (i, j) is ``exp(-||q_i - a_j||^2 / (2 beta^2))``: rows index the
    queries, columns the anchors.  Entries are in (0, 1], with 1 exactly
    where a query coincides with an anchor.  ``beta`` is the width in meters.
    """
    beta = float(beta)
    if not (np.isfinite(beta) and beta > 0):
        raise ValidationError(f"kernel width beta must be > 0, got {beta}")
    q = _points_of(queries)
    a = _points_of(anchors)
    # cdist forms differences before squaring, so coincident points give an
    # exact 0 distance and an exact 1.0 kernel entry.
    sq = cdist(q, a, "sqeuclidean")
    np.divide(sq, -2.0 * beta * beta, out=sq)
    return np.exp(sq)


def apply_deformation(targets, field: DeformationField):
    """Warp ``targets`` by a deformation field.

    Returns the same container type as the input (PointCloud in,
    PointCloud out; bare array in, bare array out) with identical
    cardinality and ordering.
    """
    pts = _points_of(targets)
    kernel = gaussian_kernel(pts, field.anchors, field.beta)
    moved = pts + kernel @ field.weights
    if isinstance(targets, PointCloud):
        return PointCloud(moved)
    return moved


def flatten_offsets(weights: np.ndarray) -> np.ndarray:
    """Flatten an (n, 3) offset matrix point-major into a 3n-vector."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] != 3:
        raise ValidationError(f"offsets must be (n, 3), got {weights.shape}")
    return weights.reshape(-1)

def unflatten_offsets(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`flatten_offsets`."""
    vec = np.asarray(vec, dtype=np.float64).reshape(-1)
    if vec.size % 3 != 0:
        raise ValidationError(f"flattened offsets must have length 3n, got {vec.size}")
    return vec.reshape(-1, 3)


def expand_kernel(kernel: np.ndarray) -> np.ndarray:
    """Expand an n-by-n kernel to act on point-major flattened offsets.

    The returned 3n-by-3n matrix satisfies
    ``expanded @ flatten_offsets(W) == flatten_offsets(kernel @ W)``:
    each scalar entry becomes that scalar times the 3x3 identity.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise ValidationError(f"kernel must be square, got {kernel.shape}")
    return np.kron(kernel, np.eye(3))


def voxel_downsample(cloud, leaf: float) -> PointCloud:
    """Reduce a cloud to one centroid per occupied voxel of size ``leaf``."""
    if not (np.isfinite(leaf) and leaf > 0):
        raise ValidationError(f"voxel leaf must be > 0, got {leaf}")
    pts = _points_of(cloud)
    keys = np.floor(pts / leaf).astype(np.int64)
    voxels, inverse = distinct_rows(keys)
    sums = np.zeros((len(voxels), 3))
    np.add.at(sums, inverse, pts)
    counts = np.bincount(inverse, minlength=len(voxels)).astype(np.float64)
    return PointCloud(sums / counts[:, None])


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct, repeat)`` with ``distinct[repeat]`` equal to ``rows``.

    ``distinct`` is in lexicographic row order, as ``np.unique(rows,
    axis=0)`` returns it.  Runs of equal consecutive rows collapse to
    their first row before a lexsort puts equal rows next to each other:
    a nearest-neighbour zoom repeats each source pixel along an image
    row, so the sort sees a fraction of the rows.  Both steps are several
    times faster than ``np.unique`` on (n, 3) rows.
    """
    heads = _run_starts(rows)
    firsts = rows[heads]
    order = np.lexsort(firsts.T[::-1])
    ordered = firsts[order]
    starts = _run_starts(ordered)
    head_repeat = np.empty(len(firsts), dtype=np.int64)
    head_repeat[order] = np.cumsum(starts) - 1
    return ordered[starts], head_repeat[np.cumsum(heads) - 1]


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """True at row 0 and wherever a row differs from the row before it."""
    starts = np.zeros(len(rows), dtype=bool)
    starts[:1] = True
    for differs in (rows[1:] != rows[:-1]).T:
        starts[1:] |= differs
    return starts


def look_at(eye, target=(0.0, 0.0, 0.0), **camera_kwargs) -> CameraView:
    """Camera at ``eye`` with the optical axis through ``target``.

    Up direction is world +z projected off the viewing axis, falling back
    to +x when looking along +-z.
    """
    eye = np.asarray(eye, dtype=np.float64).reshape(3)
    target = np.asarray(target, dtype=np.float64).reshape(3)
    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm == 0:
        raise ValidationError("camera eye coincides with target")
    forward = forward / norm
    up_hint = np.array([0.0, 0.0, 1.0])
    if abs(forward @ up_hint) > 1.0 - 1e-9:
        up_hint = np.array([1.0, 0.0, 0.0])
    up = up_hint - (up_hint @ forward) * forward
    up = up / np.linalg.norm(up)
    down = -up
    right = np.cross(down, forward)
    rotation = np.stack([right, down, forward])
    translation = -rotation @ eye
    return CameraView(rotation, translation, **camera_kwargs)


def viewpoint_sphere(count: int, radius: float, **camera_kwargs) -> list[CameraView]:
    """Deterministic Fibonacci-spiral camera ring around the origin.

    Every camera sits at distance ``radius`` looking at the origin; the
    first sample is on the +z axis.  Extra keyword arguments (focal,
    resolution, ...) are forwarded to each CameraView.
    """
    if count < 1:
        raise ValidationError(f"viewpoint count must be >= 1, got {count}")
    if not (np.isfinite(radius) and radius > 0):
        raise ValidationError(f"viewpoint radius must be > 0, got {radius}")
    indices = np.arange(count, dtype=np.float64)
    z = 1.0 - 2.0 * indices / max(count - 1, 1)
    azimuth = indices * np.pi * (3.0 - np.sqrt(5.0))
    ring = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    directions = np.stack([ring * np.cos(azimuth), ring * np.sin(azimuth), z], axis=1)
    return [look_at(radius * d, **camera_kwargs) for d in directions]


def rotation_to_quaternion(rotation: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation matrix, w >= 0."""
    r = np.asarray(rotation, dtype=np.float64)
    if r.shape != (3, 3):
        raise ValidationError(f"rotation must be 3x3, got {r.shape}")
    # Shepperd's method: pick the largest of the four squared components.
    trace = np.trace(r)
    candidates = np.array([trace, r[0, 0], r[1, 1], r[2, 2]])
    case = int(candidates.argmax())
    if case == 0:
        w = 0.5 * np.sqrt(1.0 + trace)
        scale = 0.25 / w
        q = np.array([
            w,
            (r[2, 1] - r[1, 2]) * scale,
            (r[0, 2] - r[2, 0]) * scale,
            (r[1, 0] - r[0, 1]) * scale,
        ])
    else:
        i = case - 1
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(1.0 + r[i, i] - r[j, j] - r[k, k])
        vec = np.empty(3)
        vec[i] = 0.5 * s
        scale = 0.25 / vec[i]
        vec[j] = (r[j, i] + r[i, j]) * scale
        vec[k] = (r[k, i] + r[i, k]) * scale
        q = np.concatenate([[(r[k, j] - r[j, k]) * scale], vec])
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


def quaternion_to_rotation(quaternion) -> np.ndarray:
    """Rotation matrix of a (w, x, y, z) quaternion; normalizes first."""
    q = np.asarray(quaternion, dtype=np.float64).reshape(4)
    norm = np.linalg.norm(q)
    if not (np.isfinite(norm) and norm > 0):
        raise ValidationError("quaternion must be nonzero and finite")
    w, x, y, z = q / norm
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def sample_mesh_surface(mesh: Mesh, count: int, rng=None):
    """Area-weighted random points on a mesh surface.

    Returns ``(points, face_indices, barycentric)`` so the same sample
    pattern can be re-posed on a deformed copy of the mesh (same topology)
    by recombining barycentric coordinates with the new vertices.
    """
    if count < 1:
        raise ValidationError(f"sample count must be >= 1, got {count}")
    rng = np.random.default_rng(rng)
    tri = mesh.vertices[mesh.faces]
    areas = 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1
    )
    total = areas.sum()
    if total <= 0:
        raise ValidationError("mesh has zero surface area")
    face_idx = rng.choice(len(areas), size=count, p=areas / total)
    u = rng.random(count)
    v = rng.random(count)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    bary = np.stack([1.0 - u - v, u, v], axis=1)
    points = np.einsum("ij,ijk->ik", bary, mesh.vertices[mesh.faces[face_idx]])
    return points, face_idx, bary
