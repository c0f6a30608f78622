"""Point clouds, meshes, the Gaussian kernel, and viewpoint generation.

Everything downstream (registration, shape spaces, completion, rendering)
is built on the primitives in this module.  All types are immutable after
construction and all operations are pure functions.

Conventions fixed here and inherited by every other module:

* Kernel matrices are oriented rows=queries, cols=anchors.
* 3n-vectors flatten point-major: (p0x, p0y, p0z, p1x, ...).
* Every seeded draw comes from :func:`stream`, by its tag in :data:`STREAMS`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    "barycentric_points",
    "triangle_areas",
    "rotation_to_quaternion",
    "quaternion_to_rotation",
    "stream",
]

DEFAULT_VIEW_RESOLUTION = (256, 192)  # also the zoomed images' size
FOCAL_PER_WIDTH = 275.0 / 256.0  # a horizontal field of view of about 50 degrees
DEFAULT_FOCAL = (FOCAL_PER_WIDTH * DEFAULT_VIEW_RESOLUTION[0],) * 2
MAX_PIXELS = 4096 * 4096  # largest camera image; its position image takes 400 MB
MAX_VIEWS = 1024  # most viewpoint_sphere cameras, about 14x the paper's 74-view sphere
MAX_SURFACE_SAMPLES = 2**20  # most sample_mesh_surface points, 128x build-space's default
MAX_KEPT_KERNEL_ENTRIES = 2**22  # largest kernel kept across calls: 32 MB, a 2,048-point square
MAX_SEED = 2**32 - 1  # largest seed that stays one key word (see stream)
_DRAW_CELLS = 2**16  # most cells of sample_mesh_surface's face-draw table
_BARY_BLOCK = 8192  # rows per corner gather in barycentric_points

# Every seeded draw: tag -> (key word, index count).  A seed key is padded
# with zero words to four, so [s, 3, 1] is also [s, 3, 1, 0]: hence one word
# and one index count per tag, and no two draws share a stream.
STREAMS = {
    "dataset_canonical": (2**31, 0),  # gen-dataset's dense samples of the canonical mesh
    "dataset_instance": (2**31 + 1, 1),  # ... of model i
    "cloud": (3, 1),  # mesh_cloud's samples of the mesh of a salt (below)
    "pose_noise": (4, 2),  # the sweep's believed-pose offset of (draw, view)
    "oracle_noise": (5, 2),  # the noisy oracle's noise for (draw, view)
    "split": (6, 3),  # gen-dataset's train/val draw of (instance, rho index, view)
    "pipeline_dense": (8, 1),  # prepare_instance's dense samples: 0 canonical, 1 observed
}
# Cloud salts: CANONICAL_SALT, i + 1 for training mesh i, OBSERVED_SALT for a
# held-out mesh.  OBSERVED_SALT is a ninth training mesh's, kept for its bytes.
CANONICAL_SALT, OBSERVED_SALT = 0, 9


def stream(seed: int, tag: str, *index: int) -> np.random.Generator:
    """The generator of draw ``tag`` at ``index``, keyed ``[seed, word, *index]``.

    A seed above :data:`MAX_SEED` would split into two key words and share
    its streams with another seed's, so it is refused.
    """
    if not 0 <= seed <= MAX_SEED:
        raise ValidationError(f"seed must be in [0, {MAX_SEED}], got {seed}")
    word, count = STREAMS[tag]
    if len(index) != count:
        raise ValueError(f"stream {tag!r} takes {count} indices, got {len(index)}")
    return np.random.default_rng(np.random.SeedSequence([int(seed), word, *index]))


def _as_readonly(arr: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.flags.writeable = False
    return out


# What the process keeps across calls (the parsed input files, the prepared
# instance's parts, the space's kernel products, the last warp's or CPD's
# kernel and the canonical baseline): part name -> (key, value), one each.
_KEPT: dict = {}


def _kept(part: str, key, make):
    """``part``'s value at ``key``: the kept one if its key equals ``key``.

    Otherwise the kept entry is dropped first, so a part never holds two
    values, then ``make()`` is kept under ``key`` and returned.  A
    ``make`` that raises leaves the part empty.
    """
    entry = _KEPT.get(part)
    if entry is not None and entry[0] == key:
        return entry[1]
    _KEPT.pop(part, None)
    value = make()
    _KEPT[part] = key, value
    return value


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

    @cached_property
    def area(self) -> float:
        """Total surface area, summed once per mesh: its arrays are read-only."""
        return float(triangle_areas(self.vertices[self.faces]).sum())


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


def _pair(value, name: str, kind) -> tuple:
    """The two finite numbers of ``value`` as ``kind``: a string, a bool, another
    length or, for ``int``, a fraction is refused."""
    pair = tuple(value) if isinstance(value, (tuple, list, np.ndarray)) else ()
    whole = [isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in pair]
    if len(pair) != 2 or not all(w or isinstance(v, (float, np.floating)) and np.isfinite(v)
                                 and (kind is float or v.is_integer()) for v, w in zip(pair, whole)):
        kinds = "finite numbers" if kind is float else "integers"
        raise ValidationError(f"{name} must be two {kinds}, got {value!r}")
    return tuple(map(kind, pair))


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
        if not np.isfinite(trans).all():
            raise ValidationError(f"translation must be finite, got {trans.tolist()}")
        width, height = _pair(self.resolution, "resolution", int)
        if width < 1 or height < 1:
            raise ValidationError(f"resolution must be positive, got {self.resolution}")
        if width * height > MAX_PIXELS:
            raise ValidationError(f"resolution {width}x{height} exceeds the {MAX_PIXELS}-pixel limit")
        focal = _pair(self.focal, "focal lengths", float)
        # densify_mesh scales by the product: it must not round to 0 or inf.
        if not (min(focal) > 0 and 0 < focal[0] * focal[1] < np.inf):
            raise ValidationError(f"focal lengths must be > 0 with a finite, nonzero product, "
                                  f"got {focal}")
        pp = self.principal_point
        pp = _pair((width / 2.0, height / 2.0) if pp is None else pp, "principal point", float)
        object.__setattr__(self, "rotation", _as_readonly(rot))
        object.__setattr__(self, "translation", _as_readonly(trans))
        object.__setattr__(self, "focal", focal)
        object.__setattr__(self, "principal_point", pp)
        object.__setattr__(self, "resolution", (width, height))

    @property
    def position(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.rotation.T @ self.translation

    def to_camera(self, points: np.ndarray) -> np.ndarray:
        """``points`` in camera coordinates as numpy's own float64, not the equal
        dtype of a pickled rotation, on which ``np.minimum.at`` is slow."""
        cam = (self.rotation @ points.T).T
        cam += self.translation
        return cam.view(np.float64)


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


def _kept_kernel(queries: np.ndarray, anchors: np.ndarray, beta: float) -> np.ndarray:
    """``gaussian_kernel``, read-only, kept as "kernel" by both point sets' bytes and beta.

    A kernel of more than :data:`MAX_KEPT_KERNEL_ENTRIES` entries is
    formed afresh and not kept, and the kept one stays.
    """
    def make():
        return _as_readonly(gaussian_kernel(queries, anchors, beta))

    if len(queries) * len(anchors) > MAX_KEPT_KERNEL_ENTRIES:
        return make()
    return _kept("kernel", (queries.tobytes(), anchors.tobytes(), beta), make)


def apply_deformation(targets, field: DeformationField):
    """Warp ``targets`` by a deformation field.

    Returns the same container type as the input (PointCloud in,
    PointCloud out; bare array in, bare array out) with identical
    cardinality and ordering.  The kernel depends on no weights: the
    process keeps the most recent one, read-only, keyed by the targets, the
    anchors and beta by value, and shares it with
    :func:`~morphfit.cpd.cpd_nonrigid` (the moving cloud against itself).
    """
    pts = _points_of(targets)
    kernel = _kept_kernel(pts, field.anchors.points, field.beta)
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
    # One bincount per column adds the points of a voxel in input order, as
    # np.add.at does, so the sums are the same bits, several times faster.
    sums = np.stack([np.bincount(inverse, weights=column, minlength=len(voxels))
                     for column in pts.T], axis=1)
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
    if not 1 <= count <= MAX_VIEWS:
        raise ValidationError(f"viewpoint count must be in [1, {MAX_VIEWS}], got {count}")
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
    with np.errstate(over="ignore"):  # a norm beyond the float range is rejected below
        norm = np.linalg.norm(q)
    if not (np.isfinite(norm) and norm > 0):
        raise ValidationError("quaternion must be nonzero and finite")
    w, x, y, z = q / norm
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def sample_mesh_surface(mesh: Mesh, count: int, rng: np.random.Generator):
    """Area-weighted random points on a mesh surface, drawn from the Generator
    ``rng``, such as a :func:`stream`; anything else is a ValidationError.

    Returns ``(points, face_indices, barycentric)`` so the same sample
    pattern can be re-posed on a deformed copy of the mesh (same topology)
    by recombining barycentric coordinates with the new vertices.
    """
    if not 1 <= count <= MAX_SURFACE_SAMPLES:
        raise ValidationError(f"sample count must be in [1, {MAX_SURFACE_SAMPLES}], got {count}")
    if not isinstance(rng, np.random.Generator):
        raise ValidationError(f"rng must be a numpy Generator, got {type(rng).__name__}")
    tri = mesh.vertices[mesh.faces]
    areas = triangle_areas(tri)
    total = areas.sum()
    if total <= 0:
        raise ValidationError("mesh has zero surface area")
    face_idx = _draw_faces(areas / total, count, rng)
    u = rng.random(count)
    v = rng.random(count)
    flip = u + v > 1.0
    u = np.where(flip, 1.0 - u, u)
    v = np.where(flip, 1.0 - v, v)
    bary = np.stack([1.0 - u - v, u, v], axis=1)
    return barycentric_points(tri, face_idx, bary), face_idx, bary


def _draw_faces(p: np.ndarray, count: int, rng) -> np.ndarray:
    """``rng.choice(len(p), size=count, p=p)``: the same draws and indices, faster.

    Generator.choice searches a uniform key per sample in the cumulative
    distribution.  Here a table of power-of-two cells over [0, 1), at most
    ``_DRAW_CELLS`` of them and about 16 per face, answers every key whose
    cell holds no cdf value; only the other keys are searched.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    keys = rng.random(count)
    cells = min(_DRAW_CELLS, 1 << (16 * len(cdf)).bit_length())
    # Scaling by a power of two is exact, so the cell of a value is exact:
    # ``first[c]`` counts the cdf values <= c / cells, and cell c holds one
    # strictly inside where fewer are < (c + 1) / cells.
    scaled = cdf * cells
    first = np.bincount(np.ceil(scaled).astype(np.int64), minlength=cells + 1).cumsum()
    below_next = np.bincount(np.floor(scaled).astype(np.int64), minlength=cells + 1).cumsum()
    mixed_cell = below_next[:cells] != first[:cells]
    cell = (keys * cells).astype(np.int64)
    face_idx = first[cell]
    mixed = np.flatnonzero(mixed_cell[cell])
    face_idx[mixed] = cdf.searchsorted(keys[mixed], side="right")
    return face_idx


def triangle_areas(tri: np.ndarray) -> np.ndarray:
    """Area of each triangle of ``tri``, (f, 3, 3) corners."""
    return 0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)


def barycentric_points(tri: np.ndarray, face_idx: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """Row i is ``bary[i] @ tri[face_idx[i]]``: barycentric coordinates on triangles.

    ``tri`` holds each face's corners, (f, 3, 3).  The corners are gathered
    one block of rows at a time, so the (count, 3, 3) array of them never
    exists whole; every row equals the whole-array einsum's bit for bit.
    """
    out = np.empty((len(face_idx), 3))
    for start in range(0, len(face_idx), _BARY_BLOCK):
        rows = slice(start, start + _BARY_BLOCK)
        np.einsum("ij,ijk->ik", bary[rows], tri[face_idx[rows]], out=out[rows])
    return out
