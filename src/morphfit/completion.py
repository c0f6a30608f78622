"""Recovering a full deformation field from partial per-pixel observations.

Foreground pixels vote deltas onto their nearest canonical points; the
latent vector whose decoded field best explains the visible points (in
least squares) then fills in the occluded rest of the object.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lstsq
from scipy.spatial import cKDTree

from .errors import NoVisiblePointsError, ValidationError
from .geometry import (
    DeformationField,
    Mesh,
    PointCloud,
    _as_readonly,
    _kept,
    _kept_kernel,
    apply_deformation,
)
from .imaging import DeformationImage, ZoomResult
from .shape_space import ShapeSpace, latent_to_field

__all__ = [
    "SparseDeltas",
    "CompletionResult",
    "nearest_canonical_points",
    "pixels_to_sparse_deltas",
    "fit_latent",
    "reconstruct_mesh",
    "cross_instance_correspondence",
]


@dataclass(frozen=True)
class SparseDeltas:
    """Per-canonical-point observed offsets, defined only on visible points.

    ``deltas`` is (n, 3) with rows outside ``visible_indices`` exactly
    zero.  Visibility is carried by the index set, never inferred from
    zero rows: an observed delta of zero is a valid measurement.
    """

    deltas: np.ndarray
    visible_indices: np.ndarray

    def __post_init__(self):
        deltas = np.asarray(self.deltas, dtype=np.float64)
        if deltas.ndim != 2 or deltas.shape[1] != 3:
            raise ValidationError(f"deltas must be (n, 3), got {deltas.shape}")
        vis = np.asarray(self.visible_indices, dtype=np.int64).reshape(-1)
        n = deltas.shape[0]
        if vis.size < 1:
            raise ValidationError("at least one visible point required")
        if (np.diff(vis) <= 0).any():
            raise ValidationError("visible_indices must be strictly increasing")
        if vis[0] < 0 or vis[-1] >= n:
            raise ValidationError(f"visible index out of range [0, {n})")
        if not np.all(np.isfinite(deltas[vis])):
            raise ValidationError("visible deltas contain non-finite entries")
        hidden = np.ones(n, dtype=bool)
        hidden[vis] = False
        if deltas[hidden].any():
            raise ValidationError("rows outside visible_indices must be exactly zero")
        deltas = np.ascontiguousarray(deltas)
        deltas.flags.writeable = False
        vis = np.ascontiguousarray(vis)
        vis.flags.writeable = False
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "visible_indices", vis)

    @property
    def visible_count(self) -> int:
        return int(self.visible_indices.size)


@dataclass(frozen=True)
class CompletionResult:
    latent: np.ndarray
    field: DeformationField
    residual: float
    degenerate: bool = False


def nearest_canonical_points(canonical: PointCloud, queries: np.ndarray) -> np.ndarray:
    """Index of the nearest canonical point per query, ties to lowest index.

    The tree is asked for two neighbours per query.  Only a query whose
    two distances are equal is asked again, for eight, and takes the
    lowest index among those at the first distance.  A distance is
    computed the same way whatever the neighbour count, so this is the
    eight-neighbour rule's result for every query.
    """
    pts = canonical.points
    n = pts.shape[0]
    tree = cKDTree(pts)
    dist, idx = tree.query(queries, k=min(2, n))
    if n == 1:
        return np.atleast_1d(idx).astype(np.int64)
    dist = np.atleast_2d(dist)
    owners = np.atleast_2d(idx)[:, 0].astype(np.int64)
    tied = np.flatnonzero(dist[:, 0] == dist[:, 1])
    dist, idx = tree.query(np.atleast_2d(queries)[tied], k=min(8, n))
    owners[tied] = np.where(dist == dist[:, :1], idx, n).min(axis=1)
    return owners


def pixels_to_sparse_deltas(deformation: DeformationImage, sample: ZoomResult,
                            canonical: PointCloud) -> SparseDeltas:
    """Aggregate the per-pixel deltas of a prediction for ``sample`` onto canonical points.

    Zoomed pixel (i, j) sits on pixel ``(row_at[i], col_at[j])`` of the
    sample's :attr:`~morphfit.imaging.ZoomResult.believed` grid, whose
    position selects its nearest canonical point, looked up once per
    distinct position; a point hit by several pixels gets the mean of
    their deltas in meters, summed in pixel order.  Points hit by no
    pixel stay occluded (zero row, absent from the visible set).
    """
    mask, row_at, col_at = deformation.mask, sample.row_at, sample.col_at
    if mask.shape != (len(row_at), len(col_at)):
        raise ValidationError(
            f"resolution mismatch: deform {deformation.data.shape}, "
            f"zoom {(len(row_at), len(col_at))}"
        )
    foreground = np.flatnonzero(mask)
    if not foreground.size:
        raise NoVisiblePointsError("mask has no foreground pixels")
    position = sample.believed
    sources, distinct, repeat = position.distinct
    owner_at = np.full(position.mask.size + 1, -1, dtype=np.int64)
    owner_at[sources] = nearest_canonical_points(canonical, distinct)[repeat]
    rows, cols = np.divmod(foreground, mask.shape[1])
    rows, cols = row_at[rows], col_at[cols]
    height, width = position.mask.shape
    inside = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)
    owners = owner_at[np.where(inside, rows * width + cols, -1)]
    if (owners < 0).any():
        raise ValidationError("a foreground pixel sits on no foreground position")
    pixel_deltas = np.take(deformation.data.reshape(-1, 3), foreground, axis=0)
    pixel_deltas /= deformation.scale
    n = len(canonical)
    # bincount sums in input order, as np.add.at does, at a tenth of its cost.
    sums = np.stack([np.bincount(owners, weights=pixel_deltas[:, axis], minlength=n)
                     for axis in range(3)], axis=1)
    counts = np.bincount(owners, minlength=n)
    visible = np.flatnonzero(counts)
    deltas = np.zeros((n, 3))
    deltas[visible] = sums[visible] / counts[visible, None]
    return SparseDeltas(deltas, visible)


def _expanded_kernel_apply(kernel: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Apply the 3n-expanded kernel to point-major flattened columns.

    Algebraically identical to expand_kernel(kernel) @ flat without ever
    forming the 3n x 3n matrix.
    """
    n = kernel.shape[0]
    if flat.ndim == 1:
        return (kernel @ flat.reshape(n, 3)).reshape(-1)
    cols = flat.shape[1]
    mixed = np.einsum("ij,jck->ick", kernel, flat.reshape(n, 3, cols))
    return mixed.reshape(3 * n, cols)


def _blended(space: ShapeSpace):
    """The space's kernel products: the expanded kernel of the canonical
    cloud at width beta applied to the basis and to the mean, read-only."""
    kernel = _kept_kernel(space.canonical.points, space.canonical.points, space.beta)
    return (_as_readonly(_expanded_kernel_apply(kernel, space.basis)),
            _as_readonly(_expanded_kernel_apply(kernel, space.mean)))


def fit_latent(space: ShapeSpace, sparse: SparseDeltas, ridge: float = 0.0) -> CompletionResult:
    """Least-squares latent fit to the visible deltas.

    Solves ``argmin_x ||A x - B||^2 (+ ridge ||x||^2)`` where A stacks the
    visible rows of the expanded-kernel-times-basis matrix and B the
    visible deltas minus the mean field's contribution.  Rank deficiency
    with ridge = 0 yields the minimal-norm solution and sets the
    degeneracy flag.

    The kernel products depend on the space alone, so the process keeps
    one entry of them, the most recent, keyed by value: the canonical
    points, the mean, the basis and beta.  A later call on an equal space,
    loaded anew or not, reuses them; products that failed are not kept.
    They read the canonical kernel kept by :func:`~morphfit.geometry.apply_deformation`.
    Separate processes share nothing.
    """
    if ridge < 0:
        raise ValidationError(f"ridge must be >= 0, got {ridge}")
    n = len(space.canonical)
    if sparse.deltas.shape[0] != n:
        raise ValidationError(
            f"sparse deltas have {sparse.deltas.shape[0]} rows, canonical has {n}"
        )
    key = (space.canonical.points.tobytes(), space.mean.tobytes(), space.basis.tobytes(),
           space.beta)
    blended_basis, blended_mean = _kept("kernel products", key, lambda: _blended(space))

    vis = sparse.visible_indices
    rows = (3 * vis[:, None] + np.arange(3)[None, :]).reshape(-1)
    a = blended_basis[rows]
    b = sparse.deltas[vis].reshape(-1) - blended_mean[rows]

    if ridge > 0.0:
        a_solve = np.vstack([a, np.sqrt(ridge) * np.eye(space.latent_dim)])
        b_solve = np.concatenate([b, np.zeros(space.latent_dim)])
    else:
        a_solve, b_solve = a, b
    # gelsy: column-pivoted orthogonal factorization, minimal-norm on rank
    # deficiency, no SVD cost.
    latent, _, rank, _ = lstsq(a_solve, b_solve, lapack_driver="gelsy")
    residual = float(np.sum((a @ latent - b) ** 2))
    degenerate = bool(ridge == 0.0 and rank < space.latent_dim)
    field = latent_to_field(space, latent)
    return CompletionResult(latent, field, residual, degenerate)


def reconstruct_mesh(result: CompletionResult, canonical_mesh: Mesh) -> Mesh:
    """Warp the canonical mesh by the completed field; topology unchanged.

    Its kernel is the one :func:`~morphfit.geometry.apply_deformation` keeps.
    """
    return canonical_mesh.with_vertices(apply_deformation(canonical_mesh.vertices, result.field))


def cross_instance_correspondence(space: ShapeSpace, latent_a, latent_b):
    """Same-index corresponding clouds of two latent codes.

    Point i of both outputs descends from canonical point i, so matching
    indices are matching surface locations across the two instances.
    """
    cloud_a = apply_deformation(space.canonical, latent_to_field(space, latent_a))
    cloud_b = apply_deformation(space.canonical, latent_to_field(space, latent_b))
    return cloud_a, cloud_b
