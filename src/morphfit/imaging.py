"""Renderer substitute: position images, target rasterization, zooming.

A position image stores, per foreground pixel, the world coordinates of
the surface point visible there.  Rendering is point splatting with a
depth buffer; deformation targets are rasterized by scattered-data
interpolation from canonical points to the source pixels a zoom copies,
once per distinct position; a nearest-neighbor zoom crops both views to
a shared aspect-correct box around their foregrounds, and zooms any
image of the canonical view's copied pixels the same way.

Pixel conventions: pixel (row, col) spans [col, col+1) x [row, row+1)
with its center at (col+0.5, row+0.5); column axis is image x.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv
from scipy.spatial.distance import cdist

from .errors import (
    EmptyRenderError,
    NoVisiblePointsError,
    RasterizeError,
    ValidationError,
)
from .geometry import DEFAULT_VIEW_RESOLUTION, CameraView, PointCloud, distinct_rows

__all__ = [
    "PositionImage",
    "DeformationImage",
    "ZoomResult",
    "LinearRBF",
    "splat_position_image",
    "target_field",
    "rasterize_target",
    "mask_bounding_box",
    "zoom",
]

DEFAULT_SPLAT_RADIUS = 1  # pixels around each projected point
MAX_SPLAT_RADIUS = 32  # the splat's disc loop makes (2r+1)**2 passes over the points


def _check_image(data, mask, name: str):
    data = np.asarray(data, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if data.ndim != 3 or data.shape[2] != 3:
        raise ValidationError(f"{name} data must be (H, W, 3), got {data.shape}")
    if mask.shape != data.shape[:2]:
        raise ValidationError(
            f"{name} mask shape {mask.shape} != data resolution {data.shape[:2]}"
        )
    if np.logical_and(data != 0, ~mask[..., None]).any():
        raise ValidationError(f"{name} background pixels must be exactly zero")
    # The background is zero by now, so every non-finite value is foreground.
    if not np.isfinite(data).all():
        raise ValidationError(f"{name} foreground contains non-finite values")
    return data, mask


def _set_arrays(image, data, mask):
    """Store an image's arrays, contiguous and read-only; returns the image."""
    data, mask = np.ascontiguousarray(data), np.ascontiguousarray(mask)
    data.flags.writeable = mask.flags.writeable = False
    object.__setattr__(image, "data", data)
    object.__setattr__(image, "mask", mask)
    return image


def _built(cls, data, mask):
    """A ``cls`` image of arrays whose builder here upholds :func:`_check_image`."""
    return _set_arrays(object.__new__(cls), data, mask)


@dataclass(frozen=True)
class PositionImage:
    """Per-pixel world coordinates of the visible surface."""

    data: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        _set_arrays(self, *_check_image(self.data, self.mask, "position image"))


@dataclass(frozen=True)
class DeformationImage:
    """Per-pixel 3-channel offsets; values are meters times ``scale``."""

    data: np.ndarray
    mask: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValidationError(f"scale must be > 0, got {self.scale}")
        _set_arrays(self, *_check_image(self.data, self.mask, "deformation image"))
        object.__setattr__(self, "scale", float(self.scale))

    def in_meters(self) -> np.ndarray:
        return self.data / self.scale


def _like(image, data, mask):
    """An image of ``image``'s type, and scale, over arrays built like :func:`_built`'s."""
    out = _built(type(image), data, mask)
    if isinstance(image, DeformationImage):
        object.__setattr__(out, "scale", image.scale)
    return out


@dataclass(frozen=True)
class ZoomResult:
    """Both views cropped to a shared box and resampled to a fixed size.

    ``crop_box`` is (x0, y0, width, height) in source-pixel units with
    width/height exactly at the target aspect ratio; ``scale_factors``
    is (target_w / width, target_h / height).  ``grid`` holds the
    canonical view's source pixels the zoom copies: each distinct source
    row and column the crop samples inside the frame, so it is no larger
    than the zoomed views or the source along either axis.  Zoomed row i
    copies grid row ``row_at[i]`` and zoomed column j grid column
    ``col_at[j]``; -1 marks a pixel of a padded box outside the frame.
    ``padded`` is set when the box could not fit inside the source frame
    and out-of-frame pixels were filled with background.
    """

    observed: PositionImage
    canonical: PositionImage
    grid: PositionImage
    row_at: np.ndarray
    col_at: np.ndarray
    crop_box: tuple[float, float, float, float]
    scale_factors: tuple[float, float]
    padded: bool = False

    def expand(self, image):
        """An image of the :attr:`grid`'s size, resampled to the zoomed views' size.

        Rasterizing the grid evaluates the zoomed render's distinct
        positions, so the expanded target equals the zoomed render's bit
        for bit whether the zoom enlarges or shrinks.
        """
        if image.mask.shape != self.grid.mask.shape:
            raise ValidationError(
                f"image resolution {image.mask.shape} != sampled grid {self.grid.mask.shape}")
        return _spread(image, self.row_at, self.col_at)


def splat_position_image(model, view: CameraView,
                         splat_radius: int = DEFAULT_SPLAT_RADIUS) -> PositionImage:
    """Project points through a pinhole camera into a position image.

    Each point covers the pixel disc of ``splat_radius`` around its
    projection; per pixel the nearest point (camera depth) wins.  Ties on
    depth go to the lowest point index, so renders are deterministic.

    Points projecting into one pixel cover the same disc, so only the
    least (depth, index) point of each projection pixel can win anywhere.
    Two ``np.minimum.at`` passes over the points whose disc can reach the
    frame find those winners on a grid padded by ``splat_radius``: least
    depth first, then least index among exact depth ties.  Only the
    winners are ranked by (depth, index) and splatted.
    """
    if not 0 <= splat_radius <= MAX_SPLAT_RADIUS:
        raise ValidationError(
            f"splat_radius must be in [0, {MAX_SPLAT_RADIUS}], got {splat_radius}")
    pts = model.points if isinstance(model, PointCloud) else np.asarray(model, np.float64)
    width, height = view.resolution
    cam = view.to_camera(pts)
    index = np.flatnonzero(cam[:, 2] > 0.0)
    if not len(index):
        raise EmptyRenderError("no model point in front of the camera")
    fx, fy = view.focal
    cx, cy = view.principal_point
    depth = cam[:, 2][index]
    inv_z = 1.0 / depth
    u = fx * cam[:, 0][index] * inv_z + cx
    v = fy * cam[:, 1][index] * inv_z + cy
    # Only a point projecting within the radius of the frame can light a
    # pixel; key those by their projection pixel on the padded grid.
    radius = splat_radius
    reach = np.flatnonzero(
        (u >= -radius) & (u < width + radius) & (v >= -radius) & (v < height + radius)
    )
    index, depth, u, v = index[reach], depth[reach], u[reach], v[reach]
    grid_w = width + 2 * radius
    key = (np.floor(v).astype(np.int64) + radius) * grid_w + np.floor(u).astype(np.int64) + radius
    # The least depth per key, then the least index among its exact ties.
    least = np.full((height + 2 * radius) * grid_w, np.inf)
    np.minimum.at(least, key, depth)
    tied = depth == least[key]
    first = np.full(len(least), len(pts), dtype=np.int64)
    np.minimum.at(first, key[tied], index[tied])
    keys = np.flatnonzero(first < len(pts))

    # Rank the winners by (depth, index); each pixel keeps the lowest rank
    # splatted onto it.
    by_rank = np.lexsort((first[keys], least[keys]))
    keys = keys[by_rank]
    winner = first[keys]
    rank = np.arange(len(keys))
    rows = keys // grid_w - radius
    cols = keys % grid_w - radius
    best = np.full(height * width, len(keys), dtype=np.int64)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dx * dx + dy * dy > radius * radius:
                continue
            c = cols + dx
            r = rows + dy
            ok = (c >= 0) & (c < width) & (r >= 0) & (r < height)
            np.minimum.at(best, r[ok] * width + c[ok], rank[ok])
    lit = best < len(keys)
    if not lit.any():
        raise EmptyRenderError("no model point projects inside the image")

    # Only the winners' points can reach the image, so only they are checked.
    if not np.isfinite(pts[winner]).all():
        raise ValidationError("position image foreground contains non-finite values")
    data = np.zeros((height, width, 3))
    data.reshape(-1, 3)[lit] = pts[winner[best[lit]]]
    return _built(PositionImage, data, lit.reshape(height, width))


def _negative_distances(x: np.ndarray, centers: np.ndarray, out: np.ndarray) -> None:
    """Write ``-|x_i - c_j|`` into ``out``, a few rows at a time.

    A whole-size temporary from ``cdist`` costs about twice the time of
    the loop: fresh pages and cache misses on every call.
    """
    for start in range(0, len(x), 128):
        np.negative(cdist(x[start:start + 128], centers), out=out[start:start + 128])


class LinearRBF:
    """Linear radial kernel plus an affine tail through ``values`` at ``centers``.

    The value at x is ``sum_j w_j * -|x - c_j| + a_0 + a . x_hat``, where
    ``x_hat`` maps the centers' bounding box onto [-1, 1] per axis (an
    axis with no extent keeps scale 1).  The weights solve the symmetric
    system ``[[-r_ij + smoothing * I, P], [P^T, 0]] [w; a] = [values; 0]``
    with ``P = [1, c_hat]`` by LAPACK ``gesv``, and evaluation multiplies
    ``[-r, 1, x_hat]`` rows by them, one GEMM per block of rows: the
    system, solver, row blocks and operation order of scipy's
    ``RBFInterpolator(kernel="linear", degree=1)``, so the bits match it.
    A singular system raises ``np.linalg.LinAlgError``.
    """

    def __init__(self, centers: np.ndarray, values: np.ndarray, smoothing: float = 0.0):
        centers = np.ascontiguousarray(centers, dtype=np.float64)
        n = len(centers)
        low, high = centers.min(axis=0), centers.max(axis=0)
        self.centers = centers
        self.shift = (high + low) / 2
        self.scale = (high - low) / 2
        self.scale[self.scale == 0.0] = 1.0
        tail = np.column_stack([np.ones(n), (centers - self.shift) / self.scale])
        lhs = np.empty((n + 4, n + 4))
        _negative_distances(centers, centers, lhs[:n, :n])
        np.fill_diagonal(lhs[:n, :n], smoothing)  # -r_ii is -0.0, so this adds it
        lhs[:n, n:] = tail
        lhs[n:, :n] = tail.T
        lhs[n:, n:] = 0.0
        rhs = np.zeros((values.shape[1], n + 4)).T
        rhs[:n] = values
        # lhs is symmetric, so its transpose is the same matrix in the
        # Fortran order gesv factors in place.
        _, _, self.coefficients, info = dgesv(lhs.T, rhs, overwrite_a=True, overwrite_b=True)
        if info > 0:
            rank = np.linalg.matrix_rank(tail)
            raise np.linalg.LinAlgError(
                "Singular matrix." if rank == 4 else
                "Singular matrix. The matrix of monomials evaluated at the data point "
                f"coordinates does not have full column rank ({rank}/4)."
            )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        n = len(self.centers)
        # The GEMM's row count picks the BLAS kernel and so the last bits;
        # blocks of scipy's size (from the floats of x, the centers and the
        # values) keep its bits and bound the memory of the rows.
        budget = max(x.size + self.centers.size + n * self.coefficients.shape[1], 1_000_000)
        step = budget // (n + 4) + 1
        out = np.empty((len(x), self.coefficients.shape[1]))
        for start in range(0, len(x), step):
            block = x[start:start + step]
            rows = np.empty((len(block), n + 4))
            _negative_distances(block, self.centers, rows[:, :n])
            rows[:, n] = 1.0
            rows[:, n + 1:] = (block - self.shift) / self.scale
            out[start:start + step] = rows @ self.coefficients
        return out


def target_field(canonical: PointCloud, deltas: np.ndarray) -> LinearRBF:
    """Interpolant of per-canonical-point deltas, solved once for :func:`rasterize_target`.

    A linear radial kernel plus an affine tail reproduces constant and
    affine delta fields exactly (up to conditioning), and positions on
    canonical points take exactly those points' rows.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.shape != (len(canonical), 3):
        raise ValidationError(f"deltas shape {deltas.shape} != ({len(canonical)}, 3)")
    if len(canonical) < 4:
        # The affine tail has four coefficients to fit.
        raise RasterizeError(
            f"interpolation needs at least 4 canonical points, got {len(canonical)}"
        )
    try:
        return LinearRBF(canonical.points, deltas)
    except np.linalg.LinAlgError:
        # Duplicate or near-duplicate anchors; retry once with a whisper of
        # smoothing proportional to scene size.
        diameter = float(np.linalg.norm(np.ptp(canonical.points, axis=0)))
        try:
            return LinearRBF(canonical.points, deltas, smoothing=1e-10 * max(diameter, 1.0))
        except np.linalg.LinAlgError as exc:
            raise RasterizeError(f"interpolation system singular: {exc}") from exc


def rasterize_target(position: PositionImage, field: LinearRBF) -> DeformationImage:
    """Evaluate a :func:`target_field` on every foreground pixel.

    A pixel's value depends on its position alone, so each distinct
    position is evaluated once and copied to its repeats.  Callers
    rasterize the grid of source pixels a zoom copies
    (:attr:`ZoomResult.grid`) and zoom the result with
    :meth:`ZoomResult.expand`.
    """
    data = np.zeros(position.data.shape)
    foreground = np.flatnonzero(position.mask)
    targets, repeat = distinct_rows(position.data.reshape(-1, 3)[foreground])
    values = field(targets)
    if not np.isfinite(values).all():
        raise ValidationError("deformation image foreground contains non-finite values")
    data.reshape(-1, 3)[foreground] = values[repeat]
    return _built(DeformationImage, data, position.mask)


def mask_bounding_box(mask: np.ndarray) -> tuple[float, float, float, float]:
    """Tight (x0, y0, x1, y1) box around true pixels, exclusive upper edges."""
    mask = np.asarray(mask, dtype=bool)
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        raise NoVisiblePointsError("mask has no foreground pixels")
    return (float(cols[0]), float(rows[0]), float(cols[-1] + 1), float(rows[-1] + 1))


def _sample_axis(start, length, out_n, src_n):
    """Distinct in-frame source indices one axis of a zoom copies, and the
    place among them of each output index (-1 outside the frame)."""
    src = np.floor(start + (np.arange(out_n) + 0.5) * (length / out_n)).astype(np.int64)
    inside = (src >= 0) & (src < src_n)
    kept, place = np.unique(src[inside], return_inverse=True)
    at = np.full(out_n, -1, dtype=np.int64)
    at[inside] = place
    return kept, at


def _take(image, at):
    """An image of ``image``'s pixels at flat indices ``at``, shaped like ``at``.

    One take of whole pixels is several times faster than gathering rows,
    then columns.
    """
    return _like(image, np.take(image.data.reshape(-1, 3), at, axis=0),
                 np.take(image.mask.reshape(-1), at))


def _gather(image, rows, cols):
    """The grid of ``image``'s pixels at ``rows`` x ``cols``."""
    return _take(image, rows[:, None] * image.mask.shape[1] + cols)


def _spread(image, row_at, col_at):
    """Output pixel (i, j) copies ``image[row_at[i], col_at[j]]``, background where -1."""
    # Index -1 picks an appended background row or column: the pixels of
    # a padded crop that fall outside the frame.
    height, width = image.mask.shape
    mask = np.zeros((height + 1, width + 1), dtype=bool)
    data = np.zeros((height + 1, width + 1, 3))
    mask[:height, :width] = image.mask
    data[:height, :width] = image.data
    at = (row_at % (height + 1))[:, None] * (width + 1) + col_at % (width + 1)
    return _take(_like(image, data, mask), at)


def zoom(
    observed: PositionImage,
    canonical: PositionImage,
    target_resolution: tuple[int, int] = DEFAULT_VIEW_RESOLUTION,
) -> ZoomResult:
    """Crop both views to one aspect-correct box and resample to target size.

    The box is the smallest target-aspect rectangle containing the union
    of the two foreground boxes, centered on the union, translated to fit
    the source frame when possible.  Geometric channels and masks are
    resampled nearest-neighbor: interpolating world positions across
    silhouette edges would fabricate 3D points.  Every zoomed pixel thus
    copies one source pixel exactly.  The resample gathers the distinct
    source rows and columns the crop samples into a grid
    (:attr:`ZoomResult.grid` for the canonical view), spreads the grid
    to the target size (:meth:`ZoomResult.expand`) and blanks to
    background only the pixels of a padded box that fall outside the
    frame; a target rasterized on the grid is zoomed the same way.
    """
    if observed.mask.shape != canonical.mask.shape:
        raise ValidationError(
            f"view resolutions differ: {observed.mask.shape} vs {canonical.mask.shape}"
        )
    target_w, target_h = int(target_resolution[0]), int(target_resolution[1])
    if target_w < 1 or target_h < 1:
        raise ValidationError(f"target resolution must be positive, got {target_resolution}")
    box_obs = mask_bounding_box(observed.mask)
    box_can = mask_bounding_box(canonical.mask)
    x0 = min(box_obs[0], box_can[0])
    y0 = min(box_obs[1], box_can[1])
    x1 = max(box_obs[2], box_can[2])
    y1 = max(box_obs[3], box_can[3])
    union_w = x1 - x0
    union_h = y1 - y0
    aspect = target_w / target_h
    if union_w < aspect * union_h:
        crop_w, crop_h = aspect * union_h, union_h
    else:
        crop_w, crop_h = union_w, union_w / aspect
    crop_x = (x0 + x1 - crop_w) / 2.0
    crop_y = (y0 + y1 - crop_h) / 2.0

    src_h, src_w = observed.mask.shape
    padded = crop_w > src_w or crop_h > src_h
    if not padded:
        # Translating an enclosing box keeps enclosing the union as long as
        # it stays at least union-sized, which aspect expansion guarantees.
        crop_x = min(max(crop_x, 0.0), src_w - crop_w)
        crop_y = min(max(crop_y, 0.0), src_h - crop_h)
    rows, row_at = _sample_axis(crop_y, crop_h, target_h, src_h)
    cols, col_at = _sample_axis(crop_x, crop_w, target_w, src_w)
    grid = _gather(canonical, rows, cols)
    return ZoomResult(
        observed=_spread(_gather(observed, rows, cols), row_at, col_at),
        canonical=_spread(grid, row_at, col_at),
        grid=grid,
        row_at=row_at,
        col_at=col_at,
        crop_box=(crop_x, crop_y, crop_w, crop_h),
        scale_factors=(target_w / crop_w, target_h / crop_h),
        padded=padded,
    )
