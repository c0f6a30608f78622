"""Renderer substitute: position images, target rasterization, zooming.

A position image stores, per foreground pixel, the world coordinates of
the surface point visible there.  Rendering is point splatting with a
depth buffer; deformation targets are rasterized by scattered-data
interpolation from canonical points to pixel positions, once per
distinct position, which a nearest-neighbor zoom repeats; the zoom crops
both views to a shared aspect-correct box around their foregrounds.

Pixel conventions: pixel (row, col) spans [col, col+1) x [row, row+1)
with its center at (col+0.5, row+0.5); column axis is image x.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RBFInterpolator

from .errors import (
    EmptyRenderError,
    NoVisiblePointsError,
    RasterizeError,
    ValidationError,
)
from .geometry import CameraView, PointCloud, distinct_rows

__all__ = [
    "PositionImage",
    "DeformationImage",
    "ZoomResult",
    "splat_position_image",
    "rasterize_target",
    "mask_bounding_box",
    "zoom",
]


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
    data = np.ascontiguousarray(data)
    mask = np.ascontiguousarray(mask)
    data.flags.writeable = False
    mask.flags.writeable = False
    return data, mask


@dataclass(frozen=True)
class PositionImage:
    """Per-pixel world coordinates of the visible surface."""

    data: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        data, mask = _check_image(self.data, self.mask, "position image")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "mask", mask)

    @property
    def resolution(self) -> tuple[int, int]:
        """(width, height)."""
        return (self.data.shape[1], self.data.shape[0])


@dataclass(frozen=True)
class DeformationImage:
    """Per-pixel 3-channel offsets; values are meters times ``scale``."""

    data: np.ndarray
    mask: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValidationError(f"scale must be > 0, got {self.scale}")
        data, mask = _check_image(self.data, self.mask, "deformation image")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "scale", float(self.scale))

    def in_meters(self) -> np.ndarray:
        return self.data / self.scale

    def scaled(self, scale: float) -> "DeformationImage":
        """Same image re-expressed with a new scale factor."""
        if not (np.isfinite(scale) and scale > 0):
            raise ValidationError(f"scale must be > 0, got {scale}")
        return DeformationImage(self.data * (scale / self.scale), self.mask, scale)


@dataclass(frozen=True)
class ZoomResult:
    """Both views cropped to a shared box and resampled to a fixed size.

    ``crop_box`` is (x0, y0, width, height) in source-pixel units with
    width/height exactly at the target aspect ratio; ``scale_factors``
    is (target_w / width, target_h / height).  ``padded`` is set when the
    box could not fit inside the source frame and out-of-frame pixels
    were filled with background.
    """

    observed: PositionImage
    canonical: PositionImage
    crop_box: tuple[float, float, float, float]
    scale_factors: tuple[float, float]
    padded: bool = False


def splat_position_image(model, view: CameraView, splat_radius: int = 1) -> PositionImage:
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
    if splat_radius < 0:
        raise ValidationError(f"splat_radius must be >= 0, got {splat_radius}")
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

    data = np.zeros((height, width, 3))
    data.reshape(-1, 3)[lit] = pts[winner[best[lit]]]
    mask = lit.reshape(height, width)
    return PositionImage(data, mask)


def rasterize_target(
    position: PositionImage, canonical: PointCloud, deltas: np.ndarray
) -> DeformationImage:
    """Interpolate per-canonical-point deltas onto every foreground pixel.

    Uses scattered-data interpolation with a linear radial kernel plus an
    affine tail, so constant and affine delta fields are reproduced
    exactly (up to conditioning) and pixels sitting exactly on canonical
    points take exactly those points' rows.  A pixel's value depends on
    its position alone, so each distinct position is interpolated once
    and copied to its repeats: a zoomed render repeats its source pixels
    many times over, and the values are the same as one per pixel.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.shape != (len(canonical), 3):
        raise ValidationError(
            f"deltas shape {deltas.shape} != ({len(canonical)}, 3)"
        )
    height, width = position.mask.shape
    data = np.zeros((height, width, 3))
    if not position.mask.any():
        return DeformationImage(data, position.mask.copy(), 1.0)
    targets, repeat = distinct_rows(position.data[position.mask])
    try:
        values = RBFInterpolator(
            canonical.points, deltas, kernel="linear", degree=1
        )(targets)
    except np.linalg.LinAlgError:
        # Duplicate or near-duplicate anchors; retry once with a whisper of
        # smoothing proportional to scene size.
        diameter = float(np.linalg.norm(np.ptp(canonical.points, axis=0)))
        try:
            values = RBFInterpolator(
                canonical.points,
                deltas,
                kernel="linear",
                degree=1,
                smoothing=1e-10 * max(diameter, 1.0),
            )(targets)
        except np.linalg.LinAlgError as exc:
            raise RasterizeError(f"interpolation system singular: {exc}") from exc
    data[position.mask] = values[repeat]
    return DeformationImage(data, position.mask.copy(), 1.0)


def mask_bounding_box(mask: np.ndarray) -> tuple[float, float, float, float]:
    """Tight (x0, y0, x1, y1) box around true pixels, exclusive upper edges."""
    mask = np.asarray(mask, dtype=bool)
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        raise NoVisiblePointsError("mask has no foreground pixels")
    return (float(cols[0]), float(rows[0]), float(cols[-1] + 1), float(rows[-1] + 1))


def _resample_nearest(image: PositionImage, crop, out_size) -> PositionImage:
    x0, y0, w, h = crop
    out_w, out_h = out_size
    src_h, src_w = image.mask.shape
    xs = x0 + (np.arange(out_w) + 0.5) * (w / out_w)
    ys = y0 + (np.arange(out_h) + 0.5) * (h / out_h)
    col = np.floor(xs).astype(np.int64)
    row = np.floor(ys).astype(np.int64)
    col_ok = (col >= 0) & (col < src_w)
    row_ok = (row >= 0) & (row < src_h)
    col_c = np.clip(col, 0, src_w - 1)
    row_c = np.clip(row, 0, src_h - 1)
    mask = image.mask[row_c][:, col_c]
    data = image.data[row_c][:, col_c]
    # A padded crop copied the nearest edge pixel outside the frame; make
    # those pixels background.
    mask[~row_ok] = False
    mask[:, ~col_ok] = False
    data[~row_ok] = 0.0
    data[:, ~col_ok] = 0.0
    return PositionImage(data, mask)


def zoom(
    observed: PositionImage,
    canonical: PositionImage,
    target_resolution: tuple[int, int] = (256, 192),
    observed_box: tuple[float, float, float, float] | None = None,
) -> ZoomResult:
    """Crop both views to one aspect-correct box and resample to target size.

    The box is the smallest target-aspect rectangle containing the union
    of the two foreground boxes, centered on the union, translated to fit
    the source frame when possible.  Geometric channels and masks are
    resampled nearest-neighbor: interpolating world positions across
    silhouette edges would fabricate 3D points.  Every zoomed pixel thus
    copies one source pixel exactly, which :func:`rasterize_target` uses
    to interpolate each distinct position once.  The resample gathers the
    sampled source rows, then the sampled columns of those, and blanks to
    background only the pixels of a padded box that fall outside the frame.
    """
    if observed.mask.shape != canonical.mask.shape:
        raise ValidationError(
            f"view resolutions differ: {observed.mask.shape} vs {canonical.mask.shape}"
        )
    target_w, target_h = int(target_resolution[0]), int(target_resolution[1])
    if target_w < 1 or target_h < 1:
        raise ValidationError(f"target resolution must be positive, got {target_resolution}")
    box_obs = mask_bounding_box(observed.mask) if observed_box is None else tuple(map(float, observed_box))
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
    crop = (crop_x, crop_y, crop_w, crop_h)
    out_size = (target_w, target_h)
    return ZoomResult(
        observed=_resample_nearest(observed, crop, out_size),
        canonical=_resample_nearest(canonical, crop, out_size),
        crop_box=crop,
        scale_factors=(target_w / crop_w, target_h / crop_h),
        padded=padded,
    )
