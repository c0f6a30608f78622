"""Non-rigid point set registration by coherent point drift.

The moving cloud is treated as a Gaussian mixture whose centroids drift
coherently: EM alternates soft correspondence (posteriors over centroid
assignments) with a kernel-regularized solve for per-anchor offset
weights.  The result is a DeformationField anchored at the moving cloud.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv
from scipy.spatial.distance import cdist

from .errors import SolverError, ValidationError
from .geometry import DeformationField, PointCloud, _kept_kernel

__all__ = ["CpdConfig", "CpdResult", "cpd_nonrigid", "e_step"]

# Shifted log-weights at or below this are dropped from the E-step.
_LOG_CUT = float(np.log(np.finfo(float).eps)) - 1.0
# sigma^2 never falls below this fraction of its starting value.
_SIGMA2_FLOOR = 1e-12
# A moving point whose M-step diagonal c / m would pass this gets W = 0.
_MAX_DIAGONAL = 1e300
# Largest cloud CPD registers; its n x n kernel and system take 1 GB at it.
MAX_CLOUD_POINTS = 8192


@dataclass(frozen=True)
class CpdConfig:
    """EM settings.

    ``beta`` is the kernel width of the recovered field, ``regularization``
    trades data fit against field smoothness, ``outlier_weight`` is the
    mixture mass reserved for a uniform clutter component.  EM stops once
    its objective changes by at most ``tolerance`` per unit of posterior
    mass between iterations (a per-point change, free of the length unit),
    or after ``max_iterations``.
    """

    beta: float = 2.0
    regularization: float = 2.0
    outlier_weight: float = 0.0
    max_iterations: int = 150
    tolerance: float = 1e-4

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValidationError(f"beta must be > 0, got {self.beta}")
        if not (np.isfinite(self.regularization) and self.regularization > 0):
            raise ValidationError(
                f"regularization must be > 0, got {self.regularization}"
            )
        if not (0.0 <= self.outlier_weight < 1.0):
            raise ValidationError(
                f"outlier_weight must be in [0, 1), got {self.outlier_weight}"
            )
        if self.max_iterations < 1:
            raise ValidationError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if not (np.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValidationError(f"tolerance must be > 0, got {self.tolerance}")


@dataclass(frozen=True)
class CpdResult:
    field: DeformationField
    sigma2: float
    iterations: int
    converged: bool


def e_step(fixed, moved, sigma2: float, outlier_weight: float = 0.0) -> np.ndarray:
    """Posterior assignment probabilities of data points to moved centroids.

    Returns an (n_moved, n_fixed) matrix; column j holds the posterior of
    data point j over centroids, summing to 1 when ``outlier_weight`` is 0
    and to less otherwise (remaining mass goes to the clutter component).
    A term below eps/e times its column's largest term is set to 0: it
    would carry under 1e-16 of the column's mass.
    """
    if not (np.isfinite(sigma2) and sigma2 > 0):
        raise ValidationError(f"sigma2 must be > 0, got {sigma2}")
    if not (0.0 <= outlier_weight < 1.0):
        raise ValidationError(f"outlier_weight must be in [0, 1), got {outlier_weight}")
    x = fixed.points if isinstance(fixed, PointCloud) else np.asarray(fixed, float)
    t = moved.points if isinstance(moved, PointCloud) else np.asarray(moved, float)
    n_moved, n_fixed = t.shape[0], x.shape[0]
    # On clouds scaled by 1/sqrt(2 sigma^2), cdist gives d^2 / (2 sigma^2).
    scale = 1.0 / np.sqrt(2.0 * sigma2)
    resp = cdist(t * scale, x * scale, "sqeuclidean")
    # Shift each column's log-weights by their max, the nearest centroid's,
    # so the softmax never overflows; the clutter constant rides along in
    # the same shifted frame.
    shift = resp.min(axis=0)
    np.subtract(shift, resp, out=resp)
    # Terms below the cut would underflow into exp's slow denormal path:
    # clamp them to the cut, exponentiate, then zero them.
    keep = resp > _LOG_CUT
    np.maximum(resp, _LOG_CUT, out=resp)
    np.exp(resp, out=resp)
    resp *= keep
    denom = resp.sum(axis=0)
    if outlier_weight > 0.0:
        log_clutter = (
            1.5 * np.log(2.0 * np.pi * sigma2)
            + np.log(outlier_weight / (1.0 - outlier_weight))
            + np.log(n_moved / n_fixed)
        )
        # Past exp's range every kept term is under 1/inf of the clutter
        # term: the overflow to inf gives the column its limit, all zeros.
        with np.errstate(over="ignore"):
            denom = denom + np.exp(log_clutter + shift)
    np.maximum(denom, np.finfo(float).tiny, out=denom)
    resp *= 1.0 / denom
    return resp


def cpd_nonrigid(fixed, moving, config: CpdConfig = CpdConfig()) -> CpdResult:
    """Register ``moving`` onto ``fixed``, recovering a smooth warp.

    EM loop: soft-assign data points to the warped moving cloud, solve the
    regularized linear system for offset weights, update the mixture
    variance from the weighted residual, repeat until the EM objective
    Q = 1.5 N_P log(sigma^2) + (regularization / 2) tr(W^T G W) changes by
    at most ``tolerance`` per unit of posterior mass N_P, or the iteration
    cap is hit.  sigma^2 is floored at 1e-12 of its starting value, so
    exact correspondences converge too.  A cloud of more than
    ``MAX_CLOUD_POINTS`` points is a ValidationError.

    The M-step system is taken in the symmetric positive-definite form of
    Myronenko & Song (TPAMI 2010, arXiv:0905.2635),
    (G + c diag(m)^-1) W = diag(m)^-1 P X - Y with c = regularization
    sigma^2 and m the posterior mass per moving point, and solved over the
    points that carry mass by one LAPACK Cholesky factor-and-solve
    (``dposv``), whose failure is a SolverError.  A moving point whose mass
    is 0, or so small that c / m would pass 1e300, gets an exactly zero
    weight row: its weights would be under 1e-300 of its right-hand side.
    """
    x = fixed.points if isinstance(fixed, PointCloud) else PointCloud(fixed).points
    y = moving.points if isinstance(moving, PointCloud) else PointCloud(moving).points
    n_fixed, n_moving = x.shape[0], y.shape[0]
    if max(n_fixed, n_moving) > MAX_CLOUD_POINTS:
        raise ValidationError(
            f"registration clouds of {n_fixed} and {n_moving} points, over the "
            f"{MAX_CLOUD_POINTS}-point limit: raise --cloud-leaf or lower --dense-count "
            "(the space's \"registration\")"
        )

    kernel = _kept_kernel(y, y, config.beta)
    sigma2 = cdist(y, x, "sqeuclidean").sum() / (3.0 * n_fixed * n_moving)
    if sigma2 <= 0.0:
        # All points coincide; nothing to estimate.
        weights = np.zeros((n_moving, 3))
        field = DeformationField(PointCloud(y), weights, config.beta)
        return CpdResult(field, 0.0, 0, True)

    sigma2_floor = _SIGMA2_FLOOR * sigma2
    # One GEMM of the posterior with [X, 1, |x|^2] gives P X, the mass per
    # moving point and its share of the fit term sum_j (P^T 1)_j |x_j|^2.
    augmented = np.column_stack([x, np.ones(n_fixed), np.einsum("ij,ij->i", x, x)])
    moved = y
    objective = np.inf
    # One buffer for the M-step matrix: a fresh (n, n) array per iteration
    # costs page faults that also slow the next E-step.
    buffer = np.empty(n_moving * n_moving)
    converged = False
    iteration = 0
    for iteration in range(1, config.max_iterations + 1):
        posterior = e_step(x, moved, sigma2, config.outlier_weight)
        sums = posterior @ augmented
        weighted_targets, mass = sums[:, :3], sums[:, 3]
        total_mass = mass.sum()
        c = config.regularization * sigma2
        solved = mass > c / _MAX_DIAGONAL
        k = int(np.count_nonzero(solved))
        if k == 0:
            raise SolverError("posterior mass vanished", iteration=iteration)

        system = buffer[: k * k].reshape(k, k)
        np.copyto(system, kernel if k == n_moving else kernel[np.ix_(solved, solved)])
        system.reshape(-1)[:: k + 1] += c / mass[solved]
        rhs = weighted_targets[solved] / mass[solved, None] - y[solved]
        # The system is symmetric, so its transpose is the same matrix in
        # Fortran order: LAPACK factors and solves it in one call, in place.
        _, solution, info = dposv(system.T, rhs, lower=1, overwrite_a=1, overwrite_b=1)
        if info != 0:
            raise SolverError(
                f"regularized system not positive definite (LAPACK info {info})",
                iteration=iteration,
            )
        weights = np.zeros((n_moving, 3))
        weights[solved] = solution

        offsets = kernel @ weights
        moved = y + offsets
        fit = sums[:, 4].sum()
        cross = np.einsum("ij,ij->", weighted_targets, moved)
        spread = (mass * np.einsum("ij,ij->i", moved, moved)).sum()
        sigma2 = max((fit - 2.0 * cross + spread) / (3.0 * total_mass), sigma2_floor)

        previous, objective = objective, (
            1.5 * total_mass * np.log(sigma2)
            + 0.5 * config.regularization * np.einsum("ij,ij->", weights, offsets)
        )
        if abs(objective - previous) <= config.tolerance * total_mass:
            converged = True
            break

    field = DeformationField(PointCloud(y), weights, config.beta)
    return CpdResult(field, float(sigma2), iteration, converged)
