"""Shared constructors for the test suite.

Everything here is deterministic given its seed arguments; the synthetic
category is built from an analytically known two-dimensional family of
deformation fields so tests can compare against exact values.
"""
from __future__ import annotations

import numpy as np
from scipy.interpolate import RBFInterpolator
from scipy.spatial.distance import cdist

from morphfit import (
    CategorySpec,
    CpdConfig,
    DeformationField,
    Mesh,
    PointCloud,
    Registration,
    apply_deformation,
    gaussian_kernel,
    space_from_fields,
)
from morphfit.cpd import e_step
from morphfit.dataset import default_cloud_leaf


def sphere_cloud(count: int, radius: float = 1.0, seed: int = 0) -> PointCloud:
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(count, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return PointCloud(radius * directions)


def icosphere(subdivisions: int = 2, radius: float = 1.0) -> Mesh:
    """Subdivided icosahedron with vertices on the sphere of ``radius``."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ], dtype=float)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [tuple(v / np.linalg.norm(v)) for v in verts]
    for _ in range(subdivisions):
        cache: dict = {}
        new_faces = []

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in cache:
                m = np.asarray(verts[a]) + np.asarray(verts[b])
                m /= np.linalg.norm(m)
                verts.append(tuple(m))
                cache[key] = len(verts) - 1
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return Mesh(radius * np.asarray(verts), np.asarray(faces))


def smooth_weights(points: np.ndarray, beta: float, max_entry: float, seed: int = 0) -> np.ndarray:
    """Spatially coherent per-anchor weights with infinity norm max_entry.

    Rows are centered sinusoids of a few cycles across the object, so the
    kernel-blended displacement stays at object scale instead of summing
    into one giant translation.
    """
    rng = np.random.default_rng(seed)
    freq = rng.uniform(3.0, 6.0, size=(3, 3)) * rng.choice([-1, 1], size=(3, 3))
    phase = rng.uniform(0, 2 * np.pi, size=3)
    scale = np.abs(points).max() or 1.0
    w = np.stack(
        [np.sin(points @ freq[i] / scale + phase[i]) for i in range(3)], axis=1
    )
    w = w - w.mean(axis=0)
    return w * (max_entry / np.abs(w).max())


def planar_basis(points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Two fixed, linearly independent smooth weight matrices."""
    p = points / radius
    b1 = np.stack([
        np.sin(np.pi * p[:, 2]),
        np.cos(np.pi * p[:, 0]),
        0.3 * np.sin(np.pi * p[:, 1]),
    ], axis=1)
    b2 = np.stack([
        0.4 * np.cos(np.pi * p[:, 1]),
        np.sin(np.pi * p[:, 0]) * 0.7,
        np.cos(np.pi * p[:, 2]),
    ], axis=1)
    return b1, b2


class SyntheticCategory:
    """A category whose deformation fields span an exact 2-D linear family.

    Training fields are W(a) = a1*B1 + a2*B2 at the canonical cloud, and
    instance geometry is the canonical geometry warped by those fields,
    so every derived quantity has a closed form.
    """

    def __init__(self, n_instances: int = 6, subdivisions: int = 2,
                 radius: float = 0.15, beta: float = 0.1, seed: int = 11,
                 offset_fraction: float = 0.12):
        # offset_fraction 0.12 keeps warps below half the canonical point
        # spacing, where CPD keeps true per-index correspondence.
        self.radius = radius
        self.beta = beta
        self.canonical_mesh = icosphere(subdivisions, radius)
        self.canonical_cloud = PointCloud(self.canonical_mesh.vertices)
        b1, b2 = planar_basis(self.canonical_cloud.points, radius)
        kernel = gaussian_kernel(self.canonical_cloud, self.canonical_cloud, beta)
        # Normalize so each basis field displaces at most offset_fraction
        # of the radius, keeping warped instances sane.
        target = offset_fraction * radius
        self.basis_weights = (
            b1 * (target / np.abs(kernel @ b1).max()),
            b2 * (target / np.abs(kernel @ b2).max()),
        )
        rng = np.random.default_rng(seed)
        self.train_latents = rng.uniform(-1.0, 1.0, size=(n_instances, 2))
        self.fields = tuple(
            self.field_for(a) for a in self.train_latents
        )
        self.instance_meshes = tuple(self.warp_mesh(f) for f in self.fields)
        self.instance_clouds = tuple(
            apply_deformation(self.canonical_cloud, f) for f in self.fields
        )
        # The default recipe, as build-space would fix it for this canonical mesh.
        self.registration = Registration(
            CpdConfig(beta=beta), default_cloud_leaf(self.canonical_mesh), 8192
        )
        self.space = space_from_fields(
            self.canonical_cloud, self.fields, beta, latent_dim=2,
            registration=self.registration,
        )

    def field_for(self, amplitudes) -> DeformationField:
        a1, a2 = float(amplitudes[0]), float(amplitudes[1])
        w = a1 * self.basis_weights[0] + a2 * self.basis_weights[1]
        return DeformationField(self.canonical_cloud, w, self.beta)

    def warp_mesh(self, field: DeformationField) -> Mesh:
        return self.canonical_mesh.with_vertices(
            apply_deformation(self.canonical_mesh.vertices, field)
        )

    def category_spec(self) -> CategorySpec:
        return CategorySpec(
            self.canonical_mesh, self.canonical_cloud,
            self.instance_meshes, self.fields,
        )

    def held_out(self, amplitudes=(0.45, -0.6)):
        """An in-span instance not among the training latents."""
        field = self.field_for(amplitudes)
        mesh = self.warp_mesh(field)
        cloud = apply_deformation(self.canonical_cloud, field)
        return mesh, cloud, field


def scipy_rbf(points, deltas, smoothing=0.0) -> RBFInterpolator:
    """scipy's linear RBF with an affine tail: the reference for
    :class:`morphfit.imaging.LinearRBF`, which builds the same system itself.
    """
    return RBFInterpolator(points, deltas, kernel="linear", degree=1, smoothing=smoothing)


def per_pixel_target(position, canonical, deltas) -> np.ndarray:
    """Target data interpolated at every foreground pixel, repeats included.

    The reference for :func:`morphfit.rasterize_target`, which interpolates
    each distinct position once.
    """
    data = np.zeros(position.mask.shape + (3,))
    data[position.mask] = scipy_rbf(canonical.points, np.asarray(deltas, dtype=float))(
        position.data[position.mask])
    return data


def lu_cpd_nonrigid(fixed: PointCloud, moving: PointCloud, config: CpdConfig):
    """``(moved points, sigma^2, iterations)`` of CPD with an LU M-step.

    The reference for :func:`morphfit.cpd_nonrigid`, which solves the
    system (diag(m) G + c I) W = P X - diag(m) Y in the symmetric
    positive-definite form (G + c diag(m)^-1) W = diag(m)^-1 P X - Y by
    Cholesky; this one LU-solves it as written.
    """
    x, y = fixed.points, moving.points
    kernel = gaussian_kernel(y, y, config.beta)
    sigma2 = cdist(y, x, "sqeuclidean").sum() / (3.0 * len(x) * len(y))
    sigma2_floor = 1e-12 * sigma2
    moved, objective = y, np.inf
    for iteration in range(1, config.max_iterations + 1):
        posterior = e_step(x, moved, sigma2, config.outlier_weight)
        mass = posterior.sum(axis=1)
        total_mass = mass.sum()
        weighted_targets = posterior @ x
        system = mass[:, None] * kernel
        system[np.diag_indices_from(system)] += config.regularization * sigma2
        weights = np.linalg.solve(system, weighted_targets - mass[:, None] * y)
        offsets = kernel @ weights
        moved = y + offsets
        fit = (posterior.sum(axis=0) * np.einsum("ij,ij->i", x, x)).sum()
        cross = np.einsum("ij,ij->", weighted_targets, moved)
        spread = (mass * np.einsum("ij,ij->i", moved, moved)).sum()
        sigma2 = max((fit - 2.0 * cross + spread) / (3.0 * total_mass), sigma2_floor)
        previous, objective = objective, (
            1.5 * total_mass * np.log(sigma2)
            + 0.5 * config.regularization * np.einsum("ij,ij->", weights, offsets)
        )
        if abs(objective - previous) <= config.tolerance * total_mass:
            break
    return moved, sigma2, iteration
