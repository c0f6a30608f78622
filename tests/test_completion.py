import dataclasses

import numpy as np
import pytest

from helpers import icosphere, sphere_cloud

from morphfit import (
    CompletionResult,
    DeformationField,
    Mesh,
    NoVisiblePointsError,
    PointCloud,
    SparseDeltas,
    ValidationError,
    PositionImage,
    cross_instance_correspondence,
    fit_latent,
    gaussian_kernel,
    latent_to_field,
    look_at,
    nearest_canonical_points,
    pixels_to_sparse_deltas,
    reconstruct_mesh,
    space_from_fields,
    splat_position_image,
    unflatten_offsets,
    zoom,
)
from morphfit import completion, geometry
from morphfit.geometry import expand_kernel


def in_span_deltas(space, latent):
    # Oracle route: full dense expanded kernel times flattened field.
    kernel = gaussian_kernel(space.canonical, space.canonical, space.beta)
    flat = space.basis @ np.asarray(latent, dtype=float) + space.mean
    return unflatten_offsets(expand_kernel(kernel) @ flat)


def residual_on(space, visible, latent, deltas):
    # Independent residual evaluation over the given visible rows.
    kernel = gaussian_kernel(space.canonical, space.canonical, space.beta)
    big = expand_kernel(kernel)
    rows = (3 * np.asarray(visible)[:, None] + np.arange(3)).reshape(-1)
    a = (big @ space.basis)[rows]
    b = deltas[np.asarray(visible)].reshape(-1) - (big @ space.mean)[rows]
    return float(np.sum((a @ latent - b) ** 2))


class TestSparseDeltas:
    def test_hidden_rows_must_be_zero(self):
        deltas = np.zeros((4, 3))
        deltas[2] = [0.1, 0, 0]
        with pytest.raises(ValidationError):
            SparseDeltas(deltas, [0, 1])

    def test_indices_sorted_unique(self):
        with pytest.raises(ValidationError):
            SparseDeltas(np.zeros((4, 3)), [2, 1])
        with pytest.raises(ValidationError):
            SparseDeltas(np.zeros((4, 3)), [1, 1])

    def test_needs_at_least_one_visible(self):
        with pytest.raises(ValidationError):
            SparseDeltas(np.zeros((4, 3)), [])

    def test_zero_delta_on_visible_point_allowed(self):
        sparse = SparseDeltas(np.zeros((4, 3)), [0, 3])
        assert sparse.visible_count == 2


class TestNearestCanonical:
    def test_ties_break_to_lowest_index(self):
        canonical = PointCloud([[0.0, 0, 0], [2.0, 0, 0]])
        owner = nearest_canonical_points(canonical, np.array([[1.0, 0, 0]]))
        assert owner[0] == 0
        # Same geometry, storage order swapped: still the lowest index.
        swapped = PointCloud([[2.0, 0, 0], [0.0, 0, 0]])
        owner = nearest_canonical_points(swapped, np.array([[1.0, 0, 0]]))
        assert owner[0] == 0

    def test_plain_nearest(self):
        canonical = sphere_cloud(50, seed=0)
        queries = canonical.points[[3, 17, 42]] + 1e-6
        np.testing.assert_array_equal(
            nearest_canonical_points(canonical, queries), [3, 17, 42]
        )


class TestPixelsToSparseDeltas:
    def _images(self, canonical, assignments, deltas):
        h, w = 2, len(assignments)
        pos = np.zeros((h, w, 3))
        def_img = np.zeros((h, w, 3))
        mask = np.zeros((h, w), dtype=bool)
        for col, (idx, d) in enumerate(zip(assignments, deltas)):
            pos[0, col] = canonical.points[idx]
            def_img[0, col] = d
            mask[0, col] = True
        return def_img, pos, mask

    def test_single_point_identical_deltas(self):
        canonical = sphere_cloud(10, seed=1)
        d = np.array([0.01, -0.02, 0.03])
        def_img, pos, mask = self._images(canonical, [7, 7, 7], [d, d, d])
        sparse = pixels_to_sparse_deltas(def_img, pos, mask, canonical)
        np.testing.assert_array_equal(sparse.visible_indices, [7])
        np.testing.assert_allclose(sparse.deltas[7], d, atol=1e-15)

    def test_mean_aggregation(self):
        canonical = sphere_cloud(10, seed=2)
        a = np.array([0.02, 0.0, 0.0])
        b = np.array([0.0, 0.04, 0.0])
        def_img, pos, mask = self._images(canonical, [4, 4], [a, b])
        sparse = pixels_to_sparse_deltas(def_img, pos, mask, canonical)
        np.testing.assert_allclose(sparse.deltas[4], (a + b) / 2, atol=1e-15)

    def test_unreferenced_point_occluded(self):
        canonical = sphere_cloud(10, seed=3)
        def_img, pos, mask = self._images(canonical, [2], [np.array([0.01, 0, 0])])
        sparse = pixels_to_sparse_deltas(def_img, pos, mask, canonical)
        assert 5 not in sparse.visible_indices
        np.testing.assert_array_equal(sparse.deltas[5], 0.0)

    @pytest.mark.parametrize("target_resolution, padded", [((96, 72), False), ((24, 72), True)])
    def test_zoomed_render_matches_per_pixel_owners(self, target_resolution, padded):
        cloud = sphere_cloud(150, radius=0.35, seed=5)
        view = look_at([0.05, -0.1, 1.4], resolution=(48, 36), focal=(55.0, 55.0))
        render = splat_position_image(cloud, view)
        # Dyadic positions, so a canonical pair placed +-2^-8 around one of
        # them is exactly equidistant from it.
        render = PositionImage(np.round(render.data * 1024) / 1024, render.mask)
        zoomed = zoom(render, render, target_resolution)
        assert zoomed.padded is padded
        position, mask = zoomed.canonical.data, zoomed.canonical.mask
        tied = position[mask][0]
        step = np.array([2.0 ** -8, 0.0, 0.0])
        canonical = PointCloud(np.vstack([sphere_cloud(150, radius=0.35, seed=7).points,
                                          tied + step, tied - step]))
        deformation = np.zeros_like(position)
        deformation[mask] = np.random.default_rng(6).normal(scale=0.01, size=(mask.sum(), 3))

        distance = np.linalg.norm(canonical.points[150:] - tied, axis=1)
        assert distance[0] == distance[1]
        owners = nearest_canonical_points(canonical, position[mask])
        assert owners[0] == 150
        n = len(canonical)
        sums = np.zeros((n, 3))
        np.add.at(sums, owners, deformation[mask])
        counts = np.bincount(owners, minlength=n)
        visible = np.flatnonzero(counts)
        expected = np.zeros((n, 3))
        expected[visible] = sums[visible] / counts[visible, None]

        sparse = pixels_to_sparse_deltas(deformation, position, mask, canonical)
        np.testing.assert_array_equal(sparse.visible_indices, visible)
        np.testing.assert_array_equal(sparse.deltas, expected)
        assert len(np.unique(position[mask], axis=0)) < mask.sum()

    def test_sums_match_add_at_bit_for_bit(self):
        # Many pixels per point, with deltas over eight orders of magnitude,
        # so a sum in any other order than the pixels' own would differ.
        canonical = sphere_cloud(40, seed=8)
        rng = np.random.default_rng(9)
        owners = rng.integers(0, 40, 24000)
        position = canonical.points[owners].reshape(1, -1, 3)
        deformation = (rng.normal(size=(24000, 3))
                       * 10.0 ** rng.uniform(-6, 2, (24000, 1))).reshape(1, -1, 3)
        mask = np.ones((1, 24000), dtype=bool)
        sums = np.zeros((40, 3))
        np.add.at(sums, owners, deformation[0])
        counts = np.bincount(owners, minlength=40)
        sparse = pixels_to_sparse_deltas(deformation, position, mask, canonical)
        assert sparse.deltas.tobytes() == (sums / counts[:, None]).tobytes()

    def test_empty_mask_raises(self):
        canonical = sphere_cloud(5, seed=4)
        with pytest.raises(NoVisiblePointsError):
            pixels_to_sparse_deltas(
                np.zeros((2, 2, 3)), np.zeros((2, 2, 3)), np.zeros((2, 2), dtype=bool), canonical
            )

    def test_resolution_mismatch_rejected(self):
        canonical = sphere_cloud(5, seed=5)
        with pytest.raises(ValidationError):
            pixels_to_sparse_deltas(
                np.zeros((2, 3, 3)), np.zeros((2, 2, 3)), np.ones((2, 3), dtype=bool), canonical
            )

    def test_images_without_three_channels_rejected(self):
        canonical = sphere_cloud(5, seed=6)
        with pytest.raises(ValidationError, match="resolution mismatch"):
            pixels_to_sparse_deltas(
                np.zeros((2, 3, 2)), np.zeros((2, 3, 2)), np.ones((2, 3), dtype=bool), canonical
            )


class TestFitLatent:
    def test_mean_field_fixed_point(self, category):
        space = category.space
        deltas = in_span_deltas(space, np.zeros(2))
        visible = np.arange(0, len(space.canonical), 2)
        masked = np.zeros_like(deltas)
        masked[visible] = deltas[visible]
        result = fit_latent(space, SparseDeltas(masked, visible))
        assert np.abs(result.latent).max() < 1e-8
        assert not result.degenerate

    def test_full_visibility_recovers_latent(self, category):
        space = category.space
        rng = np.random.default_rng(6)
        x0 = rng.uniform(-1, 1, size=2)
        deltas = in_span_deltas(space, x0)
        result = fit_latent(space, SparseDeltas(deltas, np.arange(len(space.canonical))))
        assert np.linalg.norm(result.latent - x0) < 1e-6
        assert result.residual < 1e-12

    def test_half_occlusion_recovers_latent(self, category):
        space = category.space
        rng = np.random.default_rng(7)
        x0 = rng.uniform(-1, 1, size=2)
        deltas = in_span_deltas(space, x0)
        visible = np.sort(
            rng.choice(len(space.canonical), size=len(space.canonical) // 2, replace=False)
        )
        masked = np.zeros_like(deltas)
        masked[visible] = deltas[visible]
        result = fit_latent(space, SparseDeltas(masked, visible))
        assert np.linalg.norm(result.latent - x0) / np.linalg.norm(x0) < 0.05

    def test_optimality_against_perturbations(self, category):
        space = category.space
        rng = np.random.default_rng(8)
        deltas = in_span_deltas(space, rng.uniform(-1, 1, size=2))
        deltas = deltas + rng.normal(scale=1e-4, size=deltas.shape)
        visible = np.sort(rng.choice(len(space.canonical), size=80, replace=False))
        masked = np.zeros_like(deltas)
        masked[visible] = deltas[visible]
        result = fit_latent(space, SparseDeltas(masked, visible))
        best = residual_on(space, visible, result.latent, masked)
        assert best == pytest.approx(result.residual, rel=1e-9, abs=1e-18)
        for _ in range(100):
            eps = rng.normal(scale=0.01, size=2)
            assert residual_on(space, visible, result.latent + eps, masked) >= best

    def test_subset_rows_monotonicity(self, category):
        # Residual over a row subset at the subset's own optimum never
        # exceeds the residual over those rows at the full-set optimum.
        space = category.space
        rng = np.random.default_rng(9)
        deltas = in_span_deltas(space, rng.uniform(-1, 1, size=2))
        deltas = deltas + rng.normal(scale=2e-3, size=deltas.shape)
        full = np.sort(rng.choice(len(space.canonical), size=100, replace=False))
        sub = np.sort(rng.choice(full, size=40, replace=False))
        masked_full = np.zeros_like(deltas)
        masked_full[full] = deltas[full]
        masked_sub = np.zeros_like(deltas)
        masked_sub[sub] = deltas[sub]
        x_full = fit_latent(space, SparseDeltas(masked_full, full)).latent
        x_sub = fit_latent(space, SparseDeltas(masked_sub, sub)).latent
        at_sub = residual_on(space, sub, x_sub, masked_sub)
        at_full = residual_on(space, sub, x_full, masked_sub)
        assert at_sub <= at_full + 1e-15

    def test_under_determined_flags_degenerate(self):
        # latent_dim 4 but a single visible point: 3 rows cannot reach rank 4.
        anchors = sphere_cloud(10, radius=0.2, seed=10)
        rng = np.random.default_rng(11)
        fields = [
            DeformationField(anchors, rng.normal(scale=0.01, size=(10, 3)), 0.15)
            for _ in range(7)
        ]
        space = space_from_fields(anchors, fields, latent_dim=4, beta=0.15)
        deltas = np.zeros((10, 3))
        deltas[3] = [0.01, 0.0, 0.0]
        sparse = SparseDeltas(deltas, [3])
        plain = fit_latent(space, sparse)
        assert plain.degenerate
        ridged = fit_latent(space, sparse, ridge=1e-6)
        assert not ridged.degenerate

    def test_degenerate_solution_is_minimal_norm(self):
        anchors = sphere_cloud(10, radius=0.2, seed=12)
        rng = np.random.default_rng(13)
        fields = [
            DeformationField(anchors, rng.normal(scale=0.01, size=(10, 3)), 0.15)
            for _ in range(7)
        ]
        space = space_from_fields(anchors, fields, latent_dim=4, beta=0.15)
        deltas = np.zeros((10, 3))
        deltas[3] = [0.01, 0.0, 0.0]
        result = fit_latent(space, SparseDeltas(deltas, [3]))
        kernel = gaussian_kernel(space.canonical, space.canonical, space.beta)
        big = expand_kernel(kernel)
        rows = np.array([9, 10, 11])
        a = (big @ space.basis)[rows]
        b = deltas[3] - (big @ space.mean)[rows]
        np.testing.assert_allclose(result.latent, np.linalg.pinv(a) @ b, atol=1e-8)

    def test_kernel_products_kept_per_space_value(self, category, monkeypatch):
        # A space equal by value, as a load builds anew, reuses the kept kernel
        # products and fits the same latent; another beta computes its own.
        calls = []

        def counted(*args):
            calls.append(1)
            return gaussian_kernel(*args)

        monkeypatch.setattr(completion, "gaussian_kernel", counted)
        space = category.space
        sparse = SparseDeltas(in_span_deltas(space, [0.3, -0.2]), np.arange(len(space.canonical)))
        first = fit_latent(space, sparse)
        loaded = dataclasses.replace(space, canonical=PointCloud(space.canonical.points.copy()),
                                     mean=space.mean.copy(), basis=space.basis.copy())
        assert fit_latent(loaded, sparse).latent.tobytes() == first.latent.tobytes()
        assert calls == [1]
        blended = geometry._KEPT["kernel products"][1]
        assert not any(array.flags.writeable for array in blended)
        wider = dataclasses.replace(space, beta=2 * space.beta, registration=None, fields=())
        fit_latent(wider, sparse)
        assert calls == [1, 1]

    def test_negative_ridge_rejected(self, category):
        sparse = SparseDeltas(np.zeros((len(category.space.canonical), 3)), [0])
        with pytest.raises(ValidationError):
            fit_latent(category.space, sparse, ridge=-1.0)


class TestReconstructMesh:
    def test_zero_latent_zero_mean_identity(self):
        anchors = sphere_cloud(20, seed=14)
        zero = DeformationField(anchors, np.zeros((20, 3)), 1.0)
        space = space_from_fields(anchors, [zero, zero], latent_dim=1, beta=1.0)
        mesh = icosphere(0)
        result = fit_latent(space, SparseDeltas(np.zeros((20, 3)), np.arange(20)))
        out = reconstruct_mesh(result, mesh)
        np.testing.assert_allclose(out.vertices, mesh.vertices, atol=1e-12)
        np.testing.assert_array_equal(out.faces, mesh.faces)

    def test_topology_preserved(self, category):
        rng = np.random.default_rng(15)
        deltas = in_span_deltas(category.space, rng.uniform(-1, 1, size=2))
        result = fit_latent(
            category.space, SparseDeltas(deltas, np.arange(len(category.space.canonical)))
        )
        out = reconstruct_mesh(result, category.canonical_mesh)
        np.testing.assert_array_equal(out.faces, category.canonical_mesh.faces)

    def test_uniform_translation_exact_at_anchors(self):
        # Anchors 100 beta apart: cross-kernel terms underflow to exactly
        # zero, so a constant-row field moves anchor-coincident vertices by
        # exactly that constant.
        anchors = PointCloud(np.diag([0.0, 100.0, 200.0]) + np.array([[5.0, 0, 0]] * 3))
        zero = DeformationField(anchors, np.zeros((3, 3)), 1.0)
        space = space_from_fields(anchors, [zero, zero], latent_dim=1, beta=1.0)
        t = np.array([0.5, -0.25, 1.0])
        field = DeformationField(anchors, np.tile(t, (3, 1)), 1.0)
        mesh = Mesh(anchors.points, [[0, 1, 2]])
        result = CompletionResult(np.zeros(1), field, 0.0)
        out = reconstruct_mesh(result, mesh)
        np.testing.assert_array_equal(out.vertices, anchors.points + t)


class TestCrossInstance:
    def test_equal_latents_coincide(self, category):
        a, b = cross_instance_correspondence(category.space, [0.3, 0.4], [0.3, 0.4])
        np.testing.assert_array_equal(a.points, b.points)

    def test_zero_latent_zero_mean_gives_canonical(self):
        anchors = sphere_cloud(20, seed=16)
        zero = DeformationField(anchors, np.zeros((20, 3)), 1.0)
        space = space_from_fields(anchors, [zero, zero], latent_dim=1, beta=1.0)
        _, b = cross_instance_correspondence(space, [0.2], [0.0])
        np.testing.assert_allclose(b.points, anchors.points, atol=1e-12)

    def test_difference_matches_linearity_oracle(self, category):
        space = category.space
        xa = np.array([0.6, -0.1])
        xb = np.array([-0.2, 0.8])
        a, b = cross_instance_correspondence(space, xa, xb)
        kernel = gaussian_kernel(space.canonical, space.canonical, space.beta)
        expected = kernel @ unflatten_offsets(space.basis @ (xa - xb))
        np.testing.assert_allclose(a.points - b.points, expected, atol=1e-10)
