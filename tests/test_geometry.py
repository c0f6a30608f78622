import numpy as np
import pytest

from helpers import icosphere, sphere_cloud

from morphfit import (
    CameraView,
    DeformationField,
    Mesh,
    PointCloud,
    ValidationError,
    apply_deformation,
    flatten_offsets,
    gaussian_kernel,
    look_at,
    quaternion_to_rotation,
    rotation_to_quaternion,
    sample_mesh_surface,
    unflatten_offsets,
    viewpoint_sphere,
    voxel_downsample,
)
from morphfit.geometry import distinct_rows, expand_kernel


class TestPointCloud:
    def test_requires_n_by_3(self):
        with pytest.raises(ValidationError):
            PointCloud(np.zeros((4, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            PointCloud(np.zeros((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            PointCloud([[0.0, np.nan, 0.0]])

    def test_is_immutable(self):
        cloud = PointCloud([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 5.0


class TestMesh:
    def test_rejects_out_of_range_face(self):
        with pytest.raises(ValidationError):
            Mesh(np.eye(3), [[0, 1, 3]])

    def test_rejects_degenerate_face(self):
        with pytest.raises(ValidationError):
            Mesh(np.eye(3), [[0, 1, 1]])

    def test_color_shape_checked(self):
        with pytest.raises(ValidationError):
            Mesh(np.eye(3), [[0, 1, 2]], vertex_colors=np.zeros((2, 3)))

    def test_with_vertices_keeps_topology(self):
        mesh = icosphere(0)
        moved = mesh.with_vertices(mesh.vertices * 2.0)
        assert np.array_equal(moved.faces, mesh.faces)


class TestGaussianKernel:
    def test_zero_distance_is_exactly_one(self):
        out = gaussian_kernel(PointCloud([[0, 0, 0]]), PointCloud([[0, 0, 0]]), 2.0)
        assert out.shape == (1, 1)
        assert out[0, 0] == 1.0

    def test_hand_value_distance_two(self):
        # exp(-2^2 / (2 * 2^2)) = exp(-0.5)
        out = gaussian_kernel([[0.0, 0.0, 0.0]], [[2.0, 0.0, 0.0]], 2.0)
        assert out[0, 0] == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_swap_transposes(self):
        a = sphere_cloud(7, seed=1)
        b = sphere_cloud(5, seed=2)
        left = gaussian_kernel(a, b, 0.7)
        right = gaussian_kernel(b, a, 0.7)
        np.testing.assert_array_equal(left, right.T)

    def test_entries_in_unit_interval_and_unit_diagonal(self):
        cloud = sphere_cloud(40, seed=3)
        g = gaussian_kernel(cloud, cloud, 1.3)
        assert (g > 0).all() and (g <= 1).all()
        np.testing.assert_array_equal(np.diag(g), np.ones(40))

    def test_beta_must_be_positive(self):
        with pytest.raises(ValidationError):
            gaussian_kernel([[0, 0, 0]], [[1, 1, 1]], 0.0)


class TestApplyDeformation:
    def test_zero_field_identity(self):
        cloud = sphere_cloud(12, seed=4)
        field = DeformationField(cloud, np.zeros((12, 3)), 1.0)
        out = apply_deformation(cloud, field)
        np.testing.assert_array_equal(out.points, cloud.points)

    def test_coincident_anchor_full_offset(self):
        anchor = PointCloud([[0.3, -0.2, 0.9]])
        field = DeformationField(anchor, [[1.0, 0.0, 0.0]], 2.0)
        out = apply_deformation(anchor, field)
        np.testing.assert_allclose(out.points, [[1.3, -0.2, 0.9]], atol=1e-15)

    def test_hand_value_at_distance_two(self):
        field = DeformationField(PointCloud([[0.0, 0.0, 0.0]]), [[1.0, 0.0, 0.0]], 2.0)
        out = apply_deformation(np.array([[2.0, 0.0, 0.0]]), field)
        np.testing.assert_allclose(out, [[2.0 + 0.6065306597126334, 0.0, 0.0]], atol=1e-12)

    def test_linear_in_weights(self):
        anchors = sphere_cloud(15, seed=5)
        targets = sphere_cloud(9, seed=6)
        rng = np.random.default_rng(7)
        w1 = rng.normal(size=(15, 3))
        w2 = rng.normal(size=(15, 3))
        both = apply_deformation(targets, DeformationField(anchors, w1 + w2, 0.8)).points
        f1 = apply_deformation(targets, DeformationField(anchors, w1, 0.8)).points
        f2 = apply_deformation(targets, DeformationField(anchors, w2, 0.8)).points
        np.testing.assert_allclose(both, f1 + f2 - targets.points, atol=1e-12)

    def test_weight_row_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            DeformationField(sphere_cloud(4), np.zeros((5, 3)), 1.0)


class TestExpandKernel:
    def test_scalar_becomes_identity(self):
        np.testing.assert_array_equal(expand_kernel([[1.0]]), np.eye(3))

    def test_identity_expands_to_identity(self):
        np.testing.assert_array_equal(expand_kernel(np.eye(2)), np.eye(6))

    def test_commutes_with_flattening(self):
        rng = np.random.default_rng(8)
        g = rng.normal(size=(4, 4))
        w = rng.normal(size=(4, 3))
        lhs = flatten_offsets(g @ w)
        rhs = expand_kernel(g) @ flatten_offsets(w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_block_structure_matches_manual_expansion(self):
        rng = np.random.default_rng(9)
        g = rng.normal(size=(3, 3))
        manual = np.zeros((9, 9))
        for i in range(3):
            for j in range(3):
                manual[3 * i : 3 * i + 3, 3 * j : 3 * j + 3] = g[i, j] * np.eye(3)
        np.testing.assert_array_equal(expand_kernel(g), manual)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            expand_kernel(np.zeros((2, 3)))


class TestFlattening:
    def test_point_major_order(self):
        w = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(flatten_offsets(w), [1, 2, 3, 4, 5, 6])

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        w = rng.normal(size=(7, 3))
        np.testing.assert_array_equal(unflatten_offsets(flatten_offsets(w)), w)


class TestVoxelDownsample:
    def test_single_point_passthrough(self):
        out = voxel_downsample(PointCloud([[0.2, 0.3, 0.4]]), 1.0)
        np.testing.assert_allclose(out.points, [[0.2, 0.3, 0.4]])

    def test_two_points_one_voxel_midpoint(self):
        out = voxel_downsample(PointCloud([[0.1, 0.1, 0.1], [0.3, 0.3, 0.3]]), 1.0)
        np.testing.assert_allclose(out.points, [[0.2, 0.2, 0.2]])

    def test_count_matches_hash_grid_oracle(self):
        cloud = sphere_cloud(1000, seed=11)
        leaf = 0.5
        occupied = {tuple(np.floor(p / leaf).astype(int)) for p in cloud.points}
        out = voxel_downsample(cloud, leaf)
        assert len(out) == len(occupied)

    def test_output_near_inputs(self):
        cloud = sphere_cloud(300, seed=12)
        leaf = 0.4
        out = voxel_downsample(cloud, leaf)
        assert len(out) <= len(cloud)
        # Every centroid sits within half a voxel diagonal of some input.
        from scipy.spatial import cKDTree

        dist, _ = cKDTree(cloud.points).query(out.points)
        assert dist.max() <= 0.5 * leaf * np.sqrt(3) + 1e-12

    def test_leaf_must_be_positive(self):
        with pytest.raises(ValidationError):
            voxel_downsample(sphere_cloud(5), 0.0)

    def test_matches_unique_reference_bit_for_bit(self):
        # Negative coordinates, and points exactly on voxel faces (multiples
        # of the dyadic leaf), which floor into the voxel above.
        leaf = 0.125
        rng = np.random.default_rng(13)
        on_faces = leaf * rng.integers(-8, 8, size=(200, 3))
        cloud = PointCloud(np.vstack([sphere_cloud(2000, seed=13).points, on_faces,
                                      on_faces + [0.0, 1e-3, -1e-3]]))
        keys = np.floor(cloud.points / leaf).astype(np.int64)
        assert (keys < 0).any() and (cloud.points == leaf * keys).all(axis=1).any()
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        sums = np.zeros((len(uniq), 3))
        np.add.at(sums, inverse, cloud.points)
        reference = sums / np.bincount(inverse)[:, None]
        np.testing.assert_array_equal(voxel_downsample(cloud, leaf).points, reference)


class TestDistinctRows:
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_matches_unique_reference(self, dtype):
        rng = np.random.default_rng(6)
        pool = rng.integers(-2, 3, size=(12, 3)).astype(dtype)
        # Runs of one row, rows differing only in a later column next to
        # each other, and repeats far apart.
        picks = np.repeat(rng.integers(0, len(pool), 60), rng.integers(1, 5, 60))
        rows = pool[picks]
        rows = np.concatenate([rows, [[1, 1, 1], [1, 1, 2], [1, 1, 2], [1, 2, 2], rows[0]]])
        rows = rows.astype(dtype)
        distinct, repeat = distinct_rows(rows)
        expected, inverse = np.unique(rows, axis=0, return_inverse=True)
        np.testing.assert_array_equal(distinct, expected)
        np.testing.assert_array_equal(repeat, inverse.reshape(-1))
        np.testing.assert_array_equal(distinct[repeat], rows)


class TestViewpointSphere:
    def test_single_view_on_plus_z(self):
        (view,) = viewpoint_sphere(1, 2.0)
        np.testing.assert_allclose(view.position, [0, 0, 2.0], atol=1e-12)

    def test_count_and_radius(self):
        views = viewpoint_sphere(74, 1.5)
        assert len(views) == 74
        for v in views:
            assert np.linalg.norm(v.position) == pytest.approx(1.5, abs=1e-9)

    def test_optical_axis_through_origin(self):
        for v in viewpoint_sphere(25, 1.0):
            forward = v.rotation[2]
            np.testing.assert_allclose(forward, -v.position, atol=1e-9)

    def test_no_duplicate_directions(self):
        views = viewpoint_sphere(74, 1.0)
        dirs = np.stack([v.position / np.linalg.norm(v.position) for v in views])
        dots = dirs @ dirs.T
        np.fill_diagonal(dots, -1.0)
        # Brute-force pairwise angles: all strictly positive separation.
        assert np.arccos(np.clip(dots.max(), -1, 1)) > 1e-3

    def test_rejects_bad_count(self):
        with pytest.raises(ValidationError):
            viewpoint_sphere(0, 1.0)


class TestCameraView:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValidationError):
            CameraView(np.ones((3, 3)), np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValidationError):
            CameraView(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_default_principal_point_is_center(self):
        view = look_at([0, 0, 2.0], resolution=(100, 60))
        assert view.principal_point == (50.0, 30.0)

    def test_shifted_view_equals_shifted_scene(self):
        view = look_at([0.4, -0.7, 1.2])
        offset = np.array([0.03, -0.02, 0.05])
        pts = sphere_cloud(20, seed=13).points
        direct = view.to_camera(pts + offset)
        via_shift = view.shifted(offset).to_camera(pts)
        np.testing.assert_allclose(direct, via_shift, atol=1e-12)


class TestQuaternions:
    def test_round_trip_random_rotations(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            r = quaternion_to_rotation(q)
            back = quaternion_to_rotation(rotation_to_quaternion(r))
            np.testing.assert_allclose(back, r, atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(
            rotation_to_quaternion(np.eye(3)), [1, 0, 0, 0], atol=1e-15
        )


class TestSampleMeshSurface:
    def test_points_lie_on_faces(self):
        mesh = icosphere(1, radius=2.0)
        pts, face_idx, bary = sample_mesh_surface(mesh, 500, rng=15)
        recombined = np.einsum("ij,ijk->ik", bary, mesh.vertices[mesh.faces[face_idx]])
        np.testing.assert_allclose(pts, recombined, atol=1e-12)
        np.testing.assert_allclose(bary.sum(axis=1), 1.0, atol=1e-12)
        assert (bary >= 0).all()

    def test_area_weighting(self):
        # Two triangles, one 9x the area of the other: counts split ~9:1.
        verts = np.array([
            [0, 0, 0], [1, 0, 0], [0, 1, 0],
            [10, 0, 0], [13, 0, 0], [10, 3, 0],
        ], dtype=float)
        mesh = Mesh(verts, [[0, 1, 2], [3, 4, 5]])
        _, face_idx, _ = sample_mesh_surface(mesh, 20000, rng=16)
        big = (face_idx == 1).mean()
        assert 0.87 <= big <= 0.93

    def test_deterministic_given_seed(self):
        mesh = icosphere(1)
        a = sample_mesh_surface(mesh, 64, rng=17)[0]
        b = sample_mesh_surface(mesh, 64, rng=17)[0]
        np.testing.assert_array_equal(a, b)
