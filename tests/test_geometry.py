import pickle
import re

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
    splat_position_image,
    unflatten_offsets,
    viewpoint_sphere,
    voxel_downsample,
)
from morphfit import geometry
from morphfit.geometry import (
    _BARY_BLOCK,
    _DRAW_CELLS,
    MAX_SEED,
    MAX_SURFACE_SAMPLES,
    MAX_VIEWS,
    STREAMS,
    barycentric_points,
    distinct_rows,
    expand_kernel,
    stream,
)


def _reference_samples(mesh, count, seed):
    """sample_mesh_surface by ``Generator.choice`` and one whole-array einsum."""
    rng = np.random.default_rng(seed)
    tri = mesh.vertices[mesh.faces]
    areas = 0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
    face_idx = rng.choice(len(areas), size=count, p=areas / areas.sum())
    u = rng.random(count)
    v = rng.random(count)
    flip = u + v > 1.0
    u = np.where(flip, 1.0 - u, u)
    v = np.where(flip, 1.0 - v, v)
    bary = np.stack([1.0 - u - v, u, v], axis=1)
    return np.einsum("ij,ijk->ik", bary, tri[face_idx]), face_idx, bary


def _with_zero_area_faces(mesh):
    """The mesh plus collinear, zero-area faces first, in the middle and last."""
    n = len(mesh.vertices)
    line = np.array([[0.0, 0.0, 0.0], [0.5, 0.25, 0.0], [1.0, 0.5, 0.0]])
    flat = [n, n + 1, n + 2]
    half = len(mesh.faces) // 2
    faces = np.vstack([[flat, flat], mesh.faces[:half], [flat], mesh.faces[half:], [flat]])
    return Mesh(np.vstack([mesh.vertices, line]), faces)


def _grid_mesh(side):
    """A bumpy square of side x side cells, two triangles each."""
    x, y = np.meshgrid(np.arange(side + 1.0), np.arange(side + 1.0))
    z = np.random.default_rng(19).uniform(0.0, 0.5, size=x.shape)
    corner = (np.arange(side)[:, None] * (side + 1) + np.arange(side)).reshape(-1)
    faces = np.concatenate([
        np.stack([corner, corner + 1, corner + side + 2], axis=1),
        np.stack([corner, corner + side + 2, corner + side + 1], axis=1),
    ])
    return Mesh(np.stack([x, y, z], axis=-1).reshape(-1, 3), faces)


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


@pytest.fixture
def kernel_calls(monkeypatch):
    """One entry per kernel ``geometry`` forms."""
    calls = []

    def counted(*args):
        calls.append(1)
        return gaussian_kernel(*args)

    monkeypatch.setattr(geometry, "gaussian_kernel", counted)
    return calls


class TestKeptKernel:
    """apply_deformation keeps one kernel, the most recent, keyed by value."""

    targets = sphere_cloud(9, seed=6).points
    anchors = sphere_cloud(15, seed=5).points
    weights = np.random.default_rng(7).normal(size=(15, 3))

    def warp(self, targets=targets, anchors=anchors, beta=0.8, scale=1.0):
        field = DeformationField(PointCloud(anchors.copy()), scale * self.weights, beta)
        return apply_deformation(targets.copy(), field)

    def test_equal_values_form_it_once(self, kernel_calls):
        self.warp()
        moved = self.warp(scale=2.0)
        assert kernel_calls == [1]
        kernel = gaussian_kernel(self.targets, self.anchors, 0.8)
        np.testing.assert_array_equal(moved, self.targets + kernel @ (2.0 * self.weights))

    @pytest.mark.parametrize("change", ["targets", "anchors", "beta"])
    def test_another_key_forms_it_again(self, change, kernel_calls):
        self.warp()
        other = {"targets": self.targets + 0.01, "anchors": self.anchors[::-1], "beta": 0.5}
        self.warp(**{change: other[change]})
        assert kernel_calls == [1, 1]
        key = {"targets": self.targets, "anchors": self.anchors, "beta": 0.8, change: other[change]}
        assert list(geometry._KEPT) == ["kernel"]
        assert geometry._KEPT["kernel"][0] == (key["targets"].tobytes(),
                                               key["anchors"].tobytes(), key["beta"])

    def test_kept_kernel_refuses_writes(self):
        self.warp()
        kernel = geometry._KEPT["kernel"][1]
        with pytest.raises(ValueError, match="read-only"):
            kernel[0, 0] = 0.0

    def test_failed_kernel_is_not_kept(self, monkeypatch):
        self.warp()
        assert "kernel" in geometry._KEPT

        def fail(*args):
            raise MemoryError("no room for the kernel")

        monkeypatch.setattr(geometry, "gaussian_kernel", fail)
        with pytest.raises(MemoryError):
            self.warp(beta=0.5)
        assert "kernel" not in geometry._KEPT

    def test_large_kernel_is_formed_but_not_kept(self, kernel_calls):
        # 358 points is the default recipe's canonical cloud; 2,100 points
        # square to more than MAX_KEPT_KERNEL_ENTRIES.
        assert 2100 ** 2 > geometry.MAX_KEPT_KERNEL_ENTRIES >= 642 * 358

        def self_warp(count, seed):
            points = sphere_cloud(count, seed=seed).points
            return apply_deformation(points, DeformationField(PointCloud(points),
                                                              np.zeros((count, 3)), 0.8))

        self_warp(358, 8)
        kept = geometry._KEPT["kernel"]
        self_warp(2100, 9)
        large = sphere_cloud(2100, seed=9).points
        kernel = geometry._kept_kernel(large, large, 0.8)
        assert kernel_calls == [1, 1, 1]
        assert geometry._KEPT["kernel"] is kept
        assert kernel.shape == (2100, 2100) and not kernel.flags.writeable
        self_warp(358, 8)
        assert kernel_calls == [1, 1, 1]


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

    def test_sums_match_add_at_on_random_clouds(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            pts = rng.normal(scale=rng.uniform(0.1, 10.0), size=(rng.integers(1, 3000), 3))
            leaf = rng.uniform(0.05, 2.0)
            uniq, inverse = np.unique(np.floor(pts / leaf).astype(np.int64), axis=0,
                                      return_inverse=True)
            inverse = inverse.reshape(-1)
            sums = np.zeros((len(uniq), 3))
            np.add.at(sums, inverse, pts)
            reference = sums / np.bincount(inverse)[:, None]
            np.testing.assert_array_equal(voxel_downsample(pts, leaf).points, reference)


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

    def test_count_bounded_before_any_allocation(self):
        assert len(viewpoint_sphere(MAX_VIEWS, 1.0)) == MAX_VIEWS
        with pytest.raises(ValidationError, match=f"in \\[1, {MAX_VIEWS}\\], got {10**12}$"):
            viewpoint_sphere(10**12, 1.0)


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

    @pytest.mark.parametrize("focal", [
        (0.0, 0.0), (-275.0, -275.0), (275.0, np.nan), (np.inf, 275.0),
        (1e-300, 1e-300), (1e308, 1e308),  # the product rounds to 0 or inf
    ])
    def test_rejects_degenerate_focal_lengths(self, focal):
        with pytest.raises(ValidationError, match="focal lengths"):
            CameraView(np.eye(3), [0, 0, 1.0], focal=focal)

    @pytest.mark.parametrize("point", [(np.nan, 30.0), (50.0, np.inf)])
    def test_rejects_non_finite_principal_point(self, point):
        with pytest.raises(ValidationError, match="principal point"):
            CameraView(np.eye(3), [0, 0, 1.0], principal_point=point)

    @pytest.mark.parametrize("field, value, reason", [
        ("focal", "99", "focal lengths must be two finite numbers"),
        ("focal", (275.0, 275.0, 1.0), "focal lengths must be two finite numbers"),
        ("focal", (275.0, True), "focal lengths must be two finite numbers"),
        ("principal_point", "45", "principal point must be two finite numbers"),
        ("principal_point", [128.0, 96.0, 7.0], "principal point must be two finite numbers"),
        ("resolution", (96.7, 72.2), "resolution must be two integers"),
        ("resolution", (True, True), "resolution must be two integers"),
        ("resolution", "96", "resolution must be two integers"),
    ])
    def test_rejects_malformed_intrinsics(self, field, value, reason):
        with pytest.raises(ValidationError, match=f"^{reason}, got {re.escape(repr(value))}$"):
            CameraView(np.eye(3), [0, 0, 1.0], **{field: value})

    def test_whole_resolution_is_kept_as_integers(self):
        view = CameraView(np.eye(3), [0, 0, 1.0], resolution=(np.int64(96), 72.0))
        assert view.resolution == (96, 72)
        assert all(type(side) is int for side in view.resolution)

    @pytest.mark.parametrize("z", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_translation(self, z):
        with pytest.raises(ValidationError,
                           match=re.escape(f"translation must be finite, got [0.0, 0.5, {z}]")):
            CameraView(np.eye(3), [0, 0.5, z])


    def test_pickled_view_transforms_into_numpys_own_float64(self):
        # A pickle round trip restores the rotation with an equal but
        # distinct float64 dtype object, on which np.minimum.at is slow.
        view = look_at([0.3, -0.2, 1.5], resolution=(64, 48), focal=(70.0, 70.0))
        restored = pickle.loads(pickle.dumps(view))
        points = sphere_cloud(2000, radius=0.4, seed=3).points
        cam = restored.to_camera(points)
        assert cam.dtype is np.dtype(np.float64)
        assert cam.tobytes() == ((view.rotation @ points.T).T + view.translation).tobytes()
        fresh, again = (splat_position_image(points, v) for v in (view, restored))
        assert again.data.tobytes() == fresh.data.tobytes()
        assert again.mask.tobytes() == fresh.mask.tobytes()


class TestStreams:
    def test_each_tag_has_its_own_key_word(self):
        words = [word for word, _ in STREAMS.values()]
        assert len(set(words)) == len(words)

    def test_index_count_is_fixed(self):
        with pytest.raises(ValueError, match="takes 3 indices"):
            stream(0, "split", 3, 1)

    def test_seed_stays_one_key_word(self):
        # A larger seed would split into two words: [1 + 3 * 2**32, 3, 0]
        # seeds what [1, 3, 3] does.
        stream(MAX_SEED, "cloud", 0)
        for seed in (-1, MAX_SEED + 1, 1 + 3 * 2**32):
            with pytest.raises(ValidationError, match=f"seed must be in .*got {seed}"):
                stream(seed, "cloud", 0)

    def test_no_two_draws_share_a_stream(self):
        # Every key of every tag over small indices seeds its own generator.
        states = [stream(7, tag, *index).bit_generator.state["state"]["state"]
                  for tag, (_, count) in STREAMS.items()
                  for index in np.ndindex(*(10,) * count)]
        assert len(set(states)) == len(states)


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
        pts, face_idx, bary = sample_mesh_surface(mesh, 500, np.random.default_rng(15))
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
        _, face_idx, _ = sample_mesh_surface(mesh, 20000, np.random.default_rng(16))
        big = (face_idx == 1).mean()
        assert 0.87 <= big <= 0.93

    def test_count_bounded_before_any_allocation(self):
        rng = np.random.default_rng(0)
        assert len(sample_mesh_surface(icosphere(1), MAX_SURFACE_SAMPLES, rng)[0]) \
            == MAX_SURFACE_SAMPLES
        for count in (0, MAX_SURFACE_SAMPLES + 1, 10**11):
            with pytest.raises(ValidationError,
                               match=f"in \\[1, {MAX_SURFACE_SAMPLES}\\], got {count}$"):
                sample_mesh_surface(icosphere(1), count, rng)

    @pytest.mark.parametrize("rng", [None, 17, np.random.RandomState(17)],
                             ids=["none", "int", "random-state"])
    def test_only_a_generator_is_taken(self, rng):
        # None would draw unseeded from OS entropy and an int would seed a
        # generator outside geometry.stream; both are refused.
        with pytest.raises(ValidationError, match="^rng must be a numpy Generator, got "):
            sample_mesh_surface(icosphere(1), 64, rng)

    def test_deterministic_given_seed(self):
        mesh = icosphere(1)
        a = sample_mesh_surface(mesh, 64, np.random.default_rng(17))[0]
        b = sample_mesh_surface(mesh, 64, np.random.default_rng(17))[0]
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("count", [1, _BARY_BLOCK - 1, _BARY_BLOCK, _BARY_BLOCK + 1, 60000])
    def test_barycentric_points_match_the_whole_array_einsum(self, count):
        mesh = icosphere(3)
        tri = mesh.vertices[mesh.faces] * 1.7 + 0.3
        rng = np.random.default_rng(count)
        face_idx = rng.integers(0, len(tri), size=count)
        bary = rng.dirichlet(np.ones(3), size=count)
        assert (barycentric_points(tri, face_idx, bary).tobytes()
                == np.einsum("ij,ijk->ik", bary, tri[face_idx]).tobytes())

    @pytest.mark.parametrize("mesh", [
        icosphere(3),
        _with_zero_area_faces(icosphere(1)),
        _grid_mesh(int(np.sqrt(_DRAW_CELLS / 2)) + 1),
    ], ids=["icosphere", "zero-area-faces", "more-faces-than-cells"])
    def test_matches_generator_choice_and_one_einsum(self, mesh):
        for seed, count in enumerate([1, 2, 7, 100, 1000, _BARY_BLOCK + 1, 60000]):
            got = sample_mesh_surface(mesh, count, np.random.default_rng(seed))
            want = _reference_samples(mesh, count, seed)
            for a, b in zip(got, want, strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
