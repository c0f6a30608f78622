import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import identity_sample, per_pixel_target, scipy_rbf, sphere_cloud, zero_field

from morphfit import (
    CameraView,
    DeformationImage,
    EmptyRenderError,
    PointCloud,
    PositionImage,
    RasterizeError,
    ValidationError,
    look_at,
    mask_bounding_box,
    rasterize_target,
    splat_position_image,
    target_field,
    zoom,
)
from morphfit import imaging
from morphfit.geometry import distinct_rows
from morphfit.oracle import OracleSpec, infer


class TestImageTypes:
    def test_background_must_be_zero(self):
        data = np.ones((2, 2, 3))
        mask = np.zeros((2, 2), dtype=bool)
        with pytest.raises(ValidationError):
            PositionImage(data, mask)

    def test_foreground_must_be_finite(self):
        data = np.zeros((2, 2, 3))
        data[0, 0] = np.inf
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(ValidationError):
            PositionImage(data, mask)

    @pytest.mark.parametrize("pixel, channel, value, message", [
        ((1, 0), 2, 1e-300, "background pixels must be exactly zero"),
        ((0, 1), 1, np.nan, "foreground contains non-finite values"),
        ((0, 1), 0, -np.inf, "foreground contains non-finite values"),
    ])
    def test_one_bad_channel_rejected(self, pixel, channel, value, message):
        data = np.zeros((2, 3, 3))
        mask = np.zeros((2, 3), dtype=bool)
        mask[0] = True
        data[mask] = 0.5
        data[pixel + (channel,)] = value
        for image in (lambda: PositionImage(data, mask),
                      lambda: DeformationImage(data, mask, 1.0)):
            with pytest.raises(ValidationError, match=message):
                image()

    def test_immutable(self):
        img = PositionImage(np.zeros((2, 2, 3)), np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            img.data[0, 0, 0] = 1.0

    def test_deformation_scale_round_trip(self):
        data = np.zeros((2, 2, 3))
        mask = np.zeros((2, 2), dtype=bool)
        data[1, 1] = [0.001, -0.002, 0.003]
        mask[1, 1] = True
        scaled = DeformationImage(data * 1000.0, mask, 1000.0)
        np.testing.assert_allclose(scaled.data[1, 1], [1.0, -2.0, 3.0])
        np.testing.assert_allclose(scaled.in_meters(), data)

    def test_scale_positive(self):
        with pytest.raises(ValidationError):
            DeformationImage(np.zeros((2, 2, 3)), np.zeros((2, 2), dtype=bool), 0.0)


class TestSplat:
    def test_on_axis_point_hits_principal_pixel(self):
        view = look_at([0.5, -0.3, 2.0], target=[0.5, -0.3, 0.0], resolution=(64, 48))
        img = splat_position_image(PointCloud([[0.5, -0.3, 0.0]]), view, splat_radius=0)
        assert img.mask.sum() == 1
        row, col = np.argwhere(img.mask)[0]
        assert (col, row) == (32, 24)
        np.testing.assert_allclose(img.data[row, col], [0.5, -0.3, 0.0], atol=1e-12)

    def test_nearer_point_wins_depth_test(self):
        view = look_at([0, 0, 3.0], target=[0, 0, 0], resolution=(32, 32))
        cloud = PointCloud([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])  # depths 2 and 3
        img = splat_position_image(cloud, view, splat_radius=0)
        row, col = np.argwhere(img.mask)[0]
        np.testing.assert_allclose(img.data[row, col], [0.0, 0.0, 1.0], atol=1e-12)

    def test_foreground_count_matches_brute_force_oracle(self):
        view = look_at([0.1, 0.2, 1.5], resolution=(48, 36), focal=(60.0, 60.0))
        cloud = sphere_cloud(300, radius=0.4, seed=0)
        img = splat_position_image(cloud, view, splat_radius=1)

        # Brute force: for every pixel, scan all points and all disc offsets.
        cam = view.to_camera(cloud.points)
        fx, fy = view.focal
        cx, cy = view.principal_point
        lit = set()
        for k in range(len(cloud)):
            if cam[k, 2] <= 0:
                continue
            u = int(np.floor(fx * cam[k, 0] / cam[k, 2] + cx))
            v = int(np.floor(fy * cam[k, 1] / cam[k, 2] + cy))
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dx * dx + dy * dy <= 1 and 0 <= u + dx < 48 and 0 <= v + dy < 36:
                        lit.add((v + dy, u + dx))
        assert img.mask.sum() == len(lit)
        got = {tuple(rc) for rc in np.argwhere(img.mask)}
        assert got == lit

    def test_winner_per_pixel_matches_brute_force_z_buffer(self):
        # Points on three planes facing the camera: most depths are shared
        # exactly, so the index tie-break decides many pixels.
        rng = np.random.default_rng(2)
        xy = rng.uniform(-0.3, 0.3, size=(400, 2))
        z = rng.choice([0.0, 0.05, 0.1], size=400)
        cloud = PointCloud(np.column_stack([xy, z]))
        view = look_at([0, 0, 2.0], resolution=(40, 30), focal=(50.0, 50.0))
        img = splat_position_image(cloud, view, splat_radius=1)

        cam = view.to_camera(cloud.points)
        assert len(set(cam[:, 2])) == 3
        fx, fy = view.focal
        cx, cy = view.principal_point
        winner = {}  # pixel -> (depth, index), the smallest seen so far
        for k in range(len(cloud)):
            inv_z = 1.0 / cam[k, 2]
            u = int(np.floor(fx * cam[k, 0] * inv_z + cx))
            v = int(np.floor(fy * cam[k, 1] * inv_z + cy))
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dx * dx + dy * dy <= 1 and 0 <= u + dx < 40 and 0 <= v + dy < 30:
                        pixel = (v + dy, u + dx)
                        winner[pixel] = min(winner.get(pixel, (np.inf, k)), (cam[k, 2], k))
        expected = np.zeros((30, 40, 3))
        for (row, col), (_, k) in winner.items():
            expected[row, col] = cloud.points[k]
        assert {tuple(rc) for rc in np.argwhere(img.mask)} == set(winner)
        np.testing.assert_array_equal(img.data, expected)

    def test_equal_depth_tie_goes_to_lower_index(self):
        view = look_at([0, 0, 3.0], resolution=(32, 32), focal=(40.0, 40.0))
        a, b = [0.01, 0.01, 0.0], [0.0101, 0.0102, 0.0]
        cam = view.to_camera(np.array([a, b]))
        assert cam[0, 2] == cam[1, 2]
        first = splat_position_image(PointCloud([a, b]), view, splat_radius=0)
        swapped = splat_position_image(PointCloud([b, a]), view, splat_radius=0)
        assert first.mask.sum() == swapped.mask.sum() == 1  # both in one pixel
        ((row, col),) = np.argwhere(first.mask)
        assert swapped.mask[row, col]
        np.testing.assert_array_equal(first.data[row, col], a)
        np.testing.assert_array_equal(swapped.data[row, col], b)

    @staticmethod
    def z_buffer(cloud, view, radius):
        """Brute-force reference: per pixel, the least (depth, index) of the
        points in front whose disc covers it; returns the image and winners."""
        width, height = view.resolution
        fx, fy = view.focal
        cx, cy = view.principal_point
        winner = {}  # pixel -> (depth, index), the least seen so far
        for k, (x, y, z) in enumerate(view.to_camera(cloud.points)):
            if z <= 0:
                continue
            u = int(np.floor(fx * x / z + cx))
            v = int(np.floor(fy * y / z + cy))
            for row in range(max(v - radius, 0), min(v + radius + 1, height)):
                for col in range(max(u - radius, 0), min(u + radius + 1, width)):
                    if (col - u) ** 2 + (row - v) ** 2 <= radius * radius:
                        winner[row, col] = min(winner.get((row, col), (np.inf, k)), (z, k))
        expected = np.zeros((height, width, 3))
        for pixel, (_, k) in winner.items():
            expected[pixel] = cloud.points[k]
        return expected, winner

    @staticmethod
    def at(view, col, row, depth):
        """The point at ``depth`` that projects to image coordinates (col, row)."""
        fx, fy = view.focal
        cx, cy = view.principal_point
        cam = np.array([(col - cx) * depth / fx, (row - cy) * depth / fy, depth])
        return view.rotation.T @ (cam - view.translation)

    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_matches_brute_force_reference(self, radius):
        # Straight down the -z axis, so points on one z plane share their
        # depth exactly.
        width, height = 20, 16
        view = look_at([0, 0, 2.0], resolution=(width, height), focal=(20.0, 20.0))
        rng = np.random.default_rng(radius)

        def at(col, row, depth):
            return self.at(view, col, row, depth)

        # Three depth planes, several points per pixel, inside and around
        # the frame.
        cols = rng.integers(-3, width + 3, 150) + rng.uniform(0.1, 0.9, 150)
        rows = rng.integers(-3, height + 3, 150) + rng.uniform(0.1, 0.9, 150)
        points = [at(c, r, d) for c, r, d in zip(cols, rows, rng.choice([1.5, 1.75, 2.0], 150))]
        # Ties between neighbouring pixels: 150 left of 151, 152 right of 153.
        points += [at(4.5, 5.5, 1.25), at(5.5, 5.5, 1.25), at(11.5, 9.5, 1.25), at(10.5, 9.5, 1.25)]
        # Just outside the frame: the first four reach in when radius > 0,
        # the last two are one pixel beyond any disc's reach.
        points += [at(-0.5, 7.5, 1.0), at(width + 0.5, 3.5, 1.0),
                   at(8.5, 0.5 - radius, 1.0), at(12.5, height + radius - 0.5, 1.0),
                   at(-radius - 0.5, 8.5, 1.0), at(width + radius + 0.5, 8.5, 1.0)]
        # Behind the camera.
        points += [view.rotation.T @ (np.array([x, y, -0.5]) - view.translation)
                   for x, y in rng.uniform(-0.3, 0.3, size=(10, 2))]
        cloud = PointCloud(np.array(points))
        img = splat_position_image(cloud, view, splat_radius=radius)

        assert len(set(view.to_camera(cloud.points)[:150, 2])) == 3
        expected, winner = self.z_buffer(cloud, view, radius)
        assert {tuple(rc) for rc in np.argwhere(img.mask)} == set(winner)
        np.testing.assert_array_equal(img.data, expected)
        if radius:
            # Each tied pair's shared pixels go to its lower index.
            assert winner[5, 5][1] == 150 and winner[9, 10][1] == 152
            assert {154, 155, 156, 157} <= {k for _, k in winner.values()}

    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_matches_brute_force_reference_when_no_point_is_dropped(self, radius):
        # Every point is in front of the camera and projects inside the
        # frame, so the splat gathers nothing.
        width, height = 20, 16
        view = look_at([0, 0, 2.0], resolution=(width, height), focal=(20.0, 20.0))
        rng = np.random.default_rng(10 + radius)
        cols = rng.integers(0, width, 200) + rng.uniform(0.1, 0.9, 200)
        rows = rng.integers(0, height, 200) + rng.uniform(0.1, 0.9, 200)
        depths = rng.choice([1.5, 1.75, 2.0], 200)
        points = [self.at(view, c, r, d) for c, r, d in zip(cols, rows, depths)]
        # An exact depth tie between neighbouring pixels: each covers the
        # other's pixel when radius > 0, and both go to the lower index, 200.
        points += [self.at(view, 7.5, 6.5, 1.25), self.at(view, 6.5, 6.5, 1.25)]
        cloud = PointCloud(np.array(points))
        img = splat_position_image(cloud, view, splat_radius=radius)

        cam = view.to_camera(cloud.points)
        assert (cam[:, 2] > 0).all()
        u = view.focal[0] * cam[:, 0] / cam[:, 2] + view.principal_point[0]
        v = view.focal[1] * cam[:, 1] / cam[:, 2] + view.principal_point[1]
        assert ((u >= 0) & (u < width) & (v >= 0) & (v < height)).all()
        expected, winner = self.z_buffer(cloud, view, radius)
        assert {tuple(rc) for rc in np.argwhere(img.mask)} == set(winner)
        np.testing.assert_array_equal(img.data, expected)
        if radius:
            assert winner[6, 7][1] == 200 and winner[6, 6][1] == 200

    @pytest.mark.parametrize("points, message", [
        (np.empty((0, 3)), "no model point in front of the camera"),
        (np.array([[0.1, 0, 2.5], [-0.2, 0.1, 3.0], [0, 0, 1.5]]),
         "no model point in front of the camera"),
        (np.array([[5.0, 0, 0], [0, -5.0, 0]]), "no model point projects inside the image"),
    ], ids=["empty", "all-behind", "all-outside"])
    def test_nothing_to_render_raises(self, points, message):
        view = look_at([0, 0, 1.0], resolution=(40, 30))
        with pytest.raises(EmptyRenderError, match=f"^{message}$"):
            splat_position_image(points, view)

    def test_deterministic(self):
        view = look_at([0, 0.1, 1.2], resolution=(40, 30))
        cloud = sphere_cloud(200, radius=0.3, seed=1)
        a = splat_position_image(cloud, view)
        b = splat_position_image(cloud, view)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_everything_behind_camera_raises(self):
        view = look_at([0, 0, 1.0], target=[0, 0, 2.0])
        with pytest.raises(EmptyRenderError):
            splat_position_image(PointCloud([[0, 0, 0.0]]), view)

    def test_negative_radius_rejected(self):
        view = look_at([0, 0, 1.0])
        with pytest.raises(ValidationError):
            splat_position_image(PointCloud([[0, 0, 0]]), view, splat_radius=-1)

    def test_radius_bounded_before_the_padded_grid(self):
        view = look_at([0, 0, 1.0], resolution=(40, 30))
        img = splat_position_image(PointCloud([[0, 0, 0]]), view,
                                   splat_radius=imaging.MAX_SPLAT_RADIUS)
        assert img.mask.all()
        with pytest.raises(ValidationError, match=f"in \\[0, {imaging.MAX_SPLAT_RADIUS}\\], "
                                                  "got 1000000$"):
            splat_position_image(PointCloud([[0, 0, 0]]), view, splat_radius=10**6)


class TestRasterizeTarget:
    def _render(self, cloud, resolution=(48, 36)):
        view = look_at([0.05, -0.1, 1.4], resolution=resolution, focal=(55.0, 55.0))
        return splat_position_image(cloud, view)

    @pytest.mark.parametrize("target_resolution, padded, enlarged", [
        ((96, 72), False, True), ((24, 72), True, True), ((10, 40), True, False),
        ((16, 12), False, False)], ids=["target_resolution0-False", "target_resolution1-True",
                                        "shrunk-padded", "shrunk"])
    def test_zoomed_render_matches_per_pixel_interpolation(
            self, monkeypatch, target_resolution, padded, enlarged):
        cloud = sphere_cloud(150, radius=0.35, seed=5)
        img = self._render(cloud)
        deltas = np.random.default_rng(5).normal(scale=0.01, size=(150, 3))
        evaluated = []

        class Counting(imaging.LinearRBF):
            def __call__(self, x):
                evaluated.append(len(x))
                return super().__call__(x)

        monkeypatch.setattr(imaging, "LinearRBF", Counting)
        field = target_field(cloud, deltas)
        zoomed = zoom(img, img, field, target_resolution)
        assert zoomed.padded is padded
        out = rasterize_target(zoomed.canonical, field)
        position = zoomed.canonical
        expected = per_pixel_target(position, cloud, deltas)
        np.testing.assert_array_equal(out.mask, position.mask)
        np.testing.assert_allclose(out.data, expected, rtol=0.0, atol=1e-12)
        distinct = np.unique(position.data[position.mask], axis=0)
        assert evaluated[1:] == [len(distinct)]
        if enlarged:
            assert len(distinct) < position.mask.sum()

        # The zoom's target, rasterized on the source pixels it copies and
        # spread: the same distinct positions in one evaluation, so the same
        # bits, whether the zoom enlarges or shrinks the render.
        grid = zoomed.grid
        assert (grid.mask.sum() < img.mask.sum()) is not enlarged
        assert isinstance(zoomed.target, DeformationImage)
        np.testing.assert_array_equal(zoomed.target.mask, out.mask)
        np.testing.assert_array_equal(zoomed.target.data, out.data)
        assert evaluated[:1] == [len(distinct)]

    def test_distinct_rows_sharing_a_coordinate_stay_apart(self):
        rows = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 4.0], [1.0, 2.0, 3.0],
                         [0.0, 5.0, 5.0], [1.0, 2.0, 4.0], [1.0, 7.0, 3.0]])
        distinct, repeat = distinct_rows(rows)
        assert len(distinct) == 4
        np.testing.assert_array_equal(distinct[repeat], rows)

    def test_constant_field_reproduced(self):
        cloud = sphere_cloud(120, radius=0.35, seed=2)
        img = self._render(cloud)
        d = np.array([0.01, -0.02, 0.005])
        out = rasterize_target(img, target_field(cloud, np.tile(d, (120, 1))))
        np.testing.assert_allclose(out.data[out.mask], np.tile(d, (out.mask.sum(), 1)), atol=1e-9)

    def test_repeated_anchor_retries_with_smoothing(self, monkeypatch):
        # A repeated canonical point makes the exact interpolation system
        # singular; the retry adds a whisper of smoothing and still rasterizes.
        cloud = sphere_cloud(120, radius=0.35, seed=2)
        repeated = PointCloud(np.vstack([cloud.points, cloud.points[:1]]))
        d = np.array([0.01, -0.02, 0.005])
        smoothing = []

        class Recording(imaging.LinearRBF):
            def __init__(self, *args, **kwargs):
                smoothing.append(kwargs.get("smoothing", 0.0))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(imaging, "LinearRBF", Recording)
        img = self._render(cloud)
        out = rasterize_target(img, target_field(repeated, np.tile(d, (121, 1))))
        assert smoothing[0] == 0.0 and smoothing[1] > 0.0 and len(smoothing) == 2
        np.testing.assert_array_equal(out.mask, img.mask)
        np.testing.assert_allclose(out.data[out.mask], np.tile(d, (out.mask.sum(), 1)),
                                   atol=1e-9)

    def test_linear_field_reproduced(self):
        cloud = sphere_cloud(150, radius=0.35, seed=3)
        img = self._render(cloud)
        a = np.array([[0.1, 0.0, 0.02], [0.0, -0.05, 0.01], [0.03, 0.02, 0.0]])
        b = np.array([0.004, -0.006, 0.001])
        deltas = cloud.points @ a.T + b
        out = rasterize_target(img, target_field(cloud, deltas))
        expected = img.data[img.mask] @ a.T + b
        np.testing.assert_allclose(out.data[out.mask], expected, atol=1e-6)

    def test_background_stays_zero(self):
        cloud = sphere_cloud(100, radius=0.3, seed=4)
        img = self._render(cloud)
        out = rasterize_target(img, target_field(cloud, np.full((100, 3), 0.5)))
        assert not out.mask[~img.mask].any()
        np.testing.assert_array_equal(out.data[~img.mask], 0.0)

    def test_exact_at_canonical_points(self):
        # Pixels whose stored positions are canonical points themselves must
        # return those points' delta rows exactly (interpolation property).
        cloud = sphere_cloud(60, radius=0.3, seed=5)
        img = self._render(cloud, resolution=(64, 48))
        rng = np.random.default_rng(6)
        deltas = rng.normal(scale=0.01, size=(60, 3))
        out = rasterize_target(img, target_field(cloud, deltas))
        fg_positions = img.data[img.mask]
        fg_values = out.data[out.mask]
        match = (fg_positions[:, None, :] == cloud.points[None, :, :]).all(axis=2)
        pixel_idx, point_idx = np.nonzero(match)
        assert pixel_idx.size > 0
        np.testing.assert_allclose(fg_values[pixel_idx], deltas[point_idx], atol=1e-8)

    def test_shape_mismatch_rejected(self):
        cloud = sphere_cloud(10, seed=7)
        img = self._render(cloud)
        with pytest.raises(ValidationError):
            rasterize_target(img, target_field(cloud, np.zeros((9, 3))))

    @pytest.mark.parametrize("count", [1, 3])
    def test_fewer_than_four_points_rejected(self, count):
        # The affine tail has four coefficients; scipy would raise a bare ValueError.
        with pytest.raises(RasterizeError,
                           match=f"^interpolation needs at least 4 canonical points, got {count}$"):
            target_field(PointCloud(np.eye(3)[:count]), np.zeros((count, 3)))


class TestLinearRBF:
    """``target_field`` against scipy's ``RBFInterpolator(kernel="linear", degree=1)``."""

    @staticmethod
    def _scipy_field(points, deltas):
        """scipy's interpolant under ``target_field``'s smoothing retry."""
        try:
            return scipy_rbf(points, deltas)
        except np.linalg.LinAlgError:
            diameter = float(np.linalg.norm(np.ptp(points, axis=0)))
            return scipy_rbf(points, deltas, smoothing=1e-10 * max(diameter, 1.0))

    @pytest.mark.parametrize("count, queries", [(120, 500), (600, 2500)],
                             ids=["one-block", "two-blocks"])
    def test_random_cloud_bit_for_bit(self, count, queries):
        rng = np.random.default_rng(count)
        points = rng.normal(scale=0.3, size=(count, 3))
        deltas = rng.normal(scale=0.01, size=(count, 3))
        x = rng.normal(scale=0.4, size=(queries, 3))
        ours, ref = target_field(PointCloud(points), deltas), self._scipy_field(points, deltas)
        np.testing.assert_array_equal(ours.coefficients, ref._coeffs)
        np.testing.assert_array_equal(ours(x), ref(x))

    def test_repeated_anchor_bit_for_bit(self):
        cloud = sphere_cloud(120, radius=0.35, seed=2)
        points = np.vstack([cloud.points, cloud.points[:1]])
        deltas = np.random.default_rng(2).normal(scale=0.01, size=(121, 3))
        x = np.random.default_rng(3).normal(scale=0.3, size=(400, 3))
        with pytest.raises(np.linalg.LinAlgError):
            scipy_rbf(points, deltas)
        ours, ref = target_field(PointCloud(points), deltas), self._scipy_field(points, deltas)
        np.testing.assert_array_equal(ours.coefficients, ref._coeffs)
        np.testing.assert_array_equal(ours(x), ref(x))

    def test_planar_cloud_fails_as_scipy_does(self):
        # A zero-extent axis keeps scale 1 and leaves the affine tail a zero
        # column: the system is singular with or without smoothing.
        rng = np.random.default_rng(7)
        points = np.column_stack([rng.normal(size=(80, 2)), np.full(80, 0.3)])
        deltas = rng.normal(scale=0.01, size=(80, 3))
        with pytest.raises(np.linalg.LinAlgError) as scipy_error:
            self._scipy_field(points, deltas)
        with pytest.raises(RasterizeError) as ours:
            target_field(PointCloud(points), deltas)
        assert str(ours.value) == f"interpolation system singular: {scipy_error.value}"
        assert str(scipy_error.value).endswith("full column rank (3/4).")


class TestMaskBoundingBox:
    def test_single_pixel(self):
        mask = np.zeros((10, 12), dtype=bool)
        mask[3, 7] = True
        assert mask_bounding_box(mask) == (7.0, 3.0, 8.0, 4.0)

    def test_spanning_box(self):
        mask = np.zeros((10, 12), dtype=bool)
        mask[2, 1] = mask[8, 10] = True
        assert mask_bounding_box(mask) == (1.0, 2.0, 11.0, 9.0)

    def test_empty_rejected(self):
        from morphfit import NoVisiblePointsError

        with pytest.raises(NoVisiblePointsError):
            mask_bounding_box(np.zeros((4, 4), dtype=bool))


def _image_with_pixels(shape, pixels):
    data = np.zeros((*shape, 3))
    mask = np.zeros(shape, dtype=bool)
    for (r, c, val) in pixels:
        data[r, c] = val
        mask[r, c] = True
    return PositionImage(data, mask)


class TestZoom:
    def test_union_box_at_target_aspect_is_kept(self):
        # Union box 32x24 equals target aspect 4:3 exactly.
        obs = _image_with_pixels((96, 128), [(10, 20, [1, 1, 1]), (33, 51, [2, 2, 2])])
        can = _image_with_pixels((96, 128), [(12, 25, [3, 3, 3])])
        out = zoom(obs, can, zero_field, target_resolution=(64, 48))
        assert out.crop_box == (20.0, 10.0, 32.0, 24.0)
        assert not out.padded
        assert out.scale_factors == (2.0, 2.0)

    def test_single_pixel_affine_hand_calc(self):
        # One foreground pixel per mask at (r=4, c=6) and (r=9, c=6): union
        # box x:[6,7) y:[4,10), width 1 height 6. Target 4x4 wants aspect 1,
        # so the box widens to 6x6 centered at x=6.5 => x:[3.5,9.5).
        obs = _image_with_pixels((20, 20), [(4, 6, [1.0, 0, 0])])
        can = _image_with_pixels((20, 20), [(9, 6, [0, 1.0, 0])])
        out = zoom(obs, can, zero_field, target_resolution=(4, 4))
        assert out.crop_box == (3.5, 4.0, 6.0, 6.0)
        # Replay the declared affine transform by hand: output center (i, j)
        # samples source pixel (floor(y0+(i+.5)h/4), floor(x0+(j+.5)w/4)).
        for result_img, src_img in ((out.observed, obs), (out.canonical, can)):
            expected = np.zeros((4, 4), dtype=bool)
            for i in range(4):
                for j in range(4):
                    r = int(np.floor(4.0 + (i + 0.5) * 1.5))
                    c = int(np.floor(3.5 + (j + 0.5) * 1.5))
                    expected[i, j] = src_img.mask[r, c]
            np.testing.assert_array_equal(result_img.mask, expected)

    def test_affine_transform_recovers_source_pixel(self):
        # Crop box chosen so output centers land exactly on source pixels.
        obs = _image_with_pixels((16, 16), [(4, 4, [1.0, 2.0, 3.0]), (7, 7, [4.0, 5.0, 6.0])])
        can = _image_with_pixels((16, 16), [(4, 4, [9.0, 9.0, 9.0]), (7, 7, [8.0, 8.0, 8.0])])
        out = zoom(obs, can, zero_field, target_resolution=(4, 4))
        # Union box (4,4)-(8,8), already square: crop box (4,4,4,4),
        # scale 1: output pixel equals the source pixel grid shifted by 4.
        assert out.crop_box == (4.0, 4.0, 4.0, 4.0)
        np.testing.assert_allclose(out.observed.data[0, 0], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(out.observed.data[3, 3], [4.0, 5.0, 6.0])
        np.testing.assert_allclose(out.canonical.data[0, 0], [9.0, 9.0, 9.0])

    def test_both_foregrounds_inside_crop_box(self):
        rng = np.random.default_rng(8)
        shape = (60, 80)
        obs_pix = [(int(r), int(c), [1, 1, 1]) for r, c in rng.integers(5, 50, size=(6, 2))]
        can_pix = [(int(r), int(c), [2, 2, 2]) for r, c in rng.integers(5, 50, size=(6, 2))]
        obs = _image_with_pixels(shape, obs_pix)
        can = _image_with_pixels(shape, can_pix)
        out = zoom(obs, can, zero_field, target_resolution=(40, 30))
        x0, y0, w, h = out.crop_box
        for m in (obs.mask, can.mask):
            bx0, by0, bx1, by1 = mask_bounding_box(m)
            assert x0 <= bx0 and y0 <= by0
            assert bx1 <= x0 + w + 1e-9 and by1 <= y0 + h + 1e-9
        assert w / h == pytest.approx(40 / 30, abs=1e-12)

    def test_oversized_union_pads(self):
        obs = _image_with_pixels((10, 40), [(0, 0, [1, 1, 1]), (9, 39, [1, 1, 1])])
        can = _image_with_pixels((10, 40), [(5, 20, [2, 2, 2])])
        # Union spans the whole 40x10 frame; square target needs 40x40.
        out = zoom(obs, can, zero_field, target_resolution=(8, 8))
        assert out.padded
        assert out.crop_box[2] == 40.0 and out.crop_box[3] == 40.0

    def test_clamped_translation_keeps_box_in_frame(self):
        obs = _image_with_pixels((50, 50), [(2, 1, [1, 1, 1])])
        can = _image_with_pixels((50, 50), [(4, 12, [1, 1, 1])])
        out = zoom(obs, can, zero_field, target_resolution=(30, 20))
        x0, y0, w, h = out.crop_box
        assert not out.padded
        assert x0 >= 0 and y0 >= 0
        assert x0 + w <= 50 + 1e-9 and y0 + h <= 50 + 1e-9

    def test_inverse_transform_maps_centers_into_box(self):
        obs = _image_with_pixels((30, 30), [(10, 10, [1, 1, 1])])
        can = _image_with_pixels((30, 30), [(15, 18, [1, 1, 1])])
        out = zoom(obs, can, zero_field, target_resolution=(16, 12))
        x0, y0, w, h = out.crop_box
        sx, sy = out.scale_factors
        for j in (0, 7, 15):
            for i in (0, 5, 11):
                src_x = x0 + (j + 0.5) / sx
                src_y = y0 + (i + 0.5) / sy
                assert x0 <= src_x <= x0 + w
                assert y0 <= src_y <= y0 + h

    @pytest.mark.parametrize("region, target, padded", [
        ((slice(3, 12), slice(4, 15)), (24, 18), False),
        ((slice(None), slice(None)), (30, 9), True),
    ], ids=["plain", "padded"])
    def test_resample_matches_per_pixel_reference(self, region, target, padded):
        rng = np.random.default_rng(4)
        views = []
        for _ in range(2):
            mask = np.zeros((16, 20), dtype=bool)
            inside = rng.random((16, 20))[region] < 0.5
            inside[[0, -1]] = inside[:, [0, -1]] = True  # a foreground region edge
            mask[region] = inside
            views.append(PositionImage(
                np.where(mask[..., None], rng.normal(size=(16, 20, 3)), 0.0), mask))
        zoomed = zoom(*views, zero_field, target_resolution=target)
        assert zoomed.padded is padded
        x0, y0, w, h = zoomed.crop_box
        out_w, out_h = target
        for source, out in zip(views, (zoomed.observed, zoomed.canonical)):
            expected_mask = np.zeros((out_h, out_w), dtype=bool)
            expected = np.zeros((out_h, out_w, 3))
            for i in range(out_h):
                for j in range(out_w):
                    row = int(np.floor(y0 + (i + 0.5) * (h / out_h)))
                    col = int(np.floor(x0 + (j + 0.5) * (w / out_w)))
                    if 0 <= row < 16 and 0 <= col < 20 and source.mask[row, col]:
                        expected_mask[i, j] = True
                        expected[i, j] = source.data[row, col]
            np.testing.assert_array_equal(out.mask, expected_mask)
            np.testing.assert_array_equal(out.data, expected)

    def test_views_spread_from_the_grids_on_first_read(self, monkeypatch):
        obs = _image_with_pixels((20, 30), [(5, 6, [1, 1, 1])])
        can = _image_with_pixels((20, 30), [(9, 12, [2, 2, 2])])
        spread, spreads = imaging._spread, []

        def counted(image, row_at, col_at):
            spreads.append(image)
            return spread(image, row_at, col_at)

        monkeypatch.setattr(imaging, "_spread", counted)
        zoomed = zoom(obs, can, zero_field, target_resolution=(16, 12))
        assert [type(image) for image in spreads] == [DeformationImage]
        for name, grid in (("observed", zoomed.observed_grid), ("canonical", zoomed.grid)):
            view = getattr(zoomed, name)
            assert spreads[-1] is grid and getattr(zoomed, name) is view
            np.testing.assert_array_equal(view.data, spread(grid, zoomed.row_at,
                                                            zoomed.col_at).data)
        assert len(spreads) == 3
        np.testing.assert_array_equal(zoomed.canonical.data[zoomed.canonical.mask][0], [2, 2, 2])

    def test_resolution_mismatch_rejected(self):
        obs = _image_with_pixels((10, 10), [(1, 1, [1, 1, 1])])
        can = _image_with_pixels((12, 10), [(1, 1, [1, 1, 1])])
        with pytest.raises(ValidationError):
            zoom(obs, can, zero_field)


PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def _checked(image, name):
    """``image`` passes the public constructors' check and is frozen."""
    imaging._check_image(image.data, image.mask, name)
    for array in (image.data, image.mask):
        assert array.flags.c_contiguous and not array.flags.writeable
    return image


@st.composite
def scenes(draw):
    """A cloud, some of it on shared depth planes, seen by a small camera."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(4, 300))
    points = rng.normal(scale=0.2, size=(count, 3))
    if draw(st.booleans()):
        points[:, 2] = np.round(points[:, 2], 1)
    eye = [draw(st.floats(-0.6, 0.6)), draw(st.floats(-0.6, 0.6)), draw(st.floats(0.8, 2.0))]
    view = look_at(eye, resolution=(draw(st.integers(1, 40)), draw(st.integers(1, 40))),
                   focal=(draw(st.floats(5.0, 80.0)),) * 2)
    return PointCloud(points), view, draw(st.integers(0, 2))


def _render(cloud, view, radius):
    try:
        return splat_position_image(cloud, view, radius)
    except EmptyRenderError:
        assume(False)


class TestBuiltImagesPassTheCheck:
    """The package's own images skip the public check; they must still pass it."""

    @PROPERTY
    @given(scene=scenes())
    def test_splat(self, scene):
        _checked(_render(*scene), "position image")

    @PROPERTY
    @given(scene=scenes(), shift=st.floats(-0.3, 0.3),
           target=st.tuples(st.integers(1, 60), st.integers(1, 60)),
           offset=st.tuples(*[st.floats(-0.3, 0.3)] * 3))
    def test_zoom(self, scene, shift, target, offset):
        cloud, view, radius = scene
        observed = _render(PointCloud(cloud.points + shift), view, radius)
        canonical = _render(cloud, view, radius)
        zoomed = zoom(observed, canonical, zero_field, target, offset)
        for image in (zoomed.observed, zoomed.canonical):
            assert _checked(image, "position image").mask.shape == target[::-1]

        grid = _checked(zoomed.grid, "position image")
        _checked(zoomed.observed_grid, "position image")
        believed = _checked(zoomed.believed, "position image")
        np.testing.assert_array_equal(believed.mask, grid.mask)
        np.testing.assert_array_equal(_checked(zoomed.target, "deformation image").mask,
                                      zoomed.canonical.mask)

        # The grid holds each source pixel the zoom copies once: a canonical
        # view on the same mask that holds each pixel's (row, col) zooms to
        # the same box and shows which pixels those are.
        rows, cols = np.indices(canonical.mask.shape)
        where = PositionImage(np.where(canonical.mask[..., None],
                                       np.dstack([rows, cols, rows + 1.0]), 0.0), canonical.mask)
        zoomed_where = zoom(observed, where, zero_field, target)
        assert zoomed_where.crop_box == zoomed.crop_box
        grid_where = zoomed_where.grid
        assert grid_where.mask.shape == grid.mask.shape
        assert grid.mask.shape[0] <= min(target[1], rows.shape[0])
        assert grid.mask.shape[1] <= min(target[0], rows.shape[1])
        copied = grid_where.data[grid_where.mask][:, :2]
        pixels = {tuple(rc) for rc in copied}
        assert len(pixels) == len(copied)
        shown = zoomed_where.canonical
        assert pixels == {tuple(rc) for rc in shown.data[shown.mask][:, :2]}

        # A deformation image of the grid keeps its type and scale.
        deltas = DeformationImage(grid.data * 2.0, grid.mask, scale=1000.0)
        image = imaging._spread(deltas, zoomed.row_at, zoomed.col_at)
        assert isinstance(image, DeformationImage)
        assert _checked(image, "deformation image").scale == 1000.0

    @PROPERTY
    @given(scene=scenes(), target=st.tuples(st.integers(1, 60), st.integers(1, 60)),
           scale=st.floats(1e-4, 1.0))
    def test_rasterize(self, scene, target, scale):
        cloud, view, radius = scene
        image = _render(cloud, view, radius)
        position = zoom(image, image, zero_field, target).canonical
        deltas = np.random.default_rng(len(cloud)).normal(scale=scale, size=(len(cloud), 3))
        try:
            field = target_field(cloud, deltas)
        except RasterizeError:  # a cloud flattened onto one depth plane
            assume(False)
        out = rasterize_target(position, field)
        np.testing.assert_array_equal(_checked(out, "deformation image").mask, position.mask)
        assert out.scale == 1.0

    @PROPERTY
    @given(scene=scenes(), offset=st.tuples(*[st.floats(-0.3, 0.3)] * 3),
           scale=st.floats(1e-3, 1e3))
    def test_shifted(self, scene, offset, scale):
        image = _render(*scene)
        deltas = np.where(image.mask[..., None], image.data * scale, 0.0)
        for shifted, name in (
                (imaging.shifted(image, np.array(offset)), "position image"),
                (imaging.shifted(DeformationImage(deltas, image.mask), np.array(offset)),
                 "deformation image")):
            np.testing.assert_array_equal(_checked(shifted, name).mask, image.mask)

    @PROPERTY
    @given(scene=scenes(), kind=st.sampled_from(["ground_truth", "noisy"]),
           sigma=st.floats(0.0, 1.0), scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**62))
    def test_oracle(self, scene, kind, sigma, scale, seed):
        image = _render(*scene)
        target = DeformationImage(np.where(image.mask[..., None], image.data * scale, 0.0),
                                  image.mask, scale)
        out = infer(OracleSpec(kind, noise_sigma=sigma), identity_sample(image, target),
                    np.random.default_rng(seed))
        np.testing.assert_array_equal(_checked(out, "deformation image").mask, image.mask)
        assert out.scale == 1.0


class TestNonFiniteGuards:
    """The checks that can fail inside the package keep the public messages."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_never_reaches_the_image(self, bad):
        # A non-finite point fails the front or the reach test, by a NaN or
        # infinite depth or projection: it is refused there, not dropped, and
        # no RuntimeWarning escapes on the way.  Under the tilted camera an
        # infinite coordinate gives infinite x, y and depth, projected as inf * 0.
        for eye in ([0, 0, 1.0], [0.3, -0.2, 1.0]):
            view = look_at(eye, resolution=(16, 12), focal=(10.0, 10.0))
            for axis in range(3):
                points = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0], [0.0, 0.0, 0.5]])
                points[2, axis] = bad
                with pytest.raises(ValidationError,
                                   match="^model points contain non-finite values$"):
                    splat_position_image(points, view)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_winning_point_rejected(self, bad):
        # A camera that projects non-finite coordinates to the origin lets
        # the point win its pixels; the splat must not emit it.
        class Blind(CameraView):
            def to_camera(self, points):
                return super().to_camera(np.where(np.isfinite(points), points, 0.0))

        base = look_at([0, 0, 1.0], resolution=(16, 12), focal=(10.0, 10.0))
        view = Blind(base.rotation, base.translation, base.focal, None, base.resolution)
        points = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0], [bad, 0.0, 0.5]])
        with pytest.raises(ValidationError,
                           match="^position image foreground contains non-finite values$"):
            splat_position_image(points, view)

    def test_overflowing_oracle_noise_rejected(self):
        view = look_at([0, 0, 1.0], resolution=(16, 12), focal=(10.0, 10.0))
        image = splat_position_image(sphere_cloud(60, radius=0.3, seed=5), view)
        sample = identity_sample(image)
        with pytest.raises(ValidationError,
                           match="^deformation image foreground contains non-finite values$"):
            infer(OracleSpec("noisy", noise_sigma=1e308), sample, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
    def test_non_finite_field_values_rejected(self, bad):
        cloud = sphere_cloud(60, radius=0.3, seed=5)
        view = look_at([0.05, -0.1, 1.4], resolution=(48, 36), focal=(55.0, 55.0))
        deltas = np.zeros((60, 3))
        deltas[3, 1] = bad
        with np.errstate(all="ignore"), pytest.raises(
                ValidationError, match="^deformation image foreground contains non-finite values$"):
            rasterize_target(splat_position_image(cloud, view), target_field(cloud, deltas))
