import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from helpers import icosphere, lu_cpd_nonrigid, smooth_weights, sphere_cloud

from morphfit import (
    CpdConfig,
    DeformationField,
    PointCloud,
    SolverError,
    ValidationError,
    apply_deformation,
    cpd_nonrigid,
)
from morphfit import cpd
from morphfit.cpd import e_step


class TestEStep:
    def test_single_pair_full_responsibility(self):
        p = e_step(PointCloud([[0, 0, 0]]), PointCloud([[0, 0, 0]]), 1.0, 0.0)
        np.testing.assert_allclose(p, [[1.0]], atol=1e-15)

    def test_equidistant_split(self):
        moved = PointCloud([[-1.0, 0, 0], [1.0, 0, 0]])
        fixed = PointCloud([[0.0, 0, 0]])
        p = e_step(fixed, moved, 1.0, 0.0)
        np.testing.assert_allclose(p, [[0.5], [0.5]], atol=1e-12)

    def test_hand_value_distances_one_and_two(self):
        # Weights exp(-0.5) and exp(-2.0) normalize to 0.81757, 0.18243.
        moved = PointCloud([[1.0, 0, 0], [2.0, 0, 0]])
        fixed = PointCloud([[0.0, 0, 0]])
        p = e_step(fixed, moved, 1.0, 0.0)
        np.testing.assert_allclose(p[:, 0], [0.81757, 0.18243], atol=5e-6)

    def test_columns_sum_to_one_without_outliers(self):
        moved = sphere_cloud(30, seed=1)
        fixed = sphere_cloud(20, seed=2)
        p = e_step(fixed, moved, 0.05, 0.0)
        np.testing.assert_allclose(p.sum(axis=0), np.ones(20), atol=1e-12)

    def test_columns_sum_below_one_with_outliers(self):
        moved = sphere_cloud(30, seed=3)
        fixed = sphere_cloud(20, seed=4)
        p = e_step(fixed, moved, 0.05, 0.3)
        sums = p.sum(axis=0)
        assert (sums < 1.0).all()
        assert (sums > 0.0).all()

    def test_far_away_column_survives_shift(self):
        # One fixed point 60 sigma away: naive exponentials underflow to 0/0,
        # the shifted computation must still produce a valid distribution.
        moved = PointCloud([[0.0, 0, 0], [0.1, 0, 0]])
        fixed = PointCloud([[60.0, 0, 0]])
        p = e_step(fixed, moved, 1.0, 0.0)
        assert np.isfinite(p).all()
        assert p.sum(axis=0)[0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("outlier_weight", [0.0, 0.2])
    def test_dropped_underflow_terms_match_dense_reference(self, outlier_weight):
        # At this sigma^2 most terms are far below eps of their column's
        # largest; the result must still match a dense log-space softmax.
        moved = sphere_cloud(120, seed=13).points
        fixed = moved[:90] + np.random.default_rng(14).normal(scale=0.01, size=(90, 3))
        sigma2 = 2e-4
        log_resp = cdist(moved, fixed, "sqeuclidean") / (-2.0 * sigma2)
        # Shifting by the column max first keeps the reference's own
        # rounding (an ulp of log-weights near -100) out of the comparison.
        shift = log_resp.max(axis=0)
        shifted = log_resp - shift
        assert (shifted <= np.log(np.finfo(float).eps) - 1.0).mean() > 0.9
        rows = [shifted]
        if outlier_weight > 0:
            log_clutter = (1.5 * np.log(2.0 * np.pi * sigma2)
                           + np.log(outlier_weight / (1.0 - outlier_weight))
                           + np.log(len(moved) / len(fixed)))
            rows.append((log_clutter - shift)[None, :])
        reference = np.exp(shifted - logsumexp(np.vstack(rows), axis=0))
        p = e_step(fixed, moved, sigma2, outlier_weight)
        np.testing.assert_allclose(p, reference, rtol=0, atol=1e-15)
        sums = p.sum(axis=0)
        if outlier_weight == 0:
            np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-15)
        else:
            assert (sums < 1.0 - 1e-9).all()

    def test_point_lost_to_clutter_gets_a_zero_column(self):
        # 50 units from every centroid at sigma^2 0.5, the clutter term is
        # past exp's range; the column is all zeros, without a RuntimeWarning.
        moved = sphere_cloud(30, seed=15).points
        fixed = np.vstack([moved[:20] + 0.01, [[50.0, 0.0, 0.0]]])
        p = e_step(fixed, moved, 0.5, 0.1)
        np.testing.assert_array_equal(p[:, -1], 0.0)
        assert (p[:, :-1].sum(axis=0) > 0.5).all()

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValidationError):
            e_step(sphere_cloud(3), sphere_cloud(3), 0.0, 0.0)

    def test_rejects_unit_outlier_weight(self):
        with pytest.raises(ValidationError):
            e_step(sphere_cloud(3), sphere_cloud(3), 1.0, 1.0)


class TestCpdSelfRegistration:
    def test_identical_clouds_give_zero_field(self):
        cloud = sphere_cloud(100, radius=1.0, seed=5)
        result = cpd_nonrigid(cloud, cloud, CpdConfig(beta=2.0, regularization=2.0))
        assert result.converged
        assert np.abs(result.field.weights).max() < 1e-6
        moved = apply_deformation(cloud, result.field)
        err = np.mean(np.sum((moved.points - cloud.points) ** 2, axis=1))
        assert err < 1e-10

    def test_coincident_cloud_degenerate_start(self):
        cloud = PointCloud(np.tile([[0.1, 0.2, 0.3]], (5, 1)))
        result = cpd_nonrigid(cloud, cloud)
        assert result.converged
        np.testing.assert_array_equal(result.field.weights, 0.0)


class TestCpdStoppingRule:
    @pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
    def test_exact_correspondence_converges_at_every_length_unit(self, category, scale):
        # Noise-free clouds in exact correspondence drive sigma^2 toward 0;
        # the objective rule must still stop, after as many iterations
        # whatever the length unit.
        config = CpdConfig(beta=0.1 * scale, regularization=2.0 / scale**2)
        result = cpd_nonrigid(category.instance_clouds[0].points * scale,
                              category.canonical_cloud.points * scale, config)
        assert result.converged
        assert result.iterations < config.max_iterations
        unit = cpd_nonrigid(category.instance_clouds[0], category.canonical_cloud,
                            CpdConfig(beta=0.1, regularization=2.0))
        assert result.iterations == unit.iterations


class TestCpdMStep:
    @pytest.mark.parametrize("case", ["category", "outliers", "sphere360"])
    def test_matches_lu_reference(self, category, case):
        if case == "category":
            fixed, moving = category.instance_clouds[1], category.canonical_cloud
            config = CpdConfig(beta=0.1)
        elif case == "sphere360":
            # The benchmark's scale: about 360 points on a 0.15 m sphere,
            # registered onto a radially bulged one at beta 0.1.
            moving = sphere_cloud(360, radius=0.15, seed=31)
            bulged = sphere_cloud(340, radius=0.15, seed=32).points
            fixed = PointCloud(bulged * (1.0 + 0.25 * bulged[:, 2:] / 0.15))
            config = CpdConfig(beta=0.1)
        else:
            moving = sphere_cloud(90, seed=21)
            fixed = PointCloud(
                moving.points[:70] + 0.1 * smooth_weights(moving.points[:70], 1.0, 1.0, seed=22)
            )
            config = CpdConfig(beta=1.0, outlier_weight=0.2)
        result = cpd_nonrigid(fixed, moving, config)
        moved, sigma2, iterations = lu_cpd_nonrigid(fixed, moving, config)
        assert result.iterations == iterations
        np.testing.assert_allclose(apply_deformation(moving, result.field).points, moved,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(result.sigma2, sigma2, rtol=1e-9, atol=0)

    def test_zero_mass_point_gets_exactly_zero_weights(self, monkeypatch):
        # A moving point far from every data point ends with no posterior
        # mass; its row of the system is c W_i = 0.
        fixed = sphere_cloud(80, seed=23)
        moving = PointCloud(np.vstack([sphere_cloud(60, seed=24).points, [[8.0, 0.0, 0.0]]]))
        posteriors = []

        def recording_e_step(*args):
            posteriors.append(e_step(*args))
            return posteriors[-1]

        monkeypatch.setattr(cpd, "e_step", recording_e_step)
        result = cpd_nonrigid(fixed, moving, CpdConfig(beta=0.5))
        # One E-step per iteration, through the module-level name.
        assert len(posteriors) == result.iterations > 1
        assert posteriors[0][-1].sum() > 0
        assert posteriors[-1][-1].sum() == 0.0
        np.testing.assert_array_equal(result.field.weights[-1], 0.0)
        assert np.isfinite(result.field.weights).all()

    def test_vanishing_mass_point_gets_zero_weights(self, monkeypatch):
        # A moving point whose posterior mass is positive but so small that
        # its diagonal c / m would overflow is solved as a zero-mass point,
        # without a RuntimeWarning (the test configuration makes it an error).
        fixed = sphere_cloud(80, seed=25)
        moving = sphere_cloud(60, seed=26)
        masses = []

        def starving_e_step(*args):
            posterior = e_step(*args)
            posterior[-1] *= 1e-320
            masses.append(posterior[-1].sum())
            return posterior

        monkeypatch.setattr(cpd, "e_step", starving_e_step)
        config = CpdConfig(beta=0.5)
        result = cpd_nonrigid(fixed, moving, config)
        assert 0.0 < max(masses) < 1e-300 * config.regularization * result.sigma2
        np.testing.assert_array_equal(result.field.weights[-1], 0.0)
        assert np.isfinite(result.field.weights).all()

    def test_failed_factorization_raises_solver_error(self, monkeypatch):
        # LAPACK reports a non-positive pivot by info > 0; the third
        # factorization here reports one.
        dpotrf, factorizations = cpd.dpotrf, []

        def failing_dpotrf(a, **kwargs):
            factorizations.append(a.shape)
            factor, info = dpotrf(a, **kwargs)
            return factor, (2 if len(factorizations) == 3 else info)

        monkeypatch.setattr(cpd, "dpotrf", failing_dpotrf)
        with pytest.raises(SolverError, match="not positive definite") as exc:
            cpd_nonrigid(sphere_cloud(70, seed=29), sphere_cloud(50, seed=30),
                         CpdConfig(beta=1.0))
        assert exc.value.iteration == 3
        assert factorizations == [(50, 50)] * 3


class TestCpdRecovery:
    def test_smooth_field_recovered_within_ratio(self):
        # Template = 200-point unit sphere; data = template pushed through a
        # smooth field whose weight matrix has infinity norm 0.1.
        template = sphere_cloud(200, radius=1.0, seed=6)
        truth = DeformationField(template, smooth_weights(template.points, 2.0, 0.1, seed=7), 2.0)
        data = apply_deformation(template, truth)
        result = cpd_nonrigid(data, template, CpdConfig(beta=2.0, regularization=2.0))
        recovered = apply_deformation(template, result.field)
        resid = np.mean(np.sum((recovered.points - data.points) ** 2, axis=1))
        scale = np.mean(np.sum((data.points - template.points) ** 2, axis=1))
        assert resid / scale <= 0.05

    def test_translation_equivariance(self):
        template = sphere_cloud(60, seed=8)
        data_pts = template.points + 0.3 * smooth_weights(template.points, 1.0, 1.0, seed=9)
        shift = np.array([0.4, -0.2, 0.7])
        base = cpd_nonrigid(PointCloud(data_pts), template)
        shifted = cpd_nonrigid(
            PointCloud(data_pts + shift), PointCloud(template.points + shift)
        )
        a = apply_deformation(template, base.field).points
        b = apply_deformation(PointCloud(template.points + shift), shifted.field).points
        np.testing.assert_allclose(b - shift, a, atol=1e-6)

    def test_bitwise_determinism(self):
        template = icosphere(1, radius=0.5)
        data = sphere_cloud(80, radius=0.5, seed=10)
        r1 = cpd_nonrigid(data, PointCloud(template.vertices))
        r2 = cpd_nonrigid(data, PointCloud(template.vertices))
        np.testing.assert_array_equal(r1.field.weights, r2.field.weights)
        assert r1.sigma2 == r2.sigma2
        assert r1.iterations == r2.iterations


class TestCloudLimit:
    def test_cloud_over_the_limit_is_rejected(self):
        # 40,000 data points: the posterior against 10 centroids is small,
        # but such a cloud as the moving one would need a 12 GiB kernel.
        dense = sphere_cloud(40000, seed=33)
        with pytest.raises(ValidationError,
                           match=r"clouds of 40000 and 10 points, over the 8192-point limit: "
                                 r"raise --cloud-leaf or lower --dense-count"):
            cpd_nonrigid(dense, sphere_cloud(10, seed=34))

    def test_limit_holds_for_the_moving_cloud(self, monkeypatch):
        monkeypatch.setattr(cpd, "MAX_CLOUD_POINTS", 30)
        cpd_nonrigid(sphere_cloud(30, seed=35), sphere_cloud(30, seed=36))
        with pytest.raises(ValidationError, match="clouds of 30 and 31 points"):
            cpd_nonrigid(sphere_cloud(30, seed=35), sphere_cloud(31, seed=36))


class TestCpdConfig:
    def test_defaults(self):
        cfg = CpdConfig()
        assert cfg.beta == 2.0
        assert cfg.regularization == 2.0
        assert cfg.outlier_weight == 0.0
        assert cfg.max_iterations == 150
        assert cfg.tolerance == 1e-4

    def test_validation(self):
        with pytest.raises(ValidationError):
            CpdConfig(beta=-1.0)
        with pytest.raises(ValidationError):
            CpdConfig(regularization=0.0)
        with pytest.raises(ValidationError):
            CpdConfig(outlier_weight=1.0)
        with pytest.raises(ValidationError):
            CpdConfig(max_iterations=0)

    def test_result_records_iteration_budget_exhaustion(self):
        moving = sphere_cloud(40, seed=11)
        fixed = sphere_cloud(40, seed=12)
        result = cpd_nonrigid(moving, fixed, CpdConfig(max_iterations=2))
        assert result.iterations <= 2
        if result.iterations == 2 and not result.converged:
            assert result.sigma2 > 0
