import base64
import dataclasses
import json

import numpy as np
import pytest

from helpers import SyntheticCategory, sphere_cloud

from morphfit import (
    CpdConfig,
    DeformationField,
    Registration,
    ShapeSpace,
    SpaceFileError,
    TrainingField,
    ValidationError,
    apply_deformation,
    cpd_nonrigid,
    flatten_offsets,
    latent_to_field,
    load_space,
    project_field,
    relative_residual,
    save_space,
    space_from_fields,
    unflatten_offsets,
)


def _random_fields(anchors, count, beta, seed):
    rng = np.random.default_rng(seed)
    return [
        DeformationField(anchors, rng.normal(scale=0.02, size=(len(anchors), 3)), beta)
        for _ in range(count)
    ]


class TestConstruction:
    def test_duplicate_canonical_yields_zero_mean(self):
        anchors = sphere_cloud(30, seed=0)
        zero = DeformationField(anchors, np.zeros((30, 3)), 1.0)
        space = space_from_fields(anchors, [zero, zero], latent_dim=1, beta=1.0)
        assert np.abs(space.mean).max() < 1e-12

    def test_latent_dim_capped_by_instances(self):
        anchors = sphere_cloud(10, seed=1)
        fields = _random_fields(anchors, 3, 1.0, seed=2)
        with pytest.raises(ValidationError) as exc:
            space_from_fields(anchors, fields, latent_dim=5, beta=1.0)
        # Diagnostic names both the request and the cap.
        msg = str(exc.value)
        assert "5" in msg and "2" in msg

    def test_basis_orthonormal(self, category):
        basis = category.space.basis
        np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-10)

    def test_matches_full_eigendecomposition_oracle(self, category):
        # Independent route: dense eigendecomposition of the sample covariance
        # of the flattened training offsets. Compare subspaces via projectors
        # so sign and ordering conventions cannot cause a false failure.
        flat = np.stack([flatten_offsets(f.weights) for f in category.fields])
        centered = flat - flat.mean(axis=0)
        cov = centered.T @ centered
        eigvals, eigvecs = np.linalg.eigh(cov)
        top = eigvecs[:, np.argsort(eigvals)[::-1][:2]]
        p_oracle = top @ top.T
        b = category.space.basis
        p_space = b @ b.T
        assert np.abs(p_space - p_oracle).max() < 1e-8

    def test_training_residual_small_for_exact_family(self, category):
        # Fields were drawn from an exact 2-D linear family: a rank-2 basis
        # must reproduce every training field nearly exactly.
        for f in category.fields:
            assert relative_residual(category.space, f) < 1e-8

    def test_out_of_family_field_has_large_residual(self, category):
        rng = np.random.default_rng(3)
        noise = DeformationField(
            category.space.canonical,
            rng.normal(scale=0.01, size=(len(category.space.canonical), 3)),
            category.beta,
        )
        assert relative_residual(category.space, noise) > 0.5


class TestDecode:
    def test_zero_latent_gives_mean_field(self, category):
        field = latent_to_field(category.space, np.zeros(2))
        np.testing.assert_array_equal(
            field.weights, unflatten_offsets(category.space.mean)
        )

    def test_unit_latent_adds_basis_column(self, category):
        for k in range(2):
            e_k = np.zeros(2)
            e_k[k] = 1.0
            field = latent_to_field(category.space, e_k)
            expected = unflatten_offsets(category.space.mean + category.space.basis[:, k])
            np.testing.assert_allclose(field.weights, expected, atol=1e-15)

    def test_affine_identity(self, category):
        x1 = np.array([0.4, -0.9])
        x2 = np.array([-1.3, 0.2])
        w = lambda x: latent_to_field(category.space, x).weights
        np.testing.assert_allclose(
            w(x1) + w(x2) - w(np.zeros(2)), w(x1 + x2), atol=1e-12
        )


class TestProjection:
    def test_round_trip_in_span(self, category):
        latent = np.array([0.3, -0.8])
        field = latent_to_field(category.space, latent)
        back = project_field(category.space, field)
        np.testing.assert_allclose(back, latent, atol=1e-10)

    def test_field_round_trip(self, category):
        field = category.field_for((0.7, 0.25))
        latent = project_field(category.space, field)
        rebuilt = latent_to_field(category.space, latent)
        np.testing.assert_allclose(rebuilt.weights, field.weights, atol=1e-10)

    def test_anchor_mismatch_rejected(self, category):
        other = DeformationField(
            sphere_cloud(len(category.space.canonical), seed=4),
            np.zeros((len(category.space.canonical), 3)),
            category.beta,
        )
        with pytest.raises(ValidationError):
            project_field(category.space, other)

    def test_latent_dim_checked(self, category):
        with pytest.raises(ValidationError):
            latent_to_field(category.space, np.zeros(5))

    def test_off_span_residual_orthogonal_to_basis(self, category):
        rng = np.random.default_rng(21)
        weights = rng.normal(scale=0.01, size=(len(category.space.canonical), 3))
        field = DeformationField(category.space.canonical, weights, category.beta)
        latent = project_field(category.space, field)
        flat = flatten_offsets(weights)
        residual = flat - (category.space.basis @ latent + category.space.mean)
        dots = category.space.basis.T @ residual
        assert np.abs(dots).max() < 1e-10


class TestBuildFromMeshes:
    def test_end_to_end_recovery(self, category):
        # Registers the exact instance clouds: the bounds below need them,
        # not clouds resampled from the meshes.
        config = CpdConfig(beta=category.beta)
        fields = [
            cpd_nonrigid(cloud, category.canonical_cloud, config).field
            for cloud in category.instance_clouds
        ]
        space = space_from_fields(category.canonical_cloud, fields, category.beta, latent_dim=2)
        assert space.basis.shape == (3 * len(category.canonical_cloud), 2)
        assert len(fields) == len(category.instance_clouds)

        for f, truth in zip(fields, category.fields):
            # Weight matrices are not comparable through the ill-conditioned
            # kernel; displacements and family membership are.
            d_rec = apply_deformation(category.canonical_cloud, f).points
            d_tru = apply_deformation(category.canonical_cloud, truth).points
            num = np.linalg.norm(d_rec - d_tru)
            den = np.linalg.norm(d_tru - category.canonical_cloud.points)
            assert num / den < 1e-6
            # Recovered fields stay inside a 2-D family: registration noise
            # dominates the off-span residual, PCA does not.
            assert relative_residual(space, f) < 1e-3


def _kept_space(category):
    """The category's space keeping its fields as build-space's registrations."""
    kept = [TrainingField(f, format(i, "040x"), 3, i + 1, 7 + i, i % 2 == 0,
                          category.registration)
            for i, f in enumerate(category.fields)]
    return dataclasses.replace(category.space, fields=kept)


def _b64(array):
    return base64.b64encode(np.asarray(array, dtype="<f8").tobytes()).decode()


def _set(key, value):
    def mutate(header):
        header["fields"][0][key] = value
    return mutate


def _drop(key):
    def mutate(header):
        del header["fields"][0][key]
    return mutate


def _weights_with_nan(header):
    raw = np.frombuffer(base64.b64decode(header["fields"][0]["weights"]), dtype="<f8").copy()
    raw[4] = np.nan
    header["fields"][0]["weights"] = _b64(raw)


def _weights_one_short(header):
    raw = base64.b64decode(header["fields"][0]["weights"])
    header["fields"][0]["weights"] = base64.b64encode(raw[:-8]).decode()


class TestSaveLoad:
    def test_bitwise_round_trip(self, category, tmp_path):
        path = tmp_path / "space.mfss"
        save_space(category.space, path)
        back = load_space(path)
        np.testing.assert_array_equal(back.canonical.points, category.space.canonical.points)
        np.testing.assert_array_equal(back.mean, category.space.mean)
        np.testing.assert_array_equal(back.basis, category.space.basis)
        assert back.beta == category.space.beta
        assert back.registration == category.space.registration

    def test_registration_settings_round_trip(self, category, tmp_path):
        recipe = Registration(
            CpdConfig(beta=category.beta, regularization=0.7, outlier_weight=0.2,
                      max_iterations=40, tolerance=1e-6),
            cloud_leaf=0.0123, dense_count=999,
        )
        space = space_from_fields(
            category.canonical_cloud, category.fields, category.beta, 2, recipe
        )
        save_space(space, tmp_path / "s.mfss")
        assert load_space(tmp_path / "s.mfss").registration == recipe

    def test_registration_beta_must_match(self, category):
        recipe = Registration(CpdConfig(beta=2 * category.beta), 0.01, 100)
        with pytest.raises(ValidationError):
            space_from_fields(category.canonical_cloud, category.fields, category.beta, 2, recipe)

    def test_missing_registration_says_to_rebuild(self, category, tmp_path):
        path = tmp_path / "norecipe.mfss"
        save_space(space_from_fields(category.canonical_cloud, category.fields,
                                     category.beta, 2), path)
        with pytest.raises(SpaceFileError, match="rebuild the space with build-space"):
            load_space(path)

    def test_malformed_registration_rejected(self, category, tmp_path):
        import json

        path = tmp_path / "badrecipe.mfss"
        save_space(category.space, path)
        header, payload = path.read_bytes().split(b"\n", 1)
        meta = json.loads(header)
        del meta["registration"]["dense_count"]
        path.write_bytes(json.dumps(meta).encode() + b"\n" + payload)
        with pytest.raises(SpaceFileError, match="dense_count"):
            load_space(path)

    def test_truncated_payload_rejected(self, category, tmp_path):
        path = tmp_path / "trunc.mfss"
        save_space(category.space, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 64])
        with pytest.raises(SpaceFileError) as exc:
            load_space(path)
        # Error names expected and actual byte counts.
        msg = str(exc.value)
        assert str(len(data) - len(data.split(b"\n", 1)[0]) - 1 - 64) in msg

    def test_bad_magic_rejected(self, category, tmp_path):
        path = tmp_path / "magic.mfss"
        save_space(category.space, path)
        data = path.read_bytes()
        path.write_bytes(data.replace(b"MFSS1", b"XXSS1", 1))
        with pytest.raises(SpaceFileError):
            load_space(path)

    def test_header_field_mismatch_rejected(self, category, tmp_path):
        path = tmp_path / "badn.mfss"
        save_space(category.space, path)
        data = path.read_bytes()
        header, payload = data.split(b"\n", 1)
        import json

        meta = json.loads(header)
        meta["n"] = meta["n"] + 1
        path.write_bytes(json.dumps(meta).encode() + b"\n" + payload)
        with pytest.raises(SpaceFileError):
            load_space(path)

    @pytest.mark.parametrize("n, latent_dim", [(1, -2), (0, 1)])
    def test_header_sizes_below_one_rejected(self, category, tmp_path, n, latent_dim):
        import json

        path = tmp_path / "sizes.mfss"
        save_space(category.space, path)
        meta = json.loads(path.read_bytes().split(b"\n", 1)[0])
        meta.update(n=n, latent_dim=latent_dim)
        path.write_bytes(json.dumps(meta).encode() + b"\n")
        with pytest.raises(SpaceFileError, match="sizes.mfss: header sizes"):
            load_space(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SpaceFileError):
            load_space(tmp_path / "absent.mfss")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.mfss"
        path.write_bytes(b"")
        with pytest.raises(SpaceFileError):
            load_space(path)

    def test_training_fields_round_trip_bitwise(self, category, tmp_path):
        space = _kept_space(category)
        path, plain = tmp_path / "kept.mfss", tmp_path / "plain.mfss"
        save_space(space, path)
        save_space(category.space, plain)
        back = load_space(path)
        assert len(back.fields) == len(space.fields) == 6
        for got, want in zip(back.fields, space.fields):
            assert got.field.weights.tobytes() == want.field.weights.tobytes()
            assert (got.mesh_sha1, got.seed, got.salt, got.iterations, got.converged,
                    got.registration) == (want.mesh_sha1, want.seed, want.salt,
                                          want.iterations, want.converged, want.registration)
            np.testing.assert_array_equal(got.field.anchors.points, back.canonical.points)
            assert got.field.beta == back.beta
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert all("registration" in entry for entry in header["fields"])
        # Only the header grows: the binary payload is that of a space without them.
        assert path.read_bytes().split(b"\n", 1)[1] == plain.read_bytes().split(b"\n", 1)[1]

    def test_space_without_training_fields_loads(self, category, tmp_path):
        path = tmp_path / "plain.mfss"
        save_space(category.space, path)
        assert "fields" not in json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert load_space(path).fields == ()

    @pytest.mark.parametrize("mutate, message", [
        (_set("weights", "not base64!"), r"fields\[0\]: Error: "),
        (_set("weights", 12), r"fields\[0\]: TypeError: "),
        (_weights_one_short, r"fields\[0\]: ValueError: weights are \d+ bytes, n=\d+ requires"),
        (_weights_with_nan, r"fields\[0\]: ValueError: weights contain non-finite entries"),
        (_set("mesh_sha1", "ABC"), r"mesh_sha1 'ABC' is not a sha1 hex digest"),
        (_set("seed", True), r"seed True is not an integer >= 0"),
        (_set("salt", -1), r"salt -1 is not an integer >= 0"),
        (_set("iterations", 2.0), r"iterations 2.0 is not an integer >= 0"),
        (_set("converged", 1), r"converged 1 is not true or false"),
        (_drop("salt"), r"fields\[0\]: KeyError: 'salt'"),
        (lambda h: h["fields"].__setitem__(0, 5), r"fields\[0\]: TypeError: not an object"),
        (lambda h: h["fields"].__setitem__(0, [1]), r"fields\[0\]: TypeError: not an object"),
        (lambda h: h.__setitem__("fields", {"0": 1}), r'"fields" is not a list'),
        (_set("registration", {"cloud_leaf": 0.1}), r"fields\[0\]: KeyError: 'regularization'"),
        (_set("registration", 3), r"fields\[0\]: TypeError: "),
        (_drop("registration"),
         r"fields\[0\] records no registration settings; rebuild the space with build-space$"),
    ], ids=["base64", "weights-type", "length", "non-finite", "sha1", "seed-bool", "salt-negative",
            "iterations-float", "converged-int", "missing-key", "entry-number", "entry-list",
            "member-object", "recipe-missing-key", "recipe-number", "recipe-missing"])
    def test_malformed_training_field_rejected(self, category, tmp_path, mutate, message):
        path = tmp_path / "bad.mfss"
        save_space(_kept_space(category), path)
        header, payload = path.read_bytes().split(b"\n", 1)
        meta = json.loads(header)
        mutate(meta)
        path.write_bytes(json.dumps(meta).encode() + b"\n" + payload)
        with pytest.raises(SpaceFileError, match=r"bad\.mfss: .*" + message):
            load_space(path)

    def test_training_field_must_share_the_canonical_cloud(self, category):
        (kept, *_) = _kept_space(category).fields
        moved = DeformationField(sphere_cloud(len(category.canonical_cloud), seed=1),
                                 kept.field.weights, category.beta)
        space = category.space
        with pytest.raises(ValidationError, match="fields\\[0\\] is not anchored"):
            ShapeSpace(space.canonical, space.beta, space.mean, space.basis, space.latent_dim,
                       space.registration, [dataclasses.replace(kept, field=moved)])
