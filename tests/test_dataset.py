import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import SyntheticCategory, per_pixel_target

from morphfit import (
    CpdConfig,
    DatasetError,
    MANIFEST_NAME,
    SAMPLE_FILES,
    SampleRecord,
    ValidationError,
    Registration,
    gaussian_kernel,
    generate_dataset,
    interpolate_instance,
    look_at,
    read_manifest,
    read_mask,
    read_tensor,
    sample_count_formula,
    target_delta,
    viewpoint_sphere,
)
from morphfit import dataset as dataset_module
from morphfit.dataset import mesh_cloud, register_instances
from morphfit.imaging import PositionImage, rasterize_target, target_field
from morphfit.oracle import load_sample, zoomed_sample


def small_views(count=2, resolution=(96, 72)):
    return viewpoint_sphere(
        count, 0.6, focal=(103.125, 103.125), resolution=resolution
    )


GEN_KW = dict(densify_per_pixel=4.0, densify_max=15000, zoom_resolution=(96, 72))


class TestInterpolateInstance:
    def test_rho_zero_identity(self, category):
        mesh = category.instance_meshes[0]
        out = interpolate_instance(mesh, category.fields[0], 0.0)
        np.testing.assert_array_equal(out.vertices, mesh.vertices)
        np.testing.assert_array_equal(out.faces, mesh.faces)

    def test_rho_one_moves_toward_canonical(self, category):
        mesh = category.instance_meshes[2]
        canonical = category.canonical_cloud.points
        before = np.mean(np.sum((mesh.vertices - canonical) ** 2, axis=1))
        morphed = interpolate_instance(mesh, category.fields[2], 1.0)
        after = np.mean(np.sum((morphed.vertices - canonical) ** 2, axis=1))
        assert after <= before

    def test_offsets_linear_in_rho(self, category):
        mesh = category.instance_meshes[1]
        field = category.fields[1]
        full = interpolate_instance(mesh, field, 1.0).vertices - mesh.vertices
        half = interpolate_instance(mesh, field, 0.5).vertices - mesh.vertices
        np.testing.assert_allclose(half, 0.5 * full, atol=1e-12)

    def test_quarter_step_rho_levels_accepted(self, category):
        for rho in (0.0, 0.25, 0.5, 0.75):
            out = interpolate_instance(category.instance_meshes[0], category.fields[0], rho)
            assert out.vertices.shape == category.instance_meshes[0].vertices.shape

    def test_rho_out_of_range_rejected(self, category):
        with pytest.raises(ValidationError):
            interpolate_instance(category.instance_meshes[0], category.fields[0], 1.5)


class TestTargetDelta:
    def test_rho_one_is_zero(self, category):
        np.testing.assert_array_equal(target_delta(category.fields[0], 1.0), 0.0)

    def test_rho_zero_matches_kernel_product(self, category):
        field = category.fields[3]
        oracle = gaussian_kernel(field.anchors, field.anchors, field.beta) @ field.weights
        np.testing.assert_allclose(target_delta(field, 0.0), oracle, atol=1e-12)

    def test_half_rho_halves_entries(self, category):
        field = category.fields[4]
        np.testing.assert_allclose(
            target_delta(field, 0.5), 0.5 * target_delta(field, 0.0), atol=1e-15
        )


class TestCountFormula:
    def test_known_category_sizes(self):
        assert sample_count_formula(12, 4, 74) == 2664
        assert sample_count_formula(15, 4, 74) == 3552
        assert sample_count_formula(14, 4, 74) == 3256
        assert sample_count_formula(16, 4, 74) == 3848

    def test_symbolic_form(self):
        for total, n_rhos, n_views in ((7, 2, 3), (12, 4, 74), (5, 1, 1)):
            assert sample_count_formula(total, n_rhos, n_views) == (total - 3) * n_rhos * n_views


@pytest.fixture(scope="module")
def generated(tmp_path_factory, category):
    out = tmp_path_factory.mktemp("dataset")
    records = generate_dataset(
        category.canonical_mesh, category.instance_meshes, category.fields, small_views(),
        [0.0, 0.5], out, seed=5, **GEN_KW
    )
    return out, records


class TestGenerateDataset:
    def test_record_count_and_files(self, generated, category):
        out, records = generated
        assert len(records) == 6 * 2 * 2
        for record in records:
            assert record.status == "ok"
            assert set(record.paths) == set(SAMPLE_FILES)
            for path in record.paths.values():
                assert Path(path).exists()

    def test_manifest_round_trip(self, generated):
        out, records = generated
        header, parsed = read_manifest(out / MANIFEST_NAME)
        assert header["records"] == len(records)
        assert header["skipped"] == 0
        assert header["rhos"] == [0.0, 0.5]
        assert len(parsed) == len(records)
        for a, b in zip(parsed, records):
            assert a == b
        assert not (out / (MANIFEST_NAME + ".partial")).exists()

    def test_exported_tensors_consistent(self, generated, category):
        out, records = generated
        record = records[0]
        target, meta = read_tensor(record.paths["target.f32"])
        can_mask = read_mask(record.paths["canon.mask.pgm"])
        obs_mask = read_mask(record.paths["obs.mask.pgm"])
        assert target.shape == (72, 96, 3)
        assert can_mask.shape == (72, 96)
        # Background of the target image is exactly zero.
        assert not target[~can_mask].any()
        assert can_mask.any() and obs_mask.any()
        # Deltas were exported in millimeters (x1000 of the meter-scale
        # category deformations), so foreground magnitudes are O(1), not O(0.001).
        fg = np.abs(target[can_mask])
        assert record.export_scale == 1000.0
        assert 0.01 < fg.max() < 100.0

    def test_observed_positions_lie_near_instance_surface(self, generated, category):
        out, records = generated
        record = next(r for r in records if r.rho == 0.0)
        obs, _ = read_tensor(record.paths["obs.pos.f32"])
        obs_mask = read_mask(record.paths["obs.mask.pgm"])
        pts = obs[obs_mask].astype(np.float64)
        center = category.instance_meshes[record.instance_index].vertices.mean(axis=0)
        radii = np.linalg.norm(pts - center, axis=1)
        assert radii.max() < 0.4  # all points near the 0.15 m object

    def test_split_tags_deterministic(self, generated, category, tmp_path):
        out, records = generated
        again = generate_dataset(
            category.canonical_mesh, category.instance_meshes, category.fields, small_views(),
            [0.0, 0.5], tmp_path / "again", seed=5, **GEN_KW
        )
        assert [r.split for r in again] == [r.split for r in records]

    def test_regeneration_bitwise_identical(self, generated, category, tmp_path):
        out, records = generated
        again_dir = tmp_path / "regen"
        again = generate_dataset(
            category.canonical_mesh, category.instance_meshes, category.fields, small_views(),
            [0.0, 0.5], again_dir, seed=5, **GEN_KW
        )
        for a, b in zip(records[:4], again[:4]):
            for name in SAMPLE_FILES:
                assert Path(a.paths[name]).read_bytes() == Path(b.paths[name]).read_bytes()

    def test_exported_samples_load_as_built(self, category, tmp_path, monkeypatch):
        # The files of each sample hold the sample the pipeline's builder
        # returned, up to the f32 rounding of the data.
        built = []

        def keep(zoomed, field, *args):
            built.append(zoomed_sample(zoomed, field, *args))
            return built[-1]

        monkeypatch.setattr(dataset_module, "zoomed_sample", keep)
        records = generate_dataset(category.canonical_mesh, category.instance_meshes[:2],
                                   category.fields[:2], small_views(2), [0.0, 0.5], tmp_path,
                                   seed=4, **GEN_KW)
        ok = [r for r in records if r.status == "ok"]
        assert len(ok) == len(built) == 8
        for record, sample in zip(ok, built):
            loaded = load_sample(record)
            for name in ("observed", "canonical"):
                image, stored = getattr(sample, name), getattr(loaded, name)
                np.testing.assert_array_equal(stored.mask, image.mask)
                np.testing.assert_array_equal(stored.data, image.data.astype(np.float32))
            np.testing.assert_array_equal(loaded.target.mask, sample.target.mask)
            assert loaded.target.scale == record.export_scale
            np.testing.assert_array_equal(
                loaded.target.data, (sample.target.data * record.export_scale).astype(np.float32))

    def test_unit_dataset(self, category, tmp_path):
        records = generate_dataset(
            category.canonical_mesh, category.instance_meshes[:1], category.fields[:1],
            small_views(1), [0.25], tmp_path / "unit", seed=0, **GEN_KW
        )
        assert len(records) == 1
        assert records[0].status == "ok"
        assert len(records[0].paths) == 5

    def test_failing_view_aborts_with_partial_manifest(self, category, tmp_path):
        away = look_at([0.0, 0.0, 0.6], target=[0.0, 0.0, 1.2],
                       focal=(103.125, 103.125), resolution=(96, 72))
        out = tmp_path / "broken"
        with pytest.raises(DatasetError):
            generate_dataset(category.canonical_mesh, category.instance_meshes[:1],
                             category.fields[:1], [away], [0.0], out, seed=0, **GEN_KW)
        assert (out / (MANIFEST_NAME + ".partial")).exists()
        assert not (out / MANIFEST_NAME).exists()
        header, parsed = read_manifest(out / (MANIFEST_NAME + ".partial"))
        assert header["skipped"] == 1
        assert parsed[0].status == "skipped"
        assert "EmptyRenderError" in parsed[0].reason

    def test_blind_canonical_view_fails_every_sample_that_uses_it(self, category, tmp_path):
        away = look_at([0.0, 0.0, 0.6], target=[0.0, 0.0, 1.2],
                       focal=(103.125, 103.125), resolution=(96, 72))
        views = small_views(2)
        out = tmp_path / "blind"
        with pytest.raises(DatasetError):
            generate_dataset(category.canonical_mesh, category.instance_meshes[:2],
                             category.fields[:2], [views[0], away, views[1]], [0.0, 0.5], out,
                             seed=0, **GEN_KW)
        header, records = read_manifest(out / (MANIFEST_NAME + ".partial"))
        assert header["skipped"] == 4 and len(records) == 12
        for record in records:
            if record.view_index == 1:
                assert record.status == "skipped" and record.paths == {}
                assert record.reason == ("EmptyRenderError: no model point in front of "
                                         "the camera")
            else:
                assert record.status == "ok" and len(record.paths) == 5

    def test_memory_grows_with_foreground_not_with_views(self, category, tmp_path):
        # Views beyond the first four add their foregrounds to the traced
        # peak, not a full frame each.  The cameras stand where gen-dataset
        # puts them, four bounding-box diagonals out.
        diag = float(np.linalg.norm(np.ptp(category.canonical_mesh.vertices, axis=0)))
        views = viewpoint_sphere(16, 4.0 * diag, focal=(137.5, 137.5), resolution=(128, 96))
        peaks = []
        for count in (4, 16):
            tracemalloc.start()
            try:
                generate_dataset(category.canonical_mesh, category.instance_meshes[:1],
                                 category.fields[:1], views[:count], [0.0],
                                 tmp_path / str(count), seed=0,
                                 **dict(GEN_KW, zoom_resolution=(128, 96)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * 128 * 96 * 24

    def test_rho_validation(self, category, tmp_path):
        with pytest.raises(ValidationError):
            generate_dataset(
                category.canonical_mesh, category.instance_meshes, category.fields,
                small_views(1), [1.5], tmp_path / "bad", **GEN_KW
            )


class TestTargetValues:
    @pytest.mark.parametrize("zoom_resolution, padded", [((96, 72), False), ((48, 72), True)])
    def test_target_matches_per_pixel_interpolation(
            self, category, tmp_path, monkeypatch, zoom_resolution, padded):
        # The exported target must hold the interpolated deltas at every
        # pixel of the exported zoomed render, repeats included.
        written = {}

        def keep(writer):
            def write(path, data, *args):
                written[Path(path).name] = np.array(data)
                return writer(path, data, *args)
            return write

        monkeypatch.setattr(dataset_module, "write_tensor", keep(dataset_module.write_tensor))
        monkeypatch.setattr(dataset_module, "write_mask", keep(dataset_module.write_mask))
        (record,) = generate_dataset(
            category.canonical_mesh, category.instance_meshes[1:2], category.fields[1:2],
            small_views(1), [0.25], tmp_path, seed=0,
            **{**GEN_KW, "zoom_resolution": zoom_resolution},
        )
        assert record.padded is padded
        canonical = PositionImage(written["canon.pos.f32"], written["canon.mask.pgm"])
        expected = per_pixel_target(canonical, category.canonical_cloud,
                                    target_delta(category.fields[1], 0.25))
        target = written["target.f32"] / record.export_scale
        np.testing.assert_array_equal(np.any(target != 0.0, axis=2), canonical.mask)
        np.testing.assert_allclose(target, expected, rtol=0.0, atol=1e-12)

    def test_each_sample_uses_the_field_of_its_own_instance_and_rho(
            self, category, tmp_path, monkeypatch):
        # One field serves all views of an (instance, rho); the bytes of each
        # target must be those of a field built for that sample alone.
        written = {}

        def keep(writer):
            def write(path, data, *args):
                written[str(path)] = np.array(data)
                return writer(path, data, *args)
            return write

        monkeypatch.setattr(dataset_module, "write_tensor", keep(dataset_module.write_tensor))
        monkeypatch.setattr(dataset_module, "write_mask", keep(dataset_module.write_mask))
        records = generate_dataset(category.canonical_mesh, category.instance_meshes[:2],
                                   category.fields[:2], small_views(2), [0.0, 0.5], tmp_path,
                                   seed=3, **GEN_KW)
        assert len(records) == 8 and all(r.status == "ok" for r in records)
        for record in records:
            position = PositionImage(written[record.paths["canon.pos.f32"]],
                                     written[record.paths["canon.mask.pgm"]])
            field = target_field(category.canonical_cloud,
                                 target_delta(category.fields[record.instance_index], record.rho))
            expected = rasterize_target(position, field).data * record.export_scale
            assert (Path(record.paths["target.f32"]).read_bytes()
                    == np.asarray(expected, "<f4").tobytes())


class TestSampleRecord:
    def test_json_round_trip(self):
        record = SampleRecord(
            instance_index=1, rho=0.25, view_index=3,
            paths={name: f"/tmp/{name}" for name in SAMPLE_FILES},
            pose={"quaternion": [1, 0, 0, 0], "translation": [0, 0, 0]},
            crop_box=(1.0, 2.0, 30.0, 22.5), scale_factors=(3.2, 3.2),
            padded=False, resolution=(96, 72), export_scale=1000.0,
            splat_radius=1, split="train", seed=7,
        )
        back = SampleRecord.from_json(record.to_json())
        assert back == record


class TestReadManifest:
    def _record(self):
        return json.loads(SampleRecord(
            instance_index=0, rho=0.0, view_index=0,
            paths={name: f"/tmp/{name}" for name in SAMPLE_FILES},
            pose={"quaternion": [1, 0, 0, 0], "translation": [0, 0, 0]},
            crop_box=(1.0, 2.0, 30.0, 22.5), scale_factors=(3.2, 3.2),
            padded=False, resolution=(96, 72), export_scale=1000.0,
            splat_radius=1, split="train", seed=7,
        ).to_json())

    def _write(self, tmp_path, lines):
        path = tmp_path / MANIFEST_NAME
        path.write_text("\n".join(lines) + "\n")
        return path

    def _header(self):
        return json.dumps({"kind": "header", "records": 2, "skipped": 0})

    def test_well_formed_manifest_reads(self, tmp_path):
        record = json.dumps(self._record())
        header, records = read_manifest(self._write(tmp_path, [self._header(), record, record]))
        assert header["records"] == 2
        assert len(records) == 2 and records[0].seed == 7

    def test_unknown_key_names_file_and_line(self, tmp_path):
        old = dict(self._record(), observed_rgb=None)  # a key deleted from SampleRecord
        lines = [self._header(), json.dumps(self._record()), json.dumps(old)]
        path = self._write(tmp_path, lines)
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:3: .*TypeError.*observed_rgb"):
            read_manifest(path)

    def test_missing_key_names_file_and_line(self, tmp_path):
        record = self._record()
        del record["crop_box"]
        path = self._write(tmp_path, [self._header(), json.dumps(record)])
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:2: .*KeyError"):
            read_manifest(path)

    def test_line_that_is_not_json_names_file_and_line(self, tmp_path):
        path = self._write(tmp_path, [self._header(), '{"instance_index": 0,'])
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:2: .*JSONDecodeError"):
            read_manifest(path)

    def test_header_that_is_not_an_object_names_file_and_line(self, tmp_path):
        path = self._write(tmp_path, ['["kind", "header"]', json.dumps(self._record())])
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}:1: not a manifest header"):
            read_manifest(path)

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        path.write_bytes(b"\xff\xfe" + self._header().encode())
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: manifest is not UTF-8"):
            read_manifest(path)


def registered_fields(category, meshes, seed=0):
    """The canonical cloud and the fields of ``meshes``, registered as build-space and
    gen-dataset do."""
    canonical_cloud = mesh_cloud(category.canonical_mesh, category.registration, seed, 0)
    trained = register_instances(canonical_cloud, meshes, category.registration, seed=seed)
    return canonical_cloud, [t.field for t in trained]


class TestBuildCategory:
    def test_meshes_to_spec(self, category):
        canonical_cloud, fields = registered_fields(category, category.instance_meshes[:2],
                                                    seed=3)
        assert len(fields) == 2
        for field in fields:
            np.testing.assert_array_equal(field.anchors.points, canonical_cloud.points)
            assert np.all(np.isfinite(field.weights))
        assert 50 < len(canonical_cloud) < 2000

    def test_requires_instances(self, category, tmp_path):
        self._assert_rejected(category, tmp_path, 0, 0)

    def test_requires_one_field_per_mesh(self, category, tmp_path):
        self._assert_rejected(category, tmp_path, 2, 1)

    @staticmethod
    def _assert_rejected(category, tmp_path, meshes, fields):
        with pytest.raises(ValidationError, match=(
                f"^need at least one mesh and one field per mesh, got {meshes} meshes "
                f"and {fields} fields$")):
            generate_dataset(category.canonical_mesh, category.instance_meshes[:meshes],
                             category.fields[:fields], small_views(1), [0.0], tmp_path / "out",
                             **GEN_KW)
        assert not (tmp_path / "out").exists()

    def test_unconverged_registrations_are_reported(self, category, capsys):
        capped = Registration(CpdConfig(beta=category.beta, max_iterations=1),
                              category.registration.cloud_leaf, 2000)
        fields = register_instances(
            category.canonical_cloud, category.instance_meshes[:2], capped
        )
        assert len(fields) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"warning: registration of instance {i} hit the 1-iteration cap without converging"
            for i in range(2)
        ]

    def test_converged_registrations_stay_quiet(self, category, capsys):
        registered_fields(category, category.instance_meshes[:1])
        assert capsys.readouterr().err == ""
