import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import SyntheticCategory, densify_recipe

from morphfit import (
    DeformationImage,
    OracleError,
    OracleSpec,
    ValidationError,
    generate_dataset,
    infer,
    load_sample,
    read_tensor,
    viewpoint_sphere,
    write_mask,
    write_tensor,
)
from morphfit.imaging import ZoomResult


@pytest.fixture(scope="module")
def sample_record(tmp_path_factory, category):
    views = viewpoint_sphere(1, 0.6, focal=(103.125, 103.125), resolution=(96, 72))
    with densify_recipe():
        records = generate_dataset(
            category.canonical_mesh, category.instance_meshes[:1], category.fields[:1],
            views, [0.0], tmp_path_factory.mktemp("oracle-data"),
            seed=9, zoom_resolution=(96, 72),
        )
    assert records[0].status == "ok"
    return records[0]


class TestOracleSpec:
    def test_kinds(self):
        OracleSpec("ground_truth")
        OracleSpec("noisy", noise_sigma=0.01)
        OracleSpec("external", command="python3 predict.py")
        with pytest.raises(ValidationError):
            OracleSpec("learned")

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            OracleSpec("noisy", noise_sigma=-0.1)

    def test_external_needs_command(self):
        with pytest.raises(ValidationError):
            OracleSpec("external", command="   ")


class TestLoadSample:
    def test_target_mask_is_canonical_mask(self, sample_record):
        sample = load_sample(sample_record)
        np.testing.assert_array_equal(sample.target.mask, sample.canonical.mask)
        assert sample.target.scale == sample_record.export_scale

    def test_background_zeroed(self, sample_record):
        sample = load_sample(sample_record)
        for image in (sample.observed, sample.canonical, sample.target):
            assert not image.data[~image.mask].any()

    def test_skipped_record_rejected(self, sample_record):
        skipped = dataclasses.replace(
            sample_record, status="skipped", reason="EmptyRenderError: nothing visible",
            paths={}, crop_box=None, scale_factors=None,
        )
        with pytest.raises(ValidationError, match="skipped"):
            load_sample(skipped)

    def test_loads_as_the_zoom_of_its_stored_views(self, sample_record):
        sample = load_sample(sample_record)
        assert isinstance(sample, ZoomResult)
        height, width = sample.target.mask.shape
        np.testing.assert_array_equal(sample.row_at, np.arange(height))
        np.testing.assert_array_equal(sample.col_at, np.arange(width))
        assert sample.believed is sample.grid
        for view, grid in ((sample.observed, sample.observed_grid),
                           (sample.canonical, sample.grid)):
            assert view.data.tobytes() == grid.data.tobytes()
            assert view.mask.tobytes() == grid.mask.tobytes()
        assert (sample.crop_box, sample.scale_factors, sample.padded) == (
            sample_record.crop_box, sample_record.scale_factors, sample_record.padded)
        assert all(getattr(sample, f.name) is not None for f in dataclasses.fields(sample))

    @pytest.mark.parametrize("name", ["target.f32", "obs.pos.f32", "canon.mask.pgm"])
    def test_record_without_a_file_rejected(self, sample_record, name):
        paths = {key: path for key, path in sample_record.paths.items() if key != name}
        with pytest.raises(ValidationError, match=f"^sample record has no {re.escape(name)} file$"):
            load_sample(dataclasses.replace(sample_record, paths=paths))

    @pytest.mark.parametrize("name", ["target.f32", "obs.pos.f32", "canon.pos.f32"])
    def test_tensor_off_its_mask_rejected(self, sample_record, tmp_path, name):
        # The stored mask is 72x96; a (96, 72, 3) tensor holds as many floats.
        height, width = read_tensor(sample_record.paths[name])[0].shape[:2]
        path = tmp_path / name
        write_tensor(path, np.zeros((width, height, 3)), "transposed")
        paths = dict(sample_record.paths, **{name: str(path)})
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: tensor shape "
                                                  rf"\({width}, {height}, 3\) != mask shape"):
            load_sample(dataclasses.replace(sample_record, paths=paths))

    def test_observed_mask_off_the_canonical_rejected(self, sample_record, tmp_path):
        path = tmp_path / "obs.mask.pgm"
        write_mask(path, np.ones((4, 5), dtype=bool))
        paths = dict(sample_record.paths, **{"obs.mask.pgm": str(path)})
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: mask shape"):
            load_sample(dataclasses.replace(sample_record, paths=paths))


class TestGroundTruthOracle:
    def test_matches_stored_target_bitwise(self, sample_record):
        sample = load_sample(sample_record)
        predicted = infer(OracleSpec("ground_truth"), sample)
        stored, _ = read_tensor(sample_record.paths["target.f32"])
        expected = np.where(
            sample.target.mask[..., None],
            stored.astype(np.float64) / sample_record.export_scale,
            0.0,
        )
        np.testing.assert_array_equal(predicted.data, expected)
        assert predicted.scale == 1.0
        np.testing.assert_array_equal(predicted.mask, sample.target.mask)


    def test_target_in_meters_passes_through(self, sample_record):
        sample = load_sample(sample_record)
        data = sample.target.data / sample.target.scale
        first = tuple(np.argwhere(sample.target.mask)[0])
        data[first] = (-0.0, 0.5, -0.0)
        target = DeformationImage(data, sample.target.mask, 1.0)
        predicted = infer(OracleSpec("ground_truth"), dataclasses.replace(sample, target=target))
        expected = np.where(target.mask[..., None], target.data / target.scale, 0.0)
        assert predicted.data.tobytes() == expected.tobytes()
        assert np.signbit(predicted.data[first]).tolist() == [True, False, True]
        assert predicted.mask.tobytes() == target.mask.tobytes()
        assert predicted.scale == 1.0
        assert not (predicted.data.flags.writeable or predicted.mask.flags.writeable)


class TestNoisyOracle:
    def test_zero_sigma_equals_ground_truth(self, sample_record):
        sample = load_sample(sample_record)
        truth = infer(OracleSpec("ground_truth"), sample)
        noisy = infer(OracleSpec("noisy", noise_sigma=0.0), sample, np.random.default_rng(11))
        np.testing.assert_array_equal(noisy.data, truth.data)

    def test_deterministic_per_seed(self, sample_record):
        sample = load_sample(sample_record)
        spec = OracleSpec("noisy", noise_sigma=0.01)
        a = infer(spec, sample, np.random.default_rng(4))
        b = infer(spec, sample, np.random.default_rng(4))
        c = infer(spec, sample, np.random.default_rng(5))
        np.testing.assert_array_equal(a.data, b.data)
        assert np.any(a.data != c.data)

    def test_noise_statistics(self, sample_record):
        sample = load_sample(sample_record)
        sigma = 0.007
        truth = infer(OracleSpec("ground_truth"), sample)
        deltas = []
        for seed in range(6):
            noisy = infer(OracleSpec("noisy", noise_sigma=sigma), sample,
                          np.random.default_rng(seed))
            deltas.append((noisy.data - truth.data)[sample.target.mask])
        deltas = np.concatenate([d.ravel() for d in deltas])
        assert deltas.size > 10_000
        assert 0.9 * sigma < deltas.std() < 1.1 * sigma
        assert abs(deltas.mean()) < 0.1 * sigma

    def test_background_stays_zero(self, sample_record):
        sample = load_sample(sample_record)
        noisy = infer(OracleSpec("noisy", noise_sigma=0.05), sample, np.random.default_rng(2))
        assert not noisy.data[~sample.target.mask].any()

    def test_noise_needs_its_generator(self, sample_record):
        with pytest.raises(ValidationError, match="generator of its noise"):
            infer(OracleSpec("noisy", noise_sigma=0.01), load_sample(sample_record))


EXTERNAL_OK = """\
import json, sys
from pathlib import Path
import numpy as np

tmp = Path(sys.argv[1])
req = json.loads((tmp / "request.json").read_text())
w, h = req["resolution"]
mask = np.frombuffer((tmp / req["paths"]["canonical_mask"]).read_bytes(), dtype="<f4").reshape(h, w)
out = np.zeros((h, w, 3), dtype="<f4")
out[mask > 0] = [1.5, -2.0, 0.25]
(tmp / req["output"]).write_bytes(out.tobytes())
(tmp / (req["output"] + ".json")).write_text(
    json.dumps({"shape": [h, w, 3], "dtype": "f32", "semantic": "prediction"}) + "\\n"
)
"""


def external_spec(tmp_path, body, name="child.py"):
    script = tmp_path / name
    script.write_text(body)
    return OracleSpec("external", command=f"python3 {script}")


class TestExternalOracle:
    def test_constant_prediction_round_trip(self, sample_record, tmp_path):
        sample = load_sample(sample_record)
        spec = external_spec(tmp_path, EXTERNAL_OK)
        predicted = infer(spec, sample)
        scale = sample.target.scale
        expected = np.where(
            sample.target.mask[..., None],
            np.array([1.5, -2.0, 0.25], dtype=np.float32).astype(np.float64) / scale,
            0.0,
        )
        np.testing.assert_array_equal(predicted.data, expected)
        assert predicted.scale == 1.0

    def test_nonzero_exit_raises_with_diagnostics(self, sample_record, tmp_path):
        body = "import sys; print('bad weights', file=sys.stderr); sys.exit(3)\n"
        spec = external_spec(tmp_path, body)
        with pytest.raises(OracleError) as err:
            infer(spec, load_sample(sample_record))
        diag = err.value.diagnostics
        assert diag["returncode"] == 3
        assert "bad weights" in diag["stderr"]
        assert diag["argv"][-1].startswith("/")

    def test_missing_output_raises(self, sample_record, tmp_path):
        spec = external_spec(tmp_path, "import sys\n")
        with pytest.raises(OracleError, match="unreadable"):
            infer(spec, load_sample(sample_record))

    def test_sidecar_without_shape_raises(self, sample_record, tmp_path):
        body = EXTERNAL_OK.replace('"shape": [h, w, 3], ', "")
        spec = external_spec(tmp_path, body)
        with pytest.raises(OracleError, match="unreadable.*output.f32.json"):
            infer(spec, load_sample(sample_record))

    def test_wrong_shape_raises(self, sample_record, tmp_path):
        body = EXTERNAL_OK.replace("(h, w, 3)", "(h, w, 2)").replace("[h, w, 3]", "[h, w, 2]")
        body = body.replace("out[mask > 0] = [1.5, -2.0, 0.25]", "")
        spec = external_spec(tmp_path, body)
        with pytest.raises(OracleError, match="shape"):
            infer(spec, load_sample(sample_record))

    def test_non_finite_output_raises(self, sample_record, tmp_path):
        body = EXTERNAL_OK.replace("[1.5, -2.0, 0.25]", "[np.nan, 0.0, 0.0]")
        spec = external_spec(tmp_path, body)
        with pytest.raises(OracleError, match="finite"):
            infer(spec, load_sample(sample_record))

    def test_unrunnable_command_raises(self, sample_record):
        spec = OracleSpec("external", command="/nonexistent/oracle-binary")
        with pytest.raises(OracleError, match="failed to run"):
            infer(spec, load_sample(sample_record))
