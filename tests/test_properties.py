"""Property tests of the input boundary: whatever a file or argument holds,
a reader either returns or raises a MorphFitError (an ArgumentTypeError for
the latent argument, which argparse turns into exit 2).

Each property draws both arbitrary bytes and values shaped like the real
format with fields replaced by arbitrary JSON, so the draws reach past the
first check.  Runs are derandomized, so the suite sees the same examples
every time.
"""
import argparse
import base64
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import sphere_cloud

from morphfit import (
    CpdConfig,
    DeformationField,
    MorphFitError,
    ValidationError,
    Registration,
    TrainingField,
    load_space,
    read_mask,
    read_ply,
    read_tensor,
    save_space,
    space_from_fields,
)
from morphfit.cli import _latent_arg, _load_camera, main

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)

numbers = (st.integers(-3, 5) | st.integers() | st.floats(allow_nan=True)
           | st.floats(-1e3, 1e3))
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12,
)
number_lists = st.lists(numbers, max_size=5)


def json_bytes(values):
    return values.map(lambda v: json.dumps(v).encode())


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


def only_morphfit_errors(read, *args):
    try:
        read(*args)
    except MorphFitError:
        pass


@PROPERTY
@given(content=st.binary(max_size=200) | st.lists(
    st.sampled_from([
        "ply", "format ascii 1.0", "format binary 1.0", "comment x", "element vertex 3",
        "element face 1", "element vertex -1", "element face", "property float x",
        "property float y", "property float z", "property uchar red", "property uchar green",
        "property uchar blue", "property list uchar int vertex_indices", "end_header",
        "0 0 0", "1 0 0", "0 1 0", "0 0 0 300 -1 2", "0 0 0 nan 0 0", "nan 0 0", "3 0 1 2",
        "3 0 1 9",
        "4 0 1 2 3", "3 0 1", "x", "",
    ]), max_size=16).map(lambda lines: "\n".join(lines).encode()))
@example(content=b"ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
                 b"property float z\nproperty uchar red\nproperty uchar green\n"
                 b"property uchar blue\nelement face 1\nproperty list uchar int vertex_indices\n"
                 b"end_header\n0 0 0 nan 0 0\n1 0 0 0 0 0\n0 1 0 0 0 0\n3 0 1 2\n")
def test_read_ply_raises_only_morphfit_errors(scratch, content):
    path = scratch / "m.ply"
    path.write_bytes(content)
    only_morphfit_errors(read_ply, path)


@PROPERTY
@given(magic=st.sampled_from([b"P5", b"P5", b"P6", b""]),
       header=st.lists(st.sampled_from([b" ", b"\n", b"#c\n", b"2", b"3", b"-2", b"255",
                                        b"x", b"\xff"]), max_size=9),
       payload=st.binary(max_size=12))
def test_read_mask_raises_only_morphfit_errors(scratch, magic, header, payload):
    path = scratch / "m.pgm"
    path.write_bytes(magic + b"".join(header) + payload)
    only_morphfit_errors(read_mask, path)


@PROPERTY
@given(sidecar=st.binary(max_size=40) | json_bytes(json_values) | json_bytes(
           st.fixed_dictionaries({"dtype": st.just("f32") | json_values},
                                 optional={"shape": number_lists | json_values})),
       payload=st.none() | st.binary(max_size=33))
def test_read_tensor_raises_only_morphfit_errors(scratch, sidecar, payload):
    path = scratch / "t.f32"
    path.unlink(missing_ok=True)
    if payload is not None:
        path.write_bytes(payload)
    (scratch / "t.f32.json").write_bytes(sidecar)
    only_morphfit_errors(read_tensor, path)


@pytest.fixture(scope="module")
def space_file(tmp_path_factory):
    cloud = sphere_cloud(4, seed=2)
    rng = np.random.default_rng(3)
    recipe = Registration(CpdConfig(beta=0.5), 0.1, 64)
    fields = [DeformationField(cloud, rng.normal(size=(4, 3)), 0.5) for _ in range(3)]
    space = dataclasses.replace(
        space_from_fields(cloud, fields, 0.5, 2, recipe),
        fields=[TrainingField(f, "0" * 40, 0, i + 1, 5, True, recipe)
                for i, f in enumerate(fields)],
    )
    path = tmp_path_factory.mktemp("space") / "s.mfss"
    save_space(space, path)
    header, payload = path.read_bytes().split(b"\n", 1)
    return json.loads(header), payload


@PROPERTY
@given(data=st.data())
def test_load_space_raises_only_morphfit_errors(scratch, space_file, data):
    header, payload = space_file
    header = dict(header, registration=dict(header["registration"]),
                  fields=[dict(entry) for entry in header["fields"]])
    header.update(data.draw(st.dictionaries(st.sampled_from(sorted(header)), json_values,
                                            max_size=2)))
    if isinstance(header["registration"], dict):
        header["registration"].update(data.draw(st.dictionaries(
            st.sampled_from(sorted(space_file[0]["registration"])), json_values, max_size=2)))
    fields = header["fields"]
    if isinstance(fields, list) and fields and isinstance(fields[0], dict):
        # Weights of any length, and of the right length holding any floats.
        weights = (st.binary(max_size=120) | st.lists(
            st.floats(allow_nan=True), min_size=12, max_size=12).map(
            lambda v: np.array(v, dtype="<f8").tobytes())).map(
            lambda raw: base64.b64encode(raw).decode())
        fields[0].update(data.draw(st.dictionaries(
            st.sampled_from(sorted(fields[0])), json_values | weights, max_size=2)))
    line = data.draw(st.just(json.dumps(header).encode()) | json_bytes(json_values)
                     | st.binary(max_size=30))
    body = data.draw(st.sampled_from([payload, b"", payload[:-8]]) | st.binary(max_size=48))
    path = scratch / "s.mfss"
    path.write_bytes(line + b"\n" + body)
    only_morphfit_errors(load_space, path)


@PROPERTY
@given(pose=st.binary(max_size=40) | json_bytes(json_values) | json_bytes(
    st.fixed_dictionaries({}, optional={
        "quaternion": st.just([1.0, 0.0, 0.0, 0.0]) | number_lists | json_values,
        "translation": st.just([0.0, 0.0, 0.5]) | number_lists | json_values,
        "resolution": st.just([8, 6]) | number_lists | json_values,
        "focal": number_lists | json_values,
        "principal_point": number_lists | json_values,
    })))
def test_load_camera_raises_only_morphfit_errors(scratch, pose):
    path = scratch / "pose.json"
    path.write_bytes(pose)
    only_morphfit_errors(_load_camera, path, (8, 6))


# The documented pixel limit: 4096 x 4096.
PIXEL_LIMIT = 4096 * 4096


@PROPERTY
@given(width=st.integers(1, 8192), height=st.integers(1, 8192))
@example(width=10_000_000, height=10_000_000)
@example(width=PIXEL_LIMIT + 1, height=1)
@example(width=4097, height=4096)
@example(width=4096, height=4096)
def test_pose_resolution_is_bounded_before_any_image_exists(scratch, width, height):
    # Loading a pose allocates no image, so a resolution just above the
    # limit is rejected here, naming the file, instead of in an allocation.
    path = scratch / "big_pose.json"
    path.write_text(json.dumps({"quaternion": [1, 0, 0, 0], "translation": [0, 0, 1],
                                "resolution": [width, height]}))
    if width * height > PIXEL_LIMIT:
        with pytest.raises(ValidationError, match=r"^pose file .*big_pose\.json .*pixel limit"):
            _load_camera(path, (8, 6))
    else:
        assert _load_camera(path, (8, 6)).resolution == (width, height)


@pytest.mark.parametrize("command", ["gen-dataset", "register", "evaluate"])
@pytest.mark.parametrize("res", ["4097x4096", "10000000x10000000"])
def test_res_flag_is_bounded_before_any_image_exists(scratch, capsys, command, res):
    junk, models = scratch / "junk.ply", scratch / "models"
    junk.write_text("not read: validation fails first\n")
    models.mkdir(exist_ok=True)
    (models / "junk.ply").write_text("")
    argv = {
        "gen-dataset": ["--space", junk, "--canonical", junk, "--models", models],
        "register": ["--space", junk, "--canonical", junk, "--observed", junk, "--pose", junk],
        "evaluate": ["--space", junk, "--canonical", junk, "--instance", junk],
    }[command]
    assert main([command, *map(str, argv), "--res", res, "--out", str(scratch / "o")]) == 2
    assert capsys.readouterr().err == f"error: --res {res} exceeds the {PIXEL_LIMIT}-pixel limit\n"


@PROPERTY
@given(text=st.text(max_size=20).filter(lambda t: not t.startswith("@")),
       content=st.none() | st.binary(max_size=30) | json_bytes(json_values)
       | json_bytes(st.fixed_dictionaries({"latent": json_values | number_lists})))
@example(text="1,2", content=b'{"latent": [1' + b"0" * 400 + b"]}")
def test_latent_arg_raises_only_argument_errors(scratch, text, content):
    path = scratch / "latent.json"
    path.unlink(missing_ok=True)
    if content is not None:
        path.write_bytes(content)
    for arg in (text, "@" + str(path)):
        try:
            _latent_arg(arg)
        except argparse.ArgumentTypeError:
            pass
