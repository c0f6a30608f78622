import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import icosphere

from morphfit import (
    Mesh,
    MorphFitError,
    PointCloud,
    ValidationError,
    read_mask,
    read_ply,
    read_tensor,
    write_mask,
    write_ply,
    write_tensor,
)
from morphfit.io import commit


class TestPly:
    def test_round_trip_geometry(self, tmp_path):
        mesh = icosphere(1, radius=0.2)
        path = tmp_path / "m.ply"
        write_ply(path, mesh)
        back = read_ply(path)
        np.testing.assert_allclose(back.vertices, mesh.vertices, rtol=1e-6)
        np.testing.assert_array_equal(back.faces, mesh.faces)

    def test_round_trip_colors(self, tmp_path):
        rng = np.random.default_rng(0)
        mesh = icosphere(0)
        colored = Mesh(
            mesh.vertices,
            mesh.faces,
            vertex_colors=rng.integers(0, 256, size=(len(mesh.vertices), 3), dtype=np.uint8),
        )
        path = tmp_path / "c.ply"
        write_ply(path, colored)
        back = read_ply(path)
        np.testing.assert_array_equal(back.vertex_colors, colored.vertex_colors)

    def test_text_matches_numpy_scalar_formatting(self, tmp_path):
        rng = np.random.default_rng(1)
        for index in range(20):
            mesh = icosphere(index % 3, radius=10.0 ** rng.uniform(-4, 4))
            vertices = mesh.vertices * rng.choice([-1.0, 1.0], size=mesh.vertices.shape)
            vertices[rng.integers(0, len(vertices), size=3)] = -0.0
            colors = (rng.integers(0, 256, size=vertices.shape, dtype=np.uint8)
                      if index % 2 else None)
            mesh = Mesh(vertices, mesh.faces, colors)
            path = tmp_path / f"m{index}.ply"
            write_ply(path, mesh)
            assert path.read_text() == ply_reference(mesh)
            assert "-0 " in path.read_text()

    def test_header_comments_tolerated(self, tmp_path):
        path = tmp_path / "commented.ply"
        path.write_text(
            "ply\nformat ascii 1.0\ncomment made by hand\n"
            "element vertex 3\nproperty float x\nproperty float y\nproperty float z\n"
            "comment three points\n"
            "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
            "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
        )
        mesh = read_ply(path)
        assert len(mesh.vertices) == 3
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])

    def test_binary_rejected_with_filename(self, tmp_path):
        path = tmp_path / "bin.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(ValidationError, match="bin.ply"):
            read_ply(path)

    def test_non_triangle_rejected(self, tmp_path):
        path = tmp_path / "quad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 4\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
            "0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
        )
        with pytest.raises(ValidationError, match="quad.ply"):
            read_ply(path)

    def test_truncated_rejected(self, tmp_path):
        # Data rows missing from a complete header: the element and both counts.
        path = tmp_path / "short.ply"
        header = ("ply\nformat ascii 1.0\nelement vertex 3\n"
                  "property float x\nproperty float y\nproperty float z\n"
                  "element face 2\nproperty list uchar int vertex_indices\nend_header\n")
        for rows, element, declared, held in (("0 0 0\n1 0 0\n", "vertex", 3, 2),
                                              ("0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "face", 2, 1)):
            path.write_text(header + rows)
            with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: truncated data: "
                                                      f"element {element} declares {declared} "
                                                      f"rows, the file holds {held}$"):
                read_ply(path)

    def test_loose_layout_and_number_spellings(self, tmp_path):
        # CRLF line ends, tabs, blank and comment lines among the rows, colors,
        # and numbers as float() and int() spell them: a row-by-row read's mesh.
        path = tmp_path / "loose.ply"
        path.write_bytes(
            b"ply\r\nformat ascii 1.0\r\nelement vertex 3\r\n"
            b"property float x\r\nproperty float y\r\nproperty float z\r\n"
            b"property uchar red\r\nproperty uchar green\r\nproperty uchar blue\r\n"
            b"element face 1\r\nproperty list uchar int vertex_indices\r\nend_header\r\n"
            b"1_0\t+1e-3 -0 1 2 3\r\n\r\ncomment between rows\r\n \t \r\n"
            b"0 1 0\t255 0 1_0\r\n  comment indented\r\n0\t0\t1 0 +0 0\r\n"
            b"3 -0 +1 0_2\r\n"
        )
        mesh = read_ply(path)
        expected = np.array([[10.0, 0.001, -0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert mesh.vertices.tobytes() == expected.tobytes()  # -0 keeps its sign
        np.testing.assert_array_equal(mesh.vertex_colors, [[1, 2, 3], [255, 0, 10], [0, 0, 0]])
        assert mesh.vertex_colors.dtype == np.uint8
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])
        assert mesh.faces.dtype == np.int64


    @pytest.mark.parametrize("rows, message", [
        ("0 0 0\n1 0\n0 1 0\n3 0 1 2\n", "vertex row width mismatch"),
        ("0 0 0\n1 0\n0 1 0 5\n3 0 1 2\n", "vertex row width mismatch"),
        ("0 0 0\n1 0 0\n0 1 0\n3 0 1 2 0\n3 1 2\n",
         r"malformed face row \['3', '0', '1', '2', '0'\]"),
        ("0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n",
         "malformed PLY data: Python int too large"),
        ("0 0 0\n1 0 zero\n0 1 0\n3 0 1 2\n",
         "malformed PLY data: could not convert string to float: 'zero'"),
        ("0 0 0\n1 0 0\n0 1 0\n3 0 1 x\n",
         "malformed PLY data: invalid literal for int\\(\\) with base 10: 'x'"),
        ("0 0 0\n1 0 0\n0 1 0\n3 0 1\n", r"malformed face row \['3', '0', '1'\]"),
        ("0 0 0\n1 0 0\n0 1 0\n4 0 1 2\n", "only triangular faces supported, got 4-gon"),
        ("0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n", "face index out of range"),
    ], ids=["ragged-vertex", "ragged-vertex-full-count", "ragged-face-full-count",
            "index-beyond-int64", "float", "index", "short-face", "n-gon", "index-out-of-range"])
    def test_malformed_rows_rejected_with_filename(self, tmp_path, rows, message):
        # Three vertex rows, then the face rows; the full-count cases hold as
        # many tokens as their rows declare, in rows of the wrong widths.
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            f"element face {len(rows.splitlines()) - 3}\n"
            "property list uchar int vertex_indices\nend_header\n" + rows
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: {message}"):
            read_ply(path)

    def test_no_vertices_rejected_with_filename(self, tmp_path):
        path = tmp_path / "empty.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 0\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 1\nproperty list uchar int vertex_indices\nend_header\n3 0 1 2\n"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: "):
            read_ply(path)

    def test_point_cloud_rejected_as_mesh_with_filename(self, tmp_path):
        # The layout cross-register writes: vertices and "element face 0".
        path = tmp_path / "cloud.ply"
        write_ply(path, PointCloud(icosphere(0).vertices))
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: holds a point "
                                                  r"cloud \(element face 0\) where a triangle"):
            read_ply(path)

    def test_coordinates_beyond_float32_rejected_before_the_file_opens(self, tmp_path):
        path = tmp_path / "far.ply"
        cloud = PointCloud([[0.0, 0.0, 0.0], [0.0, -1e39, 0.0]])
        with pytest.raises(ValidationError, match="1e[+]39 m exceeds the float32 range"):
            write_ply(path, cloud)
        assert not path.exists()


def ply_reference(mesh) -> str:
    """A mesh's PLY text, one f-string per row from the arrays' numpy scalars."""
    colors = mesh.vertex_colors
    header = ["ply", "format ascii 1.0", f"element vertex {len(mesh.vertices)}",
              "property float x", "property float y", "property float z"]
    header += [] if colors is None else [f"property uchar {c}" for c in ("red", "green", "blue")]
    header += [f"element face {len(mesh.faces)}", "property list uchar int vertex_indices",
               "end_header"]
    rows = [f"{v[0]:.9g} {v[1]:.9g} {v[2]:.9g}" for v in mesh.vertices]
    if colors is not None:
        rows = [f"{row} {c[0]} {c[1]} {c[2]}" for row, c in zip(rows, colors)]
    rows += [f"3 {f[0]} {f[1]} {f[2]}" for f in mesh.faces]
    return "\n".join(header + rows) + "\n"


def read_reference(body: str, faces: int):
    """A three-vertex, ``faces``-face PLY body read one row at a time, each token
    as float() or int() reads it: its Mesh, or None where such a read refuses it."""
    rows = [line.split() for line in body.splitlines()
            if line.strip() and not line.strip().startswith("comment")]
    if len(rows) < 3 + faces or any(len(row) != 3 for row in rows[:3]) or any(
            len(row) != 4 for row in rows[3:3 + faces]):
        return None
    try:
        vertices = [[float(v) for v in row] for row in rows[:3]]
        indices = np.array([[int(v) for v in row] for row in rows[3:3 + faces]], np.int64)
        if (indices[:, 0] != 3).any():
            return None
        return Mesh(vertices, indices[:, 1:])
    except (ValueError, OverflowError):  # ValidationError is a ValueError
        return None


# Spellings float() and int() read, spellings they refuse, and lines that hold no row.
numbers = st.sampled_from(["0", "1", "-0", "+1", "1_0", "0_1", "+1e-3", "2.5", "1E2", "\u0662"])
indices = [["0", "-0", "00", "+0"], ["1", "+1", "0_1", "\u0661"], ["2", "0_2", "002", "\u0662"]]
refused = st.sampled_from(["nan", "1e400", "x", "1__0", "--1", "1.0", "-1", "3",
                           "99999999999999999999"])
layout = st.sampled_from(["", " ", "\t", "comment here", "  comment", "commentary 1 2"])


@st.composite
def ply_bodies(draw):
    """Rows of three vertices and of faces in loose layouts, most well formed,
    some with one defect: a wrong width, a refused token or size, a row short."""
    faces = draw(st.integers(1, 3))
    rows = [[draw(numbers) for _ in range(3)] for _ in range(3)]
    rows += [["3"] + [draw(st.sampled_from(indices[i])) for i in draw(st.permutations(range(3)))]
             for _ in range(faces)]
    defect = draw(st.sampled_from([None, None, None, "width", "token", "size", "short"]))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    if defect == "width" and draw(st.booleans()):
        row.insert(draw(st.integers(0, len(row))), draw(numbers))
    elif defect == "width":
        row.pop()
    elif defect == "token":
        row[draw(st.integers(0, len(row) - 1))] = draw(refused)
    elif defect == "size":
        rows[-1][0] = draw(st.sampled_from(["4", "+3", "3.0", "x"]))
    elif defect == "short":
        rows.pop()
    lines = []
    for row in rows:
        lines += draw(st.lists(layout, max_size=1))
        lines.append(draw(st.sampled_from([" ", "\t", "  "])).join(row))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n", faces


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(body=ply_bodies())
def test_ply_read_matches_a_row_by_row_read(tmp_path_factory, body):
    body, faces = body
    path = tmp_path_factory.mktemp("rows") / "m.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
                    "property float y\nproperty float z\n"
                    f"element face {faces}\nproperty list uchar int vertex_indices\n"
                    "end_header\n" + body)
    expected = read_reference(body, faces)
    if expected is None:
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: "):
            read_ply(path)
    else:
        mesh = read_ply(path)
        assert mesh.vertices.tobytes() == expected.vertices.tobytes()
        assert mesh.faces.tobytes() == expected.faces.tobytes()


coordinates = (st.floats(-3e38, 3e38) | st.floats(-1e-3, 1e-3) | st.sampled_from([0.0, -0.0])
               | st.floats(-1e-300, 1e-300))


@st.composite
def meshes(draw):
    count = draw(st.integers(3, 12))
    vertices = draw(st.lists(st.tuples(coordinates, coordinates, coordinates),
                             min_size=count, max_size=count))
    faces = draw(st.lists(st.permutations(range(count)).map(lambda p: p[:3]),
                          min_size=1, max_size=8))
    colors = draw(st.none() | st.lists(st.tuples(*[st.integers(0, 255)] * 3),
                                       min_size=count, max_size=count))
    return Mesh(vertices, faces, None if colors is None else np.array(colors, np.uint8))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(mesh=meshes())
def test_ply_write_read_write_is_stable(tmp_path_factory, mesh):
    path = tmp_path_factory.mktemp("round-trip") / "m.ply"
    write_ply(path, mesh)
    written = path.read_bytes()
    assert written == ply_reference(mesh).encode()
    write_ply(path, read_ply(path))
    assert path.read_bytes() == written


class TestTensor:
    def test_round_trip_and_sidecar(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(5, 4, 3)).astype(np.float32)
        path = tmp_path / "t.f32"
        write_tensor(path, data, semantic="test-block")
        back, meta = read_tensor(path)
        np.testing.assert_array_equal(back, data)
        assert back.dtype == np.float32
        sidecar = json.loads((tmp_path / "t.f32.json").read_text())
        assert sidecar["shape"] == [5, 4, 3]
        assert sidecar["dtype"] == "f32"
        assert sidecar["semantic"] == "test-block"
        assert meta["semantic"] == "test-block"

    def test_values_beyond_float32_rejected_before_the_file_opens(self, tmp_path):
        path = tmp_path / "t.f32"
        with pytest.raises(ValidationError, match="1e[+]39 exceeds the float32 range of tensor"):
            write_tensor(path, np.array([[0.0, 1e39, 2.0]]), semantic="x")
        with pytest.raises(ValidationError, match="inf exceeds the float32 range"):
            write_tensor(path, np.array([-np.inf]), semantic="x")
        assert list(tmp_path.iterdir()) == []
        largest = float(np.finfo(np.float32).max)
        write_tensor(path, np.array([largest, -largest]), semantic="x")
        assert read_tensor(path)[0].tolist() == [largest, -largest]

    def test_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.f32"
        write_tensor(path, np.zeros((2, 3), dtype=np.float32), semantic="x")
        sidecar = tmp_path / "bad.f32.json"
        meta = json.loads(sidecar.read_text())
        meta["shape"] = [2, 4]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValidationError, match="bad.f32"):
            read_tensor(path)

    def test_missing_sidecar_rejected(self, tmp_path):
        path = tmp_path / "orphan.f32"
        path.write_bytes(b"\x00" * 12)
        with pytest.raises(ValidationError):
            read_tensor(path)

    @pytest.mark.parametrize("sidecar, payload", [
        (b'{"dtype": "f32"}', b"\x00" * 8),
        (b'[2, "f32"]', b"\x00" * 8),
        (b'{"dtype": "f32", "shape": [2, "two"]}', b"\x00" * 8),
        (b'{"dtype": "f32", "shape": [-1, -2]}', b"\x00" * 8),
        (b'{"dtype": "f32", "shape": [2]}\xff', b"\x00" * 8),
        (b'{"dtype": "f32", "shape": [2]}', None),
        (b'{"dtype": "f32", "shape": [2]}', b"\x00" * 7),
    ], ids=["no-shape", "list", "shape-entry", "negative-shape", "not-utf8", "no-payload",
            "partial-float"])
    def test_malformed_tensor_rejected_with_filename(self, tmp_path, sidecar, payload):
        path = tmp_path / "odd.f32"
        (tmp_path / "odd.f32.json").write_bytes(sidecar)
        if payload is not None:
            path.write_bytes(payload)
        with pytest.raises(ValidationError, match="odd.f32"):
            read_tensor(path)


class TestMask:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        mask = rng.random((18, 23)) > 0.6
        path = tmp_path / "m.pgm"
        write_mask(path, mask)
        back = read_mask(path)
        assert back.dtype == bool
        np.testing.assert_array_equal(back, mask)

    def test_written_values_binary(self, tmp_path):
        mask = np.zeros((4, 6), dtype=bool)
        mask[1, 2] = True
        path = tmp_path / "b.pgm"
        write_mask(path, mask)
        raw = path.read_bytes()
        body = raw.split(b"255\n", 1)[1]
        assert set(body) <= {0, 255}

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + bytes([0, 255, 0, 255, 0, 0]))
        mask = read_mask(path)
        assert mask.shape == (2, 3)
        assert mask[0, 1] and mask[1, 0]
        assert int(mask.sum()) == 2

    @pytest.mark.parametrize("content", [
        None, b"P5\nthree 2\n255\n" + bytes(6), b"P5\n-3 -2\n255\n" + bytes(6),
    ], ids=["missing", "not-numeric", "negative"])
    def test_malformed_mask_rejected_with_filename(self, tmp_path, content):
        path = tmp_path / "odd.pgm"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ValidationError, match="odd.pgm"):
            read_mask(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n3 2\n255\n0 0 0 0 0 0\n")
        with pytest.raises(ValidationError, match="p2.pgm"):
            read_mask(path)


class TestCommit:
    def test_renames_every_output_after_the_last_writer(self, tmp_path):
        seen = []

        def writer(text):
            def write(path):
                seen.append(sorted(p.name for p in tmp_path.iterdir()))
                path.write_text(text)
            return write

        commit({tmp_path / "a.txt": writer("a"), tmp_path / "b.txt": writer("b")})
        assert seen == [[], ["a.txt.partial"]]
        assert (tmp_path / "a.txt").read_text() == "a"
        assert (tmp_path / "b.txt").read_text() == "b"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]

    def test_a_failing_writer_leaves_earlier_outputs_partial(self, tmp_path):
        def fail(path):
            raise ValidationError("no good")

        with pytest.raises(ValidationError, match="^no good$"):
            commit({tmp_path / "a.txt": lambda p: p.write_text("a"), tmp_path / "b.txt": fail})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt.partial"]

    def test_os_error_names_the_output(self, tmp_path):
        (tmp_path / "taken").mkdir()
        taken = re.escape(str(tmp_path / "taken"))
        with pytest.raises(MorphFitError, match=f"^cannot write {taken}: "):
            commit({tmp_path / "taken": lambda p: p.write_text("x")})
        assert (tmp_path / "taken.partial").read_text() == "x"
