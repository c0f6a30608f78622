import json
import re

import numpy as np
import pytest

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
            body = path.read_text().split("end_header\n", 1)[1].splitlines()
            # Each row formatted from the arrays' numpy scalars.
            rows = [f"{v[0]:.9g} {v[1]:.9g} {v[2]:.9g}" for v in mesh.vertices]
            if colors is not None:
                rows = [f"{row} {c[0]} {c[1]} {c[2]}" for row, c in zip(rows, colors)]
            assert body == rows + [f"3 {f[0]} {f[1]} {f[2]}" for f in mesh.faces]
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
        path = tmp_path / "short.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 0\nproperty list uchar int vertex_indices\nend_header\n"
            "0 0 0\n1 0 0\n"
        )
        with pytest.raises(ValidationError, match="short.ply"):
            read_ply(path)


    @pytest.mark.parametrize("rows, message", [
        ("0 0 0\n1 0\n0 1 0\n3 0 1 2\n", "vertex row width mismatch"),
        ("0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n",
         "malformed PLY data: Python int too large"),
        ("0 0 0\n1 0 zero\n0 1 0\n3 0 1 2\n",
         "malformed PLY data: could not convert string to float: 'zero'"),
        ("0 0 0\n1 0 0\n0 1 0\n3 0 1 x\n",
         "malformed PLY data: invalid literal for int\\(\\) with base 10: 'x'"),
        ("0 0 0\n1 0 0\n0 1 0\n3 0 1\n", r"malformed face row \['3', '0', '1'\]"),
        ("0 0 0\n1 0 0\n0 1 0\n4 0 1 2\n", "only triangular faces supported, got 4-gon"),
        ("0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n", "face index out of range"),
    ], ids=["ragged-vertex", "index-beyond-int64", "float", "index", "short-face", "n-gon",
            "index-out-of-range"])
    def test_malformed_rows_rejected_with_filename(self, tmp_path, rows, message):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 1\nproperty list uchar int vertex_indices\nend_header\n" + rows
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
