"""File formats: ASCII PLY meshes, raw float32 tensors, PGM masks.

Only the narrow subsets the pipeline needs are supported; anything else
is rejected loudly rather than guessed at.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import MorphFitError, ValidationError
from .geometry import Mesh, PointCloud

__all__ = [
    "read_ply",
    "write_ply",
    "write_tensor",
    "read_tensor",
    "write_mask",
    "read_mask",
]


@contextmanager
def writing(path):
    """End an OSError raised inside the block in one MorphFitError naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise MorphFitError(f"cannot write {path}: {exc.strerror or exc}") from exc


def commit(outputs) -> None:
    """Write a command's ``{path: writer}`` outputs all or nothing: each ``writer(partial)``
    writes ``<path>.partial``, and all are renamed once the last writer has returned.
    An OSError ends in one MorphFitError naming the path."""
    for path, writer in outputs.items():
        with writing(path):
            writer(Path(f"{path}.partial"))
    for path in outputs:
        with writing(path):
            os.replace(f"{path}.partial", path)


# ---------------------------------------------------------------------------
# PLY (ASCII subset): vertex x/y/z with optional uchar red/green/blue,
# triangular faces.

_VERTEX_PROPS = ("x", "y", "z")
_COLOR_PROPS = ("red", "green", "blue")


def read_ply(path) -> Mesh:
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        return _parse_ply(path, text)
    except ValidationError:
        raise
    except (ValueError, IndexError, OverflowError) as exc:
        # A count or a row field that is missing, not a number, or an
        # index beyond int64.
        raise ValidationError(f"{path}: malformed PLY data: {exc}") from exc


def _parse_ply(path: Path, text: str) -> Mesh:
    lines = iter(text.splitlines())

    def next_line():
        for raw in lines:
            stripped = raw.strip()
            if stripped and not stripped.startswith("comment"):
                return stripped
        raise ValidationError(f"{path}: truncated header")

    if next_line() != "ply":
        raise ValidationError(f"{path}: not a PLY file")
    if next_line() != "format ascii 1.0":
        raise ValidationError(f"{path}: only 'format ascii 1.0' is supported")

    elements = []  # (name, count, [property names])
    line = next_line()
    while line != "end_header":
        parts = line.split()
        if parts[0] == "element":
            elements.append((parts[1], int(parts[2]), []))
        elif parts[0] == "property":
            if not elements:
                raise ValidationError(f"{path}: property before any element")
            if parts[1] == "list":
                elements[-1][2].append(("list", parts[-1]))
            else:
                elements[-1][2].append((parts[1], parts[2]))
        else:
            raise ValidationError(f"{path}: unsupported header line {line!r}")
        line = next_line()

    names = [e[0] for e in elements]
    if names[:1] != ["vertex"] or "face" not in names:
        raise ValidationError(f"{path}: expected vertex and face elements, got {names}")
    if any(name == "face" and count == 0 for name, count, _ in elements):
        raise ValidationError(
            f"{path}: holds a point cloud (element face 0) where a triangle mesh is needed"
        )

    # The data rows, split, block by block; numpy converts each block's
    # tokens at once and words a malformed number as float() and int() do.
    body = (s for s in map(str.strip, lines) if s and not s.startswith("comment"))
    vertices = colors = faces = None
    for name, count, props in elements:
        rows = [line.split() for line in islice(body, max(count, 0))]
        if len(rows) < count:
            raise ValidationError(f"{path}: truncated header")
        if name == "vertex":
            prop_names = [p[1] for p in props]
            if list(prop_names[:3]) != list(_VERTEX_PROPS):
                raise ValidationError(f"{path}: vertex properties must start with x y z")
            has_color = tuple(prop_names[3:6]) == _COLOR_PROPS
            data = np.array([v for row in rows for v in row], dtype=np.float64)
            if any(len(row) != len(prop_names) for row in rows):
                raise ValidationError(f"{path}: vertex row width mismatch")
            data = data.reshape(len(rows), len(prop_names))
            vertices = data[:, :3]
            if has_color:
                colors = data[:, 3:6]
                if not np.all((colors >= 0) & (colors <= 255)):  # NaN fails too
                    raise ValidationError(f"{path}: vertex colors must be in [0, 255]")
                colors = colors.astype(np.uint8)
        elif name == "face":
            sizes = np.array([row[0] for row in rows], dtype=np.int64)
            if (sizes != 3).any():
                raise ValidationError(f"{path}: only triangular faces supported, "
                                      f"got {sizes[sizes != 3][0]}-gon")
            for row in rows:
                if len(row) != 4:
                    raise ValidationError(f"{path}: malformed face row {row!r}")
            faces = np.array([v for row in rows for v in row[1:]],
                             dtype=np.int64).reshape(len(rows), 3)
    try:
        return Mesh(vertices, faces, colors)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def write_ply(path, shape: Mesh | PointCloud) -> None:
    """Write a Mesh, or a PointCloud as vertices with ``element face 0``.

    Coordinates beyond the float32 range the header declares are rejected
    before the file is opened.
    """
    path = Path(path)
    if isinstance(shape, PointCloud):
        vertices, faces, colors = shape.points, np.empty((0, 3), np.int64), None
    else:
        vertices, faces, colors = shape.vertices, shape.faces, shape.vertex_colors
    largest = float(np.abs(vertices).max())
    if largest > float(np.finfo(np.float32).max):
        raise ValidationError(
            f"a coordinate of {largest:.3g} m exceeds the float32 range of PLY 'property float'"
        )
    header = ["ply", "format ascii 1.0", f"element vertex {len(vertices)}"]
    header += [f"property float {p}" for p in _VERTEX_PROPS]
    if colors is not None:
        header += [f"property uchar {p}" for p in _COLOR_PROPS]
    header += [
        f"element face {len(faces)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    # Python floats and ints format as the numpy scalars do, and faster.
    body = [f"{x:.9g} {y:.9g} {z:.9g}" for x, y, z in vertices.tolist()]
    if colors is not None:
        body = [f"{row} {r} {g} {b}" for row, (r, g, b) in zip(body, colors.tolist())]
    body += [f"3 {a} {b} {c}" for a, b, c in faces.tolist()]
    path.write_text("\n".join(header + body) + "\n")


# ---------------------------------------------------------------------------
# Raw tensors: little-endian float32 payload, JSON sidecar carrying shape.

def write_tensor(path, array: np.ndarray, semantic: str) -> None:
    """Write ``array`` as raw little-endian float32 plus a JSON sidecar.

    The sidecar lives at ``<path>.json`` and records shape, dtype, and a
    free-form semantic label so files on disk stay self-describing.
    """
    path = Path(path)
    array = np.asarray(array, dtype="<f4")
    path.write_bytes(np.ascontiguousarray(array).data)
    sidecar = {"shape": list(array.shape), "dtype": "f32", "semantic": semantic}
    Path(str(path) + ".json").write_text(json.dumps(sidecar) + "\n")


def read_tensor(path) -> tuple[np.ndarray, dict]:
    """Read a raw tensor written by :func:`write_tensor`.

    Returns ``(array, sidecar_dict)``; the array is float32 in the shape
    the sidecar declares.
    """
    path = Path(path)
    sidecar_path = Path(str(path) + ".json")
    try:
        sidecar = json.loads(sidecar_path.read_text())
    except OSError as exc:
        raise ValidationError(f"missing tensor sidecar {sidecar_path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValidationError(f"corrupt tensor sidecar {sidecar_path}: {exc}") from exc
    if not isinstance(sidecar, dict):
        raise ValidationError(f"{sidecar_path}: sidecar is not a JSON object")
    if sidecar.get("dtype") != "f32":
        raise ValidationError(f"{sidecar_path}: unsupported dtype {sidecar.get('dtype')!r}")
    try:
        shape = tuple(int(s) for s in sidecar["shape"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{sidecar_path}: bad shape: {type(exc).__name__}: {exc}") from exc
    if any(s < 0 for s in shape):
        raise ValidationError(f"{sidecar_path}: negative shape {shape}")
    try:
        payload = path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read tensor payload {path}: {exc}") from exc
    expected = math.prod(shape)
    if len(payload) != 4 * expected:
        raise ValidationError(
            f"{path}: payload holds {len(payload)} bytes, sidecar shape {shape} "
            f"needs {expected} floats"
        )
    return np.frombuffer(payload, dtype="<f4").reshape(shape).copy(), sidecar


# ---------------------------------------------------------------------------
# PGM P5 masks: 0 background, 255 foreground.

def write_mask(path, mask: np.ndarray) -> None:
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValidationError(f"mask must be 2-D, got shape {mask.shape}")
    data = np.where(mask.astype(bool), 255, 0).astype(np.uint8)
    height, width = data.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + data.tobytes())


def read_mask(path) -> np.ndarray:
    """Read a P5 mask back as a boolean (height, width) array."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read mask {path}: {exc}") from exc
    if not raw.startswith(b"P5"):
        raise ValidationError(f"{path}: not a P5 PGM file")
    # Header: magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed; payload starts after the single whitespace
    # byte that follows maxval.
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValidationError(f"{path}: truncated PGM header")
        tokens.append(raw[start:pos])
    pos += 1  # single whitespace separating header from payload
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise ValidationError(f"{path}: PGM header is not numeric: {exc}") from exc
    if width < 0 or height < 0:
        raise ValidationError(f"{path}: negative PGM size {width} x {height}")
    if maxval != 255:
        raise ValidationError(f"{path}: expected maxval 255, got {maxval}")
    payload = raw[pos : pos + width * height]
    if len(payload) != width * height:
        raise ValidationError(f"{path}: payload truncated")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width) > 0
