"""File formats: ASCII PLY meshes, raw float32 tensors, PGM masks.

Only the narrow subsets the pipeline needs are supported; anything else
is rejected loudly rather than guessed at.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
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

    # The data rows, block by block, each block's tokens converted at once.
    # Blank lines and comment lines hold none; a file without the word
    # "comment" holds no comment line to drop.
    rows = list(filter(str.strip, lines))
    if "comment" in text:
        rows = [row for row in rows if not row.lstrip().startswith("comment")]
    vertices = colors = faces = None
    start = 0
    for name, count, props in elements:
        block = rows[start:start + max(count, 0)]
        start += len(block)
        if len(block) < count:
            raise ValidationError(f"{path}: truncated data: element {name} declares "
                                  f"{count} rows, the file holds {len(block)}")
        if name == "vertex":
            prop_names = [p[1] for p in props]
            if list(prop_names[:3]) != list(_VERTEX_PROPS):
                raise ValidationError(f"{path}: vertex properties must start with x y z")
            has_color = tuple(prop_names[3:6]) == _COLOR_PROPS
            data = _read_block(path, name, block, len(prop_names), np.float64)
            vertices = data[:, :3]
            if has_color:
                colors = data[:, 3:6]
                if not np.all((colors >= 0) & (colors <= 255)):  # NaN fails too
                    raise ValidationError(f"{path}: vertex colors must be in [0, 255]")
                colors = colors.astype(np.uint8)
        elif name == "face":
            data = _read_block(path, name, block, 4, np.int64)
            _triangles_only(path, data[:, 0])
            faces = data[:, 1:]
    try:
        return Mesh(vertices, faces, colors)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


# Ends each row of a block in its joined text: not whitespace, and a token that
# float() and int() both refuse.
_ROW_END = "\0"


def _read_block(path: Path, name: str, rows: list, width: int, dtype) -> np.ndarray:
    """The (len(rows), width) array of a vertex or face block, each token
    read as float() or int() reads it.

    The rows are joined with an end token after each, split once, and every
    ``width + 1``-th token is deleted.  When each row holds ``width`` tokens,
    those are the end tokens; otherwise an end token stays among the numbers
    or their count is off, and the conversion or the reshape fails.  A block
    that fails gets the error :func:`_raise_row_error` words.
    """
    tokens = f" {_ROW_END} ".join([*rows, ""]).split()
    del tokens[width::width + 1]
    try:
        return np.array(tokens, dtype=dtype).reshape(len(rows), width)
    except (ValueError, OverflowError):
        _raise_row_error(path, name, rows)


def _raise_row_error(path: Path, name: str, rows: list):
    """Raise the error of a vertex or face block that failed to read, found
    row by row: in a vertex block the first token float() refuses, else the
    width mismatch; in a face block the first size int() refuses, the first
    size that is not 3, the first row that is not four tokens wide, then the
    first index int() refuses."""
    rows = [row.split() for row in rows]
    if name == "vertex":
        np.array([v for row in rows for v in row], dtype=np.float64)
        raise ValidationError(f"{path}: vertex row width mismatch")
    _triangles_only(path, np.array([row[0] for row in rows], dtype=np.int64))
    for row in rows:
        if len(row) != 4:
            raise ValidationError(f"{path}: malformed face row {row!r}")
    np.array([v for row in rows for v in row[1:]], dtype=np.int64)
    raise AssertionError(f"{path}: a face block that read row by row failed as a block")


def _triangles_only(path: Path, sizes: np.ndarray) -> None:
    if (sizes != 3).any():
        raise ValidationError(f"{path}: only triangular faces supported, "
                              f"got {sizes[sizes != 3][0]}-gon")


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
    # One %-format per block; '%.9g' % x is f'{x:.9g}', and colors 0-255
    # held as floats print as the integers they are.
    row = "%.9g %.9g %.9g"
    if colors is not None:
        row += " %d %d %d"
        vertices = np.hstack([vertices, colors])
    path.write_text("\n".join(header) + "\n"
                    + (row + "\n") * len(vertices) % tuple(vertices.ravel().tolist())
                    + "3 %d %d %d\n" * len(faces) % tuple(faces.ravel().tolist()))


# ---------------------------------------------------------------------------
# Raw tensors: little-endian float32 payload, JSON sidecar carrying shape.

def write_tensor(path, array: np.ndarray, semantic: str) -> None:
    """Write ``array`` as raw little-endian float32 plus a JSON sidecar.

    The sidecar lives at ``<path>.json`` and records shape, dtype, and a
    free-form semantic label so files on disk stay self-describing.  A value
    beyond the float32 range is rejected before the file is opened.
    """
    path = Path(path)
    with np.errstate(over="ignore"):  # an overflowing cast is rejected below
        data = np.asarray(array, dtype="<f4")
    if np.isinf(data).any():
        raise ValidationError(f"a value of {float(np.abs(array).max()):.3g} exceeds "
                              f"the float32 range of tensor {path}")
    path.write_bytes(np.ascontiguousarray(data).data)
    sidecar = {"shape": list(data.shape), "dtype": "f32", "semantic": semantic}
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
