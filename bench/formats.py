"""Readers for the files morphfit writes, written from the documented layouts.

The benchmark checks the program's outputs with these instead of with
morphfit's own readers, so a fault shared by a writer and its reader
cannot hide itself.  Each reader accepts only what README.md documents.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def read_ply(path) -> tuple[np.ndarray, np.ndarray]:
    """ASCII PLY with x y z vertices and triangle faces: (vertices, faces)."""
    lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("comment")]
    if lines[:2] != ["ply", "format ascii 1.0"]:
        raise ValueError(f"{path}: not an ASCII PLY file")
    end = lines.index("end_header")
    counts = {}
    for line in lines[2:end]:
        parts = line.split()
        if parts[0] == "element":
            counts[parts[1]] = int(parts[2])
    n_vert, n_face = counts["vertex"], counts["face"]
    body = lines[end + 1:]
    vertices = np.array([[float(v) for v in row.split()[:3]] for row in body[:n_vert]])
    faces = np.array([[int(v) for v in row.split()] for row in body[n_vert:n_vert + n_face]])
    if faces.shape[1:] != (4,) or not (faces[:, 0] == 3).all():
        raise ValueError(f"{path}: faces are not all triangles")
    return vertices.reshape(n_vert, 3), faces[:, 1:]


def read_tensor(path) -> np.ndarray:
    """Little-endian float32 payload shaped by its ``<path>.json`` sidecar."""
    sidecar = json.loads(Path(str(path) + ".json").read_text())
    if sidecar["dtype"] != "f32":
        raise ValueError(f"{path}: dtype {sidecar['dtype']!r} is not f32")
    shape = tuple(int(s) for s in sidecar["shape"])
    return np.frombuffer(Path(path).read_bytes(), dtype="<f4").reshape(shape)


def read_pgm(path) -> np.ndarray:
    """P5 mask with maxval 255, as a boolean (height, width) array.

    Mask bytes are 0 or 255, never whitespace, so splitting on whitespace
    separates the header from the payload.
    """
    magic, width, height, maxval, payload = Path(path).read_bytes().split(maxsplit=4)
    width, height = int(width), int(height)
    if magic != b"P5" or maxval != b"255" or len(payload) != width * height:
        raise ValueError(f"{path}: not a {width}x{height} P5 mask with maxval 255")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width) > 0


def read_space(path) -> dict:
    """Shape-space file: JSON header line, then f64 canonical, mean, basis."""
    raw = Path(path).read_bytes()
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline])
    if header["magic"] != "MFSS1" or header["dtype"] != "f64" \
            or header["flattening"] != "point-major":
        raise ValueError(f"{path}: unexpected header {header}")
    n, dim = int(header["n"]), int(header["latent_dim"])
    floats = np.frombuffer(raw[newline + 1:], dtype="<f8")
    if floats.size != 3 * n * (2 + dim):
        raise ValueError(f"{path}: payload size does not match n={n}, latent_dim={dim}")
    return {
        "beta": float(header["beta"]),
        "latent_dim": dim,
        "canonical": floats[:3 * n].reshape(n, 3),
        "mean": floats[3 * n:6 * n],
        "basis": floats[6 * n:].reshape(3 * n, dim),
    }
