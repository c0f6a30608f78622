"""Low-dimensional category shape model over deformation fields.

Per-instance fields (each warping the canonical cloud onto one instance)
are flattened point-major to 3n-vectors; their mean and the leading
principal directions form an affine family ``w = basis @ x + mean`` that
maps a short latent vector to a full deformation field.
"""
from __future__ import annotations

import base64
import dataclasses
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cpd import CpdConfig
from .errors import SpaceFileError, ValidationError
from .geometry import (
    DeformationField,
    PointCloud,
    flatten_offsets,
    unflatten_offsets,
)

__all__ = [
    "Registration",
    "TrainingField",
    "ShapeSpace",
    "space_from_fields",
    "latent_to_field",
    "project_field",
    "relative_residual",
    "save_space",
    "load_space",
]

_MAGIC = "MFSS1"
_SHA1 = re.compile(r"[0-9a-f]{40}")


@dataclass(frozen=True)
class Registration:
    """A category's one registration recipe, fixed when its space is built.

    A mesh becomes ``dense_count`` surface samples merged per voxel of size
    ``cloud_leaf`` (m), registered onto the canonical cloud by CPD with ``cpd``.
    The sampler and the voxel grid reject a bad count or leaf.
    """

    cpd: CpdConfig
    cloud_leaf: float
    dense_count: int


@dataclass(frozen=True)
class TrainingField:
    """One instance's registration by a category's recipe, with what it came from.

    ``field`` warps the canonical cloud onto the instance.  The instance's
    cloud was drawn from the ``"cloud"`` :func:`~morphfit.geometry.stream`
    of ``seed`` at ``salt`` on the mesh whose ``mesh_sha1`` this is, and CPD
    ran ``iterations`` iterations, stopping at its cap unless ``converged``.
    ``registration`` is the recipe it was registered by.
    """

    field: DeformationField
    mesh_sha1: str
    seed: int
    salt: int
    iterations: int
    converged: bool
    registration: Registration


@dataclass(frozen=True)
class ShapeSpace:
    """Affine family of deformation fields; ``registration`` is the recipe that
    produced them, None for known fields (such a space saves but does not load),
    and ``fields`` the registrations it was built from, if they were kept."""

    canonical: PointCloud
    beta: float
    mean: np.ndarray
    basis: np.ndarray
    latent_dim: int
    registration: Registration | None = None
    fields: tuple = ()

    def __post_init__(self):
        n3 = 3 * len(self.canonical)
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        basis = np.asarray(self.basis, dtype=np.float64)
        if self.latent_dim < 1:
            raise ValidationError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if mean.shape != (n3,):
            raise ValidationError(f"mean length {mean.shape[0]} != 3n = {n3}")
        if basis.shape != (n3, self.latent_dim):
            raise ValidationError(
                f"basis shape {basis.shape} != ({n3}, {self.latent_dim})"
            )
        gram = basis.T @ basis
        if not np.allclose(gram, np.eye(self.latent_dim), atol=1e-8):
            raise ValidationError("basis columns are not orthonormal")
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValidationError(f"beta must be > 0, got {self.beta}")
        if self.registration is not None and self.registration.cpd.beta != self.beta:
            raise ValidationError(
                f"registration beta {self.registration.cpd.beta} != space beta {self.beta}"
            )
        if not np.all(np.isfinite(mean)):
            raise ValidationError("mean contains non-finite entries")
        fields = tuple(self.fields)
        for index, kept in enumerate(fields):
            if not isinstance(kept, TrainingField):
                raise ValidationError(f"fields[{index}] is not a TrainingField")
            if kept.field.beta != self.beta or not np.array_equal(
                    kept.field.anchors.points, self.canonical.points):
                raise ValidationError(
                    f"fields[{index}] is not anchored at the canonical cloud with beta {self.beta}"
                )
        mean.flags.writeable = False
        basis = np.ascontiguousarray(basis)
        basis.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "latent_dim", int(self.latent_dim))
        object.__setattr__(self, "fields", fields)


def space_from_fields(canonical: PointCloud, fields, beta: float, latent_dim: int,
                      registration: Registration | None = None):
    """Principal-component space of the given DeformationFields: registered
    ones, with the ``registration`` that produced them, or analytically known
    ones in tests and experiments."""
    stacked = np.stack([flatten_offsets(f.weights) for f in fields])
    count, n3 = stacked.shape
    if count < 2:
        raise ValidationError(f"need >= 2 instance fields, got {count}")
    if n3 != 3 * len(canonical):
        raise ValidationError(
            f"field length {n3} does not match canonical cloud ({3 * len(canonical)})"
        )
    limit = min(count - 1, n3)
    if latent_dim > limit:
        raise ValidationError(
            f"latent_dim {latent_dim} exceeds min(#instances - 1, 3n) = {limit}"
        )
    mean = stacked.mean(axis=0)
    centered = stacked - mean
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    basis = vt[:latent_dim].T
    # Fix each column's sign so serialized spaces are run-reproducible.
    flip = basis[np.abs(basis).argmax(axis=0), np.arange(latent_dim)] < 0
    basis = np.where(flip[None, :], -basis, basis)
    return ShapeSpace(canonical, float(beta), mean, basis, int(latent_dim), registration)


def latent_to_field(space: ShapeSpace, latent) -> DeformationField:
    """Decode a latent vector to a full deformation field at the canonical anchors."""
    latent = np.asarray(latent, dtype=np.float64).reshape(-1)
    if latent.shape != (space.latent_dim,):
        raise ValidationError(
            f"latent has dimension {latent.shape[0]}, space expects {space.latent_dim}"
        )
    if not np.all(np.isfinite(latent)):
        raise ValidationError("latent contains non-finite entries")
    flat = space.basis @ latent + space.mean
    return DeformationField(space.canonical, unflatten_offsets(flat), space.beta)


def project_field(space: ShapeSpace, field: DeformationField) -> np.ndarray:
    """Latent coordinates of a field: closest point of the space to it."""
    if not np.array_equal(field.anchors.points, space.canonical.points):
        raise ValidationError("field is not anchored at the space's canonical cloud")
    return space.basis.T @ (flatten_offsets(field.weights) - space.mean)


def relative_residual(space: ShapeSpace, field: DeformationField, eps: float = 1e-12) -> float:
    """How far a field sits outside the space, relative to its centered size."""
    centered = flatten_offsets(field.weights) - space.mean
    off_span = centered - space.basis @ (space.basis.T @ centered)
    return float(np.linalg.norm(off_span) / max(np.linalg.norm(centered), eps))


# ---------------------------------------------------------------------------
# Serialization: one JSON header line, then raw little-endian float64 blocks
# for canonical points, mean, basis, in that order.  Blocks are f64 because
# the load(save(s)) == s round trip is bitwise and spaces are built in f64.
# The header's "registration" object holds the recipe's CPD settings (beta
# is the header's own), cloud leaf and dense count.  Its optional "fields"
# list holds the space's TrainingFields, each with its weights as base64 of
# little-endian f64, point-major, and the recipe it was registered by as a
# "registration" object of the same form.  An entry without one (a file
# written before entries recorded it) is rejected: rebuild the space.


def _recipe_settings(recipe: Registration) -> dict:
    """The header form of a recipe: its settings without beta."""
    settings = dataclasses.asdict(recipe.cpd)
    del settings["beta"]
    settings.update(cloud_leaf=recipe.cloud_leaf, dense_count=recipe.dense_count)
    return settings


def _recipe_of(s, beta: float) -> Registration:
    """The recipe of header-form settings ``s``; a malformed ``s`` raises KeyError,
    TypeError, ValueError or OverflowError."""
    cpd = CpdConfig(beta, float(s["regularization"]), float(s["outlier_weight"]),
                    int(s["max_iterations"]), float(s["tolerance"]))
    return Registration(cpd, float(s["cloud_leaf"]), int(s["dense_count"]))


def save_space(space: ShapeSpace, path) -> None:
    header = {
        "magic": _MAGIC,
        "n": len(space.canonical),
        "latent_dim": space.latent_dim,
        "beta": space.beta,
        "flattening": "point-major",
        "dtype": "f64",
    }
    if space.registration is not None:
        header["registration"] = _recipe_settings(space.registration)
    if space.fields:
        header["fields"] = [_field_entry(kept) for kept in space.fields]
    blocks = [
        np.ascontiguousarray(space.canonical.points, dtype="<f8").tobytes(),
        np.ascontiguousarray(space.mean, dtype="<f8").tobytes(),
        np.ascontiguousarray(space.basis, dtype="<f8").tobytes(),
    ]
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        for block in blocks:
            fh.write(block)


def load_space(path) -> ShapeSpace:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SpaceFileError(f"cannot read shape-space file {path}: {exc}") from exc
    newline = raw.find(b"\n")
    if newline < 0:
        raise SpaceFileError(f"{path}: missing header line")
    try:
        header = json.loads(raw[:newline].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpaceFileError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise SpaceFileError(f"{path}: header is not a JSON object")
    if header.get("magic") != _MAGIC:
        raise SpaceFileError(
            f"{path}: bad magic {header.get('magic')!r}, expected {_MAGIC!r}"
        )
    if header.get("dtype") != "f64":
        raise SpaceFileError(f"{path}: unsupported dtype {header.get('dtype')!r}")
    if header.get("flattening") != "point-major":
        raise SpaceFileError(
            f"{path}: unsupported flattening {header.get('flattening')!r}"
        )
    if "registration" not in header:
        raise SpaceFileError(
            f"{path}: no registration settings in the header; rebuild the space with build-space"
        )
    try:
        n = int(header["n"])
        latent_dim = int(header["latent_dim"])
        beta = float(header["beta"])
        registration = _recipe_of(header["registration"], beta)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpaceFileError(f"{path}: malformed header fields: {exc}") from exc
    if n < 1 or latent_dim < 1:
        raise SpaceFileError(f"{path}: header sizes n={n}, latent_dim={latent_dim} must be >= 1")
    payload = raw[newline + 1 :]
    expected = 8 * (3 * n + 3 * n + 3 * n * latent_dim)
    if len(payload) != expected:
        raise SpaceFileError(
            f"{path}: payload is {len(payload)} bytes, header (n={n}, "
            f"l={latent_dim}) requires {expected}"
        )
    stored = _stored_fields(path, header.get("fields", []), n, beta)
    floats = np.frombuffer(payload, dtype="<f8")
    canonical = floats[: 3 * n].reshape(n, 3)
    mean = floats[3 * n : 6 * n]
    basis = floats[6 * n :].reshape(3 * n, latent_dim)
    try:
        cloud = PointCloud(canonical)
        fields = [TrainingField(DeformationField(cloud, weights, beta), **meta)
                  for weights, meta in stored]
        return ShapeSpace(cloud, beta, mean.copy(), basis.copy(), latent_dim, registration,
                          fields)
    except ValidationError as exc:
        raise SpaceFileError(f"{path}: invalid space content: {exc}") from exc


def _field_entry(kept: TrainingField) -> dict:
    """The "fields" entry of a TrainingField."""
    return {"mesh_sha1": kept.mesh_sha1, "seed": int(kept.seed), "salt": int(kept.salt),
            "iterations": int(kept.iterations), "converged": bool(kept.converged),
            "weights": base64.b64encode(
                np.ascontiguousarray(kept.field.weights, dtype="<f8").tobytes()
            ).decode("ascii"),
            "registration": _recipe_settings(kept.registration)}


def _stored_fields(path: Path, entries, n: int, beta: float) -> list:
    """(weights, metadata) of each entry of a space header's "fields" member."""
    if not isinstance(entries, list):
        raise SpaceFileError(f'{path}: "fields" is not a list')
    stored = []
    for index, entry in enumerate(entries):
        try:
            if not isinstance(entry, dict):
                raise TypeError("not an object")
            if "registration" not in entry:
                raise SpaceFileError(f"{path}: fields[{index}] records no registration "
                                     "settings; rebuild the space with build-space")
            raw = base64.b64decode(entry["weights"], validate=True)
            if len(raw) != 24 * n:
                raise ValueError(f"weights are {len(raw)} bytes, n={n} requires {24 * n}")
            weights = np.frombuffer(raw, dtype="<f8").reshape(n, 3).copy()
            if not np.all(np.isfinite(weights)):
                raise ValueError("weights contain non-finite entries")
            meta = {key: entry[key]
                    for key in ("mesh_sha1", "seed", "salt", "iterations", "converged")}
            if not (isinstance(meta["mesh_sha1"], str) and _SHA1.fullmatch(meta["mesh_sha1"])):
                raise ValueError(f"mesh_sha1 {meta['mesh_sha1']!r} is not a sha1 hex digest")
            for key in ("seed", "salt", "iterations"):
                if type(meta[key]) is not int or meta[key] < 0:
                    raise ValueError(f"{key} {meta[key]!r} is not an integer >= 0")
            if type(meta["converged"]) is not bool:
                raise ValueError(f"converged {meta['converged']!r} is not true or false")
            meta["registration"] = _recipe_of(entry["registration"], beta)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SpaceFileError(
                f"{path}: malformed fields[{index}]: {type(exc).__name__}: {exc}"
            ) from exc
        stored.append((weights, meta))
    return stored
