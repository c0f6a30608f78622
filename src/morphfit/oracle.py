"""Deformation-prediction oracles standing in for a trained network.

Given the four zoomed pipeline inputs, an oracle produces the per-pixel
deformation image the downstream completion consumes.
:func:`zoomed_sample` builds those inputs and their true target from a
zoom, for gen-dataset and the single-view pipeline alike.  Three kinds:
exact ground truth, ground truth plus seeded noise, and an external
child process speaking a file-based protocol.
"""
from __future__ import annotations

import json
import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import OracleError, ValidationError
from .imaging import (
    DeformationImage, LinearRBF, PositionImage, ZoomResult, _built, _like, rasterize_target,
)
from .io import read_mask, read_tensor, write_tensor

if TYPE_CHECKING:
    from .dataset import SampleRecord

__all__ = ["OracleSpec", "OracleSample", "shifted", "zoomed_sample", "load_sample", "infer"]

_KINDS = ("ground_truth", "noisy", "external")

# Environment of the external oracle's process; None passes this process's
# own.  The command-line entry point sets the one it started with, before
# it pinned the BLAS thread count.
CHILD_ENV = None


@dataclass(frozen=True)
class OracleSpec:
    kind: str
    noise_sigma: float = 0.0
    command: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.noise_sigma < 0 or not np.isfinite(self.noise_sigma):
            raise ValidationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.kind == "external" and not self.command.strip():
            raise ValidationError("external oracle requires a non-empty command")


@dataclass(frozen=True)
class OracleSample:
    """The four zoomed inputs plus the true target, in memory."""

    observed: PositionImage
    canonical: PositionImage
    target: DeformationImage


def shifted(image, offset: np.ndarray):
    """A position or deformation image minus ``offset`` on its foreground."""
    if not offset.any():
        return image
    return _like(image, np.where(image.mask[..., None], image.data - offset, 0.0), image.mask)


def zoomed_sample(zoomed: ZoomResult, field: LinearRBF, offset=(0.0, 0.0, 0.0)) -> OracleSample:
    """The zoomed views and the target of ``field``: a dataset sample or an oracle's input.

    The target is rasterized on the zoom's
    :attr:`~morphfit.imaging.ZoomResult.grid` and zoomed like the render.
    ``offset`` is the error of the believed pose the canonical view was
    rendered at: the target is rasterized at the believed positions and
    holds the field's deltas minus the pose error.
    """
    offset = np.asarray(offset, dtype=np.float64)
    believed = shifted(zoomed.grid, offset)
    apparent = shifted(rasterize_target(believed, field), offset)
    return OracleSample(zoomed.observed, zoomed.canonical, zoomed.expand(apparent))


def load_sample(record: SampleRecord) -> OracleSample:
    """Materialize an exported dataset sample for oracle inference."""
    if record.status != "ok":
        raise ValidationError(f"sample was skipped at generation: {record.reason}")
    obs_data, _ = read_tensor(record.paths["obs.pos.f32"])
    obs_mask = read_mask(record.paths["obs.mask.pgm"])
    can_data, _ = read_tensor(record.paths["canon.pos.f32"])
    can_mask = read_mask(record.paths["canon.mask.pgm"])
    target_data, _ = read_tensor(record.paths["target.f32"])
    # Targets are rasterized on the canonical render's foreground, so the
    # canonical mask is the target mask; a zero delta on foreground is a
    # valid measurement, not background.
    return OracleSample(
        observed=PositionImage(np.where(obs_mask[..., None], obs_data, 0.0), obs_mask),
        canonical=PositionImage(np.where(can_mask[..., None], can_data, 0.0), can_mask),
        target=DeformationImage(
            np.where(can_mask[..., None], target_data.astype(np.float64), 0.0),
            can_mask,
            record.export_scale,
        ),
    )


def infer(spec: OracleSpec, sample: OracleSample, noise=None) -> DeformationImage:
    """Predict the per-pixel deformation image for one sample.

    Always returns values in meters with scale 1 and background exactly
    zero.  ``noise`` is the generator a noisy oracle draws from, such as
    the ``"oracle_noise"`` :func:`~morphfit.geometry.stream`.  An exported
    record is inferred as ``infer(spec, load_sample(record))``.
    """
    if spec.kind == "external":
        return _infer_external(spec, sample)
    data = sample.target.in_meters()
    if spec.kind == "noisy" and spec.noise_sigma > 0:
        if noise is None:
            raise ValidationError("a noisy oracle needs the generator of its noise")
        data = data + noise.normal(0.0, spec.noise_sigma, data.shape)
    mask = sample.target.mask
    data = np.where(mask[..., None], data, 0.0)
    # The one check that can fail here: the noise or the unscaling overflowed.
    if not np.isfinite(data).all():
        raise ValidationError("deformation image foreground contains non-finite values")
    return _built(DeformationImage, data, mask)


def _infer_external(spec: OracleSpec, sample: OracleSample) -> DeformationImage:
    height, width = sample.canonical.mask.shape
    scale = sample.target.scale
    with tempfile.TemporaryDirectory(prefix="oracle-") as tmp:
        tmp = Path(tmp)
        inputs = {
            "observed": "observed.f32",
            "observed_mask": "observed_mask.f32",
            "canonical": "canonical.f32",
            "canonical_mask": "canonical_mask.f32",
        }
        write_tensor(tmp / inputs["observed"], sample.observed.data, "observed position image (m)")
        write_tensor(tmp / inputs["observed_mask"], sample.observed.mask.astype(np.float32), "observed foreground mask")
        write_tensor(tmp / inputs["canonical"], sample.canonical.data, "canonical position image (m)")
        write_tensor(tmp / inputs["canonical_mask"], sample.canonical.mask.astype(np.float32), "canonical foreground mask")
        request = {
            "resolution": [width, height],
            "scale": scale,
            "paths": inputs,
            "output": "output.f32",
        }
        (tmp / "request.json").write_text(json.dumps(request) + "\n")
        argv = shlex.split(spec.command) + [str(tmp)]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600,
                                  env=CHILD_ENV)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise OracleError(
                f"oracle command failed to run: {exc}",
                diagnostics={"argv": argv},
            ) from exc
        diagnostics = {
            "argv": argv,
            "returncode": proc.returncode,
            "stdout": proc.stdout[-4000:],
            "stderr": proc.stderr[-4000:],
        }
        if proc.returncode != 0:
            # The child's last words on stderr usually say why.
            why = next((line.strip() for line in reversed(proc.stderr.splitlines())
                        if line.strip()), "")
            raise OracleError(
                f"oracle command exited with {proc.returncode}" + (f": {why}" if why else ""),
                diagnostics=diagnostics,
            )
        try:
            output, _ = read_tensor(tmp / "output.f32")
        except ValidationError as exc:
            raise OracleError(f"oracle output unreadable: {exc}", diagnostics=diagnostics) from exc
        if output.shape != (height, width, 3):
            raise OracleError(
                f"oracle output shape {output.shape} != {(height, width, 3)}",
                diagnostics=diagnostics,
            )
        if not np.all(np.isfinite(output)):
            raise OracleError("oracle output contains non-finite values", diagnostics=diagnostics)
    mask = sample.target.mask
    # Protocol returns values at the request's scale; convert to meters and
    # force an exactly-zero background so occlusion logic stays intact.
    data = np.where(mask[..., None], output.astype(np.float64) / scale, 0.0)
    return DeformationImage(data, mask, 1.0)
