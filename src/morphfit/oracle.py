"""Deformation-prediction oracles standing in for a trained network.

Given a sample, the :class:`~morphfit.imaging.ZoomResult` that
:func:`~morphfit.imaging.zoom` builds or :func:`load_sample` reads back,
an oracle produces the per-pixel deformation image the downstream
completion consumes.  Three kinds: exact ground truth, ground truth plus
seeded noise, and an external child process speaking a file-based
protocol.
"""
from __future__ import annotations

import json
import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import SAMPLE_FILES, SampleRecord
from .errors import OracleError, ValidationError
from .imaging import DeformationImage, PositionImage, ZoomResult, _built
from .io import read_mask, read_tensor, write_tensor

__all__ = ["OracleSpec", "load_sample", "infer"]

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


def load_sample(record: SampleRecord) -> ZoomResult:
    """Materialize an exported dataset sample for oracle inference: its
    stored views, already zoomed, are its grids, with identity axes."""
    if record.status != "ok":
        raise ValidationError(f"sample was skipped at generation: {record.reason}")
    if missing := [name for name in SAMPLE_FILES if name not in record.paths]:
        raise ValidationError(f"sample record has no {missing[0]} file")
    mask, obs_mask = (read_mask(record.paths[name]) for name in ("canon.mask.pgm", "obs.mask.pgm"))
    if obs_mask.shape != mask.shape:
        raise ValidationError(f"{record.paths['obs.mask.pgm']}: mask shape {obs_mask.shape} "
                              f"!= canonical mask shape {mask.shape}")
    # Targets are rasterized on the canonical render's foreground, so the
    # canonical mask is the target mask; a zero delta on foreground is a
    # valid measurement, not background.
    canonical = PositionImage(*_stored(record, "canon.pos.f32", mask))
    observed = PositionImage(*_stored(record, "obs.pos.f32", obs_mask))
    target = DeformationImage(*_stored(record, "target.f32", mask), record.export_scale)
    return ZoomResult(observed, canonical, canonical, target, np.arange(mask.shape[0]),
                      np.arange(mask.shape[1]), record.crop_box, record.scale_factors,
                      record.padded)


def _stored(record: SampleRecord, name: str, mask: np.ndarray):
    """The stored tensor ``name``, zero off ``mask``, and the mask."""
    data, _ = read_tensor(record.paths[name])
    if data.shape != (*mask.shape, 3):
        raise ValidationError(
            f"{record.paths[name]}: tensor shape {data.shape} != mask shape {mask.shape} x 3")
    return np.where(mask[..., None], data.astype(np.float64), 0.0), mask


def infer(spec: OracleSpec, sample: ZoomResult, noise=None) -> DeformationImage:
    """Predict the per-pixel deformation image for one sample: a zoom, or
    an exported record as ``infer(spec, load_sample(record))``.

    Always returns values in meters with scale 1 and background exactly
    zero.  ``noise`` is the generator a noisy oracle draws from, such as
    the ``"oracle_noise"`` :func:`~morphfit.geometry.stream`.  The ground
    truth of a target in meters (scale 1) is the target itself, not a copy.
    Only the external oracle reads the zoomed views.
    """
    if spec.kind == "external":
        return _infer_external(spec, sample)
    noisy = spec.kind == "noisy" and spec.noise_sigma > 0
    if not noisy and sample.target.scale == 1.0:
        return sample.target
    data = sample.target.in_meters()
    if noisy:
        if noise is None:
            raise ValidationError("a noisy oracle needs the generator of its noise")
        data = data + noise.normal(0.0, spec.noise_sigma, data.shape)
    mask = sample.target.mask
    data = np.where(mask[..., None], data, 0.0)
    # The one check that can fail here: the noise or the unscaling overflowed.
    if not np.isfinite(data).all():
        raise ValidationError("deformation image foreground contains non-finite values")
    return _built(DeformationImage, data, mask)


def _infer_external(spec: OracleSpec, sample: ZoomResult) -> DeformationImage:
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
