"""Per-layer timing of morphfit from outside the package.

A :class:`Tracer` replaces each traced function with a wrapper that
records a span, in every morphfit module that binds the function's name
(modules import functions by name, so patching only the defining module
would miss most calls).  Spans nest: a layer's self time is its span time
minus the time of the traced spans it calls.  Spans stay in memory as
totals; nothing is written until the run ends.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


def _splat_points(args, result):
    model = args[0]
    return {"imaging.splat_points": len(getattr(model, "points", model))}


def _written(*suffixes):
    def count(args, result):
        path = str(args[0])
        return {"io.bytes_written": sum(os.path.getsize(path + s) for s in suffixes)}
    return count


def _cpd(args, result):
    return {
        "cpd.calls": 1,
        "cpd.iterations": result.iterations,
        "cpd.capped_calls": int(not result.converged),
    }


# (module, function, self-time metric, counter or None).  Counters turn a
# call's arguments and result into counts for that layer.
TARGETS = (
    ("morphfit.cli", "main", "cli.self_ms", None),
    ("morphfit.cpd", "cpd_nonrigid", "cpd.m_step_ms", _cpd),
    ("morphfit.cpd", "e_step", "cpd.e_step_ms", None),
    ("morphfit.imaging", "splat_position_image", "imaging.splat_ms", _splat_points),
    ("morphfit.imaging", "zoom", "imaging.zoom_ms", None),
    ("morphfit.imaging", "rasterize_target", "imaging.rasterize_ms",
     lambda a, r: {"imaging.rasterize_pixels": int(r.mask.sum())}),
    ("morphfit.geometry", "gaussian_kernel", "geometry.kernel_ms",
     lambda a, r: {"geometry.kernel_entries": int(r.size)}),
    ("morphfit.geometry", "sample_mesh_surface", "geometry.sample_ms", None),
    ("morphfit.geometry", "voxel_downsample", "geometry.voxel_ms", None),
    ("morphfit.completion", "pixels_to_sparse_deltas", "completion.sparse_ms",
     lambda a, r: {"completion.visible_points": r.visible_count}),
    ("morphfit.completion", "fit_latent", "completion.fit_latent_ms", None),
    ("morphfit.completion", "reconstruct_mesh", "completion.reconstruct_ms", None),
    ("morphfit.oracle", "infer", "oracle.infer_ms", None),
    ("morphfit.dataset", "densify_mesh", "dataset.densify_ms",
     lambda a, r: {"dataset.densify_points": len(r[0])}),
    ("morphfit.dataset", "interpolate_instance", "dataset.morph_ms", None),
    ("morphfit.dataset", "target_delta", "dataset.morph_ms", None),
    ("morphfit.io", "read_ply", "io.read_ply_ms", None),
    ("morphfit.io", "write_ply", "io.write_ply_ms", _written("")),
    ("morphfit.io", "write_tensor", "io.write_tensor_ms", _written("", ".json")),
    ("morphfit.io", "write_mask", "io.write_mask_ms", _written("")),
    ("morphfit.shape_space", "load_space", "shape_space.load_ms", None),
    ("morphfit.shape_space", "save_space", "shape_space.save_ms",
     lambda a, r: {"io.bytes_written": os.path.getsize(a[1])}),
    ("morphfit.shape_space", "space_from_fields", "shape_space.pca_ms", None),
    ("morphfit.evaluation", "registration_error", "evaluation.error_ms", None),
)

SELF_METRICS = tuple(dict.fromkeys(t[2] for t in TARGETS))
COUNT_METRICS = (
    "cpd.calls", "cpd.iterations", "cpd.capped_calls", "imaging.splat_points",
    "imaging.rasterize_pixels", "geometry.kernel_entries", "completion.visible_points",
    "dataset.densify_points", "io.bytes_written",
)


class Tracer:
    """Span recorder; a context manager that installs and removes the wrappers."""

    def __init__(self):
        self.self_ms = defaultdict(float)
        self.counts = defaultdict(int)
        self.root_ms = 0.0
        self.cpd_ms = 0.0  # inclusive cpd_nonrigid time, for ms per iteration
        self._stack: list[list[float]] = []  # [start, child time] per open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, metric, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append([time.perf_counter(), 0.0])
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    for name, value in counter(args, result).items():
                        self.counts[name] += value
                return result
            finally:
                start, child = self._stack.pop()
                span = (time.perf_counter() - start) * 1e3
                self.self_ms[metric] += span - child
                if metric == "cpd.m_step_ms":
                    self.cpd_ms += span
                if self._stack:
                    self._stack[-1][1] += span
                else:
                    self.root_ms += span
        return traced

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "morphfit" or name.startswith("morphfit.")]
        for module_name, fn_name, metric, counter in TARGETS:
            original = getattr(sys.modules[module_name], fn_name)
            wrapper = self._wrap(original, metric, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def metrics(self, wall_ms: float, items: int) -> dict:
        """Per-item layer metrics; self times plus uncovered time sum to wall."""
        out = {name: self.self_ms[name] / items for name in SELF_METRICS}
        out.update({name: self.counts[name] / items for name in COUNT_METRICS})
        iterations = self.counts["cpd.iterations"]
        out["cpd.ms_per_iteration"] = self.cpd_ms / iterations if iterations else 0.0
        out["trace.uncovered_ms"] = (wall_ms - self.root_ms) / items
        out["trace.wall_ms"] = wall_ms / items
        return out
