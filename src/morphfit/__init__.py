"""Category-level deformation modeling for household-scale 3D objects.

Pipeline: register instances to a canonical model (cpd), build a
low-dimensional shape space over the recovered fields (shape_space),
generate synthetic training imagery (imaging, dataset), and reconstruct
full object geometry from single partial views via an oracle and
least-squares completion (oracle, completion, evaluation).

The names below resolve on first use (PEP 562), so ``import morphfit``
loads no numpy: the command-line entry point must set the BLAS thread
count before numpy loads.
"""
import importlib

_EXPORTS = {
    "errors": (
        "DatasetError", "EmptyRenderError", "EvaluationError", "MorphFitError",
        "NoVisiblePointsError", "OracleError", "RasterizeError", "SolverError",
        "SpaceFileError", "ValidationError",
    ),
    "geometry": (
        "CameraView", "DeformationField", "Mesh", "PointCloud", "apply_deformation",
        "flatten_offsets", "gaussian_kernel", "look_at", "quaternion_to_rotation",
        "rotation_to_quaternion", "sample_mesh_surface", "unflatten_offsets",
        "viewpoint_sphere", "voxel_downsample",
    ),
    "cpd": ("CpdConfig", "cpd_nonrigid"),
    "shape_space": (
        "Registration", "ShapeSpace", "TrainingField", "latent_to_field", "load_space",
        "project_field", "relative_residual", "save_space", "space_from_fields",
    ),
    "completion": (
        "CompletionResult", "SparseDeltas", "cross_instance_correspondence", "fit_latent",
        "nearest_canonical_points", "pixels_to_sparse_deltas", "reconstruct_mesh",
    ),
    "imaging": (
        "DeformationImage", "PositionImage", "mask_bounding_box", "rasterize_target",
        "splat_position_image", "target_field", "zoom",
    ),
    "dataset": (
        "MANIFEST_NAME", "SAMPLE_FILES", "SampleRecord", "generate_dataset",
        "interpolate_instance", "read_manifest", "sample_count_formula", "target_delta",
    ),
    "oracle": ("OracleSpec", "infer", "load_sample"),
    "evaluation": (
        "EvalRow", "pose_noise_experiment", "registration_error", "report_to_csv",
        "report_to_json",
    ),
    "io": ("read_mask", "read_ply", "read_tensor", "write_mask", "write_ply", "write_tensor"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
