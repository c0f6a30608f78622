"""Category-level deformation modeling for household-scale 3D objects.

Pipeline: register instances to a canonical model (cpd), build a
low-dimensional shape space over the recovered fields (shape_space),
generate synthetic training imagery (imaging, dataset), and reconstruct
full object geometry from single partial views via an oracle and
least-squares completion (oracle, completion, evaluation).
"""
from .errors import (
    DatasetError,
    EmptyRenderError,
    EvaluationError,
    MorphFitError,
    NoVisiblePointsError,
    OracleError,
    RasterizeError,
    SolverError,
    SpaceFileError,
    ValidationError,
)
from .geometry import (
    CameraView,
    DeformationField,
    Mesh,
    PointCloud,
    apply_deformation,
    flatten_offsets,
    gaussian_kernel,
    look_at,
    quaternion_to_rotation,
    rotation_to_quaternion,
    sample_mesh_surface,
    unflatten_offsets,
    viewpoint_sphere,
    voxel_downsample,
)
from .cpd import CpdConfig, cpd_nonrigid
from .shape_space import (
    Registration,
    ShapeSpace,
    TrainingField,
    latent_to_field,
    load_space,
    project_field,
    relative_residual,
    save_space,
    space_from_fields,
)
from .completion import (
    CompletionResult,
    SparseDeltas,
    cross_instance_correspondence,
    fit_latent,
    nearest_canonical_points,
    pixels_to_sparse_deltas,
    reconstruct_mesh,
)
from .imaging import (
    DeformationImage,
    PositionImage,
    mask_bounding_box,
    rasterize_target,
    splat_position_image,
    target_field,
    zoom,
)
from .dataset import (
    MANIFEST_NAME,
    SAMPLE_FILES,
    CategorySpec,
    SampleRecord,
    build_category,
    generate_dataset,
    interpolate_instance,
    read_manifest,
    sample_count_formula,
    target_delta,
)
from .oracle import OracleSample, OracleSpec, infer, load_sample
from .evaluation import (
    EvalRow,
    pose_noise_experiment,
    registration_error,
    report_to_csv,
    report_to_json,
)
from .io import read_mask, read_ply, read_tensor, write_mask, write_ply, write_tensor

__version__ = "0.1.0"
