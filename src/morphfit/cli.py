"""Command-line entry points.

Subcommands: build-space, gen-dataset, register, evaluate,
pose-noise-eval, cross-register.  Validation reports every problem at
once and exits 2; runtime failures exit 1 with a structured message;
successful runs leave their declared outputs and exit 0.  Output locations
are checked with the arguments, and every command writes all of its outputs or
none (:func:`morphfit.io.commit`), so failed runs leave only ``.partial`` files;
gen-dataset's sample files stay, and its manifest is the run's record.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .completion import cross_instance_correspondence, reconstruct_mesh
from .cpd import CpdConfig
from .dataset import default_cloud_leaf, generate_dataset, mesh_cloud, register_instances
from .errors import MorphFitError, ValidationError
from .evaluation import (
    DEFAULT_CONDITIONS,
    POSE_NOISE_CONDITIONS,
    complete_view,
    pose_noise_experiment,
    prepare_instance,
    registration_error,
    report_to_csv,
    report_to_json,
)
from .geometry import MAX_PIXELS, CameraView, quaternion_to_rotation, viewpoint_sphere
from .imaging import splat_position_image, target_field
from .io import commit, read_ply, write_ply
from .oracle import OracleSpec
from .shape_space import Registration, load_space, save_space, space_from_fields

DEFAULT_RESOLUTION = (256, 192)
# Horizontal field of view of roughly 50 degrees at the default width.
FOCAL_PER_WIDTH = 275.0 / 256.0


def _parse_resolution(text: str):
    try:
        w, h = text.lower().split("x")
        return (int(w), int(h))
    except ValueError:
        raise argparse.ArgumentTypeError(f"resolution must look like 256x192, got {text!r}")


def _parse_floats(text: str):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _latent_arg(text: str):
    if text.startswith("@"):
        try:
            latent = np.asarray(json.loads(Path(text[1:]).read_text())["latent"], dtype=np.float64)
        except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
            raise argparse.ArgumentTypeError(
                f"cannot read a latent code from {text[1:]!r}: {type(exc).__name__}: {exc}"
            )
        if latent.ndim != 1:
            raise argparse.ArgumentTypeError(f"'latent' in {text[1:]!r} is not a list of numbers")
    else:
        latent = np.asarray(_parse_floats(text), dtype=np.float64)
    if not np.all(np.isfinite(latent)):
        raise argparse.ArgumentTypeError(f"latent code {text!r} has non-finite entries")
    return latent


def _add_pipeline_flags(p) -> None:
    """Flags of the single-view pipeline: register, evaluate, pose-noise-eval."""
    p.add_argument("--space", required=True)
    p.add_argument("--canonical", required=True, help="canonical mesh (PLY)")
    p.add_argument("--oracle", default="gt", help="gt | noisy | external")
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--oracle-cmd", default="", help="command for the external oracle")
    p.add_argument("--res", type=_parse_resolution, default=DEFAULT_RESOLUTION)
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--splat-radius", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphfit",
        description="Category-level deformation spaces, synthetic datasets, and completion.",
    )
    parser.add_argument("--seed", type=int, default=0, help="run seed (>= 0) for all stochastic steps")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="parallelism bound, >= 1 (execution is currently sequential)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-space", help="register instances and build a shape space")
    p.add_argument("--canonical", required=True, help="canonical mesh (PLY)")
    p.add_argument("--instances", required=True, help="directory of instance PLY meshes")
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--lambda", dest="regularization", type=float, default=2.0)
    p.add_argument("--outlier-weight", type=float, default=0.0)
    p.add_argument("--latent", type=int, default=5)
    p.add_argument("--cloud-leaf", type=float, default=None, help="voxel size for cloud derivation (m)")
    p.add_argument("--dense-count", type=int, default=8192)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_build_space)

    p = sub.add_parser("gen-dataset", help="generate the training corpus")
    p.add_argument("--space", required=True)
    p.add_argument("--canonical", required=True, help="canonical mesh (PLY), for rendering")
    p.add_argument("--models", required=True, help="directory of training instance PLY meshes")
    p.add_argument("--rhos", type=_parse_floats, default=[0.0, 0.25, 0.5, 0.75])
    p.add_argument("--views", type=int, default=74)
    p.add_argument("--view-radius", type=float, default=None, help="camera distance (m); default 4x canonical extent")
    p.add_argument("--res", type=_parse_resolution, default=DEFAULT_RESOLUTION)
    p.add_argument("--scale", type=float, default=1000.0, help="target export scale factor")
    p.add_argument("--split", type=float, default=0.9, help="train fraction for the split tag")
    p.add_argument("--splat-radius", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_gen_dataset)

    p = sub.add_parser("register", help="single-view completion of an observed mesh")
    _add_pipeline_flags(p)
    p.add_argument("--observed", required=True, help="observed instance mesh (PLY)")
    p.add_argument("--pose", required=True,
                   help="camera pose JSON: world-to-camera quaternion (wxyz) and translation")
    p.add_argument("--out", required=True, help="reconstructed mesh (PLY)")
    p.set_defaults(run=_cmd_register)

    for name, extra in (("evaluate", False), ("pose-noise-eval", True)):
        p = sub.add_parser(name, help="viewpoint sweep" + (" under pose noise" if extra else ""))
        _add_pipeline_flags(p)
        p.add_argument("--instance", required=True, help="held-out instance mesh (PLY)")
        p.add_argument("--views", type=int, default=74)
        p.add_argument("--view-radius", type=float, default=None)
        p.add_argument("--display-scale", type=float, default=1.0,
                       help="multiply reported errors (1e6 echoes micro-scaled tables)")
        p.add_argument("--out", required=True, help="CSV report path")
        p.add_argument("--json", default=None, help="optional JSON report path")
        p.set_defaults(run=_cmd_evaluate)
        if extra:
            p.add_argument("--noise-range", type=float, default=0.05)
            p.add_argument("--draws", type=int, default=5)

    p = sub.add_parser("cross-register", help="correspond two latent codes through the canonical model")
    p.add_argument("--space", required=True)
    p.add_argument("--latent-a", type=_latent_arg, required=True,
                   help="comma-separated floats or @completion.json")
    p.add_argument("--latent-b", type=_latent_arg, required=True)
    p.add_argument("--out", required=True, help="output prefix; writes <out>_a.ply and <out>_b.ply")
    p.set_defaults(run=_cmd_cross_register)
    return parser


# ---------------------------------------------------------------------------
# Validation: every violation reported, not just the first.

def validate_config(args) -> list[str]:
    problems: list[str] = []

    def check_file(attr, label):
        path = getattr(args, attr, None)
        if path is not None and not Path(path).is_file():
            problems.append(f"{label} {path!r} is not a readable file")

    # A flag the command lacks reads None, as does an unset --view-radius.
    def check_positive(attr, label, why=""):
        value = getattr(args, attr, None)
        if value is not None and not (np.isfinite(value) and value > 0):
            problems.append(f"{label} must be > 0{why}, got {value}")

    def check_nonnegative(attr, label):
        value = getattr(args, attr, None)
        if value is not None and not (np.isfinite(value) and value >= 0):
            problems.append(f"{label} must be >= 0, got {value}")

    if args.seed < 0:
        problems.append(f"--seed must be >= 0, got {args.seed}")
    if args.jobs < 1:
        problems.append(f"--jobs must be >= 1, got {args.jobs}")
    res = getattr(args, "res", None)
    if res is not None and min(res) < 1:
        problems.append(f"--res sides must be >= 1, got {res[0]}x{res[1]}")
    elif res is not None and res[0] * res[1] > MAX_PIXELS:
        problems.append(f"--res {res[0]}x{res[1]} exceeds the {MAX_PIXELS}-pixel limit")
    check_nonnegative("splat_radius", "--splat-radius")
    check_positive("view_radius", "--view-radius")
    check_positive("display_scale", "--display-scale")
    check_nonnegative("noise_sigma", "--noise-sigma")
    check_nonnegative("ridge", "--ridge")
    check_nonnegative("noise_range", "--noise-range")
    problems += _output_problems(args)

    if args.command == "build-space":
        check_file("canonical", "--canonical")
        invariants = " (kernel width and regularization invariants)"
        check_positive("beta", "--beta", invariants)
        check_positive("regularization", "--lambda", invariants)
        if not (0.0 <= args.outlier_weight < 1.0):
            problems.append(f"--outlier-weight must be in [0, 1), got {args.outlier_weight}")
        if args.latent < 1:
            problems.append(f"--latent must be >= 1, got {args.latent}")
        check_positive("cloud_leaf", "--cloud-leaf")
        if args.dense_count < 1:
            problems.append(f"--dense-count must be >= 1, got {args.dense_count}")
        instances = _list_meshes(args.instances)
        if instances is None:
            problems.append(f"--instances {args.instances!r} is not a directory")
        else:
            if len(instances) < 2:
                problems.append(
                    f"--instances holds {len(instances)} PLY meshes; shape-space construction needs >= 2"
                )
            elif args.latent > len(instances) - 1:
                problems.append(
                    f"--latent {args.latent} exceeds #instances - 1 = {len(instances) - 1}"
                )
    elif args.command == "gen-dataset":
        check_file("space", "--space")
        check_file("canonical", "--canonical")
        check_positive("scale", "--scale")
        models = _list_meshes(args.models)
        if models is None:
            problems.append(f"--models {args.models!r} is not a directory")
        elif not models:
            problems.append(f"--models {args.models!r} contains no PLY meshes")
        for rho in args.rhos:
            if not (0.0 <= rho <= 1.0):
                problems.append(f"--rhos entries must be in [0, 1], got {rho}")
        if not args.rhos:
            problems.append("--rhos must list at least one value")
        if args.views < 1:
            problems.append(f"--views must be >= 1, got {args.views}")
        if not (0.0 < args.split <= 1.0):
            problems.append(f"--split must be in (0, 1], got {args.split}")
    elif args.command in ("register", "evaluate", "pose-noise-eval"):
        for attr in ("space", "canonical", "observed", "pose", "instance"):
            check_file(attr, "--" + attr)
        if args.oracle not in ("gt", "noisy", "external"):
            problems.append(f"--oracle must be gt, noisy, or external, got {args.oracle!r}")
        if args.oracle == "external" and not args.oracle_cmd.strip():
            problems.append("--oracle external requires --oracle-cmd")
        if args.command != "register" and args.views < 1:
            problems.append(f"--views must be >= 1, got {args.views}")
        if args.command == "pose-noise-eval" and args.draws < 1:
            problems.append(f"--draws must be >= 1, got {args.draws}")
    elif args.command == "cross-register":
        check_file("space", "--space")
        if args.latent_a.shape != args.latent_b.shape:
            problems.append(
                f"latent dimensions differ: {args.latent_a.shape[0]} vs {args.latent_b.shape[0]}"
            )
    return problems


def _outputs(args) -> list[Path]:
    """The files a command other than gen-dataset writes, in the order it writes them."""
    out = Path(args.out)
    if args.command == "register":
        return [out, out.parent / (out.stem + ".latent.json")]
    if args.command == "cross-register":
        return [Path(f"{out}_a.ply"), Path(f"{out}_b.ply")]
    return [out] + ([Path(args.json)] if getattr(args, "json", None) else [])


def _output_problems(args) -> list[str]:
    """Output locations that cannot take a command's outputs."""
    out, report = Path(args.out), getattr(args, "json", None)
    if args.command == "gen-dataset":  # it makes the missing directories
        existing = next(path for path in (out, *out.parents) if path.exists())
        taken = not existing.is_dir()
        return [f"--out {args.out!r}: {str(existing)!r} is not a directory"] if taken else []
    problems = [f"{flag} {value!r}: {str(Path(value).parent)!r} is not an existing directory"
                for flag, value in (("--out", args.out), ("--json", report))
                if value is not None and not Path(value).parent.is_dir()]
    problems += [f"output {str(path)!r} is a directory" for path in _outputs(args) if path.is_dir()]
    if report and Path(report).resolve() == out.resolve():
        problems.append(f"--json {report!r} names the --out file")
    return problems


def _list_meshes(directory):
    path = Path(directory)
    if not path.is_dir():
        return None
    return sorted(path.glob("*.ply"))


def _oracle_spec(args) -> OracleSpec:
    kind = {"gt": "ground_truth", "noisy": "noisy", "external": "external"}[args.oracle]
    return OracleSpec(kind, noise_sigma=args.noise_sigma, command=args.oracle_cmd)


# ---------------------------------------------------------------------------
# Command bodies.

def _load_camera(pose_path, resolution):
    """Camera of a pose file: world-to-camera ``x_cam = R x_world + t``."""
    try:
        payload = json.loads(Path(pose_path).read_text())
        rotation = quaternion_to_rotation(payload["quaternion"])
        resolution = tuple(payload.get("resolution", resolution))
        width = resolution[0]
        focal = tuple(payload.get("focal", (FOCAL_PER_WIDTH * width, FOCAL_PER_WIDTH * width)))
        return CameraView(rotation, payload["translation"], focal=focal,
                          principal_point=payload.get("principal_point"), resolution=resolution)
    except KeyError as exc:
        raise ValidationError(f"pose file {pose_path} missing field {exc}") from exc
    except (OSError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ValidationError(f"pose file {pose_path} is not a valid pose: {exc}") from exc


def _views_for(args, canonical_mesh):
    radius = args.view_radius
    if radius is None:
        radius = 4.0 * float(np.linalg.norm(np.ptp(canonical_mesh.vertices, axis=0)))
    width = args.res[0]
    focal = (FOCAL_PER_WIDTH * width, FOCAL_PER_WIDTH * width)
    return viewpoint_sphere(args.views, radius, focal=focal, resolution=args.res)


def _observed_cloud(space, mesh, seed):
    """The observed instance's cloud by the space's recipe; errors are measured on it."""
    return mesh_cloud(mesh, space.registration, seed, 9)


def _cmd_build_space(args) -> int:
    canonical_mesh = read_ply(args.canonical)
    instance_paths = _list_meshes(args.instances)
    leaf = default_cloud_leaf(canonical_mesh) if args.cloud_leaf is None else args.cloud_leaf
    cpd = CpdConfig(args.beta, args.regularization, args.outlier_weight)
    registration = Registration(cpd, leaf, args.dense_count)
    canonical_cloud = mesh_cloud(canonical_mesh, registration, args.seed, 0)
    trained = register_instances(
        canonical_cloud, [read_ply(p) for p in instance_paths], registration, seed=args.seed
    )
    space = dataclasses.replace(
        space_from_fields(canonical_cloud, [t.field for t in trained], args.beta, args.latent,
                          registration),
        fields=trained,
    )
    commit({args.out: lambda p: save_space(space, p)})
    print(
        f"built shape space: {len(trained)} instances, "
        f"{len(space.canonical)} canonical points, latent dim {space.latent_dim} -> {args.out}"
    )
    return 0


def _cmd_gen_dataset(args) -> int:
    space = load_space(args.space)
    canonical_mesh = read_ply(args.canonical)
    meshes = [read_ply(p) for p in _list_meshes(args.models)]
    trained = register_instances(space.canonical, meshes, space.registration, seed=args.seed,
                                 stored=space.fields)
    views = _views_for(args, canonical_mesh)
    records = generate_dataset(
        canonical_mesh, meshes, [t.field for t in trained], views, args.rhos, args.out,
        zoom_resolution=args.res, export_scale=args.scale, seed=args.seed,
        split_fraction=args.split, splat_radius=args.splat_radius,
    )
    ok = sum(1 for r in records if r.status == "ok")
    print(f"dataset: {ok}/{len(records)} samples exported to {args.out}")
    return 0


def _cmd_register(args) -> int:
    space = load_space(args.space)
    canonical_mesh = read_ply(args.canonical)
    observed_mesh = read_ply(args.observed)
    view = _load_camera(args.pose, args.res)
    oracle_spec = _oracle_spec(args)
    observed_cloud = _observed_cloud(space, observed_mesh, args.seed)
    canonical_dense, observed_dense, delta_true = prepare_instance(
        space, observed_mesh, observed_cloud, [view], oracle_spec, canonical_mesh,
        instance_label=Path(args.observed).stem, seed=args.seed,
    )
    true_field = target_field(space.canonical, delta_true)
    observed_img = splat_position_image(observed_dense, view, args.splat_radius)
    result = complete_view(
        space, canonical_dense, observed_img, view, true_field, oracle_spec,
        zoom_resolution=args.res, splat_radius=args.splat_radius,
        oracle_seed=args.seed, ridge=args.ridge,
    )
    mesh_out = reconstruct_mesh(result, canonical_mesh)
    mesh_path, latent_path = _outputs(args)
    latent = {"latent": result.latent.tolist(), "residual": result.residual,
              "degenerate": result.degenerate}
    commit({mesh_path: lambda p: write_ply(p, mesh_out),
            latent_path: lambda p: p.write_text(json.dumps(latent, indent=2) + "\n")})

    err_recon = registration_error(observed_cloud, mesh_out.vertices)
    err_canon = registration_error(observed_cloud, canonical_mesh.vertices)
    print(f"reconstruction error {err_recon:.3e} m^2 vs canonical baseline {err_canon:.3e} m^2")
    print(f"wrote {args.out} and {latent_path}")
    return 0


def _cmd_evaluate(args) -> int:
    with_noise = args.command == "pose-noise-eval"
    space = load_space(args.space)
    canonical_mesh = read_ply(args.canonical)
    instance_mesh = read_ply(args.instance)
    instance_cloud = _observed_cloud(space, instance_mesh, args.seed)
    views = _views_for(args, canonical_mesh)
    rows = pose_noise_experiment(
        space, instance_mesh, instance_cloud, views, _oracle_spec(args), canonical_mesh,
        args.noise_range if with_noise else 0.0,
        draws=args.draws if with_noise else 1,
        conditions=POSE_NOISE_CONDITIONS if with_noise else DEFAULT_CONDITIONS,
        instance_label=Path(args.instance).stem, zoom_resolution=args.res,
        splat_radius=args.splat_radius, seed=args.seed, ridge=args.ridge,
    )
    # Without --json, _outputs names the CSV alone and zip drops the JSON writer.
    commit(dict(zip(_outputs(args), (lambda p: report_to_csv(rows, p, args.display_scale),
                                     lambda p: report_to_json(rows, p, args.display_scale)))))
    for row in rows:
        flag = "  [FLAGGED: >5% views failed]" if row.flagged else ""
        print(
            f"{row.instance} {row.condition}: mean {row.mean * args.display_scale:.6g} "
            f"std {row.std * args.display_scale:.6g} over {row.n_views} views{flag}"
        )
    return 0


def _cmd_cross_register(args) -> int:
    space = load_space(args.space)
    cloud_a, cloud_b = cross_instance_correspondence(space, args.latent_a, args.latent_b)
    path_a, path_b = _outputs(args)
    commit({path_a: lambda p: write_ply(p, cloud_a), path_b: lambda p: write_ply(p, cloud_b)})
    print(f"wrote {path_a} and {path_b} ({len(cloud_a)} corresponding points)")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    problems = validate_config(args)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        return args.run(args)
    except MorphFitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
