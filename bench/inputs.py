"""The benchmark's inputs: a seeded synthetic category and camera poses.

The category is a radial family on a level-3 icosphere of radius R:

    r(u) = R * (1 + A * (a1 * z + a2 * (x^2 - y^2)))

for a unit direction u = (x, y, z) and a latent code (a1, a2).  Every
instance moves the canonical vertices along the surface normal, so the
error of any reconstruction is its radial distance from this analytic
surface, computed here without the program.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

RADIUS = 0.15
AMPLITUDE = 0.25
SUBDIVISIONS = 3
TRAIN_COUNT = 6
HELD_OUT_COUNT = 6
# Cameras as the program places them: 4x the canonical bounding-box
# diagonal away, focal 275/256 of the width.
RESOLUTION = (256, 192)
FOCAL = 275.0
VIEW_DISTANCE = 4.0 * 2.0 * RADIUS * math.sqrt(3.0)


def icosphere(subdivisions: int = SUBDIVISIONS):
    """Unit icosphere as (vertices, faces), vertices on the unit sphere."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [np.array(v, float) / np.linalg.norm(v) for v in (
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    )]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(subdivisions):
        midpoints: dict = {}

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in midpoints:
                m = verts[a] + verts[b]
                verts.append(m / np.linalg.norm(m))
                midpoints[key] = len(verts) - 1
            return midpoints[key]

        next_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            next_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = next_faces
    return np.asarray(verts), np.asarray(faces, dtype=np.int64)


def _symmetries() -> np.ndarray:
    """The 12 rotations that cyclically permute the axes and flip an even number.

    Each maps the icosphere's vertex set and the voxel grid of the
    program's cloud sampling onto themselves, and changes coordinates
    without rounding.
    """
    out = []
    for shift in range(3):
        for signs in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
            out.append(np.roll(np.eye(3), shift, axis=1) * np.array(signs, float)[:, None])
    return np.asarray(out)


SYMMETRIES = _symmetries()


@dataclass(frozen=True)
class Category:
    """The category turned by one of its symmetries, drawn from the seed.

    Shapes are the same for every seed.  CPD's iteration count is chaotic
    in the sampled clouds, so a seed that moved the latent codes moved
    timings between seeds by more than a regression bound can allow (see
    README.md).  Turning the whole category leaves each registration the
    same problem, while the program's own cameras (evaluate, gen-dataset)
    see it from other sides.
    """

    orientation: np.ndarray  # (3, 3) signed permutation applied to every mesh

    @staticmethod
    def from_seed(seed: int) -> "Category":
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 20080720]))
        return Category(SYMMETRIES[rng.integers(len(SYMMETRIES))])

    def surface_radius(self, directions: np.ndarray, latent) -> np.ndarray:
        """Analytic radius of the instance with ``latent`` along unit directions."""
        x, y, z = (np.asarray(directions, float) @ self.orientation).T
        return RADIUS * (1.0 + AMPLITUDE * (latent[0] * z + latent[1] * (x * x - y * y)))

    def radial_offsets(self, points: np.ndarray, latent) -> np.ndarray:
        """Signed radial distance (m) of each point from an instance's surface."""
        norms = np.linalg.norm(points, axis=1)
        return norms - self.surface_radius(points / norms[:, None], latent)

    def surface_error(self, points: np.ndarray, latent) -> float:
        """Mean squared radial distance (m^2) of points from an instance's surface."""
        return float(np.mean(self.radial_offsets(points, latent) ** 2))

    def mesh(self, latent=None) -> tuple[np.ndarray, np.ndarray]:
        """Canonical mesh (``latent`` None) or an instance, oriented."""
        unit, faces = icosphere()
        unit = unit @ self.orientation.T
        radius = RADIUS if latent is None else self.surface_radius(unit, latent)[:, None]
        return unit * radius, faces


def _ring_latents():
    theta = 2.0 * math.pi * np.arange(TRAIN_COUNT) / TRAIN_COUNT
    ring = np.where(np.arange(TRAIN_COUNT) % 2 == 0, 1.0, 0.6)
    train = ring[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    between = theta + math.pi / TRAIN_COUNT
    held = 0.8 * np.stack([np.cos(between), np.sin(between)], axis=1)
    return train, held[:HELD_OUT_COUNT]


# Training codes on two rings, held-out codes between them inside their span.
TRAIN_LATENTS, HELD_OUT_LATENTS = _ring_latents()


def write_ply(path, vertices: np.ndarray, faces: np.ndarray) -> None:
    lines = [
        "ply", "format ascii 1.0", f"element vertex {len(vertices)}",
        "property float x", "property float y", "property float z",
        f"element face {len(faces)}", "property list uchar int vertex_indices",
        "end_header",
    ]
    lines += [f"{v[0]:.9g} {v[1]:.9g} {v[2]:.9g}" for v in vertices]
    lines += [f"3 {f[0]} {f[1]} {f[2]}" for f in faces]
    Path(path).write_text("\n".join(lines) + "\n")


def write_category(category: Category, root) -> dict:
    """Write the canonical, training and held-out meshes; return their paths."""
    root = Path(root)
    paths = {"canonical": root / "canonical.ply", "train": root / "train",
             "held_out": root / "held_out"}
    paths["train"].mkdir(parents=True)
    paths["held_out"].mkdir()
    write_ply(paths["canonical"], *category.mesh())
    for index, latent in enumerate(TRAIN_LATENTS):
        write_ply(paths["train"] / f"inst_{index:02d}.ply", *category.mesh(latent))
    for index, latent in enumerate(HELD_OUT_LATENTS):
        write_ply(paths["held_out"] / f"held_{index:02d}.ply", *category.mesh(latent))
    return paths


def write_pose(path, direction, orientation) -> None:
    """A camera looking at the origin, in the manifest's pose form.

    The camera sits on ``direction`` of the category's own frame and turns
    with the category's ``orientation``, so it sees the same view of the
    category in every orientation.  The quaternion (w, x, y, z) and the
    translation are the world-to-camera rotation and translation; the
    camera looks along +z, x right, y down.
    """
    forward = -np.asarray(direction, float) / np.linalg.norm(direction)
    up = np.array([0.0, 0.0, 1.0]) - forward[2] * forward
    down = -up / np.linalg.norm(up)
    rotation = np.stack([np.cross(down, forward), down, forward])
    eye = -VIEW_DISTANCE * forward
    # Turning the scene by g turns the camera to g @ eye with rotation
    # R @ g.T; the translation -R @ eye stays as it is.
    x, y, z, w = Rotation.from_matrix(rotation @ orientation.T).as_quat()
    pose = {
        "quaternion": [w, x, y, z],
        "translation": (-rotation @ eye).tolist(),
        "focal": [FOCAL, FOCAL],
        "principal_point": [RESOLUTION[0] / 2.0, RESOLUTION[1] / 2.0],
        "resolution": list(RESOLUTION),
    }
    Path(path).write_text(json.dumps(pose) + "\n")


def pose_directions(count: int) -> np.ndarray:
    """``count`` directions spread over the sphere, none on the z axis."""
    z = 1.0 - 2.0 * (np.arange(count) + 0.5) / count
    azimuth = np.arange(count) * math.pi * (3.0 - math.sqrt(5.0))
    ring = np.sqrt(1.0 - z * z)
    return np.stack([ring * np.cos(azimuth), ring * np.sin(azimuth), z], axis=1)
