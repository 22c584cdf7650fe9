"""Parametric diffusion problems on the unit square and sampling utilities.

The cookie problem: kappa(x, y) = 0.1 + y1 * chi_D1(x) + y2 * chi_D2(x) with
two closed disks of radius 0.15 centered at (0.75, 0.25) and (0.75, 0.75),
parameters y drawn uniformly from [0, 1]^2, and constant load f = 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .assembly import RhsField, assemble_rhs, compute_upsilon, h1_seminorm, l2_norm
from .field import MultilevelField, flatten_to_finest, full_mask, prolongate_uniform
from .mesh import ConfigurationError, GridHierarchy, build_hierarchy
from .solver import reference_solve

__all__ = [
    "CookieProblem",
    "SampleRng",
    "kappa_at",
    "discretize_kappa",
    "load_image",
    "overkill_reference",
    "reference_nodes_per_side",
    "reference_error",
    "relative_errors",
    "problem_rhs",
]


def _finite(value) -> bool:
    """A real number (not a bool) that is neither infinite nor NaN."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class CookieProblem:
    """Coefficient base + sum_i y_i * chi_{D_i} on closed discs of one radius, constant load.

    Construction rejects what the model cannot solve: `base` must be a finite
    number > 0, `radius` a finite number >= 0, `load` finite, and every
    centre a pair of finite numbers.  Numbers are stored as floats and the
    centres as a tuple of pairs.
    """

    base: float = 0.1
    centers: tuple[tuple[float, float], ...] = ((0.75, 0.25), (0.75, 0.75))
    radius: float = 0.15
    load: float = 1.0

    def __post_init__(self):
        base, radius, load = self.base, self.radius, self.load
        if not (_finite(base) and base > 0.0):
            raise ConfigurationError(f"problem.base must be a finite number > 0, got {base!r}")
        if not (_finite(radius) and radius >= 0.0):
            raise ConfigurationError(f"problem.radius must be a finite number >= 0, got {radius!r}")
        if not _finite(load):
            raise ConfigurationError(f"problem.load must be a finite number, got {load!r}")
        try:
            centers = tuple(tuple(c) for c in self.centers)
        except TypeError:
            centers = None
        if centers is None or not all(len(c) == 2 and all(map(_finite, c)) for c in centers):
            raise ConfigurationError(
                "problem.centers must be a list of [x, y] pairs of finite numbers, "
                f"got {self.centers!r}"
            )
        for name in ("base", "radius", "load"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "centers", tuple((float(x), float(y)) for x, y in centers))


@dataclass(frozen=True)
class SampleRng:
    """Counter-based per-sample random streams.

    Sample index i always sees the same stream for a given seed, regardless
    of how samples are batched over workers.
    """

    seed: int

    def sample_generator(self, index: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(index,))
        return np.random.Generator(np.random.Philox(ss))


def kappa_at(problem: CookieProblem, y, x) -> np.ndarray:
    """Coefficient value at point(s) x for parameters y, one per disc.

    x has shape (..., 2); disks are closed, so points exactly on a circle
    count as inside.
    """
    if len(y) != len(problem.centers):
        raise ConfigurationError(f"{len(y)} parameters for {len(problem.centers)} discs")
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    out = np.full(pts.shape[:-1], problem.base)
    # A few ulps of slack keep the closed-disk convention observable at
    # representable boundary points like 0.75 + 0.15; no lattice node can
    # land exactly on a circle (r^2 = 9/400 is not dyadic), so the slack
    # never flips an interpolation node.
    r2 = problem.radius**2 * (1.0 + 4.0 * np.finfo(float).eps)
    for weight, center in zip(y, problem.centers):
        d2 = (pts[..., 0] - center[0]) ** 2 + (pts[..., 1] - center[1]) ** 2
        out = out + weight * (d2 <= r2)
    return float(out[0]) if scalar else out


def discretize_kappa(problem: CookieProblem, y, hierarchy: GridHierarchy) -> np.ndarray:
    """Nodal interpolant of kappa(., y) on the finest lattice."""
    coords = hierarchy.node_coords(hierarchy.levels - 1)
    return kappa_at(problem, y, coords)


def load_image(problem: CookieProblem, hierarchy: GridHierarchy) -> np.ndarray:
    """Nodal values of the (constant) load on the finest lattice."""
    n = hierarchy.n(hierarchy.levels - 1)
    return np.full((n, n), problem.load)


def reference_nodes_per_side(hierarchy: GridHierarchy) -> int:
    """Side of the overkill reference lattice: the finest lattice refined uniformly twice."""
    return 4 * (hierarchy.n(hierarchy.levels - 1) - 1) + 1


def overkill_reference(
    problem: CookieProblem,
    y,
    hierarchy: GridHierarchy,
) -> tuple[np.ndarray, GridHierarchy]:
    """Galerkin solve on the finest lattice refined uniformly twice (error oracle).

    The coefficient is re-discretized on the refined lattice, so the
    reference carries its own (smaller) data error.  Returns the solution
    image and the single-level hierarchy it lives on.
    """
    ref_hier = build_hierarchy(reference_nodes_per_side(hierarchy), 1)
    kappa_ref = discretize_kappa(problem, y, ref_hier)
    diffusion_ref = compute_upsilon(ref_hier, kappa_ref)
    rhs_ref = assemble_rhs(ref_hier, load_image(problem, ref_hier))
    u_ref = reference_solve([full_mask(ref_hier, 0)], diffusion_ref, rhs_ref)
    return u_ref.values[0], ref_hier


def reference_error(u: MultilevelField, ref_image: np.ndarray) -> np.ndarray:
    """ref_image minus u interpolated onto its lattice, a uniform refinement of u's finest."""
    lifted = flatten_to_finest(u)
    while lifted.shape[0] < ref_image.shape[0]:
        lifted = prolongate_uniform(lifted)
    if lifted.shape != ref_image.shape:
        raise ValueError("reference image is not a uniform refinement of the solution lattice")
    return ref_image - lifted


def relative_errors(u: MultilevelField, ref_image: np.ndarray, ref_hier: GridHierarchy):
    """Relative (H1 seminorm, L2 norm) errors of u against a reference solve (0 if it is 0)."""
    err = reference_error(u, ref_image)
    h = ref_hier.h(0)
    ref_h1, ref_l2 = h1_seminorm(ref_image), l2_norm(ref_image, h)
    return (
        h1_seminorm(err) / ref_h1 if ref_h1 > 0.0 else 0.0,
        l2_norm(err, h) / ref_l2 if ref_l2 > 0.0 else 0.0,
    )


def problem_rhs(problem: CookieProblem, hierarchy: GridHierarchy) -> RhsField:
    """Restricted load vectors for the problem's constant f."""
    return assemble_rhs(hierarchy, load_image(problem, hierarchy))
