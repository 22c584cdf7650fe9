"""Marking strategies, mask refinement, and the adaptive solve loop."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .assembly import DiffusionField, RhsField, apply_stacked, assemble_rhs
from .estimator import EstimatorField, estimate
from .field import (
    LevelMask,
    MultilevelField,
    empty_mask,
    full_mask,
    make_mask,
    zero_field,
)
from .mesh import TRI_FOOTPRINT_OFFSETS, ConfigurationError, GridHierarchy
from .solver import SolveReport, choose_omega, llmg_solve

__all__ = [
    "MARKING_STRATEGIES",
    "AfemStep",
    "mark_threshold",
    "mark_doerfler",
    "level_thresholds",
    "warn_dropped_marks",
    "refine",
    "initial_masks",
    "afem",
]

MARKING_STRATEGIES = ("doerfler", "threshold")


@dataclass
class AfemStep:
    """One adaptive pass: the iterate after its solve, on the masks that solve
    ran on, with the estimate, the marks and the solver's report.

    The marks are 0/1 uint8 images, one (2, n_k, n_k) image per level in
    the layout of `est.tri_mask`.
    """

    u: MultilevelField
    est: EstimatorField
    marks: list[np.ndarray]
    solve: SolveReport


def level_thresholds(thresholds, hierarchy: GridHierarchy) -> np.ndarray:
    """One positive threshold per level, from a scalar or a per-level sequence."""
    deltas = np.broadcast_to(np.asarray(thresholds, dtype=float), (hierarchy.levels,))
    if not np.all(deltas > 0.0):
        raise ConfigurationError("thresholds must be positive on every level")
    return deltas


def warn_dropped_marks(marks: np.ndarray, hierarchy: GridHierarchy) -> None:
    """Warn the marking function's caller of deepest-level marks (nowhere to refine)."""
    dropped = int(marks.sum())
    if dropped:
        warnings.warn(
            f"dropping {dropped} marked triangles at the deepest level "
            f"({hierarchy.levels - 1}); hierarchy depth is saturated",
            RuntimeWarning,
            stacklevel=3,
        )


def mark_threshold(est: EstimatorField, thresholds) -> list[np.ndarray]:
    """Mark every leaf triangle whose eta_T^2 exceeds its level's threshold."""
    deltas = level_thresholds(thresholds, est.hierarchy)
    return [
        ((eta2 > delta) & tri.astype(bool)).astype(np.uint8)
        for eta2, delta, tri in zip(est.eta2, deltas, est.tri_mask)
    ]


def mark_doerfler(est: EstimatorField, theta: float) -> list[np.ndarray]:
    """Greedy bulk marking: smallest prefix of leaves with sum >= theta * total.

    Leaves are sorted by eta^2 descending; ties break by (level, i1, i2, q)
    lexicographic order so the marked set is deterministic.
    """
    if not 0.0 < theta < 1.0:
        raise ConfigurationError(f"theta must lie in (0, 1), got {theta}")
    out = [np.zeros_like(tri) for tri in est.tri_mask]
    vals, levels, qs, i1s, i2s = [], [], [], [], []
    for k in range(est.hierarchy.levels):
        q_idx, a_idx, b_idx = np.nonzero(est.tri_mask[k])
        vals.append(est.eta2[k][q_idx, a_idx, b_idx])
        levels.append(np.full(q_idx.shape, k))
        qs.append(q_idx)
        i1s.append(a_idx)
        i2s.append(b_idx)
    vals = np.concatenate(vals)
    total = float(vals.sum())
    if total <= 0.0:
        return out
    levels = np.concatenate(levels)
    qs = np.concatenate(qs)
    i1s = np.concatenate(i1s)
    i2s = np.concatenate(i2s)
    order = np.lexsort((qs, i2s, i1s, levels, -vals))
    csum = np.cumsum(vals[order])
    take = int(np.searchsorted(csum, theta * total, side="left")) + 1
    for j in order[:take]:
        out[levels[j]][qs[j], i1s[j], i2s[j]] = 1
    return out


def refine(
    masks: list[LevelMask], marks: list[np.ndarray], hierarchy: GridHierarchy
) -> list[LevelMask]:
    """Grow active sets: each marked triangle activates the interior nodes of
    the next level whose hats meet it (the footprint of its four children).

    Existing active sets are preserved.  Marks at the deepest level have
    nowhere to refine into and are dropped with a warning.
    """
    if len(masks) != hierarchy.levels or len(marks) != hierarchy.levels:
        raise ConfigurationError("masks/marks do not match the hierarchy depth")
    new_active = [np.array(m.active, dtype=np.uint8) for m in masks]
    warn_dropped_marks(marks[hierarchy.levels - 1], hierarchy)
    for k in range(hierarchy.levels - 1):
        level_marks = marks[k]
        if not level_marks.any():
            continue
        m = hierarchy.n(k) - 1  # nodes with both indices < m own a T1/T2 pair
        nf = hierarchy.n(k + 1)
        add = np.zeros((nf, nf), dtype=np.uint8)
        for q in (1, 2):
            owners = level_marks[q - 1, :m, :m]
            if not owners.any():
                continue
            for d1, d2 in TRI_FOOTPRINT_OFFSETS[q]:
                add[d1 : d1 + 2 * m - 1 : 2, d2 : d2 + 2 * m - 1 : 2] |= owners
        add &= hierarchy.interior_mask(k + 1)
        new_active[k + 1] |= add
    return [make_mask(a) for a in new_active]


def initial_masks(hierarchy: GridHierarchy) -> list[LevelMask]:
    """Starting space: the full coarsest level, nothing deeper."""
    out = [full_mask(hierarchy, 0)]
    out.extend(empty_mask(hierarchy, k) for k in range(1, hierarchy.levels))
    return out


def afem(
    diffusion: DiffusionField,
    f_values: np.ndarray,
    iterations: int,
    marking: str = "doerfler",
    theta: float = 0.1,
    tol: float = 1e-10,
    max_sweeps: int = 200,
) -> list[AfemStep]:
    """Adaptive loop: `iterations` passes of solve, estimate and mark, each
    pass after the first on the masks its predecessor's marks refine.

    Runs on discrete data: the coefficient channels and the load's nodal
    values on the finest lattice of `diffusion.hierarchy`.  Spaces are
    nested, so the carried-over iterate needs no interpolation; newly
    activated nodes start at coefficient zero.  Each solve targets the
    defect equation A v = f - A u from a zero initial guess.  Returns one
    `AfemStep` per pass.  Every pass builds new value images, so the steps
    are snapshots that later passes never overwrite.  The last pass's marks
    are not refined.  Errors against a reference solve
    (`problems.relative_errors`) are the caller's, on `steps[i].u`.
    """
    if iterations < 1:
        raise ConfigurationError("iterations must be >= 1")
    if marking not in MARKING_STRATEGIES:
        raise ConfigurationError(
            f"unknown marking strategy {marking!r}; expected one of {MARKING_STRATEGIES}"
        )
    hierarchy = diffusion.hierarchy
    rhs = assemble_rhs(hierarchy, f_values)

    u = zero_field(hierarchy, initial_masks(hierarchy))
    smoother = choose_omega(diffusion, u.masks)
    steps: list[AfemStep] = []
    for _ in range(iterations):
        if steps:
            u = MultilevelField(hierarchy, u.values, refine(u.masks, marks, hierarchy))
        stacked = apply_stacked(u, diffusion)
        defect = RhsField(
            hierarchy,
            [
                (rhs.images[k] - stacked[k]) * u.masks[k].active
                for k in range(hierarchy.levels)
            ],
        )
        v, solve_report = llmg_solve(
            zero_field(hierarchy, u.masks),
            defect,
            diffusion,
            smoother,
            tol=tol,
            max_sweeps=max_sweeps,
        )
        u = MultilevelField(hierarchy, [a + b for a, b in zip(u.values, v.values)], u.masks)
        est = estimate(u, f_values, diffusion, u.masks)

        if marking == "doerfler":
            marks = mark_doerfler(est, theta)
        else:
            peak = max((float(e.max()) for e in est.eta2), default=0.0)
            marks = (
                mark_threshold(est, theta * peak)
                if peak > 0.0
                else [np.zeros_like(tri) for tri in est.tri_mask]
            )
        steps.append(AfemStep(u, est, marks, solve_report))
    return steps
