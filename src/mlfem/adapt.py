"""Marking strategies, mask refinement, and the adaptive solve loop."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .assembly import apply_stacked, compute_upsilon
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
from .problems import discretize_kappa, load_image, problem_rhs
from .solver import RhsField, choose_omega, llmg_solve

MARKING_STRATEGIES = ("doerfler", "threshold")


@dataclass
class MarkSet:
    """Per-level 0/1 triangle marks, shape (2, n_k, n_k) each."""

    hierarchy: GridHierarchy
    marks: list[np.ndarray]

    def count(self) -> int:
        return int(sum(int(m.sum()) for m in self.marks))


def empty_marks(hierarchy: GridHierarchy) -> MarkSet:
    marks = [
        np.zeros((2, hierarchy.n(k), hierarchy.n(k)), dtype=np.uint8)
        for k in range(hierarchy.levels)
    ]
    return MarkSet(hierarchy, marks)


@dataclass
class AfemReport:
    """Per-iteration diagnostics of an adaptive run (parallel lists)."""

    dofs: list[int] = field(default_factory=list)
    eta2_total: list[float] = field(default_factory=list)
    marked: list[int] = field(default_factory=list)
    sweeps: list[int] = field(default_factory=list)
    solver_statuses: list[str] = field(default_factory=list)
    converged: bool = True

    @property
    def iterations(self) -> int:
        return len(self.dofs)


def mark_threshold(est: EstimatorField, thresholds) -> MarkSet:
    """Mark every leaf triangle whose eta_T^2 exceeds its level's threshold."""
    hier = est.hierarchy
    deltas = np.broadcast_to(np.asarray(thresholds, dtype=float), (hier.levels,))
    if not np.all(deltas > 0.0):
        raise ConfigurationError("thresholds must be positive on every level")
    marks = []
    for k in range(hier.levels):
        hit = (est.eta2[k] > deltas[k]) & est.tri_mask[k].astype(bool)
        marks.append(hit.astype(np.uint8))
    return MarkSet(hier, marks)


def mark_doerfler(est: EstimatorField, theta: float) -> MarkSet:
    """Greedy bulk marking: smallest prefix of leaves with sum >= theta * total.

    Leaves are sorted by eta^2 descending; ties break by (level, i1, i2, q)
    lexicographic order so the marked set is deterministic.
    """
    if not 0.0 < theta < 1.0:
        raise ConfigurationError(f"theta must lie in (0, 1), got {theta}")
    hier = est.hierarchy
    out = empty_marks(hier)
    vals, levels, qs, i1s, i2s = [], [], [], [], []
    for k in range(hier.levels):
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
        out.marks[levels[j]][qs[j], i1s[j], i2s[j]] = 1
    return out


def refine(masks: list[LevelMask], marks: MarkSet, hierarchy: GridHierarchy) -> list[LevelMask]:
    """Grow active sets: each marked triangle activates the interior nodes of
    the next level whose hats meet it (the footprint of its four children).

    Existing active sets are preserved; closures are recomputed.  Marks at the
    deepest level have nowhere to refine into and are dropped with a warning.
    """
    if len(masks) != hierarchy.levels or len(marks.marks) != hierarchy.levels:
        raise ConfigurationError("masks/marks do not match the hierarchy depth")
    new_active = [np.array(m.active, dtype=np.uint8) for m in masks]
    saturated = int(marks.marks[hierarchy.levels - 1].sum())
    if saturated:
        warnings.warn(
            f"dropping {saturated} marked triangles at the deepest level "
            f"({hierarchy.levels - 1}); hierarchy depth is saturated",
            RuntimeWarning,
            stacklevel=2,
        )
    for k in range(hierarchy.levels - 1):
        level_marks = marks.marks[k]
        if not level_marks.any():
            continue
        m = hierarchy.owner_limit(k)
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
    problem,
    y,
    hierarchy: GridHierarchy,
    iterations: int,
    marking: str = "doerfler",
    theta: float = 0.1,
    tol: float = 1e-10,
    max_sweeps: int = 200,
    observer=None,
) -> tuple[MultilevelField, EstimatorField, AfemReport]:
    """Adaptive loop: solve, estimate, mark, refine, `iterations` times.

    Spaces are nested, so the carried-over iterate needs no interpolation;
    newly activated nodes start at coefficient zero.  Each solve targets the
    defect equation A v = f - A u from a zero initial guess.  Errors against a
    reference solve (`problems.relative_errors`) are the caller's, via `observer`.

    `observer(it, u, est, marks)`, when given, runs once per iteration after
    the report row is appended and before the masks are refined.  Callers
    that keep the arrays must copy them; the field is rebound every pass.
    """
    if iterations < 1:
        raise ConfigurationError("iterations must be >= 1")
    if marking not in MARKING_STRATEGIES:
        raise ConfigurationError(
            f"unknown marking strategy {marking!r}; expected one of {MARKING_STRATEGIES}"
        )
    kappa = discretize_kappa(problem, y, hierarchy)
    diffusion = compute_upsilon(hierarchy, kappa)
    f_values = load_image(problem, hierarchy)
    rhs = problem_rhs(problem, hierarchy)

    u = zero_field(hierarchy, initial_masks(hierarchy))
    smoother = choose_omega(diffusion, u.masks)
    report = AfemReport()
    for it in range(iterations):
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
        for k in range(hierarchy.levels):
            u.values[k] = u.values[k] + v.values[k]
        est = estimate(u, f_values, diffusion, u.masks)

        if marking == "doerfler":
            marks = mark_doerfler(est, theta)
        else:
            peak = max((float(e.max()) for e in est.eta2), default=0.0)
            marks = mark_threshold(est, theta * peak) if peak > 0.0 else empty_marks(hierarchy)

        report.dofs.append(u.dof_count())
        report.eta2_total.append(est.total())
        report.marked.append(marks.count())
        report.sweeps.append(solve_report.iterations)
        report.solver_statuses.append(solve_report.status)
        if not solve_report.converged:
            report.converged = False
        if observer is not None:
            observer(it, u, est, marks)

        u = MultilevelField(hierarchy, u.values, refine(u.masks, marks, hierarchy))
    return u, est, report
