"""Levelwise local multigrid for the stacked multilevel stiffness system.

One sweep visits the levels fine-to-coarse and back, applying damped
Richardson smoothing on each level's active set.  The cross-level coupling is
never assembled: the sweep keeps the carried-down content (coarser
components interpolated up) and the carried-up content (finer residual
actions restricted down) up to date with the level steps that define
`apply_stacked`: `assembly.carry_down`, `carry_up` and `level_section`.
It is therefore the successive-subspace-correction iteration for that
stacked operator, on any masks.  Like `apply_stacked`, a sweep visits only
the occupied levels 0..D-1 (`assembly.occupied_depth`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .assembly import (
    DiffusionField,
    RhsField,
    apply_stacked,
    assemble_global,
    carry_down,
    carry_up,
    compute_utilde,
    level_section,
)
from .field import LevelMask, MultilevelField, offset_views, zero_field
from .mesh import ConfigurationError, hat_overlap_offsets

__all__ = [
    "SmootherConfig",
    "SolveReport",
    "RESIDUAL_GATE",
    "choose_omega",
    "llmg_sweep",
    "llmg_solve",
    "reference_solve",
    "stack_vector",
]


@dataclass(frozen=True)
class SmootherConfig:
    """Per-level Richardson step sizes 0 < omega_k."""

    omegas: tuple[float, ...]


@dataclass
class SolveReport:
    """Measured per-sweep quantities of one llmg_solve run.

    residual_history has length iterations + 1 (the initial residual first).
    The first entry, every entry within `RESIDUAL_GATE` times the stopping
    threshold (so the stopping entry), and the entry of the last allowed
    sweep are true stacked residuals ||f - A u||_2.  Entries far from the
    stop are the sweep's lagged norms (`llmg_sweep`'s return value), which
    are only tested against the gate.
    """

    iterations: int
    status: str
    residual_history: list[float] = dc_field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def stack_vector(images: list[np.ndarray], masks: list[LevelMask]) -> np.ndarray:
    """Gather per-level images into the stacked active-DOF vector (row-major per level)."""
    return np.concatenate(
        [images[k].ravel()[np.flatnonzero(m.active.ravel())] for k, m in enumerate(masks)]
    ) if masks else np.empty(0)


def _gershgorin_omega(diffusion: DiffusionField, k: int) -> float:
    """1 / max interior row sum of |entries|, columns restricted to the lattice interior."""
    h = diffusion.hierarchy.h(k)
    interior = diffusion.hierarchy.interior_mask(k)
    weights = diffusion.stencil(k) * (2.0 / (h * h))
    row_sums = np.zeros(interior.shape)
    for w, view in zip(weights, offset_views(interior, hat_overlap_offsets())):
        row_sums += np.abs(w) * view
    bound = float((row_sums * interior).max())
    if bound <= 0.0:
        raise ConfigurationError("level operator has empty interior")
    return 1.0 / bound


def choose_omega(diffusion: DiffusionField, masks: list[LevelMask]) -> SmootherConfig:
    """Per-level damping factors omega_k = 1/max_j sum_i |A^k_{ji}| (Gershgorin).

    The steps bound the level operators on the full lattice interior, so they
    depend only on the diffusion data; `masks` is not read.
    """
    return SmootherConfig(
        tuple(_gershgorin_omega(diffusion, k) for k in range(diffusion.hierarchy.levels))
    )


def _smooth_level(
    u: MultilevelField,
    f: RhsField,
    diffusion: DiffusionField,
    k: int,
    omega: float,
    utld_k: np.ndarray,
    ubar_k: np.ndarray,
) -> float:
    """One damped Richardson step on level k; returns ||r_k||^2 of its masked residual."""
    section = level_section(u.values[k], utld_k, ubar_k, diffusion, k)
    r = (f.images[k] - section) * u.masks[k].active
    u.values[k] += omega * r
    return float(np.vdot(r, r))


def llmg_sweep(
    u: MultilevelField,
    f: RhsField,
    diffusion: DiffusionField,
    smoother: SmootherConfig,
) -> float:
    """One fine-to-coarse-and-back sweep of levelwise local multigrid.

    Mutates u in place.  The carried-down content is computed fresh at sweep
    start; the carried-up content is built during the downward half-sweep,
    so every smoothing step sees the current residual of the full multilevel
    iterate: this is the successive-subspace-correction iteration for
    `apply_stacked`, on any masks.  The coarsest and finest occupied levels
    are each smoothed twice per sweep (once per half-sweep); levels at or
    beyond D = `occupied_depth(u.masks)` hold no dofs and are not visited.

    Returns the lagged norm sqrt(sum_k ||r_k||^2) of the upward half's
    masked level residuals.  Each r_k is taken before level k's own update
    and before the finer levels' upward updates, so it is not the residual
    after the sweep; `llmg_solve` uses it only to decide when to form that.
    """
    if len(smoother.omegas) != u.levels:
        raise ConfigurationError("smoother has wrong number of levels")

    utld = compute_utilde(u)  # one image per occupied level
    depth = len(utld)
    ubar = [np.zeros_like(v) for v in u.values[:depth]]

    for k in range(depth - 1, -1, -1):
        _smooth_level(u, f, diffusion, k, smoother.omegas[k], utld[k], ubar[k])
        if k > 0:
            ubar[k - 1] = carry_up(ubar[k], u.values[k], diffusion, k)

    lagged2 = 0.0
    for k in range(depth):
        lagged2 += _smooth_level(u, f, diffusion, k, smoother.omegas[k], utld[k], ubar[k])
        if k < depth - 1:
            utld[k + 1] = carry_down(utld[k], u.values[k])

    for k in range(depth):
        if not np.all(np.isfinite(u.values[k])):
            raise ArithmeticError(f"llmg diverged: non-finite iterate on level {k}")
    return float(np.sqrt(lagged2))


def _stacked_residual_norm(
    u: MultilevelField, f: RhsField, diffusion: DiffusionField
) -> float:
    blocks = apply_stacked(u, diffusion)
    res = stack_vector(
        [f.images[k] - blocks[k] for k in range(u.levels)], u.masks
    )
    return float(np.linalg.norm(res)) if res.size else 0.0


# The stacked residual is formed once the lagged norm is within this factor of
# the stopping threshold.  The lagged/true ratio measured 0.99-1.58 over 5200
# default-config sweeps (every pass of seed-0 samples 0-5 and the uniform
# depth 1-4 solves of samples 0-1, 200 sweeps each), so the stopping sweep is
# the one the true residual alone would give; a ratio above the factor could
# only delay the stop, never bring it earlier.
RESIDUAL_GATE = 10.0


def llmg_solve(
    u0: MultilevelField,
    f: RhsField,
    diffusion: DiffusionField,
    smoother: SmootherConfig,
    tol: float = 1e-10,
    max_sweeps: int = 200,
) -> tuple[MultilevelField, SolveReport]:
    """Iterate llmg_sweep until the relative stacked residual drops below tol.

    Stops on ||f - A u||_2 <= tol * ||f||_2 (absolute when f = 0), tested
    before the first sweep too: a start that meets it takes no sweep.  The
    stacked residual is formed only after a sweep whose lagged norm is at
    most `RESIDUAL_GATE` times that threshold, and after the last allowed
    sweep; the other sweeps record their lagged norm (see `SolveReport`).
    """
    if not tol > 0.0:
        raise ConfigurationError("tol must be positive")
    u = u0.copy()
    fnorm = float(np.linalg.norm(stack_vector(f.images, u.masks))) if u.masks else 0.0
    threshold = tol * fnorm if fnorm > 0.0 else tol

    report = SolveReport(iterations=0, status="max_sweeps")
    residual = _stacked_residual_norm(u, f, diffusion)
    report.residual_history.append(residual)
    for sweep in range(1, max_sweeps + 1):
        if residual <= threshold:
            break
        residual = llmg_sweep(u, f, diffusion, smoother)
        report.iterations = sweep
        if residual <= RESIDUAL_GATE * threshold or sweep == max_sweeps:
            residual = _stacked_residual_norm(u, f, diffusion)
        report.residual_history.append(residual)
    if residual <= threshold:
        report.status = "converged"
    return u, report


def reference_solve(
    masks: list[LevelMask], diffusion: DiffusionField, f: RhsField
) -> MultilevelField:
    """Direct/Krylov solve of the assembled stacked system (verification oracle).

    Sparse direct for a single level, dense minimum-norm for small stacked
    systems (they are positive semidefinite but can be rank-deficient when
    coarse hats are resolved exactly by finer active sets), conjugate
    gradients at relative residual 1e-12 beyond 2000 unknowns.
    """
    import scipy.sparse.linalg as spla

    hier = diffusion.hierarchy
    matrix, idx = assemble_global(hier, masks, diffusion)
    b = stack_vector(f.images, masks)
    u = zero_field(hier, masks)
    if b.size == 0:
        return u
    if hier.levels == 1:
        x = spla.spsolve(matrix.tocsc(), b)
    elif b.size <= 2000:
        x, *_ = np.linalg.lstsq(matrix.toarray(), b, rcond=None)
    else:
        x, info = spla.cg(matrix, b, rtol=1e-12, atol=0.0, maxiter=20 * b.size)
        if info != 0:
            raise RuntimeError(
                f"conjugate gradients failed (info={info}, n={b.size}, "
                f"residual={np.linalg.norm(b - matrix @ x):.3e})"
            )
    resid = float(np.linalg.norm(b - matrix @ x))
    bnorm = float(np.linalg.norm(b))
    if not np.isfinite(resid) or resid > 1e-9 * max(bnorm, 1e-300):
        raise RuntimeError(
            f"stacked solve residual {resid:.3e} too large (||b|| = {bnorm:.3e})"
        )
    offset = 0
    for k in range(hier.levels):
        vals = np.zeros(hier.n(k) * hier.n(k))
        vals[idx[k]] = x[offset : offset + idx[k].size]
        offset += idx[k].size
        u.values[k] = vals.reshape(hier.n(k), hier.n(k))
    return u
