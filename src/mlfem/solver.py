"""Levelwise local multigrid for the stacked multilevel stiffness system.

One sweep visits the levels fine-to-coarse and back, applying damped
Richardson smoothing on each level's active set.  The cross-level coupling is
never assembled: the carried-down content (coarser components interpolated
up) and carried-up content (finer residual actions restricted down) are
maintained incrementally along the sweep.  By linearity of the transfers this
is the successive-subspace-correction iteration for the stacked operator of
`apply_stacked` only when every fine-closure node's interpolation parents lie
in the coarse closure: `prolongate` and `restrict_weighted` drop values off
the closures, the unmasked transfers of `apply_stacked` do not.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import (
    DiffusionField,
    RhsField,
    STENCIL_COUPLINGS,
    apply_A_level,
    apply_A_level_transpose,
    apply_stacked,
    assemble_global,
    energy_seminorm,
)
from .field import (
    LevelMask,
    MultilevelField,
    offset_views,
    prolongate,
    restrict_weighted,
    zero_field,
)
from .mesh import ConfigurationError, hat_overlap_offsets

__all__ = [
    "SmootherConfig",
    "SolveReport",
    "choose_omega",
    "llmg_sweep",
    "llmg_solve",
    "reference_solve",
    "active_indices",
    "stack_vector",
]

OMEGA_RULES = ("gershgorin", "power-iteration", "fixed")


@dataclass(frozen=True)
class SmootherConfig:
    """Damping rule and the resolved per-level step sizes 0 < omega_k."""

    omega_rule: str
    omegas: tuple[float, ...]


@dataclass
class SolveReport:
    """Measured per-sweep quantities of one llmg_solve run.

    residual_history has length iterations + 1 (the initial residual first);
    the energy histories are filled only when an oracle solution is supplied.
    """

    iterations: int
    converged: bool
    status: str
    residual_history: list[float] = dc_field(default_factory=list)
    energy_error_history: list[float] = dc_field(default_factory=list)
    contraction_estimates: list[float] = dc_field(default_factory=list)


def active_indices(masks: list[LevelMask]) -> list[np.ndarray]:
    """Flat lattice indices of the active nodes, per level (row-major)."""
    return [np.flatnonzero(m.active.ravel()) for m in masks]


def stack_vector(images: list[np.ndarray], masks: list[LevelMask]) -> np.ndarray:
    """Gather per-level images into the stacked active-DOF vector."""
    idx = active_indices(masks)
    return np.concatenate(
        [images[k].ravel()[idx[k]] for k in range(len(masks))]
    ) if masks else np.empty(0)


def _gershgorin_omega(diffusion: DiffusionField, k: int) -> float:
    """1 / max interior row sum of |entries|, columns restricted to the lattice interior."""
    h = diffusion.hierarchy.h(k)
    interior = diffusion.hierarchy.interior_mask(k)
    weights = np.einsum("lt,lij->tij", STENCIL_COUPLINGS, diffusion.upsilon[k]) * (2.0 / (h * h))
    row_sums = np.zeros(interior.shape)
    for w, view in zip(weights, offset_views(interior, hat_overlap_offsets())):
        row_sums += np.abs(w) * view
    bound = float((row_sums * interior).max())
    if bound <= 0.0:
        raise ConfigurationError("level operator has empty interior")
    return 1.0 / bound


def _power_lambda_max(diffusion: DiffusionField, k: int, iterations: int = 50) -> float:
    """Largest-eigenvalue estimate of the level-k uniform operator.

    Deterministic start (all-ones on the interior) so repeated runs agree
    exactly; the symmetric operator makes the Rayleigh quotient monotone.
    """
    v = diffusion.hierarchy.interior_mask(k).astype(float)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iterations):
        w = apply_A_level(v, diffusion.upsilon[k], diffusion.hierarchy.h(k))
        lam = float(np.vdot(v, w))
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return lam


def choose_omega(
    diffusion: DiffusionField,
    masks: list[LevelMask],
    rule: str = "gershgorin",
    omega: float | None = None,
) -> SmootherConfig:
    """Per-level damping factors for the level smoothers.

    gershgorin: omega_k = 1/max_j sum_i |A^k_{ji}| (a guaranteed bound);
    power-iteration: omega_k = 1/(lambda_max_hat * 1.01) with 50 iterations;
    fixed: the given omega on every level, with an admissibility check that
    warns when omega * lambda_max_hat > 1.
    """
    if rule not in OMEGA_RULES:
        raise ConfigurationError(f"unknown omega rule {rule!r}; expected one of {OMEGA_RULES}")
    hier = diffusion.hierarchy
    if rule == "fixed":
        if omega is None or not omega > 0.0:
            raise ConfigurationError("fixed rule requires omega > 0")
        for k in range(hier.levels):
            lam = _power_lambda_max(diffusion, k)
            if omega * lam > 1.0 + 1e-12:
                warnings.warn(
                    f"fixed omega={omega} exceeds 1/lambda_max ~ {1.0 / lam:.3e} "
                    f"on level {k}; smoothing may not contract",
                    RuntimeWarning,
                    stacklevel=2,
                )
                break
        return SmootherConfig("fixed", (float(omega),) * hier.levels)
    if omega is not None:
        raise ConfigurationError(f"omega is only meaningful with the fixed rule, not {rule!r}")
    omegas = []
    for k in range(hier.levels):
        if rule == "gershgorin":
            omegas.append(_gershgorin_omega(diffusion, k))
        else:
            lam = _power_lambda_max(diffusion, k)
            if lam <= 0.0:
                raise ConfigurationError(f"level {k} operator appears to vanish")
            omegas.append(1.0 / (lam * 1.01))
    return SmootherConfig(rule, tuple(omegas))


def _smooth_level(
    u: MultilevelField,
    f: RhsField,
    diffusion: DiffusionField,
    k: int,
    omega: float,
    utld_k: np.ndarray,
    ubar_k: np.ndarray,
) -> None:
    h = u.hierarchy.h(k)
    act = u.masks[k].active
    section = apply_A_level(u.values[k] + utld_k, diffusion.upsilon[k], h) + ubar_k
    u.values[k] += omega * (f.images[k] - section) * act


def llmg_sweep(
    u: MultilevelField,
    f: RhsField,
    diffusion: DiffusionField,
    smoother: SmootherConfig,
) -> MultilevelField:
    """One fine-to-coarse-and-back sweep of levelwise local multigrid.

    Mutates u in place and returns it.  The carried-down content is computed
    fresh at sweep start; the carried-up content is built during the downward
    half-sweep, so every smoothing step sees the current residual of the full
    multilevel iterate when the closure condition of the module docstring
    holds.  The coarsest and finest levels are each smoothed twice per sweep
    (once per half-sweep).
    """
    hier = u.hierarchy
    nlev = hier.levels
    if len(smoother.omegas) != nlev:
        raise ConfigurationError("smoother has wrong number of levels")
    masks = u.masks

    utld: list[np.ndarray] = [np.zeros_like(u.values[0])]
    for k in range(nlev - 1):
        utld.append(prolongate(utld[k] + u.values[k], masks[k], masks[k + 1]))
    ubar: list[np.ndarray] = [np.empty(0)] * nlev
    ubar[nlev - 1] = np.zeros_like(u.values[nlev - 1])

    for k in range(nlev - 1, -1, -1):
        _smooth_level(u, f, diffusion, k, smoother.omegas[k], utld[k], ubar[k])
        if k > 0:
            lifted = ubar[k] + apply_A_level_transpose(
                u.values[k], diffusion.upsilon[k], hier.h(k)
            )
            ubar[k - 1] = restrict_weighted(lifted, masks[k - 1], masks[k])

    for k in range(nlev):
        _smooth_level(u, f, diffusion, k, smoother.omegas[k], utld[k], ubar[k])
        if k < nlev - 1:
            utld[k + 1] = prolongate(utld[k] + u.values[k], masks[k], masks[k + 1])

    for k in range(nlev):
        if not np.all(np.isfinite(u.values[k])):
            raise ArithmeticError(f"llmg diverged: non-finite iterate on level {k}")
    return u


def _stacked_residual_norm(
    u: MultilevelField, f: RhsField, diffusion: DiffusionField
) -> float:
    blocks = apply_stacked(u, diffusion)
    res = stack_vector(
        [f.images[k] - blocks[k] for k in range(u.levels)], u.masks
    )
    return float(np.linalg.norm(res)) if res.size else 0.0


def llmg_solve(
    u0: MultilevelField,
    f: RhsField,
    diffusion: DiffusionField,
    smoother: SmootherConfig,
    tol: float = 1e-10,
    max_sweeps: int = 200,
    exact: MultilevelField | None = None,
) -> tuple[MultilevelField, SolveReport]:
    """Iterate llmg_sweep until the relative stacked residual drops below tol.

    Stops on ||f - A u||_2 <= tol * ||f||_2 (absolute when f = 0).  When an
    oracle solution is supplied, the report also tracks A-norm errors and
    their per-sweep contraction ratios.
    """
    if not tol > 0.0:
        raise ConfigurationError("tol must be positive")
    u = u0.copy()
    fnorm = float(np.linalg.norm(stack_vector(f.images, u.masks))) if u.masks else 0.0
    threshold = tol * fnorm if fnorm > 0.0 else tol

    def energy_error() -> float:
        assert exact is not None
        delta = u.copy()
        for k in range(u.levels):
            delta.values[k] = u.values[k] - exact.values[k]
        return energy_seminorm(delta, diffusion)

    report = SolveReport(iterations=0, converged=False, status="max_sweeps")
    report.residual_history.append(_stacked_residual_norm(u, f, diffusion))
    if exact is not None:
        report.energy_error_history.append(energy_error())
    for sweep in range(1, max_sweeps + 1):
        llmg_sweep(u, f, diffusion, smoother)
        report.iterations = sweep
        report.residual_history.append(_stacked_residual_norm(u, f, diffusion))
        if exact is not None:
            report.energy_error_history.append(energy_error())
            prev, cur = report.energy_error_history[-2:]
            if prev > 0.0:
                report.contraction_estimates.append(cur / prev)
        if report.residual_history[-1] <= threshold:
            report.converged = True
            report.status = "converged"
            break
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
    hier = diffusion.hierarchy
    matrix, idx = assemble_global(hier, masks, diffusion)
    b = np.concatenate([f.images[k].ravel()[idx[k]] for k in range(hier.levels)])
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
