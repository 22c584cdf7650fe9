"""Levelwise local multigrid for the stacked multilevel stiffness system.

One sweep visits the levels fine-to-coarse and back, applying damped
Richardson smoothing on each level's active set.  The cross-level coupling is
never assembled: the sweep keeps the carried-down content (coarser
components interpolated up) and the carried-up content (finer stiffness
actions restricted down) up to date, with the arithmetic of the level steps
that define `apply_stacked` (`assembly.carry_down`, `carry_up` and
`level_section`).  It is therefore the successive-subspace-correction
iteration for that stacked operator, `assemble_global`'s matrix, on any
masks (of interior nodes, `field.LevelMask`).  Like `apply_stacked`, a
sweep visits only the occupied levels 0..D-1 (`assembly.occupied_depth`).

The level order is written once, in `llmg_schedule`, and the chain build
once, in `carry_down_chain`.  Both routes run them over per-level ops
staged once: `_LevelStage` here, once per solve, and `convnet._ConvLevel`
on the conv route, once per sweep state, from the gathers its separately
derived kernels keep.  Both smooth only a level's active rows; the
direct route carries on full level interiors, the conv route's carry-up
only where the active rows reach.

A solve stages its sweep once (`_StagedSweep`): the masks, loads, stencil
images and damping are fixed while it runs.  Each occupied level stages its
four ops as fixed-weight gathers (`field.Taps`): the section on its active
rows, so a smoothing step's work follows the active set, and the stiffness
action, restriction and interpolation on full level interiors.  The
carried-down chain is built once and kept current by the sweeps.  The
iterates are those of the full-lattice loop over the level steps, bit for
bit, under the one condition on the interpolation that `_LevelStage` states.
The stopping test's stacked residual is formed from the same stages
(`_StagedSweep.residual_norm`); `apply_stacked` runs once per solve, after
the last sweep, and must give the final residual bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .assembly import (
    DiffusionField,
    RhsField,
    apply_stacked,
    assemble_global,
    occupied_depth,
)
from .field import LevelMask, MultilevelField, Taps, offset_views, zero_field
from .mesh import ConfigurationError, hat_overlap_offsets

__all__ = [
    "SmootherConfig",
    "SolveReport",
    "RESIDUAL_GATE",
    "carry_down_chain",
    "choose_omega",
    "llmg_schedule",
    "llmg_sweep",
    "llmg_solve",
    "reference_solve",
    "stack_vector",
]


@dataclass(frozen=True)
class SmootherConfig:
    """Per-level Richardson step sizes omega_k, finite and > 0, kept as floats."""

    omegas: tuple[float, ...]

    def __post_init__(self):
        omegas = tuple(float(w) for w in self.omegas)
        if not all(math.isfinite(w) and w > 0.0 for w in omegas):
            raise ConfigurationError(f"smoother steps must be finite and > 0, got {omegas}")
        object.__setattr__(self, "omegas", omegas)


@dataclass
class SolveReport:
    """Measured per-sweep quantities of one llmg_solve run.

    residual_history has length iterations + 1 (the initial residual first).
    The first entry, every entry within `RESIDUAL_GATE` times the stopping
    threshold (so the stopping entry), and the entry of the last allowed
    sweep are true stacked residuals ||f - A u||_2, formed from the staged
    sweep's ops.  Entries far from the stop are the sweep's lagged norms
    (`llmg_sweep`'s return value), which are only tested against the gate.
    The final entry is always a true residual, and `llmg_solve` certifies it
    with `apply_stacked`, bit for bit.
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
    # the seven |w| * view products, summed in order from +0.0
    products = np.abs(weights, out=weights)
    products *= offset_views(interior, hat_overlap_offsets())
    row_sums = np.add.reduce(products, axis=0)
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


def llmg_schedule(levels) -> None:
    """One LLMG sweep over the ops of the occupied levels 0..D-1.

    `levels[k]` holds level k's ops: `smooth()` takes one smoothing step,
    `carry_up()` restricts its carried-up content plus its stiffness action
    onto level k-1, and `carry_down()` interpolates its carried-down content
    plus its iterate onto level k+1.  The downward half visits D-1..0,
    smoothing and carrying up (but level 0); the upward half visits 0..D-1,
    smoothing again and carrying down (but level D-1).
    """
    top = len(levels) - 1
    for k in range(top, -1, -1):
        levels[k].smooth()
        if k > 0:
            levels[k].carry_up()
    for k, level in enumerate(levels):
        level.smooth()
        if k < top:
            level.carry_down()


def carry_down_chain(levels) -> None:
    """Build the carried-down chain from a zero chain: `carry_down()` of
    levels 0..D-2 in order, as the upward half of `llmg_schedule` keeps it."""
    for level in levels[:-1]:
        level.carry_down()


# the stencil's tap offsets (d1, d2) as two (7, 1) columns: the coincident node,
# then +-x, +-y and +-diagonal, which is also `restrict_uniform`'s order
_D1, _D2 = np.array(hat_overlap_offsets()).T[:, :, None]


def _square(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major lattice indices (i1, i2) of the nodes lo..hi-1 on both axes."""
    i1, i2 = np.meshgrid(np.arange(lo, hi), np.arange(lo, hi), indexing="ij")
    return i1.ravel(), i2.ravel()


def _stencil_gather(weights: np.ndarray, nodes: np.ndarray) -> Taps:
    """The stencil rows of the flat lattice `nodes` of a level with (7, n, n)
    weight images: the seven neighbours j + p_t of each node j, with the
    weights at j."""
    n = weights.shape[-1]
    i1, i2 = np.divmod(nodes, n)
    return Taps((i1 + _D1) * n + i2 + _D2, weights[:, i1, i2])


class _LevelStage:
    """The direct route's ops of occupied level k for `llmg_schedule`: what
    the level fixes for the sweeps of one solve, staged once.  Each op is
    one `field.Taps` over flat lattice indices of level k or its neighbour:
    - `section`: the stencil rows of the active nodes (`_stencil_gather`)
      in u_k + utilde_k (`source`);
    - `action` (levels > 0): the stencil rows of the level interior in u_k,
      the stiffness action A_k u_k there, unscaled;
    - `restriction` (levels > 0): the coarse interior from ubar_k + A_k
      u_k, in `restrict_uniform`'s order, with coefficients [1, 1/2 x 6];
    - `interpolation` (all but the deepest level): the next interior from
      utilde_k + u_k (`source`) at its coarse neighbours lo and hi (one
      node twice where they coincide), with coefficients 1/2.
    It also keeps the loads at its rows and the residual of its last
    smoothing step (`r`).  The iterate and carried images are updated in
    place.

    Each entry has the bits of `assembly.level_section`, `carry_up` and
    `carry_down`: the same terms in the same order (`restrict_uniform`
    starts from its coincident term, never -0.0, instead of +0.0).  1/2 a +
    1/2 b is `prolongate_uniform`'s 1/2 (a + b), and 1/2 a + 1/2 a its copy
    a, unless a value is subnormal, near overflow or -0.0.  No carried value
    is -0.0: the chain starts at +0.0, utilde_k + u_k is -0.0 only if both
    terms are, and a sum from +0.0 never is.  Frames need no zeroing: the
    rows are interior (`field.LevelMask`), u_k is +-0.0 on the frame and
    utilde_k the +0.0 of the zero chain, so a frame term of any gather is
    w * (+-0.0), which changes no sum from +0.0.
    """

    def __init__(self, u, f, diffusion, omega, k, tld, bar):
        hier = u.hierarchy
        n, h = hier.n(k), hier.h(k)
        values = u.values[k]
        if not values.flags.c_contiguous:
            raise ValueError(f"iterate image of level {k} is not C-contiguous")
        active = u.masks[k].active != 0
        if values[~active].any():
            raise ValueError(f"iterate image of level {k} is nonzero off its active set")
        for name, image in (("iterate", values), ("load", f.images[k])):
            if not np.isfinite(image[active]).all():
                raise ValueError(f"{name} image of level {k} is not finite on its active set")
        self.values, self.values_flat = values, values.reshape(-1)
        self.tld, self.bar_flat = tld[k], bar[k].reshape(-1)
        self.omega, self.scale = omega, 2.0 / (h * h)
        weights = diffusion.stencil(k)
        # u_k + utilde_k, written by each op before its gather reads it
        self.source = np.empty((n, n))
        self.source_flat = self.source.reshape(-1)

        self.rows = np.flatnonzero(active)
        self.loads = f.images[k].reshape(-1)[self.rows]
        self.section = _stencil_gather(weights, self.rows)

        if k > 0:
            a1, a2 = _square(1, n - 1)
            self.interior = a1 * n + a2
            self.action = _stencil_gather(weights, self.interior)
            nc = hier.n(k - 1)
            c1, c2 = _square(1, nc - 1)
            neighbours = (2 * c1 + _D1 - 1) * (n - 2) + 2 * c2 + _D2 - 1
            self.restriction = Taps(neighbours, np.array([[1.0]] + [[0.5]] * 6))
            self.coarse_flat, self.coarse_interior = bar[k - 1].reshape(-1), c1 * nc + c2

        if k + 1 < len(tld):
            nf = hier.n(k + 1)
            f1, f2 = _square(1, nf - 1)
            self.next_flat, self.fine = tld[k + 1].reshape(-1), f1 * nf + f2
            lo, hi = (f1 // 2) * n + f2 // 2, ((f1 + 1) // 2) * n + (f2 + 1) // 2
            self.interpolation = Taps(np.array([lo, hi]), np.full((2, 1), 0.5))

    def row_residual(self) -> np.ndarray:
        """loads - (scale * section + ubar_k) on the active rows, from the
        current iterate and carried images."""
        np.add(self.values, self.tld, out=self.source)
        section = self.section(self.source_flat)
        section *= self.scale
        section += self.bar_flat[self.rows]
        return self.loads - section

    def smooth(self) -> None:
        """One damped Richardson step on the active rows; keeps their residual in `r`."""
        self.r = self.row_residual()
        self.values_flat[self.rows] += self.omega * self.r

    def carry_up(self) -> None:
        """ubar_{k-1} = restrict(ubar_k + A_k u_k), on the coarse interior."""
        lifted = self.action(self.values_flat)
        lifted *= self.scale
        lifted += self.bar_flat[self.interior]
        self.coarse_flat[self.coarse_interior] = self.restriction(lifted)

    def carry_down(self) -> None:
        """utilde_{k+1} = interp(utilde_k + u_k), on the next level's interior."""
        np.add(self.values, self.tld, out=self.source)
        self.next_flat[self.fine] = self.interpolation(self.source_flat)


class _StagedSweep:
    """The sweeps of one solve on a fixed iterate, load, diffusion and smoother.

    Staging builds one `_LevelStage` per occupied level and then the
    carried-down chain (`carry_down_chain`); each sweep is `llmg_schedule`
    over the stages, whose upward half keeps the chain current, and
    `residual_norm` forms the stacked residual from the same stages.  The
    stages read the iterate unmasked where `apply_stacked` masks it, so
    staging rejects an iterate that is nonzero off its active sets (-0.0
    passes: u * 0 keeps the sign of u's zero).  The kept chain then equals
    `compute_utilde`'s, bit for bit.  Staging also rejects, before any work,
    an iterate or load that is not finite on an active set.  The masks
    need no check here: each holds interior nodes only (`field.LevelMask`),
    so every active node is a row of the sweep and of the residual.
    """

    def __init__(self, u, f, diffusion, smoother):
        if len(smoother.omegas) != u.levels:
            raise ConfigurationError("smoother has wrong number of levels")
        self.u = u
        tld = [np.zeros_like(u.values[k]) for k in range(occupied_depth(u.masks))]
        bar = [np.zeros_like(t) for t in tld]
        self.stages = [
            _LevelStage(u, f, diffusion, smoother.omegas[k], k, tld, bar) for k in range(len(tld))
        ]
        carry_down_chain(self.stages)

    def residual_norm(self) -> float:
        """The stacked residual ||f - A u||_2 of the current iterate, from the stages.

        A fresh carried-up chain (`carry_up()` of levels D-1..1), then each
        level's `row_residual()`, concatenated: the rows are the active
        nodes in row-major order, so this is the vector `stack_vector`
        gathers for `_stacked_residual_norm`, and the same norm bit for bit.
        It overwrites only the carried-up images and the stages' sources,
        which the next sweep rewrites before reading them.
        """
        for stage in reversed(self.stages[1:]):
            stage.carry_up()
        rows = [stage.row_residual() for stage in self.stages]
        return float(np.linalg.norm(np.concatenate(rows))) if rows else 0.0

    def sweep(self) -> float:
        """One sweep of the iterate in place; returns `llmg_sweep`'s lagged norm."""
        llmg_schedule(self.stages)
        lagged2 = 0.0
        for k, stage in enumerate(self.stages):
            if not np.isfinite(stage.values).all():
                raise ArithmeticError(f"llmg diverged: non-finite iterate on level {k}")
            lagged2 += float(np.dot(stage.r, stage.r))
        return float(np.sqrt(lagged2))


def llmg_sweep(
    u: MultilevelField,
    f: RhsField,
    diffusion: DiffusionField,
    smoother: SmootherConfig,
) -> float:
    """One fine-to-coarse-and-back sweep of levelwise local multigrid.

    Mutates u in place: stages the sweep (`_StagedSweep`) and runs it once;
    `llmg_solve` stages once per solve and runs its sweeps on that.  The
    level order is `llmg_schedule`'s.  The carried-down content comes from
    the staged chain; the carried-up content is built during the downward
    half-sweep, so every smoothing step sees the current residual of the
    full multilevel iterate: this is the successive-subspace-correction
    iteration for `apply_stacked`, on any masks.  Levels at or beyond D =
    `occupied_depth(u.masks)` hold no dofs and are not visited.  u must be
    zero off its active sets (`_StagedSweep`).  A step computes and writes
    only its level's active rows, so every entry off the active sets keeps
    its bits.

    Returns the lagged norm sqrt(sum_k ||r_k||^2) of the upward half's
    masked level residuals.  Each r_k is taken before level k's own update
    and before the finer levels' upward updates, so it is not the residual
    after the sweep; `llmg_solve` uses it only to decide when to form that.
    """
    return _StagedSweep(u, f, diffusion, smoother).sweep()


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
# only delay the stop, never bring it earlier.  The gate trades the staged
# residual, which costs about 0.6 of a sweep, against the sweeps it would
# test too early to stop.
RESIDUAL_GATE = 10.0


def llmg_solve(
    u0: MultilevelField,
    f: RhsField,
    diffusion: DiffusionField,
    smoother: SmootherConfig,
    tol: float = 1e-10,
    max_sweeps: int = 200,
) -> tuple[MultilevelField, SolveReport]:
    """Sweep until the relative stacked residual drops below tol.

    The sweep is staged once for the whole solve and then run as
    `llmg_sweep` would run it; the iterates and lagged norms are those of
    repeated `llmg_sweep` calls, bit for bit.  Stops on ||f - A u||_2 <= tol *
    ||f||_2 (absolute when f = 0), tested before the first sweep too: a start
    that meets it takes no sweep.  The stacked residual is formed, from the
    staged ops (`_StagedSweep.residual_norm`), before the first sweep, after
    a sweep whose lagged norm is at most `RESIDUAL_GATE` times that
    threshold, and after the last allowed sweep; the other sweeps record
    their lagged norm (see `SolveReport`).  After the last sweep
    `apply_stacked` forms the final residual once more, from the assembly
    route's level steps; it must equal the final entry bit for bit, or the
    solve raises `ArithmeticError` naming both.  Needs tol > 0 and
    max_sweeps >= 0; staging rejects non-finite or contract-breaking data
    (`_StagedSweep`) with `ValueError`.
    """
    if not tol > 0.0:
        raise ConfigurationError("tol must be positive")
    if max_sweeps < 0:
        raise ConfigurationError(f"max_sweeps must be >= 0, got {max_sweeps}")
    u = u0.copy()
    staged = _StagedSweep(u, f, diffusion, smoother)
    fnorm = float(np.linalg.norm(stack_vector(f.images, u.masks))) if u.masks else 0.0
    threshold = tol * fnorm if fnorm > 0.0 else tol

    report = SolveReport(iterations=0, status="max_sweeps")
    residual = staged.residual_norm()
    report.residual_history.append(residual)
    for sweep in range(1, max_sweeps + 1):
        if residual <= threshold:
            break
        residual = staged.sweep()
        report.iterations = sweep
        if residual <= RESIDUAL_GATE * threshold or sweep == max_sweeps:
            residual = staged.residual_norm()
        report.residual_history.append(residual)
    certified = _stacked_residual_norm(u, f, diffusion)
    if certified != residual:
        raise ArithmeticError(
            f"staged stacked residual {residual!r} differs from apply_stacked's {certified!r}"
        )
    if residual <= threshold:
        report.status = "converged"
    return u, report


def reference_solve(
    masks: list[LevelMask], diffusion: DiffusionField, f: RhsField
) -> MultilevelField:
    """Direct/Krylov solve of the assembled stacked system (verification oracle).

    Sparse direct for a single level (SuperLU with the minimum-degree order
    of A^T + A; the matrix is symmetric positive definite), conjugate
    gradients from zero at relative residual 1e-13 for every stacked system.
    A stacked matrix A = S^T K S is positive semidefinite and rank-deficient
    whenever finer active hats resolve a coarse hat exactly, but its load is
    b = S^T f (`assemble_rhs` restricts the finest load), so b lies in
    range(A).  CG from zero stays in the Krylov space K(A, b), which lies in
    range(A), and the only solution there is the minimum-norm one, A^+ b.
    """
    import scipy.sparse.linalg as spla

    hier = diffusion.hierarchy
    matrix, idx = assemble_global(hier, masks, diffusion)
    b = stack_vector(f.images, masks)
    u = zero_field(hier, masks)
    if b.size == 0:
        return u
    if hier.levels == 1:
        x = spla.spsolve(matrix.tocsc(), b, permc_spec="MMD_AT_PLUS_A")
    else:
        x, info = spla.cg(matrix, b, rtol=1e-13, atol=0.0, maxiter=20 * b.size)
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
