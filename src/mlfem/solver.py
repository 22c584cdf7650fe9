"""Levelwise local multigrid for the stacked multilevel stiffness system.

One sweep visits the levels fine-to-coarse and back, applying damped
Richardson smoothing on each level's active set.  The cross-level coupling is
never assembled: the sweep keeps the carried-down content (coarser
components interpolated up) and the carried-up content (finer residual
actions restricted down) up to date, with the arithmetic of the level steps
that define `apply_stacked` (`assembly.carry_down`, `carry_up` and
`level_section`).  It is therefore the successive-subspace-correction
iteration for that stacked operator, on any masks.  Like `apply_stacked`, a
sweep visits only the occupied levels 0..D-1 (`assembly.occupied_depth`).

The level order is written once, in `llmg_schedule`, and the chain build
once, in `carry_down_chain`.  Both routes run them over per-level ops:
`_LevelStage` here, `convnet._ConvLevel` on the conv route, whose kernels
stay separately derived.

A solve stages its sweep once (`_StagedSweep`): the masks, loads, stencil
images and damping are fixed while it runs.  Each occupied level stages its
four ops as fixed-weight gathers (`field.Taps`): the section on its active
rows, so a smoothing step's work follows the active set, and the transposed
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
from .field import LevelMask, MultilevelField, Taps, offset_views, zero_field, zero_frame
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


def llmg_schedule(levels) -> None:
    """One LLMG sweep over the ops of the occupied levels 0..D-1.

    `levels[k]` holds level k's ops: `smooth()` takes one smoothing step,
    `carry_up()` restricts its carried-up content plus its transposed action
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


class _LevelStage:
    """The direct route's ops of occupied level k for `llmg_schedule`: what
    the level fixes for the sweeps of one solve, staged once.  Each op is
    one `field.Taps` over flat lattice indices of level k or its neighbour:
    - `section`: the seven stencil neighbours of the active interior rows
      in a frame-zeroed copy of u_k + utilde_k, with the gathered weights;
    - `transposed` (levels > 0): the mirrored neighbours of the interior in
      a frame-zeroed copy of u_k, with the weight images there, zeroed off
      the interior, so a frame term is +0.0 * +0.0;
    - `restriction` (levels > 0): the coarse interior from ubar_k + A_k^T
      u_k, in `restrict_uniform`'s order, with coefficients [1, 1/2 x 6];
    - `interpolation` (all but the deepest level): the next interior from
      utilde_k + u_k at its coarse neighbours lo and hi (one node twice
      where they coincide), with coefficients 1/2.
    It also keeps the loads at its rows, the residual of its last smoothing
    step (`r`), and a full-size residual image, zero off the rows, for the
    lagged norm and the stacked residual.  The iterate and carried images
    are updated in place.

    Each entry has the bits of `assembly.level_section`, `carry_up` and
    `carry_down`: the same terms in the same order (`restrict_uniform`
    starts from its coincident term, never -0.0, instead of +0.0).  1/2 a +
    1/2 b is `prolongate_uniform`'s 1/2 (a + b), and 1/2 a + 1/2 a its copy
    a, unless a value is subnormal, near overflow or -0.0.  No carried value
    is -0.0: the chain starts at +0.0, utilde_k + u_k is -0.0 only if both
    terms are, and a sum from +0.0 never is.  Frames need no zeroing: an
    active frame node is not a row (its load and carried-up content are
    zero, so its step never moves it); the fine frame of the transposed
    action reaches only the coarse frame, which carry_up zeroes; and the
    carried-down frames stay the +0.0 of the zero chain.
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
        edge = active.copy()
        edge[1:-1, 1:-1] = False
        if f.images[k][edge].any():
            raise ValueError(f"load image of level {k} is nonzero at an active frame node")
        self.values, self.values_flat = values, values.reshape(-1)
        self.values_interior = values[1:-1, 1:-1]
        self.tld, self.tld_interior = tld[k], tld[k][1:-1, 1:-1]
        self.bar_flat = bar[k].reshape(-1)
        self.omega, self.scale = omega, 2.0 / (h * h)
        weights = diffusion.stencil(k)
        framed = np.zeros((n, n))
        self.framed_flat, self.framed_interior = framed.reshape(-1), framed[1:-1, 1:-1]

        r1, r2 = np.nonzero(u.masks[k].active[1:-1, 1:-1])
        r1, r2 = r1 + 1, r2 + 1
        self.rows = r1 * n + r2
        self.loads = f.images[k][r1, r2]
        self.section = Taps((r1 + _D1) * n + r2 + _D2, weights[:, r1, r2])
        self.residual = np.zeros(n * n)

        if k > 0:
            a1, a2 = _square(1, n - 1)
            self.interior = a1 * n + a2
            mirrored = (a1 - _D1) * n + a2 - _D2
            inner = zero_frame(weights).reshape(7, -1)
            self.transposed = Taps(mirrored, np.take_along_axis(inner, mirrored, axis=1))
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
        np.add(self.values_interior, self.tld_interior, out=self.framed_interior)
        section = self.section(self.framed_flat)
        section *= self.scale
        section += self.bar_flat[self.rows]
        return self.loads - section

    def smooth(self) -> None:
        """One damped Richardson step on the active rows; keeps their residual in `r`."""
        self.r = self.row_residual()
        self.values_flat[self.rows] += self.omega * self.r

    def carry_up(self) -> None:
        """ubar_{k-1} = restrict(ubar_k + A_k^T u_k), on the coarse interior."""
        np.copyto(self.framed_interior, self.values_interior)
        lifted = self.transposed(self.framed_flat)
        lifted *= self.scale
        lifted += self.bar_flat[self.interior]
        self.coarse_flat[self.coarse_interior] = self.restriction(lifted)

    def carry_down(self) -> None:
        """utilde_{k+1} = interp(utilde_k + u_k), on the next level's interior."""
        self.next_flat[self.fine] = self.interpolation((self.tld + self.values).reshape(-1))


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
    an iterate or load that is not finite on an active set, and a nonzero
    load at an active frame node: loads are zero on the frame (`RhsField`),
    and neither the sweep nor the residual has a row there.
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
        level's `row_residual()` written into its residual image: entry for
        entry the vector `_stacked_residual_norm` forms, so the same norm bit
        for bit.  It overwrites only the carried-up and residual images,
        which the next sweep rewrites before reading them (the chain in its
        downward half, the residual images for its lagged norm).
        """
        for stage in reversed(self.stages[1:]):
            stage.carry_up()
        for stage in self.stages:
            stage.residual[stage.rows] = stage.row_residual()
        images = [stage.residual for stage in self.stages]
        return float(np.linalg.norm(stack_vector(images, self.u.masks[: len(images)])))

    def sweep(self) -> float:
        """One sweep of the iterate in place; returns `llmg_sweep`'s lagged norm."""
        llmg_schedule(self.stages)
        lagged2 = 0.0
        for k, stage in enumerate(self.stages):
            if not np.isfinite(stage.values).all():
                raise ArithmeticError(f"llmg diverged: non-finite iterate on level {k}")
            stage.residual[stage.rows] = stage.r
            lagged2 += float(np.vdot(stage.residual, stage.residual))
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
