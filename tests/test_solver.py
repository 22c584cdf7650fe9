"""Levelwise multigrid sweeps, Gershgorin damping, and solver convergence."""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfem import assembly, convnet, field, solver
from mlfem.assembly import (
    STENCIL_COUPLINGS,
    apply_A_level,
    apply_stacked,
    assemble_global,
    assemble_rhs,
    carry_down,
    carry_up,
    compute_upsilon,
    compute_utilde,
    level_section,
    occupied_depth,
)
from mlfem.field import (
    LevelMask,
    empty_mask,
    full_mask,
    offset_views,
    uniform_masks,
    zero_field,
)
from mlfem.mesh import ConfigurationError, build_hierarchy, hat_overlap_offsets
from mlfem.problems import CookieProblem, discretize_kappa, problem_rhs
from mlfem.solver import (
    RESIDUAL_GATE,
    SmootherConfig,
    _stacked_residual_norm,
    choose_omega,
    llmg_solve,
    llmg_sweep,
    reference_solve,
    stack_vector,
)

from test_package import load_benchmark_layers

from oracles import (
    contraction_ratios,
    energy_seminorm,
    full_depth_sweep,
    lmg_sweep,
    min_norm_solve,
    power_lambda_max,
    random_field,
    random_mask,
    random_masks,
    random_refined_masks,
    refined_inputs,
    solve_energy_history,
    ssc_sweep,
)


def random_sparse_masks(hier, rng, density=0.3):
    """Full coarsest level, independent random active sets below it.

    Fine closures then reach past the coarse closures, which the sweep's
    full-lattice transfers must carry.
    """
    masks = [full_mask(hier, 0)]
    for k in range(1, hier.levels):
        n = hier.n(k)
        act = np.zeros((n, n), dtype=np.uint8)
        act[1:-1, 1:-1] = rng.random((n - 2, n - 2)) < density
        masks.append(LevelMask(act))
    return masks


def level_matrix(hier, diff, k):
    """Dense level stiffness over interior nodes, column by column."""
    n = hier.n(k)
    cols = []
    for a in range(1, n - 1):
        for b in range(1, n - 1):
            e = np.zeros((n, n))
            e[a, b] = 1.0
            out = apply_A_level(e, diff.upsilon[k], hier.h(k))
            cols.append(out[1:-1, 1:-1].ravel())
    return np.array(cols).T


def single_dof_setup():
    hier = build_hierarchy(3, 1)
    diff = compute_upsilon(hier, np.ones((3, 3)))
    rhs = assemble_rhs(hier, np.ones((3, 3)))
    return hier, diff, rhs


# ---------------------------------------------------------------- damping


def test_gershgorin_single_dof_quarter():
    hier, diff, _ = single_dof_setup()
    sm = choose_omega(diff, uniform_masks(hier))
    assert sm.omegas == (0.25,)


def test_gershgorin_below_inverse_lambda_max():
    hier = build_hierarchy(5, 2)
    rng = np.random.default_rng(5)
    diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(9, 9)))
    masks = uniform_masks(hier)
    gersh = choose_omega(diff, masks)
    for k in range(2):
        lam = np.linalg.eigvalsh(level_matrix(hier, diff, k)).max()
        assert gersh.omegas[k] <= 1.0 / lam + 1e-12
        # the power-iteration oracle of check 03: a Rayleigh quotient within 1%
        lam_hat = power_lambda_max(diff, k)
        assert lam <= 1.01 * lam_hat and lam_hat <= lam * (1.0 + 1e-12)


def test_gershgorin_steps_match_the_upsilon_route():
    """choose_omega reads the staged stencil images; the floats are those of
    the weights contracted from the Upsilon channels on the spot."""
    rng = np.random.default_rng(41)
    for coarse, levels in ((3, 3), (5, 2), (5, 4)):
        hier = build_hierarchy(coarse, levels)
        nf = hier.n(levels - 1)
        diff = compute_upsilon(hier, rng.uniform(0.1, 3.0, size=(nf, nf)))
        want = []
        for k in range(levels):
            h, interior = hier.h(k), hier.interior_mask(k)
            weights = np.einsum("lt,lij->tij", STENCIL_COUPLINGS, diff.upsilon[k]) * (2.0 / (h * h))
            row_sums = np.zeros(interior.shape)
            for w, view in zip(weights, offset_views(interior, hat_overlap_offsets())):
                row_sums += np.abs(w) * view
            want.append(1.0 / float((row_sums * interior).max()))
        assert choose_omega(diff, uniform_masks(hier)).omegas == tuple(want)


def test_smoothing_step_contracts_energy():
    hier = build_hierarchy(5, 1)
    rng = np.random.default_rng(13)
    diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(5, 5)))
    omega = choose_omega(diff, uniform_masks(hier)).omegas[0]
    mat = level_matrix(hier, diff, 0)
    step = np.eye(mat.shape[0]) - omega * mat
    for _ in range(100):
        w = rng.normal(size=mat.shape[0])
        before = w @ mat @ w
        after = (step @ w) @ mat @ (step @ w)
        assert after <= before * (1.0 + 1e-12)


# ---------------------------------------------------------------- sweeps


def test_single_dof_sweep_trajectory():
    hier, diff, rhs = single_dof_setup()
    masks = uniform_masks(hier)
    sm = SmootherConfig((0.125,))
    # one Richardson visit: omega * b
    u = zero_field(hier, masks)
    ssc_sweep(u, rhs, diff, sm, [0])
    assert u.values[0][1, 1] == pytest.approx(0.03125, abs=1e-15)
    # a full sweep visits the single level twice
    u = zero_field(hier, masks)
    llmg_sweep(u, rhs, diff, sm)
    assert u.values[0][1, 1] == pytest.approx(0.046875, abs=1e-15)


def test_single_level_sweep_is_richardson():
    hier = build_hierarchy(9, 1)
    rng = np.random.default_rng(17)
    diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(9, 9)))
    rhs = assemble_rhs(hier, rng.normal(size=(9, 9)))
    masks = uniform_masks(hier)
    sm = choose_omega(diff, masks)
    u = random_field(hier, masks, rng)
    manual = u.values[0] + sm.omegas[0] * (
        rhs.images[0] - apply_A_level(u.values[0], diff.upsilon[0], hier.h(0))
    ) * masks[0].active
    ssc_sweep(u, rhs, diff, sm, [0])
    assert np.allclose(u.values[0], manual, rtol=1e-14, atol=1e-15)


def test_exact_solution_is_fixed_point():
    rng = np.random.default_rng(19)
    for levels, mask_fn in ((1, None), (2, None), (3, "random")):
        hier = build_hierarchy(3, levels)
        nf = hier.n(levels - 1)
        diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(nf, nf)))
        rhs = assemble_rhs(hier, np.ones((nf, nf)))
        if mask_fn is None:
            masks = uniform_masks(hier)
        else:
            masks = random_refined_masks(hier, rng)
        sm = choose_omega(diff, masks)
        star = reference_solve(masks, diff, rhs)
        before = [v.copy() for v in star.values]
        scale = max(max(abs(v).max() for v in before), 1.0)
        llmg_sweep(star, rhs, diff, sm)
        for k in range(levels):
            assert np.allclose(star.values[k], before[k], rtol=0, atol=1e-11 * scale)


def test_zero_load_stays_zero():
    hier = build_hierarchy(3, 2)
    diff = compute_upsilon(hier, np.ones((5, 5)))
    rhs = assemble_rhs(hier, np.zeros((5, 5)))
    masks = uniform_masks(hier)
    sm = choose_omega(diff, masks)
    u, report = llmg_solve(zero_field(hier, masks), rhs, diff, sm)
    assert report.converged and report.iterations <= 1
    assert all(not v.any() for v in u.values)


def test_converged_start_takes_no_sweep():
    # the stop is tested on the initial residual, so a zero load is solved
    # before any sweep, also when no sweep is allowed
    hier = build_hierarchy(3, 2)
    diff = compute_upsilon(hier, np.ones((5, 5)))
    rhs = assemble_rhs(hier, np.zeros((5, 5)))
    masks = uniform_masks(hier)
    sm = choose_omega(diff, masks)
    for max_sweeps in (200, 0):
        _, report = llmg_solve(zero_field(hier, masks), rhs, diff, sm, max_sweeps=max_sweeps)
        assert report.iterations == 0
        assert report.status == "converged"
        assert report.residual_history == [0.0]


def test_llmg_sweep_equals_lmg_sweep():
    # the fused carried-term sweep is successive subspace correction in the
    # down-then-up level order, on the adaptive loop's masks and on
    # independent sparse ones
    hier = build_hierarchy(3, 3)
    rng = np.random.default_rng(23)
    for draw in [random_refined_masks] * 5 + [random_sparse_masks] * 10:
        diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(9, 9)))
        rhs = assemble_rhs(hier, rng.normal(size=(9, 9)))
        masks = draw(hier, rng)
        sm = choose_omega(diff, masks)
        ua = random_field(hier, masks, rng)
        ub = ua.copy()
        for _ in range(3):
            llmg_sweep(ua, rhs, diff, sm)
            lmg_sweep(ub, rhs, diff, sm)
        for k in range(3):
            assert np.allclose(ua.values[k], ub.values[k], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "levels, depth",
    [
        pytest.param(2, 2, id="2"),
        pytest.param(3, 3, id="3"),
        pytest.param(4, 4, id="4"),
        pytest.param(4, 2, id="4-depth2"),
        pytest.param(4, 1, id="4-depth1"),
    ],
)
def test_staged_solve_applies_no_kernel_inside_its_sweeps(levels, depth):
    """A solve on masks full on levels 0..depth-1 and empty below stages its
    sweep once: each occupied level's stencil images are read while staging,
    never inside a sweep, and the carried-down chain is built by the stages'
    own carry-downs, equal to `compute_utilde`'s bit for bit.  A sweep
    applies none of the level kernels: it only runs the staged gathers, and
    so does the staged stacked residual between sweeps.  The certificate,
    `apply_stacked` once after the last sweep, is the one caller of the
    kernels."""
    hier = build_hierarchy(3, levels)
    nf = hier.n(levels - 1)
    rng = np.random.default_rng(67)
    diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(nf, nf)))
    rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
    masks = [
        full_mask(hier, k) if k < depth else empty_mask(hier, k) for k in range(levels)
    ]
    assert occupied_depth(masks) == depth
    sm = choose_omega(diff, masks)

    phase = ["solve"]
    calls = []

    def traced(name, func):
        def wrapper(*args, **kwargs):
            calls.append((name, phase[0]))
            return func(*args, **kwargs)
        return wrapper

    def during(label, func):
        def wrapper(*args, **kwargs):
            outer, phase[0] = phase[0], label
            try:
                return func(*args, **kwargs)
            finally:
                phase[0] = outer
        return wrapper

    kernels = (
        (assembly, "apply_stencil"),
        (assembly, "apply_A_level"),
        (assembly, "apply_A_level_transpose"),
        (assembly, "compute_utilde"),
        (field, "prolongate_uniform"),
        (field, "restrict_uniform"),
        (field, "offset_views"),
    )
    layers = load_benchmark_layers()
    chains = []
    stage = during("staging", solver._StagedSweep.__init__)

    def staged(self, u, *args):
        stage(self, u, *args)
        chains.append(([s.tld.tobytes() for s in self.stages], [t.tobytes() for t in compute_utilde(u)]))

    with pytest.MonkeyPatch.context() as mp:
        for owner, name in kernels:
            func = getattr(owner, name)
            for site, attr in layers.bindings(func):
                mp.setattr(site, attr, traced(name, func))
        mp.setattr(assembly.DiffusionField, "stencil", traced("stencil", assembly.DiffusionField.stencil))
        mp.setattr(solver._StagedSweep, "__init__", staged)
        mp.setattr(solver._StagedSweep, "sweep", during("sweep", solver._StagedSweep.sweep))
        _, report = llmg_solve(zero_field(hier, masks), rhs, diff, sm, max_sweeps=20)
    assert report.iterations >= 1
    assert [c for c in calls if c[1] == "sweep"] == []
    staging = [name for name, where in calls if where == "staging"]
    assert not {"compute_utilde", "prolongate_uniform"} & set(staging)
    assert len(chains) == 1 and chains[0][0] == chains[0][1]
    assert staging.count("stencil") == depth
    assert not {"apply_stencil", "restrict_uniform"} & set(staging)
    # the certificate after the last sweep applies the kernels, outside the sweeps
    assert ("apply_stencil", "solve") in calls


class RecordingLevel:
    """Per-level ops that only log their visits, as (level, op) pairs."""

    def __init__(self, k, log):
        self.k, self.log = k, log

    def smooth(self):
        self.log.append((self.k, "smooth"))

    def carry_up(self):
        self.log.append((self.k, "up"))

    def carry_down(self):
        self.log.append((self.k, "down"))


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_schedule_visits_the_levels_in_llmg_order(depth):
    """Downward D-1..1 smoothing and carrying up, level 0 smoothed twice,
    upward 0..D-2 carrying down after each smoothing step, D-1 smoothed
    last; the chain is D-1 carry-downs from level 0 up."""
    log = []
    levels = [RecordingLevel(k, log) for k in range(depth)]
    solver.llmg_schedule(levels)
    down = [op for k in range(depth - 1, 0, -1) for op in ((k, "smooth"), (k, "up"))]
    up = [op for k in range(depth - 1) for op in ((k, "smooth"), (k, "down"))]
    assert log == down + [(0, "smooth")] + up + [(depth - 1, "smooth")]
    if depth == 3:
        assert log == [
            (2, "smooth"), (2, "up"), (1, "smooth"), (1, "up"), (0, "smooth"),
            (0, "smooth"), (0, "down"), (1, "smooth"), (1, "down"), (2, "smooth"),
        ]
    log.clear()
    solver.carry_down_chain(levels)
    assert log == [(k, "down") for k in range(depth - 1)]


def test_both_routes_sweep_through_the_one_schedule():
    """One `llmg_solve` sweep and one `conv_llmg_sweep` each run the one
    schedule once, and each route's setup builds its chain once, counted
    through every binding of the two functions."""
    from mlfem import convnet

    hier = build_hierarchy(5, 3)
    nf = hier.n(2)
    rng = np.random.default_rng(97)
    diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(nf, nf)))
    rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
    masks = uniform_masks(hier)
    sm = choose_omega(diff, masks)
    bank = convnet.build_stencil_bank(hier)

    calls = []

    def counted(func):
        def wrapper(*args, **kwargs):
            calls.append(func.__name__)
            return func(*args, **kwargs)
        return wrapper

    layers = load_benchmark_layers()
    with pytest.MonkeyPatch.context() as mp:
        for func in (solver.llmg_schedule, solver.carry_down_chain):
            sites = layers.bindings(func)
            assert {site.__name__ for site, _ in sites} == {"mlfem.solver", "mlfem.convnet"}
            for site, attr in sites:
                mp.setattr(site, attr, counted(func))
        _, report = llmg_solve(zero_field(hier, masks), rhs, diff, sm, max_sweeps=1)
        assert report.iterations == 1
        assert calls == ["carry_down_chain", "llmg_schedule"]
        calls.clear()
        state = convnet.init_llmg_state(bank, zero_field(hier, masks), rhs, diff, sm)
        convnet.conv_llmg_sweep(state, bank)
        assert calls == ["carry_down_chain", "llmg_schedule"]


def test_staged_chain_equals_compute_utilde():
    """Staging builds the carried-down chain with the stages' own
    carry-downs from a zero chain; on an iterate that is zero off its active
    sets, planted -0.0 included, it is `compute_utilde`'s bit for bit."""
    hier = build_hierarchy(5, 3)
    nf = hier.n(2)
    rng = np.random.default_rng(101)
    for draw in [random_refined_masks] * 3 + [random_sparse_masks] * 3:
        diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(nf, nf)))
        rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
        masks = draw(hier, rng)
        u = random_field(hier, masks, rng)
        for k in range(3):
            off = np.argwhere(masks[k].active == 0)
            pick = off[rng.choice(len(off), size=min(5, len(off)), replace=False)]
            u.values[k][pick[:, 0], pick[:, 1]] = -0.0
        staged = solver._StagedSweep(u, rhs, diff, choose_omega(diff, masks))
        want = compute_utilde(u)
        assert len(staged.stages) == len(want) == occupied_depth(masks)
        assert [s.tld.tobytes() for s in staged.stages] == [t.tobytes() for t in want]


def test_staging_rejects_an_iterate_off_its_active_sets():
    """The stages read the iterate unmasked where `apply_stacked` masks it,
    so a value off an occupied level's active set is refused before any
    sweep, naming the level; a -0.0 there passes."""
    hier = build_hierarchy(5, 3)
    nf = hier.n(2)
    rng = np.random.default_rng(103)
    diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(nf, nf)))
    rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
    masks = random_sparse_masks(hier, rng)
    assert occupied_depth(masks) == 3
    sm = choose_omega(diff, masks)
    for k in range(3):
        off = np.argwhere(masks[k].active == 0)
        # a frame node, and on the finer levels an interior one
        for node in {tuple(off[0]), tuple(off[len(off) // 2])}:
            u = zero_field(hier, masks)
            u.values[k][node] = 1e-3
            with pytest.raises(ValueError, match=f"level {k} is nonzero off its active set"):
                llmg_solve(u, rhs, diff, sm)
            with pytest.raises(ValueError, match=f"level {k} is nonzero off its active set"):
                llmg_sweep(u, rhs, diff, sm)
            u.values[k][node] = -0.0
            llmg_sweep(u, rhs, diff, sm)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_staging_rejects_a_non_finite_iterate(bad):
    """A non-finite iterate value on an occupied level's active set is
    refused before any sweep, naming the level, also when no sweep is
    allowed (it would otherwise be recorded as a nan residual)."""
    hier = build_hierarchy(5, 3)
    nf = hier.n(2)
    rng = np.random.default_rng(109)
    diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(nf, nf)))
    rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
    masks = random_sparse_masks(hier, rng)
    sm = choose_omega(diff, masks)
    for k in range(3):
        u = zero_field(hier, masks)
        u.values[k][tuple(np.argwhere(masks[k].active)[0])] = bad
        message = f"iterate image of level {k} is not finite on its active set"
        for max_sweeps in (200, 0):
            with pytest.raises(ValueError, match=message):
                llmg_solve(u, rhs, diff, sm, max_sweeps=max_sweeps)
        with pytest.raises(ValueError, match=message):
            llmg_sweep(u, rhs, diff, sm)


def test_staging_rejects_a_non_finite_load():
    """A non-finite load on an occupied level's active set is refused before
    any sweep, naming the level."""
    hier = build_hierarchy(5, 3)
    nf = hier.n(2)
    rng = np.random.default_rng(113)
    diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(nf, nf)))
    masks = random_sparse_masks(hier, rng)
    sm = choose_omega(diff, masks)
    for k in range(3):
        rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
        rhs.images[k][tuple(np.argwhere(masks[k].active)[-1])] = np.nan
        with pytest.raises(ValueError, match=f"load image of level {k} is not finite on its active set"):
            llmg_solve(zero_field(hier, masks), rhs, diff, sm)


def test_taps_add_in_tap_order():
    """A gather adds its terms in tap order, for one column and for several:
    (1e16, 1, -1e16) loses the 1, (1e16, -1e16, 1) keeps it."""
    src, ones = np.array([1e16, 1.0, -1e16]), np.ones((3, 1))
    assert field.Taps(np.array([[0], [1], [2]]), ones)(src).tolist() == [0.0]
    assert field.Taps(np.array([[0], [2], [1]]), ones)(src).tolist() == [1.0]
    # two columns, one in each order
    assert field.Taps(np.array([[0, 0], [1, 2], [2, 1]]), ones)(src).tolist() == [0.0, 1.0]


def test_taps_sum_of_negative_zeros_is_positive_zero():
    """The sum starts from +0.0, as `apply_stencil`'s `out = zeros; out +=
    w * view` loop does, so -0.0 terms (a -0.0 read or a -0.0 weight) give
    +0.0; also when it is written into an `out` array, whatever that held."""
    src = np.array([-0.0, 0.0])
    for index, coef in (([0, 0, 1], [1.0, 2.0, -1.0]), ([1] * 7, [-1.0] * 7)):
        index, coef = np.array(index)[:, None], np.array(coef)[:, None]
        terms = src[index] * coef
        assert np.signbit(terms).all()
        out = np.zeros(1)
        for term in terms:
            out += term
        got = field.Taps(index, coef)(src)
        assert got.tobytes() == out.tobytes() == np.zeros(1).tobytes()
        into = np.full(1, -0.0)
        assert field.Taps(index, coef)(src, out=into) is into
        assert into.tobytes() == out.tobytes()


def test_taps_keep_a_c_contiguous_copy_of_an_f_ordered_coef():
    """A stencil's weights gathered at some nodes, weights[:, i1, i2], come
    F-ordered; the gather keeps a C-contiguous index and coef, so every
    call's product runs over contiguous rows, and gives the same bytes."""
    rng = np.random.default_rng(113)
    weights = rng.normal(size=(7, 9, 9))
    i1, i2 = np.divmod(rng.permutation(81)[:20], 9)
    coef = weights[:, i1, i2]
    index = rng.integers(0, 81, size=(20, 7)).T
    assert coef.flags.f_contiguous and not coef.flags.c_contiguous
    assert not index.flags.c_contiguous
    taps = field.Taps(index, coef)
    assert taps.coef.flags.c_contiguous and taps.index.flags.c_contiguous
    assert taps.coef.tobytes() == np.ascontiguousarray(coef).tobytes()
    src = rng.normal(size=81)
    want = np.zeros(20)
    for t in range(7):
        want += coef[t] * src[index[t]]
    assert taps(src).tobytes() == want.tobytes()


def test_taps_sum_each_taps_channels_first():
    """A block sums each tap's terms in order before the taps: tap (0, 0)
    reads (1e16, 1, -1e16) and loses the 1, where adding tap (0, 1)'s 3
    before the -1e16 would keep a 4.  The block is (emitted, taps, ranks,
    nodes), its shorter taps padded with +0.0-weighted reads of the zero at
    the end of `src`; in the second case a padded tap sits between full
    ones."""
    src = np.array([1e16, 1.0, -1e16, 3.0, 0.0])
    index = np.array([[[0, 1, 2], [3, 4, 4]], [[1, 4, 4], [0, 2, 4]]])[..., None]
    coef = (index != 4).astype(float)
    got = field.Taps(index, coef)(src)
    assert got.tolist() == [[3.0], [1.0]]
    src = np.array([1.0, 2.0, 4.0, 8.0, 0.0])
    index = np.array([[[0, 1], [2, 3]], [[3, 4], [1, 0]]])[..., None]
    got = field.Taps(index, (index != 4).astype(float))(src)
    assert got.tolist() == [[15.0], [11.0]]
    # two nodes, and a padded term whose +0.0 weight meets an inf: the pads
    # read the zero, never a value
    src = np.array([1e16, 1.0, -1e16, np.inf, 0.0])
    index = np.array([[[0, 1, 2], [1, 4, 4]], [[2, 0, 1], [3, 4, 4]]]).transpose(1, 2, 0)[None]
    got = field.Taps(index, (index != 4).astype(float))(src)
    assert got.tolist() == [[1.0, np.inf]]


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_every_level_op_is_one_gather(depth):
    """Each stage's ops are `field.Taps`: the section on every occupied
    level, the stiffness action and restriction on levels > 0, the
    interpolation below the deepest occupied level; and the gathers' sums
    are written in `field.Taps.__call__` alone, for the conv layers too (its
    rank and tap sums), next to the mask closure's and the one sum of the
    conv stiffness action that weighs by data, the Upsilon channel sum."""
    hier = build_hierarchy(5, 4)
    nf = hier.n(3)
    rng = np.random.default_rng(107)
    diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(nf, nf)))
    rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
    masks = random_sparse_masks(hier, rng)[:depth] + [empty_mask(hier, k) for k in range(depth, 4)]
    staged = solver._StagedSweep(zero_field(hier, masks), rhs, diff, choose_omega(diff, masks))
    assert len(staged.stages) == depth
    names = ("section", "action", "restriction", "interpolation")
    for k, stage in enumerate(staged.stages):
        ops = {op for op in names if hasattr(stage, op)}
        want = {"section"} | ({"action", "restriction"} if k > 0 else set())
        assert ops == want | ({"interpolation"} if k < depth - 1 else set())
        assert all(type(getattr(stage, op)) is field.Taps for op in ops)
    owners = []
    for module in (field, solver, convnet):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        owners += [
            f"{module.__name__}.{cls.name}.{func.name}"
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for func in cls.body if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func) if isinstance(node, ast.Attribute) and node.attr == "reduce"
        ]
    assert owners == [
        "mlfem.field.Taps.__call__",
        "mlfem.field.Taps.__call__",
        "mlfem.field.LevelMask.closure",
        "mlfem.convnet._Stiffness.__call__",
    ]


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_solve_equals_one_shot_sweeps(levels):
    """`llmg_solve` with max_sweeps = m keeps its staged chain from sweep to
    sweep; m one-shot `llmg_sweep` calls, each staging a fresh chain, give
    the same iterates and lagged norms bit for bit, on random refined masks
    of every occupied depth up to `levels`."""
    hier = build_hierarchy(5, levels)
    nf = hier.n(levels - 1)
    rng = np.random.default_rng(83 + levels)
    depths = set()
    for _ in range(6):
        diff = compute_upsilon(hier, rng.uniform(0.1, 3.0, size=(nf, nf)))
        rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
        masks = random_refined_masks(hier, rng, frac=0.5)
        depths.add(occupied_depth(masks))
        sm = choose_omega(diff, masks)
        u0 = random_field(hier, masks, rng)
        m = 7
        u, report = llmg_solve(u0, rhs, diff, sm, tol=1e-14, max_sweeps=m)
        assert report.iterations == m
        ref = u0.copy()
        lagged = [llmg_sweep(ref, rhs, diff, sm) for _ in range(m)]
        assert [a.tobytes() for a in u.values] == [b.tobytes() for b in ref.values]
        # every entry but the last (a stacked residual) is a lagged norm
        assert report.residual_history[1:-1] == lagged[:-1]
    assert max(depths) == levels


def test_sweep_leaves_off_active_entries_bit_for_bit():
    """A sweep computes and writes only the active rows: every other entry,
    a planted -0.0 included, keeps its bits."""
    hier = build_hierarchy(5, 3)
    nf = hier.n(2)
    rng = np.random.default_rng(89)
    for draw in (random_refined_masks, random_sparse_masks):
        diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(nf, nf)))
        rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
        masks = draw(hier, rng)
        sm = choose_omega(diff, masks)
        u = random_field(hier, masks, rng)
        planted = []
        for k in range(3):
            off = np.argwhere(masks[k].active == 0)
            pick = off[rng.choice(len(off), size=min(5, len(off)), replace=False)]
            u.values[k][pick[:, 0], pick[:, 1]] = -0.0
            planted.append(pick)
        before = [v.copy() for v in u.values]
        for _ in range(2):
            llmg_sweep(u, rhs, diff, sm)
        for k in range(3):
            off = masks[k].active == 0
            assert u.values[k][off].tobytes() == before[k][off].tobytes()
            assert np.signbit(u.values[k][planted[k][:, 0], planted[k][:, 1]]).all()
        assert any(not np.array_equal(a, b) for a, b in zip(u.values, before))


class FullLatticeSweep:
    """`solver._StagedSweep`'s interface around the unstaged full-lattice loop."""

    calls = 0

    def __init__(self, u, f, diffusion, smoother):
        self.u, self.f, self.diffusion, self.smoother = u, f, diffusion, smoother

    def sweep(self):
        FullLatticeSweep.calls += 1
        return full_depth_sweep(self.u, self.f, self.diffusion, self.smoother)

    def residual_norm(self):
        return _stacked_residual_norm(self.u, self.f, self.diffusion)


def test_gen_dataset_bytes_match_the_full_lattice_sweep(tmp_path, monkeypatch):
    """The staged sweep and residual against the full-lattice reference
    loop, end to end: a dataset of the default config's seed-0 samples 0-2
    is byte-identical file for file when `llmg_solve` runs
    `oracles.full_depth_sweep` and forms every residual entry with
    `apply_stacked` instead."""
    from mlfem.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sampling": {"seed": 0, "count": 3}}), encoding="utf-8")
    staged, full = tmp_path / "staged", tmp_path / "full"
    assert main(["gen-dataset", "--config", str(cfg), "--out", str(staged), "--workers", "1"]) == 0
    monkeypatch.setattr(solver, "_StagedSweep", FullLatticeSweep)
    FullLatticeSweep.calls = 0
    assert main(["gen-dataset", "--config", str(cfg), "--out", str(full), "--workers", "1"]) == 0
    assert FullLatticeSweep.calls > 0
    names = sorted(p.name for p in staged.iterdir())
    assert names == sorted(p.name for p in full.iterdir()) and len(names) > 3
    for name in names:
        assert (staged / name).read_bytes() == (full / name).read_bytes(), name


def two_of_four_levels(rng):
    """A 4-level hierarchy (25 + 81 + 289 + 1089 nodes) with dofs on levels
    0 and 1 only, random data, and values +0.0 on the two empty levels."""
    hier = build_hierarchy(5, 4)
    nf = hier.n(3)
    diff = compute_upsilon(hier, rng.uniform(0.5, 3.0, size=(nf, nf)))
    rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
    masks = [full_mask(hier, 0), random_mask(hier, 1, rng)]
    masks += [empty_mask(hier, 2), empty_mask(hier, 3)]
    u = random_field(hier, masks, rng)
    return hier, diff, rhs, u


def full_depth_stacked(u, diff):
    """apply_stacked's level steps run over every level, occupied or not."""
    nlev = u.levels
    vals = [u.values[k] * u.masks[k].active for k in range(nlev)]
    tld = [np.zeros_like(vals[0])]
    for k in range(nlev - 1):
        tld.append(carry_down(tld[k], vals[k]))
    bar = [np.zeros_like(v) for v in vals]
    for k in range(nlev - 1, 0, -1):
        bar[k - 1] = carry_up(bar[k], vals[k], diff, k)
    return [
        level_section(vals[k], tld[k], bar[k], diff, k) * u.masks[k].active
        for k in range(nlev)
    ]


def test_culled_stacked_operator_and_sweep_are_bit_identical():
    # culling to the occupied levels changes no bit of an occupied level,
    # signed zeros included; the empty levels' rows are all zero (the
    # full-depth loop's may hold -0.0, the masked product of a negative)
    rng = np.random.default_rng(71)
    for _ in range(3):
        hier, diff, rhs, u = two_of_four_levels(rng)
        assert occupied_depth(u.masks) == 2
        got, want = apply_stacked(u, diff), full_depth_stacked(u, diff)
        assert [a.tobytes() for a in got[:2]] == [b.tobytes() for b in want[:2]]
        assert all(np.array_equal(a, b) and not a.any() for a, b in zip(got[2:], want[2:]))
        sm = choose_omega(diff, u.masks)
        ref = u.copy()
        for _sweep in range(3):
            lagged = llmg_sweep(u, rhs, diff, sm)
            assert lagged == full_depth_sweep(ref, rhs, diff, sm)
            assert [a.tobytes() for a in u.values] == [b.tobytes() for b in ref.values]
        for k in (2, 3):
            assert not u.values[k].any() and not np.signbit(u.values[k]).any()


def test_solve_forms_the_stacked_residual_only_near_the_stop():
    """The first, the stopping and the last allowed entry of the history are
    true stacked residuals, and so is every entry within the gate: a lagged
    entry is recorded only above it.  Each is formed by the staged
    `residual_norm`; `apply_stacked` runs once per solve, as the certificate
    of the final entry."""
    hier = build_hierarchy(5, 3)
    nf = hier.n(2)
    rng = np.random.default_rng(73)
    diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(nf, nf)))
    rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
    masks = uniform_masks(hier)
    sm = choose_omega(diff, masks)
    u0 = zero_field(hier, masks)
    threshold = 1e-10 * np.linalg.norm(stack_vector(rhs.images, masks))
    layers = load_benchmark_layers()
    for max_sweeps in (4, 500):
        tracer = layers.Tracer([
            ("staged", solver._StagedSweep, "residual_norm", None, False),
            ("certificate", assembly, "apply_stacked", "mlfem.solver", False),
        ])
        tracer.install()
        try:
            u, report = llmg_solve(u0, rhs, diff, sm, max_sweeps=max_sweeps)
        finally:
            tracer.remove()
        hist = report.residual_history
        assert hist[0] == _stacked_residual_norm(u0, rhs, diff)
        assert hist[-1] == _stacked_residual_norm(u, rhs, diff)
        assert report.converged == (max_sweeps == 500)
        assert all(r > threshold for r in hist[1:-1])
        assert tracer.calls["certificate"] == 1
        near = sum(r <= RESIDUAL_GATE * threshold for r in hist[1:])
        if max_sweeps == 4:
            assert near == 0 and tracer.calls["staged"] == 2
        else:
            assert hist[-1] <= threshold
            assert 1 + near <= tracer.calls["staged"] < report.iterations // 4


def staged_residual_cases(rng):
    """(label, hier, diff, rhs, u) on random refined masks, on
    `two_of_four_levels`, with no active node, with f = 0, and with active
    rows next to the frame."""
    hier = build_hierarchy(5, 3)
    nf = hier.n(2)

    def data(masks, f_scale=1.0):
        diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(nf, nf)))
        rhs = assemble_rhs(hier, f_scale * rng.normal(size=(nf, nf)))
        return hier, diff, rhs, random_field(hier, masks, rng)

    for draw in range(3):
        yield (f"refined{draw}", *data(random_refined_masks(hier, rng, frac=0.5)))
    yield ("two-of-four", *two_of_four_levels(rng))
    yield ("no-dof", *data([empty_mask(hier, k) for k in range(3)]))
    yield ("zero-load", *data(random_sparse_masks(hier, rng), f_scale=0.0))
    masks = random_sparse_masks(hier, rng)
    for k, node in ((1, (1, 3)), (2, (8, 15))):
        active = masks[k].active.copy()
        active[node] = 1
        masks[k] = LevelMask(active)
    yield ("frame-rows", *data(masks))


def test_staged_residual_equals_apply_stacked_bit_for_bit():
    """`_StagedSweep.residual_norm` forms, from the staged ops, the vector
    `_stacked_residual_norm` forms with `apply_stacked`, entry for entry: the
    two norms are equal bit for bit before any sweep and after 1 and 7."""
    rng = np.random.default_rng(127)
    labels = []
    for label, hier, diff, rhs, u in staged_residual_cases(rng):
        labels.append(label)
        staged = solver._StagedSweep(u, rhs, diff, choose_omega(diff, u.masks))
        assert len(staged.stages) == occupied_depth(u.masks)
        done = 0
        for sweeps in (0, 1, 7):
            for _ in range(sweeps - done):
                staged.sweep()
            done = sweeps
            got, want = staged.residual_norm(), _stacked_residual_norm(u, rhs, diff)
            assert got == want, (label, sweeps)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (label, sweeps)
            assert (got == 0.0) == (label == "no-dof")
    assert len(labels) == 7


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(refined_inputs())
def test_staged_residual_property(inputs):
    """On every mask the adaptive loop can reach, with -0.0 planted in the
    iterate on and off the active sets, the staged residual equals
    `_stacked_residual_norm`'s bit for bit, before any sweep and after 1
    and 3."""
    u, rhs, diff = inputs
    values = [v * m.active for v, m in zip(u.values, u.masks)]
    u = field.MultilevelField(u.hierarchy, values, u.masks)
    staged = solver._StagedSweep(u, rhs, diff, choose_omega(diff, u.masks))
    for sweeps in (0, 1, 2):
        for _ in range(sweeps):
            staged.sweep()
        got, want = staged.residual_norm(), _stacked_residual_norm(u, rhs, diff)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), sweeps


def test_staged_residual_leaves_the_sweeps_bit_for_bit():
    """A staged residual between sweeps overwrites only images the next
    sweep rewrites before reading: interleaved with `residual_norm` calls,
    every later iterate and lagged norm keeps its bits."""
    rng = np.random.default_rng(131)
    for label, hier, diff, rhs, u in staged_residual_cases(rng):
        sm = choose_omega(diff, u.masks)
        ref = u.copy()
        plain = solver._StagedSweep(ref, rhs, diff, sm)
        probed = solver._StagedSweep(u, rhs, diff, sm)
        for sweep in range(6):
            probed.residual_norm()
            if sweep % 2:
                probed.residual_norm()
            assert probed.sweep() == plain.sweep(), (label, sweep)
            assert [a.tobytes() for a in u.values] == [b.tobytes() for b in ref.values]


def test_solve_certifies_its_final_residual_with_apply_stacked():
    """`llmg_solve` checks its final entry against `apply_stacked` once: a
    staged section coefficient scaled by 1 + 1e-3 makes the staged residual
    disagree, and the solve raises naming both values."""
    hier = build_hierarchy(5, 3)
    nf = hier.n(2)
    rng = np.random.default_rng(137)
    diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(nf, nf)))
    rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
    masks = uniform_masks(hier)
    sm = choose_omega(diff, masks)
    u0 = random_field(hier, masks, rng)
    _, report = llmg_solve(u0, rhs, diff, sm, max_sweeps=3)
    assert report.iterations == 3
    stage = solver._StagedSweep.__init__

    def perturbed(self, *args):
        stage(self, *args)
        self.stages[-1].section.coef[0, 0] *= 1 + 1e-3

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver._StagedSweep, "__init__", perturbed)
        for max_sweeps in (0, 3):
            with pytest.raises(ArithmeticError, match=r"staged stacked residual .* differs from apply_stacked's"):
                llmg_solve(u0, rhs, diff, sm, max_sweeps=max_sweeps)


def test_sweep_input_validation():
    hier = build_hierarchy(3, 2)
    diff = compute_upsilon(hier, np.ones((5, 5)))
    rhs = assemble_rhs(hier, np.ones((5, 5)))
    masks = uniform_masks(hier)
    u = zero_field(hier, masks)
    with pytest.raises(ConfigurationError):
        llmg_sweep(u, rhs, diff, SmootherConfig((0.1,)))
    # the staged sweep updates flat views of the iterate images
    u.values[1] = np.zeros((9, 9))[::2, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        llmg_sweep(u, rhs, diff, choose_omega(diff, masks))
    with pytest.raises(ConfigurationError):
        ssc_sweep(u, rhs, diff, SmootherConfig((0.1, 0.1)), [2])


# ---------------------------------------------------------------- solves


def test_single_dof_solve():
    hier, diff, rhs = single_dof_setup()
    masks = uniform_masks(hier)
    sm = SmootherConfig((0.125,))
    u, report = llmg_solve(zero_field(hier, masks), rhs, diff, sm, tol=1e-12)
    assert report.converged and report.iterations <= 60
    assert u.values[0][1, 1] == pytest.approx(0.0625, rel=1e-10)


def test_solve_matches_direct_three_levels():
    hier = build_hierarchy(5, 3)
    rng = np.random.default_rng(29)
    nf = hier.n(2)
    diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(nf, nf)))
    rhs = assemble_rhs(hier, np.ones((nf, nf)))
    masks = uniform_masks(hier)
    sm = choose_omega(diff, masks)
    star = reference_solve(masks, diff, rhs)
    u, report = llmg_solve(zero_field(hier, masks), rhs, diff, sm, tol=1e-12)
    assert report.converged
    delta = u.copy()
    for k in range(3):
        delta.values[k] = u.values[k] - star.values[k]
    rel = energy_seminorm(delta, diff) / energy_seminorm(star, diff)
    assert rel <= 1e-8


def test_solve_converges_on_random_sparse_masks():
    problem = CookieProblem()
    hier = build_hierarchy(5, 3)
    diff = compute_upsilon(hier, discretize_kappa(problem, (0.5, 0.5), hier))
    rhs = problem_rhs(problem, hier)
    sm = choose_omega(diff, uniform_masks(hier))
    rng = np.random.default_rng(61)
    for _ in range(10):
        masks = random_sparse_masks(hier, rng)
        u, report = llmg_solve(
            zero_field(hier, masks), rhs, diff, sm, tol=1e-10, max_sweeps=2000
        )
        assert report.converged
        # compared as functions: the stacked system can be singular, so the
        # minimum-norm reference need not share the iterate's coefficients
        star = reference_solve(masks, diff, rhs)
        delta = u.copy()
        delta.values = [a - b for a, b in zip(u.values, star.values)]
        assert energy_seminorm(delta, diff) <= 1e-8 * energy_seminorm(star, diff)


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_reference_and_llmg_solve_agree_on_rows_next_to_the_frame(levels, seed):
    """One stacked system: on random masks with rows next to the frame on
    every level, a converged `llmg_solve` and `reference_solve` (the
    assembled matrix) give the same function, to 1e-8 in the energy
    seminorm.  No frame node can be active (`LevelMask`), so the two have
    the same rows."""
    hier = build_hierarchy(5, levels)
    rng = np.random.default_rng(seed)
    nf = hier.n(levels - 1)
    diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(nf, nf)))
    rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
    masks = []
    for k, mask in enumerate(random_masks(hier, rng, density=0.3)):
        n = hier.n(k)
        ring = hier.interior_mask(k)
        ring[2:-2, 2:-2] = 0
        active = mask.active | (ring & (rng.random((n, n)) < 0.5))
        active[1, rng.integers(1, n - 1)] = 1
        masks.append(LevelMask(active))
    u, report = llmg_solve(
        zero_field(hier, masks), rhs, diff, choose_omega(diff, masks), max_sweeps=5000
    )
    assert report.converged
    star = reference_solve(masks, diff, rhs)
    delta = u.copy()
    delta.values = [a - b for a, b in zip(u.values, star.values)]
    assert energy_seminorm(delta, diff) <= 1e-8 * energy_seminorm(star, diff)


def test_reference_solve_gives_the_minimum_norm_coefficients():
    """CG from zero returns A^+ b on stacked systems, singular ones included.

    The load b = S^T f lies in range(A), and so does every CG iterate from
    zero, so the stacked coefficients must match the dense minimum-norm
    solve, not only the function they represent.  Bound 1e-11 relative in
    the 2-norm, stated before running.  Some of the drawn systems must be
    rank-deficient, or the test would not reach the property."""
    rng = np.random.default_rng(71)
    deficient = 0
    for levels in (2, 3, 4):
        hier = build_hierarchy(5, levels)
        nf = hier.n(levels - 1)
        draws = (random_refined_masks(hier, rng), random_masks(hier, rng), uniform_masks(hier))
        for masks in draws:
            diff = compute_upsilon(hier, rng.uniform(0.1, 3.0, size=(nf, nf)))
            rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
            matrix, _ = assemble_global(hier, masks, diff)
            b = stack_vector(rhs.images, masks)
            want, rank = min_norm_solve(matrix, b)
            got = stack_vector(reference_solve(masks, diff, rhs).values, masks)
            assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)
            deficient += rank < b.size
    assert deficient >= 2


def test_reference_solve_reports_cg_failure(monkeypatch):
    import scipy.sparse.linalg as spla

    hier = build_hierarchy(3, 2)
    diff = compute_upsilon(hier, np.ones((5, 5)))
    rhs = assemble_rhs(hier, np.ones((5, 5)))
    masks = uniform_masks(hier)
    monkeypatch.setattr(spla, "cg", lambda matrix, b, **kw: (np.zeros(b.size), 7))
    with pytest.raises(RuntimeError, match=r"failed \(info=7, n=10, residual=\d\.\d{3}e[-+]\d+\)"):
        reference_solve(masks, diff, rhs)


@pytest.mark.parametrize("levels", [1, 2])
def test_reference_solve_rejects_a_large_residual(monkeypatch, levels):
    """Either path's solution must leave a residual within 1e-9 ||b||,
    whatever the solver reports: here SuperLU and CG return zero."""
    import scipy.sparse.linalg as spla

    hier = build_hierarchy(3, levels)
    nf = hier.n(levels - 1)
    diff = compute_upsilon(hier, np.ones((nf, nf)))
    rhs = assemble_rhs(hier, np.ones((nf, nf)))
    monkeypatch.setattr(spla, "spsolve", lambda matrix, b, **kw: np.zeros(b.size))
    monkeypatch.setattr(spla, "cg", lambda matrix, b, **kw: (np.zeros(b.size), 0))
    with pytest.raises(RuntimeError, match=r"stacked solve residual .* too large \(\|\|b\|\| = "):
        reference_solve(uniform_masks(hier), diff, rhs)


def test_iteration_count_obeys_contraction_bound():
    hier = build_hierarchy(5, 2)
    rng = np.random.default_rng(31)
    diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(9, 9)))
    rhs = assemble_rhs(hier, np.ones((9, 9)))
    masks = uniform_masks(hier)
    sm = choose_omega(diff, masks)
    tol = 1e-8
    u, report = llmg_solve(zero_field(hier, masks), rhs, diff, sm, tol=tol)
    assert report.converged
    hist = report.residual_history
    chat = max(hist[i + 1] / hist[i] for i in range(len(hist) - 1))
    assert 0.0 < chat < 1.0
    bound = math.ceil(math.log(1.0 / tol) / math.log(1.0 / chat)) + 2
    assert report.iterations <= bound


def test_contraction_below_one_and_degrades_with_depth():
    rates = []
    for levels in range(1, 6):
        hier = build_hierarchy(3, levels)
        nf = hier.n(levels - 1)
        diff = compute_upsilon(hier, np.ones((nf, nf)))
        rhs = assemble_rhs(hier, np.ones((nf, nf)))
        masks = uniform_masks(hier)
        sm = choose_omega(diff, masks)
        star = reference_solve(masks, diff, rhs)
        _, report, energies = solve_energy_history(
            zero_field(hier, masks), rhs, diff, sm, star, tol=1e-10
        )
        assert report.converged
        tail = contraction_ratios(energies)[-5:]
        rate = float(np.median(tail))
        assert rate < 1.0
        rates.append(rate)
    for a, b in zip(rates, rates[1:]):
        assert b >= a - 1e-3


def test_solve_rejects_bad_tolerance():
    hier, diff, rhs = single_dof_setup()
    masks = uniform_masks(hier)
    sm = choose_omega(diff, masks)
    with pytest.raises(ConfigurationError):
        llmg_solve(zero_field(hier, masks), rhs, diff, sm, tol=0.0)


def test_solve_rejects_negative_max_sweeps():
    hier, diff, rhs = single_dof_setup()
    masks = uniform_masks(hier)
    sm = choose_omega(diff, masks)
    with pytest.raises(ConfigurationError, match="max_sweeps"):
        llmg_solve(zero_field(hier, masks), rhs, diff, sm, max_sweeps=-1)
    _, report = llmg_solve(zero_field(hier, masks), rhs, diff, sm, max_sweeps=0)
    assert (report.iterations, report.status, len(report.residual_history)) == (0, "max_sweeps", 1)


@pytest.mark.parametrize("omega", [0.0, -0.125, math.nan, math.inf, -math.inf])
def test_smoother_steps_must_be_finite_and_positive(omega):
    """A step that is not finite and > 0 is refused when the config is made,
    so neither route's solve or staging starts on it."""
    from mlfem.convnet import build_stencil_bank, init_llmg_state

    hier = build_hierarchy(3, 2)
    diff = compute_upsilon(hier, np.ones((5, 5)))
    rhs = assemble_rhs(hier, np.ones((5, 5)))
    masks = uniform_masks(hier)
    with pytest.raises(ConfigurationError, match="finite and > 0"):
        llmg_solve(zero_field(hier, masks), rhs, diff, SmootherConfig((0.1, omega)), max_sweeps=50)
    bank = build_stencil_bank(hier)
    with pytest.raises(ConfigurationError, match="finite and > 0"):
        init_llmg_state(bank, zero_field(hier, masks), rhs, diff, SmootherConfig((omega, 0.1)))
    steps = SmootherConfig([np.float64(0.25), 1]).omegas
    assert steps == (0.25, 1.0) and all(type(w) is float for w in steps)


def test_report_histories_are_consistent():
    hier = build_hierarchy(3, 2)
    rng = np.random.default_rng(37)
    diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(5, 5)))
    rhs = assemble_rhs(hier, np.ones((5, 5)))
    masks = uniform_masks(hier)
    sm = choose_omega(diff, masks)
    star = reference_solve(masks, diff, rhs)
    # the energy-history oracle records the errors of llmg_solve's own sweeps
    u, report, hist = solve_energy_history(zero_field(hier, masks), rhs, diff, sm, star)
    assert report.converged
    assert len(report.residual_history) == report.iterations + 1
    assert len(hist) == report.iterations + 1
    # the last residual entry is the true stacked residual of the returned
    # iterate, up to the round-off of forming it with the assembled matrix
    matrix, _ = assemble_global(hier, masks, diff)
    bvec, xvec = stack_vector(rhs.images, masks), stack_vector(u.values, masks)
    roundoff = 64 * np.finfo(float).eps * np.linalg.norm(np.abs(bvec) + abs(matrix) @ np.abs(xvec))
    assert abs(report.residual_history[-1] - np.linalg.norm(bvec - matrix @ xvec)) <= roundoff
    assert all(e >= 0.0 for e in hist)
    # monotone decrease in energy for a symmetric positive smoother
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(hist, hist[1:]))
