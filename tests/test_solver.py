"""Levelwise multigrid sweeps, Gershgorin damping, and solver convergence."""

import math

import numpy as np
import pytest

from mlfem import assembly, field
from mlfem.assembly import (
    apply_A_level,
    apply_stacked,
    assemble_global,
    assemble_rhs,
    carry_down,
    carry_up,
    compute_upsilon,
    level_section,
    occupied_depth,
)
from mlfem.field import empty_mask, full_mask, make_mask, uniform_masks, zero_field
from mlfem.mesh import ConfigurationError, build_hierarchy
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
    lmg_sweep,
    power_lambda_max,
    random_field,
    random_mask,
    random_refined_masks,
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
        masks.append(make_mask(act))
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
def test_sweep_applies_exactly_the_counted_kernels(levels, depth):
    """One direct sweep on masks full on levels 0..depth-1 and empty below:
    each occupied level is smoothed twice, the carried-up content takes one
    transposed action and one restriction per occupied level below the
    deepest, and the carried-down chain is built once and updated once."""
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
    u = random_field(hier, masks, rng)

    # the benchmark's tracer, counting every mlfem binding of each kernel
    kernels = (
        (assembly, "apply_A_level"),
        (assembly, "apply_A_level_transpose"),
        (field, "prolongate_uniform"),
        (field, "restrict_uniform"),
        (assembly, "apply_stacked"),
    )
    tracer = load_benchmark_layers().Tracer(
        [(name, owner, name, None, False) for owner, name in kernels]
    )
    tracer.install()
    try:
        llmg_sweep(u, rhs, diff, sm)
    finally:
        tracer.remove()
    assert tracer.calls == {
        "apply_A_level": 2 * depth,
        "apply_A_level_transpose": depth - 1,
        "prolongate_uniform": 2 * (depth - 1),
        "restrict_uniform": depth - 1,
        "apply_stacked": 0,
    }


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
    for k in (2, 3):
        u.values[k] = np.zeros_like(u.values[k])
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


def full_depth_sweep(u, f, diff, sm):
    """llmg_sweep's level steps run over every level; returns the lagged
    norm sqrt(sum_k ||r_k||^2) of the upward half's masked residuals."""
    nlev = u.levels
    act = [m.active for m in u.masks]
    tld = [np.zeros_like(u.values[0])]
    for k in range(nlev - 1):
        tld.append(carry_down(tld[k], u.values[k] * act[k]))
    bar = [np.zeros_like(v) for v in u.values]
    lagged2 = []

    def smooth(k):
        section = level_section(u.values[k], tld[k], bar[k], diff, k)
        r = (f.images[k] - section) * act[k]
        u.values[k] += sm.omegas[k] * (f.images[k] - section) * act[k]
        return float(np.vdot(r, r))

    for k in range(nlev - 1, -1, -1):
        smooth(k)
        if k > 0:
            bar[k - 1] = carry_up(bar[k], u.values[k], diff, k)
    for k in range(nlev):
        lagged2.append(smooth(k))
        if k < nlev - 1:
            tld[k + 1] = carry_down(tld[k], u.values[k])
    return float(np.sqrt(sum(lagged2)))


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
    entry is recorded only above it."""
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
        tracer = layers.Tracer([("residual", assembly, "apply_stacked", "mlfem.solver", False)])
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
        near = sum(r <= RESIDUAL_GATE * threshold for r in hist[1:])
        if max_sweeps == 4:
            assert near == 0 and tracer.calls["residual"] == 2
        else:
            assert hist[-1] <= threshold
            assert 1 + near <= tracer.calls["residual"] < report.iterations // 4


def test_sweep_input_validation():
    hier = build_hierarchy(3, 2)
    diff = compute_upsilon(hier, np.ones((5, 5)))
    rhs = assemble_rhs(hier, np.ones((5, 5)))
    masks = uniform_masks(hier)
    u = zero_field(hier, masks)
    with pytest.raises(ConfigurationError):
        llmg_sweep(u, rhs, diff, SmootherConfig((0.1,)))
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
