"""Marking strategies, mask refinement, and the adaptive loop."""

import numpy as np
import pytest

from mlfem import adapt
from mlfem.adapt import (
    MarkSet,
    afem,
    empty_marks,
    initial_masks,
    mark_doerfler,
    mark_threshold,
    refine,
)
from mlfem.assembly import apply_stacked, compute_upsilon, weighted_h1_seminorm
from mlfem.estimator import EstimatorField, estimate, leaf_triangle_masks
from mlfem.field import MultilevelField, evaluate_field, flatten_to_finest, uniform_masks
from mlfem.mesh import ConfigurationError, build_hierarchy
from mlfem.problems import CookieProblem, discretize_kappa, problem_rhs
from mlfem.solver import reference_solve, stack_vector

from oracles import refine_support_oracle


def random_refined_masks(hier, rng, frac=0.35):
    masks = initial_masks(hier)
    for _ in range(hier.levels - 1):
        leaves = leaf_triangle_masks(hier, masks)
        ms = empty_marks(hier)
        for k in range(hier.levels - 1):
            pick = (rng.random(leaves[k].shape) < frac).astype(np.uint8)
            ms.marks[k][...] = pick & leaves[k]
        if ms.count() == 0:
            for k in range(hier.levels - 1):
                idx = np.argwhere(leaves[k])
                if len(idx):
                    q, a, b = idx[rng.integers(len(idx))]
                    ms.marks[k][q, a, b] = 1
                    break
        masks = refine(masks, ms, hier)
    return masks


def synthetic_estimator(hier, masks, rng):
    tri_mask = leaf_triangle_masks(hier, masks)
    r2 = [rng.uniform(size=m.shape) * m for m in tri_mask]
    j2 = [rng.uniform(size=m.shape) * m for m in tri_mask]
    eta2 = [a + b for a, b in zip(r2, j2)]
    return EstimatorField(hier, r2, j2, eta2, tri_mask)


# ---------------------------------------------------------------- marking


def test_threshold_empty_all_and_filter():
    hier = build_hierarchy(3, 3)
    rng = np.random.default_rng(109)
    est = synthetic_estimator(hier, random_refined_masks(hier, rng), rng)
    assert mark_threshold(est, 1e9).count() == 0
    everything = mark_threshold(est, 1e-300)
    want_all = sum(int(((e > 0) & (m > 0)).sum()) for e, m in zip(est.eta2, est.tri_mask))
    assert everything.count() == want_all
    thr = rng.uniform(0.2, 1.5, size=hier.levels)
    got = mark_threshold(est, thr)
    for k in range(hier.levels):
        want = ((est.eta2[k] > thr[k]) & (est.tri_mask[k] > 0)).astype(np.uint8)
        assert np.array_equal(got.marks[k], want)
    with pytest.raises(ConfigurationError):
        mark_threshold(est, [1.0, 0.0, 1.0])


def test_doerfler_two_bucket_example():
    hier = build_hierarchy(3, 1)
    tri_mask = leaf_triangle_masks(hier, uniform_masks(hier))
    eta2 = [np.zeros((2, 3, 3))]
    eta2[0][0, 0, 0] = 3.0
    eta2[0][1, 1, 1] = 1.0
    est = EstimatorField(hier, eta2, [np.zeros((2, 3, 3))], eta2, tri_mask)
    half = mark_doerfler(est, 0.5)
    assert half.count() == 1 and half.marks[0][0, 0, 0] == 1
    nearly_all = mark_doerfler(est, 0.999)
    assert nearly_all.count() == 2
    assert nearly_all.marks[0][1, 1, 1] == 1


def test_doerfler_minimal_prefix_property():
    hier = build_hierarchy(3, 3)
    rng = np.random.default_rng(113)
    for theta in (0.1, 0.4, 0.8):
        est = synthetic_estimator(hier, random_refined_masks(hier, rng), rng)
        total = est.total()
        ms = mark_doerfler(est, theta)
        vals = np.concatenate(
            [est.eta2[k][ms.marks[k] > 0].ravel() for k in range(hier.levels)]
        )
        assert vals.sum() >= theta * total - 1e-12 * total
        assert vals.sum() - vals.min() < theta * total


def test_doerfler_rejects_bad_theta():
    hier = build_hierarchy(3, 1)
    rng = np.random.default_rng(2)
    est = synthetic_estimator(hier, uniform_masks(hier), rng)
    for theta in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ConfigurationError):
            mark_doerfler(est, theta)


def test_doerfler_zero_estimator_marks_nothing():
    hier = build_hierarchy(3, 1)
    tri_mask = leaf_triangle_masks(hier, uniform_masks(hier))
    z = [np.zeros((2, 3, 3))]
    est = EstimatorField(hier, z, z, z, tri_mask)
    assert mark_doerfler(est, 0.5).count() == 0


# ---------------------------------------------------------------- refinement


def test_refine_empty_marks_is_identity():
    hier = build_hierarchy(3, 3)
    rng = np.random.default_rng(127)
    masks = random_refined_masks(hier, rng)
    out = refine(masks, empty_marks(hier), hier)
    for old, new in zip(masks, out):
        assert np.array_equal(old.active, new.active)
        assert np.array_equal(old.closure, new.closure)


def test_refine_single_mark_matches_support_oracle():
    hier = build_hierarchy(3, 2)
    rng = np.random.default_rng(131)
    for q in (1, 2):
        for a in range(2):
            for b in range(2):
                marks = empty_marks(hier)
                marks.marks[0][q - 1, a, b] = 1
                out = refine(initial_masks(hier), marks, hier)
                lit = refine_support_oracle(
                    marks.marks[0], hier.h(0), hier.n(1), hier.h(1)
                )
                assert np.array_equal(out[1].active, lit)


def test_refine_all_marks_fills_next_interior():
    hier = build_hierarchy(3, 2)
    marks = empty_marks(hier)
    marks.marks[0][:, :2, :2] = 1
    out = refine(initial_masks(hier), marks, hier)
    want = np.zeros((5, 5), dtype=np.uint8)
    want[1:-1, 1:-1] = 1
    assert np.array_equal(out[1].active, want)


def test_refine_preserves_existing_active_sets():
    hier = build_hierarchy(3, 3)
    rng = np.random.default_rng(137)
    masks = random_refined_masks(hier, rng)
    marks = empty_marks(hier)
    marks.marks[1][0, 1, 1] = 1
    out = refine(masks, marks, hier)
    for k in range(3):
        assert ((out[k].active - masks[k].active) >= 0).all()


def test_refine_warns_on_saturated_depth():
    hier = build_hierarchy(3, 2)
    marks = empty_marks(hier)
    marks.marks[1][0, 0, 0] = 1
    with pytest.warns(RuntimeWarning):
        out = refine(initial_masks(hier), marks, hier)
    assert not out[1].active.any()


def test_refined_space_preserves_function():
    hier = build_hierarchy(3, 3)
    rng = np.random.default_rng(139)
    masks = random_refined_masks(hier, rng)
    vals = [rng.normal(size=(hier.n(k),) * 2) * masks[k].active for k in range(3)]
    u = MultilevelField(hier, vals, masks)
    marks = empty_marks(hier)
    leaves = leaf_triangle_masks(hier, masks)
    marks.marks[0][...] = leaves[0]
    marks.marks[1][...] = leaves[1]
    grown = refine(masks, marks, hier)
    u2 = MultilevelField(hier, vals, grown)
    pts = rng.uniform(0.0, 1.0, size=(500, 2))
    va = evaluate_field(u, pts)
    vb = evaluate_field(u2, pts)
    assert np.allclose(va, vb, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------- adaptive loop


def test_afem_one_iteration_matches_direct_solve():
    problem = CookieProblem()
    y = (0.7, 0.2)
    hier = build_hierarchy(5, 2)
    u, est, report = afem(problem, y, hier, 1)
    kappa = discretize_kappa(problem, y, hier)
    diff = compute_upsilon(hier, kappa)
    rhs = problem_rhs(problem, hier)
    star = reference_solve(initial_masks(hier), diff, rhs)
    got = flatten_to_finest(u)
    want = flatten_to_finest(star)
    h = hier.h(hier.levels - 1)
    num = weighted_h1_seminorm(got - want, diff.tri_integrals[-1], h)
    den = weighted_h1_seminorm(want, diff.tri_integrals[-1], h)
    assert num <= 1e-8 * den
    assert report.iterations == 1
    assert report.dofs == [9]
    assert report.converged


def test_afem_zero_load_is_inert():
    problem = CookieProblem(load=0.0)
    hier = build_hierarchy(5, 2)
    u, est, report = afem(problem, (0.5, 0.5), hier, 2)
    assert report.eta2_total == [0.0, 0.0]
    assert report.marked == [0, 0]
    assert report.dofs == [9, 9]
    assert all(not v.any() for v in u.values)
    assert est.total() == 0.0


@pytest.mark.filterwarnings("ignore:dropping .* marked triangles:RuntimeWarning")
def test_afem_observer_sees_each_iteration():
    # three passes on two levels mark into the saturated deepest level; the
    # dropped-marks warning is part of the expected behavior here
    problem = CookieProblem()
    hier = build_hierarchy(5, 2)
    seen = []

    def obs(it, u, est, marks):
        seen.append((it, [m.active.copy() for m in u.masks], [v.copy() for v in u.values]))

    afem(problem, (0.3, 0.9), hier, 3, theta=0.3, observer=obs)
    assert [s[0] for s in seen] == [0, 1, 2]
    # active sets only grow between iterations
    for (_, before, _), (_, after, _) in zip(seen, seen[1:]):
        for a, b in zip(before, after):
            assert ((b.astype(int) - a.astype(int)) >= 0).all()


def test_afem_galerkin_orthogonality():
    problem = CookieProblem()
    y = (0.6, 0.1)
    hier = build_hierarchy(5, 2)
    kappa = discretize_kappa(problem, y, hier)
    diff = compute_upsilon(hier, kappa)
    rhs = problem_rhs(problem, hier)
    snaps = []

    def obs(it, u, est, marks):
        snaps.append(([v.copy() for v in u.values], [m.copy() for m in u.masks]))

    # the nearly redundant stacked system needs a generous sweep budget for
    # the inner solves to actually hit the 1e-10 residual target
    _, _, report = afem(problem, y, hier, 2, theta=0.3, max_sweeps=5000, observer=obs)
    assert report.converged
    rng = np.random.default_rng(149)
    for vals, masks in snaps:
        u = MultilevelField(hier, vals, masks)
        blocks = apply_stacked(u, diff)
        defect = [
            (rhs.images[k] - blocks[k]) * masks[k].active for k in range(hier.levels)
        ]
        d = stack_vector(defect, masks)
        fvec = stack_vector(rhs.images, masks)
        for _ in range(20):
            w = [rng.normal(size=(hier.n(k),) * 2) * masks[k].active for k in range(2)]
            wvec = stack_vector(w, masks)
            bound = 1e-8 * np.linalg.norm(fvec) * np.linalg.norm(wvec)
            assert abs(float(d @ wvec)) <= bound


def test_afem_report_structure():
    problem = CookieProblem()
    hier = build_hierarchy(5, 3)
    u, est, report = afem(problem, (0.2, 0.8), hier, 3, theta=0.2, max_sweeps=5000)
    assert report.iterations == 3
    for seq in (report.eta2_total, report.marked, report.sweeps, report.solver_statuses):
        assert len(seq) == 3
    assert all(b >= a for a, b in zip(report.dofs, report.dofs[1:]))
    assert report.converged
    assert all(s == "converged" for s in report.solver_statuses)
    assert all(e > 0.0 for e in report.eta2_total)


@pytest.mark.filterwarnings("ignore:dropping .* marked triangles:RuntimeWarning")
@pytest.mark.parametrize("iterations", [1, 3])
def test_afem_estimates_once_per_iteration(monkeypatch, iterations):
    """Every estimate afem computes is read: one per solve, none before the loop."""
    calls = []
    real_estimate = adapt.estimate

    def counted_estimate(*args, **kwargs):
        calls.append(1)
        return real_estimate(*args, **kwargs)

    monkeypatch.setattr(adapt, "estimate", counted_estimate)
    afem(CookieProblem(), (0.3, 0.9), build_hierarchy(5, 2), iterations, theta=0.3)
    assert len(calls) == iterations


def test_afem_input_validation():
    problem = CookieProblem()
    hier = build_hierarchy(3, 2)
    with pytest.raises(ConfigurationError):
        afem(problem, (0.5, 0.5), hier, 0)
    with pytest.raises(ConfigurationError):
        afem(problem, (0.5, 0.5), hier, 1, marking="random")


def test_initial_masks_and_empty_marks():
    hier = build_hierarchy(5, 3)
    masks = initial_masks(hier)
    assert int(masks[0].active.sum()) == 9
    assert not masks[1].active.any() and not masks[2].active.any()
    assert empty_marks(hier).count() == 0
    ms = MarkSet(hier, [np.ones((2, hier.n(k), hier.n(k)), dtype=np.uint8) for k in range(3)])
    assert ms.count() == 2 * (25 + 81 + 289)
