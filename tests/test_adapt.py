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
from mlfem.assembly import apply_stacked, compute_upsilon
from mlfem.estimator import EstimatorField, leaf_triangle_masks
from mlfem.field import MultilevelField, flatten_to_finest, uniform_masks
from mlfem.mesh import ConfigurationError, build_hierarchy
from mlfem.problems import CookieProblem, discretize_kappa, load_image, problem_rhs
from mlfem.solver import reference_solve, stack_vector

from oracles import (
    multilevel_eval,
    random_refined_masks,
    refine_support_oracle,
    weighted_h1_seminorm,
)


def cookie_data(y, hier, problem=CookieProblem()):
    """The discrete data afem runs on: coefficient channels and load image."""
    return compute_upsilon(hier, discretize_kappa(problem, y, hier)), load_image(problem, hier)


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
    with pytest.warns(RuntimeWarning, match="dropping 1 marked triangles") as record:
        out = refine(initial_masks(hier), marks, hier)
    assert not out[1].active.any()
    # the warning points at the caller of refine
    assert record[0].filename == __file__


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
    va = multilevel_eval(u, pts)
    vb = multilevel_eval(u2, pts)
    assert np.allclose(va, vb, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------- adaptive loop


def test_afem_one_iteration_matches_direct_solve():
    problem = CookieProblem()
    y = (0.7, 0.2)
    hier = build_hierarchy(5, 2)
    diff, f_values = cookie_data(y, hier, problem)
    u, est, report = afem(diff, f_values, 1)
    rhs = problem_rhs(problem, hier)
    star = reference_solve(initial_masks(hier), diff, rhs)
    got = flatten_to_finest(u)
    want = flatten_to_finest(star)
    h = hier.h(hier.levels - 1)
    num = weighted_h1_seminorm(got - want, diff.tri_integrals[-1], h)
    den = weighted_h1_seminorm(want, diff.tri_integrals[-1], h)
    assert num <= 1e-8 * den
    assert report.iterations == 1
    assert [step.u.dof_count() for step in report.steps] == [9]
    assert report.converged


def test_afem_zero_load_is_inert():
    problem = CookieProblem(load=0.0)
    hier = build_hierarchy(5, 2)
    u, est, report = afem(*cookie_data((0.5, 0.5), hier, problem), 2)
    assert [step.est.total() for step in report.steps] == [0.0, 0.0]
    assert [step.marks.count() for step in report.steps] == [0, 0]
    assert [step.u.dof_count() for step in report.steps] == [9, 9]
    assert all(step.solve.iterations == 0 for step in report.steps)
    assert all(not v.any() for v in u.values)
    assert est.total() == 0.0


@pytest.mark.filterwarnings("ignore:dropping .* marked triangles:RuntimeWarning")
def test_afem_steps_are_snapshots():
    # three passes on two levels mark into the saturated deepest level; the
    # dropped-marks warning is part of the expected behavior here
    hier = build_hierarchy(5, 2)
    data = cookie_data((0.3, 0.9), hier)
    _, _, report = afem(*data, 3, theta=0.3)
    assert report.iterations == 3
    # a stored step is what a run stopping after that pass ends on: later
    # passes never overwrite its images
    for i, step in enumerate(report.steps):
        _, _, short = afem(*data, i + 1, theta=0.3)
        want = short.steps[-1]
        for k in range(hier.levels):
            assert np.array_equal(step.u.values[k], want.u.values[k])
            assert np.array_equal(step.u.masks[k].active, want.u.masks[k].active)
            assert np.array_equal(step.est.eta2[k], want.est.eta2[k])
            assert np.array_equal(step.marks.marks[k], want.marks.marks[k])
    # active sets only grow between iterations
    for before, after in zip(report.steps, report.steps[1:]):
        for a, b in zip(before.u.masks, after.u.masks):
            assert ((b.active.astype(int) - a.active.astype(int)) >= 0).all()


def test_afem_galerkin_orthogonality():
    problem = CookieProblem()
    y = (0.6, 0.1)
    hier = build_hierarchy(5, 2)
    diff, f_values = cookie_data(y, hier, problem)
    rhs = problem_rhs(problem, hier)
    # the nearly redundant stacked system needs a generous sweep budget for
    # the inner solves to actually hit the 1e-10 residual target
    _, _, report = afem(diff, f_values, 2, theta=0.3, max_sweeps=5000)
    assert report.converged
    rng = np.random.default_rng(149)
    for step in report.steps:
        u, masks = step.u, step.u.masks
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
    hier = build_hierarchy(5, 3)
    u, est, report = afem(*cookie_data((0.2, 0.8), hier), 3, theta=0.2, max_sweeps=5000)
    assert report.iterations == 3
    assert len(report.steps) == 3
    dofs = [step.u.dof_count() for step in report.steps]
    assert all(b >= a for a, b in zip(dofs, dofs[1:]))
    assert report.converged
    assert all(step.solve.status == "converged" for step in report.steps)
    assert all(step.est.total() > 0.0 for step in report.steps)


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
    afem(*cookie_data((0.3, 0.9), build_hierarchy(5, 2)), iterations, theta=0.3)
    assert len(calls) == iterations


def test_afem_input_validation():
    data = cookie_data((0.5, 0.5), build_hierarchy(3, 2))
    with pytest.raises(ConfigurationError):
        afem(*data, 0)
    with pytest.raises(ConfigurationError):
        afem(*data, 1, marking="random")


def test_initial_masks_and_empty_marks():
    hier = build_hierarchy(5, 3)
    masks = initial_masks(hier)
    assert int(masks[0].active.sum()) == 9
    assert not masks[1].active.any() and not masks[2].active.any()
    assert empty_marks(hier).count() == 0
    ms = MarkSet(hier, [np.ones((2, hier.n(k), hier.n(k)), dtype=np.uint8) for k in range(3)])
    assert ms.count() == 2 * (25 + 81 + 289)
