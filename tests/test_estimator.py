"""Residual estimator closed forms, aggregation, and leaf bookkeeping."""

import numpy as np
import pytest

from mlfem.adapt import initial_masks
from mlfem.assembly import assemble_rhs, compute_upsilon
from mlfem.estimator import (
    aggregate_to_level,
    estimate,
    finest_estimator_images,
    leaf_triangle_masks,
)
from mlfem.field import MultilevelField, uniform_masks, zero_field
from mlfem.mesh import TRI_CHILD_OFFSETS, build_hierarchy
from mlfem.problems import (
    CookieProblem,
    discretize_kappa,
    overkill_reference,
    relative_errors,
)
from mlfem.solver import reference_solve

from oracles import random_refined_masks, reliability_efficiency, triangle_estimator


def single_level_field(hier, image):
    masks = uniform_masks(hier)
    vals = [np.zeros((hier.n(k), hier.n(k))) for k in range(hier.levels)]
    vals[-1] = image * masks[-1].active
    return MultilevelField(hier, vals, masks)


def test_linear_solution_no_load_unit_kappa_vanishes():
    # constant gradient: no volume residual, no flux jumps anywhere
    hier = build_hierarchy(5, 1)
    n = hier.n(0)
    x = np.arange(n)[:, None] * hier.h(0)
    y = np.arange(n)[None, :] * hier.h(0)
    diff = compute_upsilon(hier, np.ones((n, n)))
    r2, j2 = finest_estimator_images(0.3 + 1.7 * x - 0.4 * y, np.zeros((n, n)), diff)
    assert not r2.any()
    # jump differences cancel to one ulp, squared in the integrand
    assert np.allclose(j2, 0.0, atol=1e-30)


def test_constant_load_zero_solution_volume_term():
    hier = build_hierarchy(5, 1)
    h = hier.h(0)
    diff = compute_upsilon(hier, np.ones((5, 5)))
    u = zero_field(hier, uniform_masks(hier))
    est = estimate(u, np.ones((5, 5)), diff, u.masks)
    want = h * h * (h * h / 2.0)
    assert np.allclose(est.r2[0][:, :-1, :-1], want, rtol=1e-14)
    assert est.j2[0].sum() == 0.0
    assert est.total() == pytest.approx(32 * want, rel=1e-14)


def test_finest_level_matches_quadrature_oracle():
    hier = build_hierarchy(3, 2)
    nf, hf = hier.n(1), hier.h(1)
    rng = np.random.default_rng(83)
    kap = rng.uniform(0.5, 2.0, size=(nf, nf))
    f_img = rng.normal(size=(nf, nf))
    u_img = rng.normal(size=(nf, nf))
    u_img[0, :] = u_img[-1, :] = u_img[:, 0] = u_img[:, -1] = 0.0
    diff = compute_upsilon(hier, kap)
    u = single_level_field(hier, u_img)
    est = estimate(u, f_img, diff, u.masks)
    for q in (1, 2):
        for a in range(nf - 1):
            for b in range(nf - 1):
                r2, j2 = triangle_estimator(u_img, kap, f_img, hf, q, (a, b), hf, 0)
                assert est.r2[1][q - 1, a, b] == pytest.approx(r2, rel=1e-10, abs=1e-14)
                assert est.j2[1][q - 1, a, b] == pytest.approx(j2, rel=1e-10, abs=1e-14)


def test_coarse_level_direct_oracle_for_prolonged_solution():
    # content that lives on the coarse level only: interior jump lines vanish,
    # so the aggregated coarse images equal direct integration over the
    # coarse triangles
    hier = build_hierarchy(3, 2)
    nf, hf = hier.n(1), hier.h(1)
    rng = np.random.default_rng(89)
    kap = rng.uniform(0.5, 2.0, size=(nf, nf))
    f_img = rng.normal(size=(nf, nf))
    masks = initial_masks(hier)
    vals = [rng.normal(size=(3, 3)) * masks[0].active, np.zeros((nf, nf))]
    u = MultilevelField(hier, vals, masks)
    diff = compute_upsilon(hier, kap)
    est = estimate(u, f_img, diff, masks)
    assert est.eta2[1].sum() == 0.0
    from mlfem.field import flatten_to_finest

    u_flat = flatten_to_finest(u)
    for q in (1, 2):
        for a in range(2):
            for b in range(2):
                r2, j2 = triangle_estimator(
                    u_flat, kap, f_img, hf, q, (a, b), hier.h(0), 1
                )
                assert est.r2[0][q - 1, a, b] == pytest.approx(r2, rel=1e-10, abs=1e-14)
                assert est.j2[0][q - 1, a, b] == pytest.approx(j2, rel=1e-10, abs=1e-14)


def test_aggregation_recurrence_and_constants():
    rng = np.random.default_rng(97)
    r2f = rng.uniform(size=(2, 5, 5))
    j2f = rng.uniform(size=(2, 5, 5))
    r2c, j2c = aggregate_to_level(r2f, j2f)
    for q in (1, 2):
        for a in range(2):
            for b in range(2):
                rs = sum(r2f[qc - 1, 2 * a + d1, 2 * b + d2] for qc, (d1, d2) in TRI_CHILD_OFFSETS[q])
                js = sum(j2f[qc - 1, 2 * a + d1, 2 * b + d2] for qc, (d1, d2) in TRI_CHILD_OFFSETS[q])
                assert r2c[q - 1, a, b] == pytest.approx(4.0 * rs, rel=1e-15)
                assert j2c[q - 1, a, b] == pytest.approx(2.0 * js, rel=1e-15)
    # equal children collapse to the 16/8 constants
    ones = np.ones((2, 5, 5))
    r2c, j2c = aggregate_to_level(ones, ones)
    assert np.allclose(r2c[:, :2, :2], 16.0)
    assert np.allclose(j2c[:, :2, :2], 8.0)
    with pytest.raises(ValueError):
        aggregate_to_level(np.ones((2, 4, 4)), np.ones((2, 4, 4)))


def test_constant_load_aggregates_to_coarse_closed_form():
    hier = build_hierarchy(3, 2)
    diff = compute_upsilon(hier, np.ones((5, 5)))
    masks = initial_masks(hier)
    u = zero_field(hier, masks)
    est = estimate(u, np.ones((5, 5)), diff, masks)
    h0 = hier.h(0)
    # sixteen times the per-child value equals the direct coarse closed form
    child = hier.h(1) ** 2 * (hier.h(1) ** 2 / 2.0)
    assert np.allclose(est.r2[0][:, :-1, :-1], 16.0 * child, rtol=1e-14)
    assert np.allclose(est.r2[0][:, :-1, :-1], h0 * h0 * (h0 * h0 / 2.0), rtol=1e-14)


def test_zero_data_gives_zero_estimator():
    hier = build_hierarchy(3, 2)
    diff = compute_upsilon(hier, np.ones((5, 5)))
    u = zero_field(hier, uniform_masks(hier))
    est = estimate(u, np.zeros((5, 5)), diff, u.masks)
    assert est.total() == 0.0


def test_fields_nonnegative_masked_and_consistent():
    hier = build_hierarchy(3, 3)
    rng = np.random.default_rng(101)
    nf = hier.n(2)
    kap = rng.uniform(0.5, 2.0, size=(nf, nf))
    diff = compute_upsilon(hier, kap)
    masks = random_refined_masks(hier, rng)
    vals = [rng.normal(size=(hier.n(k),) * 2) * masks[k].active for k in range(3)]
    u = MultilevelField(hier, vals, masks)
    est = estimate(u, rng.normal(size=(nf, nf)), diff, masks)
    for k in range(3):
        assert (est.r2[k] >= 0.0).all() and (est.j2[k] >= 0.0).all()
        assert np.array_equal(est.eta2[k], est.r2[k] + est.j2[k])
        assert not est.eta2[k][est.tri_mask[k] == 0].any()
        # owner padding row/column carries no triangles
        assert not est.eta2[k][:, -1, :].any() and not est.eta2[k][:, :, -1].any()
    assert est.total() == pytest.approx(sum(float(e.sum()) for e in est.eta2), rel=1e-15)


def test_leaf_triangles_partition_the_domain():
    hier = build_hierarchy(3, 3)
    rng = np.random.default_rng(103)
    for _ in range(5):
        masks = random_refined_masks(hier, rng)
        leaves = leaf_triangle_masks(hier, masks)
        area = sum(
            float(leaves[k].sum()) * hier.h(k) ** 2 / 2.0 for k in range(hier.levels)
        )
        assert area == pytest.approx(1.0, rel=1e-12)


def test_estimator_scales_quadratically():
    hier = build_hierarchy(3, 2)
    rng = np.random.default_rng(107)
    nf = hier.n(1)
    kap = rng.uniform(0.5, 2.0, size=(nf, nf))
    diff = compute_upsilon(hier, kap)
    masks = uniform_masks(hier)
    vals = [rng.normal(size=(hier.n(k),) * 2) * masks[k].active for k in range(2)]
    u = MultilevelField(hier, vals, masks)
    f_img = rng.normal(size=(nf, nf))
    base = estimate(u, f_img, diff, masks).total()
    t = 3.7
    scaled = MultilevelField(hier, [t * v for v in vals], masks)
    est_t = estimate(scaled, t * f_img, diff, masks).total()
    assert est_t == pytest.approx(t * t * base, rel=1e-12)


def test_reliability_report_on_model_problem():
    problem = CookieProblem()
    y = (0.4, 0.8)
    hier = build_hierarchy(5, 2)
    kappa = discretize_kappa(problem, y, hier)
    diff = compute_upsilon(hier, kappa)
    f_img = np.full((hier.n(1),) * 2, problem.load)
    rhs = assemble_rhs(hier, f_img)
    masks = uniform_masks(hier)
    u = reference_solve(masks, diff, rhs)
    ref_img, ref_hier = overkill_reference(problem, y, hier)
    ref_diff = compute_upsilon(ref_hier, discretize_kappa(problem, y, ref_hier))
    report = reliability_efficiency(u, f_img, diff, masks, ref_img, ref_diff)
    assert not report.degenerate
    assert report.c_rel > 0.0 and np.isfinite(report.c_rel)
    assert report.c_eff > 0.0 and np.isfinite(report.c_eff)
    h1_rel, l2_rel = relative_errors(u, ref_img, ref_hier)
    assert 0.0 < l2_rel < h1_rel < 1.0
    # the zero field's error is the whole reference
    assert relative_errors(zero_field(hier, masks), ref_img, ref_hier) == (1.0, 1.0)
    # a reference lattice that is not a uniform refinement of the solution's
    bad_img = ref_img[:-2, :-2]
    with pytest.raises(ValueError):
        relative_errors(u, bad_img, ref_hier)
    with pytest.raises(ValueError):
        reliability_efficiency(u, f_img, diff, masks, bad_img, ref_diff)
