"""Stiffness actions, carried-down/up terms, and the stacked global system."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfem import assembly
from mlfem.assembly import (
    STENCIL_COUPLINGS,
    apply_A_level,
    apply_A_level_transpose,
    apply_stacked,
    assemble_global,
    assemble_rhs,
    carry_up,
    compute_ubar,
    compute_upsilon,
    compute_utilde,
    h1_seminorm,
    l2_norm,
    level_section,
)
from mlfem.field import (
    MultilevelField,
    flatten_to_finest,
    full_mask,
    restrict_uniform,
    uniform_masks,
    zero_field,
    zero_frame,
)
from mlfem.mesh import NODE_TRIANGLES, ConfigurationError, build_hierarchy
from mlfem.solver import reference_solve, stack_vector

from oracles import (
    all_triangles,
    children_of_triangle,
    cross_level_matrix,
    dunavant4,
    energy_seminorm,
    fine_stiffness_dense,
    hat_image,
    hat_value,
    multilevel_eval,
    pl_eval,
    point_in_triangle,
    random_field,
    random_mask,
    random_masks,
    refined_inputs,
    triangle_verts,
    weighted_h1_seminorm,
)


def level_triangle_integral(kappa, h_fine, level_h, q, owner):
    """Integrate the finest PL interpolant of kappa over one coarse triangle."""
    verts = triangle_verts(q, owner, level_h)
    total = 0.0
    for qf, i in all_triangles(kappa.shape[0]):
        vf = triangle_verts(qf, i, h_fine)
        if point_in_triangle(vf.mean(axis=0), verts):
            pts, wts = dunavant4(vf)
            total += float(pl_eval(kappa, h_fine, pts) @ wts)
    return total


# ---------------------------------------------------------------- upsilon


def test_upsilon_constant_one_single_interior_node():
    hier = build_hierarchy(3, 1)
    diff = compute_upsilon(hier, np.ones((3, 3)))
    # every triangle has area h^2/2 = 0.125 and kappa is 1
    assert np.allclose(diff.tri_integrals[0], 0.125)
    assert np.allclose(diff.upsilon[0][:, 1, 1], 0.125)


def test_upsilon_constant_kappa_all_levels():
    hier = build_hierarchy(3, 3)
    c = 2.5
    diff = compute_upsilon(hier, np.full((hier.n(2),) * 2, c))
    for k in range(3):
        area = hier.h(k) ** 2 / 2.0
        assert np.allclose(diff.tri_integrals[k], c * area)
        nz = diff.upsilon[k] != 0.0
        assert np.allclose(diff.upsilon[k][nz], c * area)
        # interior nodes touch all six triangles
        assert nz[:, 1:-1, 1:-1].all()


def test_upsilon_scales_linearly_in_kappa():
    hier = build_hierarchy(5, 2)
    rng = np.random.default_rng(3)
    kap = rng.uniform(0.5, 2.0, size=(9, 9))
    d1 = compute_upsilon(hier, kap)
    d2 = compute_upsilon(hier, 3.0 * kap)
    for k in range(2):
        assert np.allclose(d2.upsilon[k], 3.0 * d1.upsilon[k], rtol=1e-14)


def test_upsilon_matches_quadrature_oracle():
    hier = build_hierarchy(3, 3)
    rng = np.random.default_rng(11)
    nf, hf = hier.n(2), hier.h(2)
    kap = rng.uniform(0.5, 2.0, size=(nf, nf))
    diff = compute_upsilon(hier, kap)
    for k in range(3):
        n = hier.n(k)
        for _ in range(6):
            q = int(rng.integers(1, 3))
            owner = (int(rng.integers(0, n - 1)), int(rng.integers(0, n - 1)))
            want = level_triangle_integral(kap, hf, hier.h(k), q, owner)
            got = float(diff.tri_integrals[k][q - 1, owner[0], owner[1]])
            assert got == pytest.approx(want, rel=1e-12)


def test_upsilon_channels_gather_owner_triangles():
    hier = build_hierarchy(5, 1)
    rng = np.random.default_rng(4)
    kap = rng.uniform(0.5, 2.0, size=(5, 5))
    diff = compute_upsilon(hier, kap)
    for c, (q, (d1, d2)) in enumerate(NODE_TRIANGLES):
        for i1 in range(5):
            for i2 in range(5):
                o1, o2 = i1 + d1, i2 + d2
                if 0 <= o1 < 4 and 0 <= o2 < 4:
                    want = diff.tri_integrals[0][q - 1, o1, o2]
                else:
                    want = 0.0
                assert diff.upsilon[0][c, i1, i2] == want


def test_upsilon_child_integrals_sum_to_parent():
    hier = build_hierarchy(3, 3)
    rng = np.random.default_rng(7)
    kap = rng.uniform(0.5, 2.0, size=(9, 9))
    diff = compute_upsilon(hier, kap)
    assert np.array_equal(diff.kappa, kap)  # only the finest image is kept
    for k in range(2):
        for q in (1, 2):
            for i1 in range(hier.n(k) - 1):
                for i2 in range(hier.n(k) - 1):
                    kids = children_of_triangle(q, (i1, i2))
                    want = sum(diff.tri_integrals[k + 1][qc - 1, j1, j2] for qc, (j1, j2) in kids)
                    assert diff.tri_integrals[k][q - 1, i1, i2] == pytest.approx(want, rel=1e-14)


def test_upsilon_rejects_wrong_shape():
    hier = build_hierarchy(3, 2)
    with pytest.raises(ConfigurationError):
        compute_upsilon(hier, np.ones((3, 3)))


@pytest.mark.parametrize("bad", [0.0, -0.5, float("nan"), float("inf")])
def test_upsilon_rejects_kappa_the_model_cannot_solve(bad):
    # one bad node is enough: the operator is elliptic only for kappa > 0
    hier = build_hierarchy(3, 2)
    kappa = np.ones((5, 5))
    kappa[2, 3] = bad
    with pytest.raises(ConfigurationError, match="finite and > 0"):
        compute_upsilon(hier, kappa)


# ---------------------------------------------------------------- level action


def test_apply_A_constant_kappa_is_five_point_stencil():
    for levels in (1, 2):
        hier = build_hierarchy(5, levels)
        k = levels - 1
        n = hier.n(k)
        diff = compute_upsilon(hier, np.ones((hier.n(levels - 1),) * 2))
        delta = np.zeros((n, n))
        c = n // 2
        delta[c, c] = 1.0
        out = apply_A_level(delta, diff.upsilon[k], hier.h(k))
        want = np.zeros((n, n))
        want[c, c] = 4.0
        for d1, d2 in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            want[c + d1, c + d2] = -1.0
        assert np.allclose(out, want, atol=1e-13)


def test_apply_A_zero_and_boundary_rows():
    hier = build_hierarchy(5, 1)
    diff = compute_upsilon(hier, np.ones((5, 5)))
    assert not apply_A_level(np.zeros((5, 5)), diff.upsilon[0], hier.h(0)).any()
    # boundary input columns are dropped, boundary output rows stay zero
    edge = np.zeros((5, 5))
    edge[0, 2] = 1.0
    assert not apply_A_level(edge, diff.upsilon[0], hier.h(0)).any()


def test_apply_A_rejects_mismatched_upsilon():
    hier = build_hierarchy(5, 2)
    diff = compute_upsilon(hier, np.ones((9, 9)))
    with pytest.raises(ValueError):
        apply_A_level(np.zeros((5, 5)), diff.upsilon[1], hier.h(0))


def test_apply_A_matches_dense_assembly_oracle():
    hier = build_hierarchy(5, 2)
    nf, hf = hier.n(1), hier.h(1)
    rng = np.random.default_rng(23)
    for _ in range(5):
        kap = rng.uniform(0.5, 2.0, size=(nf, nf))
        diff = compute_upsilon(hier, kap)
        for k in range(2):
            n = hier.n(k)
            dofs = [(k, a, b) for a in range(1, n - 1) for b in range(1, n - 1)]
            mat = cross_level_matrix(dofs, [hier.h(0), hier.h(1)], kap, hf)
            v = np.zeros((n, n))
            v[1:-1, 1:-1] = rng.normal(size=(n - 2, n - 2))
            out = apply_A_level(v, diff.upsilon[k], hier.h(k))
            want = mat @ v[1:-1, 1:-1].ravel()
            assert np.allclose(out[1:-1, 1:-1].ravel(), want, rtol=1e-12, atol=1e-12)


def test_apply_A_transpose_is_adjoint_and_symmetric():
    hier = build_hierarchy(5, 2)
    rng = np.random.default_rng(29)
    kap = rng.uniform(0.5, 2.0, size=(9, 9))
    diff = compute_upsilon(hier, kap)
    for k in range(2):
        n = hier.n(k)
        for _ in range(20):
            u = rng.normal(size=(n, n))
            v = rng.normal(size=(n, n))
            au = apply_A_level(u, diff.upsilon[k], hier.h(k))
            atv = apply_A_level_transpose(v, diff.upsilon[k], hier.h(k))
            assert np.vdot(au, v) == pytest.approx(np.vdot(u, atv), rel=1e-12)
            # the level matrix is symmetric, so both actions agree
            av = apply_A_level(v, diff.upsilon[k], hier.h(k))
            assert np.allclose(av, atv, rtol=1e-12, atol=1e-12)


def test_level_steps_match_the_upsilon_route_bit_for_bit():
    """level_section and carry_up apply the staged stencil images; their
    bytes are those of apply_A_level / apply_A_level_transpose, which
    contract the Upsilon channels on every call."""
    rng = np.random.default_rng(31)
    for coarse, levels in ((3, 3), (5, 2), (4, 3)):
        hier = build_hierarchy(coarse, levels)
        nf = hier.n(levels - 1)
        diff = compute_upsilon(hier, rng.uniform(0.1, 3.0, size=(nf, nf)))
        for k in range(levels):
            n, h = hier.n(k), hier.h(k)
            for _ in range(4):
                values = rng.normal(size=(n, n)) * random_mask(hier, k, rng).active
                tld, bar = rng.normal(size=(n, n)), rng.normal(size=(n, n))
                got = level_section(values, tld, bar, diff, k)
                want = apply_A_level(values + tld, diff.upsilon[k], h) + bar
                assert got.tobytes() == want.tobytes()
                if k > 0:
                    got = carry_up(bar, values, diff, k)
                    lifted = bar + apply_A_level_transpose(values, diff.upsilon[k], h)
                    assert got.tobytes() == zero_frame(restrict_uniform(lifted)).tobytes()


def test_stencil_images_are_staged_once_per_level(monkeypatch):
    contracted = []
    weights = assembly._stencil_weights
    monkeypatch.setattr(
        assembly, "_stencil_weights", lambda ups: contracted.append(ups.shape) or weights(ups)
    )
    hier = build_hierarchy(3, 3)
    rng = np.random.default_rng(37)
    diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(9, 9)))
    u = random_field(hier, uniform_masks(hier), rng)
    assert contracted == []  # built on first use, not with the field
    for _ in range(3):
        apply_stacked(u, diff)
    assert contracted == [(6, hier.n(k), hier.n(k)) for k in (2, 1, 0)]
    for k in range(hier.levels):
        staged = diff.stencil(k)
        assert staged is diff.stencil(k)
        assert not staged.flags.writeable
        want = np.einsum("lt,lij->tij", STENCIL_COUPLINGS, diff.upsilon[k])
        assert staged.tobytes() == want.tobytes()
    assert len(contracted) == hier.levels


def test_stencil_couplings_row_sums_vanish():
    # constant functions are in the kernel of the gradient pairing
    assert STENCIL_COUPLINGS.shape == (6, 7)
    assert np.allclose(STENCIL_COUPLINGS.sum(axis=1), 0.0)


# ---------------------------------------------------------------- utilde/ubar


def test_utilde_single_level_is_zero():
    hier = build_hierarchy(5, 1)
    rng = np.random.default_rng(0)
    u = random_field(hier, uniform_masks(hier), rng)
    tld = compute_utilde(u)
    assert len(tld) == 1 and not tld[0].any()


def test_utilde_matches_pointwise_evaluation():
    hier = build_hierarchy(3, 3)
    rng = np.random.default_rng(31)
    masks = [full_mask(hier, 0)] + [random_mask(hier, k, rng) for k in (1, 2)]
    u = random_field(hier, masks, rng)
    tld = compute_utilde(u)
    for k in (1, 2):
        below = MultilevelField(
            hier,
            [u.values[m] if m < k else np.zeros_like(u.values[m]) for m in range(3)],
            masks,
        )
        n = hier.n(k)
        g = np.arange(n) * hier.h(k)
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        want = multilevel_eval(below, pts).reshape(n, n)
        assert np.allclose(tld[k], want, rtol=1e-13, atol=1e-13)


def test_utilde_stiffness_matches_cross_level_oracle():
    # A_k applied to the carried-down content equals the fine-space pairing
    # of the coarser components with the level-k hats
    hier = build_hierarchy(3, 3)
    nf, hf = hier.n(2), hier.h(2)
    rng = np.random.default_rng(37)
    kap = rng.uniform(0.5, 2.0, size=(nf, nf))
    diff = compute_upsilon(hier, kap)
    a_fine = fine_stiffness_dense(kap, hf)
    for _ in range(3):
        masks = [random_mask(hier, k, rng) for k in range(3)]
        u = random_field(hier, masks, rng)
        tld = compute_utilde(u)
        for k in (1, 2):
            flat_below = np.zeros(nf * nf)
            for m in range(k):
                img = u.values[m] * masks[m].active
                flat_below += sum(
                    img[a, b] * hat_image(hier.h(m), (a, b), nf, hf).ravel()
                    for a in range(hier.n(m))
                    for b in range(hier.n(m))
                )
            acted = a_fine @ flat_below
            lhs = apply_A_level(tld[k], diff.upsilon[k], hier.h(k))
            n = hier.n(k)
            for a in range(1, n - 1):
                for b in range(1, n - 1):
                    want = float(hat_image(hier.h(k), (a, b), nf, hf).ravel() @ acted)
                    assert lhs[a, b] == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_ubar_finest_level_is_zero():
    hier = build_hierarchy(3, 2)
    rng = np.random.default_rng(41)
    masks = [random_mask(hier, k, rng) for k in range(2)]
    u = random_field(hier, masks, rng)
    diff = compute_upsilon(hier, np.ones((5, 5)))
    bar = compute_ubar(u, diff)
    assert not bar[1].any()


def test_ubar_matches_cross_level_oracle():
    hier = build_hierarchy(3, 3)
    nf, hf = hier.n(2), hier.h(2)
    rng = np.random.default_rng(43)
    kap = rng.uniform(0.5, 2.0, size=(nf, nf))
    diff = compute_upsilon(hier, kap)
    a_fine = fine_stiffness_dense(kap, hf)
    for _ in range(3):
        masks = [random_mask(hier, k, rng) for k in range(3)]
        u = random_field(hier, masks, rng)
        bar = compute_ubar(u, diff)
        for k in (0, 1):
            flat_above = np.zeros(nf * nf)
            for m in range(k + 1, 3):
                img = u.values[m] * masks[m].active
                flat_above += sum(
                    img[a, b] * hat_image(hier.h(m), (a, b), nf, hf).ravel()
                    for a in range(hier.n(m))
                    for b in range(hier.n(m))
                )
            acted = a_fine @ flat_above
            n = hier.n(k)
            for a in range(1, n - 1):
                for b in range(1, n - 1):
                    want = float(hat_image(hier.h(k), (a, b), nf, hf).ravel() @ acted)
                    assert bar[k][a, b] == pytest.approx(want, rel=1e-11, abs=1e-11)


# ---------------------------------------------------------------- global system


def test_global_single_dof_system():
    hier = build_hierarchy(3, 1)
    diff = compute_upsilon(hier, np.ones((3, 3)))
    rhs = assemble_rhs(hier, np.ones((3, 3)))
    masks = uniform_masks(hier)
    mat, idx = assemble_global(hier, masks, diff)
    assert mat.shape == (1, 1)
    assert mat[0, 0] == pytest.approx(4.0, rel=1e-14)
    assert rhs.images[0][1, 1] == pytest.approx(0.25, rel=1e-14)
    u = reference_solve(masks, diff, rhs)
    assert u.values[0][1, 1] == pytest.approx(0.0625, rel=1e-12)


def test_global_matches_apply_stacked():
    # the levelwise actions with carried terms reproduce the stacked matrix
    hier = build_hierarchy(3, 3)
    rng = np.random.default_rng(47)
    for _ in range(20):
        kap = rng.uniform(0.5, 2.0, size=(9, 9))
        diff = compute_upsilon(hier, kap)
        masks = [random_mask(hier, k, rng) for k in range(3)]
        u = random_field(hier, masks, rng)
        mat, _ = assemble_global(hier, masks, diff)
        x = stack_vector(u.values, masks)
        want = mat @ x
        got = stack_vector(apply_stacked(u, diff), masks)
        assert np.allclose(got, want, rtol=1e-11, atol=1e-12)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(refined_inputs(), st.integers(0, 2**32 - 1))
def test_one_stacked_system(inputs, seed):
    """The assembled matrix and the levelwise action are one operator: on
    the masks the adaptive loop reaches and on independent random ones,
    `assemble_global(...) @ x` equals `apply_stacked`'s blocks at the
    active nodes to 1e-12 relative.  A mask holds interior nodes only
    (`LevelMask`), so neither has a row the other lacks."""
    u, _, diff = inputs
    hier = u.hierarchy
    for masks in (u.masks, random_masks(hier, np.random.default_rng(seed))):
        field = MultilevelField(hier, u.values, masks)
        mat, _ = assemble_global(hier, masks, diff)
        want = mat @ stack_vector(u.values, masks)
        got = stack_vector(apply_stacked(field, diff), masks)
        assert got.shape == want.shape
        if want.size:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_global_symmetric_positive_semidefinite():
    hier = build_hierarchy(3, 3)
    rng = np.random.default_rng(53)
    kap = rng.uniform(0.5, 2.0, size=(9, 9))
    diff = compute_upsilon(hier, kap)
    masks = [random_mask(hier, k, rng) for k in range(3)]
    mat, _ = assemble_global(hier, masks, diff)
    dense = mat.toarray()
    assert np.allclose(dense, dense.T, atol=1e-12)
    w = np.linalg.eigvalsh(dense)
    assert w.min() >= -1e-10 * max(w.max(), 1.0)


def test_global_single_level_positive_definite():
    hier = build_hierarchy(9, 1)
    rng = np.random.default_rng(59)
    kap = rng.uniform(0.5, 2.0, size=(9, 9))
    diff = compute_upsilon(hier, kap)
    mat, _ = assemble_global(hier, uniform_masks(hier), diff)
    w = np.linalg.eigvalsh(mat.toarray())
    assert w.min() > 0.0


def test_global_matches_cross_level_oracle_entries():
    hier = build_hierarchy(3, 2)
    rng = np.random.default_rng(61)
    kap = rng.uniform(0.5, 2.0, size=(5, 5))
    diff = compute_upsilon(hier, kap)
    masks = uniform_masks(hier)
    mat, idx = assemble_global(hier, masks, diff)
    dofs = []
    for k in range(2):
        n = hier.n(k)
        for flat in idx[k]:
            dofs.append((k, int(flat) // n, int(flat) % n))
    want = cross_level_matrix(dofs, [hier.h(0), hier.h(1)], kap, hier.h(1))
    assert np.allclose(mat.toarray(), want, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------- load vector


def test_rhs_matches_quadrature_oracle():
    hier = build_hierarchy(5, 2)
    nf, hf = hier.n(1), hier.h(1)
    rng = np.random.default_rng(67)
    f_img = rng.normal(size=(nf, nf))
    rhs = assemble_rhs(hier, f_img)
    tris = [(q, i, triangle_verts(q, i, hf)) for q, i in all_triangles(nf)]
    for k in range(2):
        n = hier.n(k)
        for a in range(1, n - 1):
            for b in range(1, n - 1):
                want = 0.0
                for q, i, verts in tris:
                    pts, wts = dunavant4(verts)
                    vals = pl_eval(f_img, hf, pts) * hat_value((a, b), hier.h(k), pts)
                    want += float(vals @ wts)
                assert rhs.images[k][a, b] == pytest.approx(want, rel=1e-12, abs=1e-13)
        # boundary rows carry no test functions
        assert not rhs.images[k][0].any() and not rhs.images[k][-1].any()
        assert not rhs.images[k][:, 0].any() and not rhs.images[k][:, -1].any()


def test_rhs_rejects_wrong_shape():
    hier = build_hierarchy(3, 2)
    with pytest.raises(ConfigurationError):
        assemble_rhs(hier, np.ones((3, 3)))


# ---------------------------------------------------------------- norms


def test_h1_seminorm_of_linear_image():
    n, h = 9, 1.0 / 8.0
    x = np.arange(n)[:, None] * h * np.ones((1, n))
    assert h1_seminorm(x) == pytest.approx(1.0, rel=1e-13)
    assert h1_seminorm(np.ones((n, n))) == 0.0


def test_l2_norm_of_constant_and_quadrature():
    n, h = 5, 0.25
    assert l2_norm(np.full((n, n), 3.0), h) == pytest.approx(3.0, rel=1e-13)
    rng = np.random.default_rng(71)
    img = rng.normal(size=(n, n))
    want = 0.0
    for q, i in all_triangles(n):
        pts, wts = dunavant4(triangle_verts(q, i, h))
        want += float(pl_eval(img, h, pts) ** 2 @ wts)
    assert l2_norm(img, h) == pytest.approx(np.sqrt(want), rel=1e-12)


def test_weighted_h1_reduces_to_h1_for_unit_kappa():
    hier = build_hierarchy(5, 1)
    diff = compute_upsilon(hier, np.ones((5, 5)))
    rng = np.random.default_rng(73)
    img = rng.normal(size=(5, 5))
    assert weighted_h1_seminorm(img, diff.tri_integrals[0], hier.h(0)) == pytest.approx(
        h1_seminorm(img), rel=1e-13
    )


def test_energy_seminorm_matches_dense_quadratic_form():
    hier = build_hierarchy(3, 3)
    nf, hf = hier.n(2), hier.h(2)
    rng = np.random.default_rng(79)
    kap = rng.uniform(0.5, 2.0, size=(nf, nf))
    diff = compute_upsilon(hier, kap)
    a_fine = fine_stiffness_dense(kap, hf)
    masks = [random_mask(hier, k, rng) for k in range(3)]
    u = random_field(hier, masks, rng)
    flat = flatten_to_finest(u).ravel()
    want = np.sqrt(max(float(flat @ a_fine @ flat), 0.0))
    assert energy_seminorm(u, diff) == pytest.approx(want, rel=1e-11, abs=1e-13)
    assert energy_seminorm(zero_field(hier, masks), diff) == 0.0
    if u.dof_count() > 0:
        assert energy_seminorm(u, diff) > 0.0
