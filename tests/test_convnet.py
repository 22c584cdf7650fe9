"""Convolutional twins: kernels, stencil bank, sweep, estimator, marking."""

import warnings

import numpy as np
import pytest

from mlfem import convnet
from mlfem.adapt import mark_threshold, refine
from mlfem.assembly import (
    apply_A_level,
    apply_A_level_transpose,
    assemble_rhs,
    compute_upsilon,
)
from mlfem.convnet import (
    ConvKernel,
    build_stencil_bank,
    conv_apply,
    conv_apply_A,
    conv_apply_A_transpose,
    conv_estimator,
    conv_llmg_sweep,
    conv_mark_refine,
    conv_prolongate,
    conv_restrict,
    conv_translate,
    conv_upsilon_channels,
    flatten_bank,
    init_llmg_state,
    parameter_count,
)
from mlfem.estimator import estimate
from mlfem.field import (
    MultilevelField,
    flatten_to_finest,
    make_mask,
    prolongate_uniform,
    restrict_uniform,
    translate,
    uniform_masks,
    zero_field,
    zero_frame,
)
from mlfem.mesh import (
    NODE_TRIANGLES,
    ConfigurationError,
    build_hierarchy,
    hat_overlap_offsets,
)
from mlfem.problems import CookieProblem, SampleRng, discretize_kappa, load_image, sample_parameters
from mlfem.solver import SmootherConfig, choose_omega, llmg_sweep


def random_mask(hier, level, rng, density=0.6):
    n = hier.n(level)
    act = np.zeros((n, n), dtype=np.uint8)
    act[1:-1, 1:-1] = rng.random((n - 2, n - 2)) < density
    return make_mask(act)


def random_masks(hier, rng, density=0.6):
    return [random_mask(hier, k, rng, density) for k in range(hier.levels)]


def random_field(hier, masks, rng):
    values = [
        rng.normal(size=(hier.n(k), hier.n(k))) * masks[k].active
        for k in range(hier.levels)
    ]
    return MultilevelField(hier, values, masks)


def loop_conv(kernel, image):
    """Reference cross-correlation: explicit loops, zero padding, centered."""
    cout, cin, kh, kw = kernel.weights.shape
    _, n1, n2 = image.shape
    c1, c2 = (kh - 1) // 2, (kw - 1) // 2
    out = np.zeros((cout, n1, n2))
    for o in range(cout):
        for i1 in range(n1):
            for i2 in range(n2):
                acc = 0.0
                for c in range(cin):
                    for d1 in range(kh):
                        for d2 in range(kw):
                            s1, s2 = i1 + d1 - c1, i2 + d2 - c2
                            if 0 <= s1 < n1 and 0 <= s2 < n2:
                                acc += kernel.weights[o, c, d1, d2] * image[c, s1, s2]
                out[o, i1, i2] = acc
        if kernel.bias is not None:
            out[o] += kernel.bias[o]
    return out


# ---------------------------------------------------------------- conv_apply


def test_identity_kernel_preserves_input():
    rng = np.random.default_rng(3)
    img = rng.normal(size=(1, 6, 7))
    one = ConvKernel(1, 1, 1, 1, np.ones((1, 1, 1, 1)))
    assert np.array_equal(conv_apply(one, img), img)
    img2 = rng.normal(size=(2, 5, 5))
    eye = ConvKernel(2, 2, 1, 1, np.eye(2).reshape(2, 2, 1, 1))
    assert np.array_equal(conv_apply(eye, img2), img2)


def test_plain_conv_matches_loop_oracle():
    rng = np.random.default_rng(11)
    kern = ConvKernel(
        2, 3, 3, 3, rng.normal(size=(2, 3, 3, 3)), bias=rng.normal(size=2)
    )
    img = rng.normal(size=(3, 7, 6))
    got = conv_apply(kern, img)
    want = loop_conv(kern, img)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-14)


def test_submanifold_checkerboard():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(1, 1, 3, 3))
    img = rng.normal(size=(1, 7, 7))
    i1, i2 = np.indices((7, 7))
    board = ((i1 + i2) % 2).astype(np.uint8)
    sub = conv_apply(ConvKernel(1, 1, 3, 3, w, mode="submanifold"), img, mask=board)
    plain = conv_apply(ConvKernel(1, 1, 3, 3, w), img)
    assert np.array_equal(sub, plain * board)
    assert not sub[0][board == 0].any()
    assert np.allclose(sub[0][board == 1], loop_conv(ConvKernel(1, 1, 3, 3, w), img)[0][board == 1], rtol=1e-13)
    with pytest.raises(ConfigurationError):
        conv_apply(ConvKernel(1, 1, 3, 3, w, mode="submanifold"), img)


def test_strided_pair_adjointness():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(3, 2, 3, 3))
    down = ConvKernel(3, 2, 3, 3, w, mode="strided2")
    up = ConvKernel(3, 2, 3, 3, w.copy(), mode="transpose-strided2")
    for _ in range(10):
        v = rng.normal(size=(2, 9, 9))
        wimg = rng.normal(size=(3, 5, 5))
        lhs = float(np.vdot(conv_apply(down, v), wimg))
        rhs = float(np.vdot(v, conv_apply(up, wimg)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_strided_modes_need_odd_lattice():
    bank = build_stencil_bank(build_hierarchy(5, 2))
    with pytest.raises(ConfigurationError):
        conv_apply(bank.restrict, np.zeros((1, 8, 8)))
    with pytest.raises(ConfigurationError):
        conv_apply(bank.prolong, np.zeros((1, 8, 9)))


def test_kernel_validation():
    with pytest.raises(ConfigurationError):
        ConvKernel(1, 1, 3, 3, np.zeros((1, 1, 2, 3)))
    with pytest.raises(ConfigurationError):
        ConvKernel(2, 1, 1, 1, np.zeros((2, 1, 1, 1)), bias=np.zeros(3))
    with pytest.raises(ConfigurationError):
        ConvKernel(1, 1, 1, 1, np.zeros((1, 1, 1, 1)), mode="fancy")
    kern = ConvKernel(1, 2, 3, 3, np.zeros((1, 2, 3, 3)))
    with pytest.raises(ConfigurationError):
        conv_apply(kern, np.zeros((5, 5)))
    with pytest.raises(ConfigurationError):
        conv_apply(kern, np.zeros((3, 5, 5)))
    # transpose mode consumes out_channels many input channels
    up = ConvKernel(3, 2, 3, 3, np.zeros((3, 2, 3, 3)), mode="transpose-strided2")
    with pytest.raises(ConfigurationError):
        conv_apply(up, np.zeros((2, 5, 5)))


# ---------------------------------------------------------------- stencil bank


def test_constant_coefficient_stencil_from_kernels():
    """kappa = 1 reproduces the 5-point stencil, the same at every level."""
    hier = build_hierarchy(5, 2)
    bank = build_stencil_bank(hier)
    masks = uniform_masks(hier)
    diff = compute_upsilon(hier, np.ones((9, 9)))
    for k in range(hier.levels):
        n = hier.n(k)
        c = n // 2
        delta = np.zeros((n, n))
        delta[c, c] = 1.0
        stack = conv_translate(bank, delta, masks[k].active)
        out = conv_apply_A(bank, stack, diff.upsilon[k], hier.h(k))
        want = np.zeros((n, n))
        want[c, c] = 4.0
        for d1, d2 in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            want[c + d1, c + d2] = -1.0
        assert np.allclose(out, want, atol=1e-13)
        direct = apply_A_level(delta, diff.upsilon[k], hier.h(k))
        assert np.allclose(out, direct, atol=1e-13)


def test_operator_kernel_locality_and_row_sums():
    """Couplings vanish off the triangle's vertices and sum to zero per row."""
    vertex_offsets = {1: ((0, 0), (1, 1), (0, 1)), 2: ((0, 0), (1, 0), (1, 1))}
    bank = build_stencil_bank(build_hierarchy(3, 1))
    offsets = hat_overlap_offsets()
    stencil = np.zeros(len(offsets))
    for chan, (q, owner) in enumerate(NODE_TRIANGLES):
        verts = {(owner[0] + a, owner[1] + b) for a, b in vertex_offsets[q]}
        row = bank.operator.weights[chan, :, 0, 0]
        for t, off in enumerate(offsets):
            if off not in verts:
                assert row[t] == 0.0
        assert abs(row.sum()) < 1e-15
        stencil += row
    # channel sums reassemble the Courant stencil exactly
    want = {(0, 0): 4.0, (1, 0): -1.0, (-1, 0): -1.0, (0, 1): -1.0, (0, -1): -1.0}
    for t, off in enumerate(offsets):
        assert stencil[t] == want.get(off, 0.0)


def test_bank_weights_do_not_depend_on_the_hierarchy():
    vec_a, layout_a = flatten_bank(build_stencil_bank(build_hierarchy(3, 2)))
    vec_b, layout_b = flatten_bank(build_stencil_bank(build_hierarchy(9, 4)))
    assert layout_a == layout_b
    assert np.array_equal(vec_a, vec_b)


# ---------------------------------------------------------------- equivalences


def test_translate_equivalence():
    hier = build_hierarchy(5, 2)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(23)
    for k in range(hier.levels):
        for _ in range(10):
            mask = random_mask(hier, k, rng)
            img = rng.normal(size=(hier.n(k), hier.n(k)))
            got = conv_translate(bank, img, mask.active)
            want = translate(img, mask)
            assert np.array_equal(got, want)
            assert np.array_equal(got[0], img * mask.active)


def test_upsilon_channels_equivalence():
    hier = build_hierarchy(5, 3)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(29)
    last = hier.levels - 1
    n = hier.n(last)
    cookie = discretize_kappa(CookieProblem(), (0.7, 0.2), hier)
    for kappa in (rng.uniform(0.5, 3.0, size=(n, n)), cookie):
        want = compute_upsilon(hier, kappa).upsilon[last]
        got = conv_upsilon_channels(bank, kappa, hier.h(last))
        assert np.allclose(got, want, rtol=1e-13, atol=1e-18)


def test_apply_A_equivalence():
    hier = build_hierarchy(5, 3)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(31)
    diff = compute_upsilon(hier, rng.uniform(0.5, 3.0, size=(17, 17)))
    for case in range(15):
        k = case % hier.levels
        n, h = hier.n(k), hier.h(k)
        mask = random_mask(hier, k, rng)
        v = rng.normal(size=(n, n)) * mask.active
        stack = conv_translate(bank, v, mask.active)
        got = conv_apply_A(bank, stack, diff.upsilon[k], h)
        want = mask.active * apply_A_level(v, diff.upsilon[k], h)
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() <= 1e-12 * scale
        # the gated stack already leaves every row off the active set at zero
        assert np.array_equal(got * mask.active, got)
    # zero stack stays zero, mismatched shapes are rejected
    assert not conv_apply_A(bank, np.zeros((7, 5, 5)), diff.upsilon[0], hier.h(0)).any()
    with pytest.raises(ConfigurationError):
        conv_apply_A(bank, np.zeros((6, 5, 5)), diff.upsilon[0], hier.h(0))
    with pytest.raises(ConfigurationError):
        conv_apply_A(bank, np.zeros((7, 9, 9)), diff.upsilon[0], hier.h(0))


def test_apply_A_transpose_equivalence():
    hier = build_hierarchy(5, 3)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(37)
    diff = compute_upsilon(hier, rng.uniform(0.5, 3.0, size=(17, 17)))
    for case in range(12):
        k = case % hier.levels
        n, h = hier.n(k), hier.h(k)
        v = rng.normal(size=(n, n))
        got = conv_apply_A_transpose(bank, v, diff.upsilon[k], h)
        want = apply_A_level_transpose(v, diff.upsilon[k], h)
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() <= 1e-12 * scale
    with pytest.raises(ConfigurationError):
        conv_apply_A_transpose(bank, np.zeros((5, 5)), diff.upsilon[1], hier.h(1))


def test_transfer_equivalence_and_adjointness():
    hier = build_hierarchy(5, 3)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(41)
    for k in range(hier.levels - 1):
        nc, nf = hier.n(k), hier.n(k + 1)
        for _ in range(50):
            # conv_restrict zeroes the frame, so it is the adjoint of the
            # prolongation on coarse images with a zero frame
            coarse = zero_frame(rng.normal(size=(nc, nc)))
            fine = rng.normal(size=(nf, nf))
            up_conv = conv_prolongate(bank, coarse)
            up = prolongate_uniform(coarse)
            assert np.allclose(up_conv, up, rtol=1e-12, atol=1e-14)
            down_conv = conv_restrict(bank, fine)
            down = zero_frame(restrict_uniform(fine))
            assert np.allclose(down_conv, down, rtol=1e-12, atol=1e-14)
            lhs = float(np.vdot(up_conv, fine))
            rhs = float(np.vdot(coarse, down_conv))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    assert not conv_prolongate(bank, np.zeros((5, 5))).any()
    with pytest.raises(ConfigurationError):
        conv_restrict(bank, np.zeros((8, 8)))


# ---------------------------------------------------------------- sweep twin


def test_single_dof_conv_trajectory():
    hier = build_hierarchy(3, 1)
    bank = build_stencil_bank(hier)
    diff = compute_upsilon(hier, np.ones((3, 3)))
    rhs = assemble_rhs(hier, np.ones((3, 3)))
    masks = uniform_masks(hier)
    sm = SmootherConfig((0.125,))
    # one smoothing step written out of public kernels: omega * b at the node
    act = masks[0].active
    stack = conv_translate(bank, np.zeros((3, 3)), act)
    section = conv_apply_A(bank, stack, diff.upsilon[0], hier.h(0))
    first = 0.125 * (rhs.images[0] - section) * act
    assert first[1, 1] == pytest.approx(0.03125, abs=1e-15)
    # the full sweep visits the single level twice
    state = init_llmg_state(bank, zero_field(hier, masks), rhs, diff, sm)
    conv_llmg_sweep(state, bank)
    assert state.solution_images()[0][1, 1] == pytest.approx(0.046875, abs=1e-15)


def test_conv_sweep_matches_solver_sweep():
    hier = build_hierarchy(5, 3)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(43)
    nf = hier.n(hier.levels - 1)
    for _ in range(5):
        diff = compute_upsilon(hier, rng.uniform(0.5, 3.0, size=(nf, nf)))
        rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
        masks = random_masks(hier, rng)
        values = [
            rng.normal(size=(hier.n(k), hier.n(k))) * masks[k].active
            for k in range(hier.levels)
        ]
        u = MultilevelField(hier, [v.copy() for v in values], masks)
        sm = choose_omega(diff, masks)
        state = init_llmg_state(
            bank, MultilevelField(hier, [v.copy() for v in values], masks), rhs, diff, sm
        )
        for _sweep in range(4):
            conv_llmg_sweep(state, bank)
            llmg_sweep(u, rhs, diff, sm)
            for k in range(hier.levels):
                dev = np.abs(state.solution_images()[k] - u.values[k]).max()
                assert dev <= 1e-11


def test_solution_images_copy_the_iterate():
    hier = build_hierarchy(5, 2)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(47)
    diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(9, 9)))
    rhs = assemble_rhs(hier, rng.normal(size=(9, 9)))
    masks = random_masks(hier, rng)
    sm = choose_omega(diff, masks)
    state = init_llmg_state(bank, random_field(hier, masks, rng), rhs, diff, sm)
    conv_llmg_sweep(state, bank)
    for k in range(hier.levels):
        out = state.solution_images()[k]
        assert out.shape == (hier.n(k), hier.n(k))
        assert np.array_equal(out, state.v[k])
        assert out.any() and not out[masks[k].active == 0].any()
        out[:] = 99.0
        assert not np.array_equal(state.v[k], out)


def test_sweep_state_validation():
    hier = build_hierarchy(5, 2)
    bank = build_stencil_bank(hier)
    diff = compute_upsilon(hier, np.ones((9, 9)))
    rhs = assemble_rhs(hier, np.ones((9, 9)))
    masks = uniform_masks(hier)
    with pytest.raises(ConfigurationError):
        init_llmg_state(
            bank, zero_field(hier, masks), rhs, diff,
            SmootherConfig(omegas=(0.1,)),
        )
    sm = choose_omega(diff, masks)
    for name in ("v", "utld", "ubar"):
        for wrong in (np.zeros((7, 9, 9)), np.zeros((5, 5))):
            state = init_llmg_state(bank, zero_field(hier, masks), rhs, diff, sm)
            getattr(state, name)[1] = wrong
            with pytest.raises(ConfigurationError):
                conv_llmg_sweep(state, bank)
    state = init_llmg_state(bank, zero_field(hier, masks), rhs, diff, sm)
    state.v.pop()
    with pytest.raises(ConfigurationError):
        conv_llmg_sweep(state, bank)


@pytest.mark.parametrize("levels", [2, 3])
def test_sweep_applies_exactly_the_counted_layers(monkeypatch, levels):
    """The layers one sweep and the state setup apply are the ones
    parameter_count books: no stack or chain is built and left unread."""
    hier = build_hierarchy(5, levels)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(59)
    nf = hier.n(levels - 1)
    diff = compute_upsilon(hier, rng.uniform(0.5, 3.0, size=(nf, nf)))
    rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
    masks = random_masks(hier, rng)
    sm = choose_omega(diff, masks)
    u = random_field(hier, masks, rng)

    applied = []
    real_apply = convnet.conv_apply

    def counted_apply(kernel, *args, **kwargs):
        applied.append(kernel)
        return real_apply(kernel, *args, **kwargs)

    def weights():
        return sum(k.weights.size + (0 if k.bias is None else k.bias.size) for k in applied)

    monkeypatch.setattr(convnet, "conv_apply", counted_apply)
    state = init_llmg_state(bank, u, rhs, diff, sm)
    assert weights() == (levels - 1) * 9
    applied.clear()
    conv_llmg_sweep(state, bank)
    # every smoothing step also multiplies by its damping factor, which no
    # kernel applies: one weight per step, two steps per level
    assert weights() == parameter_count(levels, 1)["per_sweep"] - 2 * levels
    # one smoothing step is one stack and one stiffness layer
    layers = (bank.translate, bank.operator, bank.prolong, bank.restrict)
    uses = [sum(k is layer for k in applied) for layer in layers]
    assert uses == [2 * levels, 2 * levels, levels - 1, levels - 1]


# ---------------------------------------------------------------- estimator


def test_conv_estimator_matches_direct():
    hier = build_hierarchy(5, 3)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(53)
    problem = CookieProblem()
    diff = compute_upsilon(hier, discretize_kappa(problem, (0.4, 0.8), hier))
    f_values = load_image(problem, hier)
    for _ in range(5):
        masks = random_masks(hier, rng)
        u = random_field(hier, masks, rng)
        direct = estimate(u, f_values, diff, masks)
        conv = conv_estimator(bank, flatten_to_finest(u), f_values, diff, masks)
        for k in range(hier.levels):
            assert np.array_equal(conv.tri_mask[k], direct.tri_mask[k])
            for name in ("r2", "j2", "eta2"):
                a = getattr(conv, name)[k]
                b = getattr(direct, name)[k]
                scale = max(1.0, float(np.abs(b).max()))
                assert np.abs(a - b).max() <= 1e-10 * scale
        assert conv.total() == pytest.approx(direct.total(), rel=1e-10)


def test_aggregation_kernels_give_16_and_8():
    bank = build_stencil_bank(build_hierarchy(5, 2))
    ones = np.ones((2, 9, 9))
    r = conv_apply(bank.aggregate_r2, ones)
    j = conv_apply(bank.aggregate_j2, ones)
    assert r.shape == (2, 5, 5) and j.shape == (2, 5, 5)
    assert np.array_equal(r[:, :4, :4], np.full((2, 4, 4), 16.0))
    assert np.array_equal(j[:, :4, :4], np.full((2, 4, 4), 8.0))


def test_conv_estimator_rejects_coarse_images():
    hier = build_hierarchy(5, 2)
    bank = build_stencil_bank(hier)
    diff = compute_upsilon(hier, np.ones((9, 9)))
    masks = uniform_masks(hier)
    with pytest.raises(ConfigurationError):
        conv_estimator(bank, np.zeros((5, 5)), np.ones((9, 9)), diff, masks)


# ---------------------------------------------------------------- marking


@pytest.mark.filterwarnings("ignore:dropping .* marked triangles:RuntimeWarning")
def test_conv_mark_refine_matches_adapt():
    """Binary mask equality against threshold marking plus refinement."""
    hier = build_hierarchy(5, 2)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(59)
    problem = CookieProblem()
    f_values = load_image(problem, hier)
    samples = sample_parameters(SampleRng(61), 20)
    for y in samples:
        diff = compute_upsilon(hier, discretize_kappa(problem, y, hier))
        masks = random_masks(hier, rng)
        u = random_field(hier, masks, rng)
        est = estimate(u, f_values, diff, masks)
        deltas = [max(1e-12, 0.3 * float(est.eta2[k].max())) for k in range(hier.levels)]
        got = conv_mark_refine(bank, est, deltas, masks)
        want = refine(masks, mark_threshold(est, deltas), hier)
        for k in range(hier.levels):
            assert np.array_equal(got[k].active, want[k].active)
            assert np.array_equal(got[k].closure, want[k].closure)


def test_conv_mark_all_below_threshold_is_inert():
    hier = build_hierarchy(5, 2)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(67)
    diff = compute_upsilon(hier, np.ones((9, 9)))
    masks = random_masks(hier, rng)
    u = random_field(hier, masks, rng)
    est = estimate(u, np.ones((9, 9)), diff, masks)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = conv_mark_refine(bank, est, 1e9, masks)
    for k in range(hier.levels):
        assert np.array_equal(got[k].active, masks[k].active)


def test_conv_mark_validation():
    hier = build_hierarchy(5, 2)
    bank = build_stencil_bank(hier)
    masks = uniform_masks(hier)
    diff = compute_upsilon(hier, np.ones((9, 9)))
    u = zero_field(hier, masks)
    est = estimate(u, np.ones((9, 9)), diff, masks)
    with pytest.raises(ConfigurationError):
        conv_mark_refine(bank, est, [1.0, 0.0], masks)
    with pytest.raises(ConfigurationError):
        conv_mark_refine(bank, est, 1.0, masks[:1])


# ---------------------------------------------------------------- bookkeeping


def test_parameter_counts_are_affine():
    assert parameter_count(2, 5)["operator_per_level"] == 6 * 7
    for m in (5, 10):
        totals = [parameter_count(lvl, m)["total"] for lvl in (2, 3, 4)]
        assert totals[2] - totals[1] == totals[1] - totals[0]
    for lvl in (2, 3, 4):
        fixed = parameter_count(lvl, 0)["total"]
        assert parameter_count(lvl, 10)["total"] - fixed == 2 * (
            parameter_count(lvl, 5)["total"] - fixed
        )
        pc = parameter_count(lvl, 7)
        assert pc["total"] == pc["fixed"] + 7 * pc["per_sweep"]
    with pytest.raises(ConfigurationError):
        parameter_count(0, 1)
    with pytest.raises(ConfigurationError):
        parameter_count(2, -1)


def test_flatten_bank_layout():
    bank = build_stencil_bank(build_hierarchy(5, 2))
    vec, layout = flatten_bank(bank)
    assert vec.dtype == np.float64
    assert vec.size == sum(int(np.prod(shape)) for _, shape in layout)
    names = [name for name, _ in layout]
    assert len(names) == len(set(names))
    shapes = dict(layout)
    assert shapes["operator"] == (6, 7, 1, 1)
    assert int(np.prod(shapes["operator"])) == 42
    vec2, _ = flatten_bank(bank)
    assert np.array_equal(vec, vec2)
