"""Convolutional twins: kernels, stencil bank, sweep, estimator, marking."""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfem import convnet
from mlfem.adapt import mark_threshold, refine
from mlfem.assembly import (
    apply_A_level,
    assemble_rhs,
    compute_upsilon,
)
from mlfem.convnet import (
    ConvKernel,
    build_stencil_bank,
    conv_apply,
    conv_apply_A,
    conv_estimator,
    conv_llmg_sweep,
    conv_mark_refine,
    conv_prolongate,
    conv_restrict,
    conv_translate,
    flatten_bank,
    init_llmg_state,
    parameter_count,
)
from mlfem.estimator import estimate
from mlfem.field import (
    LevelMask,
    MultilevelField,
    Taps,
    empty_mask,
    flatten_to_finest,
    offset_views,
    prolongate_uniform,
    restrict_uniform,
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
from mlfem.problems import CookieProblem, SampleRng, discretize_kappa, load_image
from mlfem.solver import SmootherConfig, choose_omega, llmg_sweep

from oracles import (
    full_lattice_conv_sweep,
    refined_inputs,
    random_field,
    random_mask,
    random_masks,
    sample_parameters,
)


def loop_conv(kernel, image, cell_anchored=False):
    """Reference convolution: explicit loops, zero padding.

    Window offsets run from the kernel centre, or from its first tap when
    cell_anchored.  plain reads in[c, i + offset]; strided2 reads
    in[c, 2i + offset] for every coarse node i of the odd fine lattice;
    transpose-strided2 scatters w[o, c, tap] * in[o, i] to
    out[c, 2i + offset] on the 2n - 1 lattice.  Taps that leave the lattice are dropped.
    """
    cout, cin, kh, kw = kernel.weights.shape
    _, n1, n2 = image.shape
    c1, c2 = (0, 0) if cell_anchored else ((kh - 1) // 2, (kw - 1) // 2)
    taps = [(d1, d2, d1 - c1, d2 - c2) for d1 in range(kh) for d2 in range(kw)]
    if kernel.mode == "transpose-strided2":
        f1, f2 = 2 * n1 - 1, 2 * n2 - 1
        out = np.zeros((cin, f1, f2))
        for o in range(cout):
            for i1 in range(n1):
                for i2 in range(n2):
                    for c in range(cin):
                        for d1, d2, o1, o2 in taps:
                            s1, s2 = 2 * i1 + o1, 2 * i2 + o2
                            if 0 <= s1 < f1 and 0 <= s2 < f2:
                                out[c, s1, s2] += kernel.weights[o, c, d1, d2] * image[o, i1, i2]
    else:
        stride = 2 if kernel.mode == "strided2" else 1
        m1, m2 = (n1 - 1) // stride + 1, (n2 - 1) // stride + 1
        out = np.zeros((cout, m1, m2))
        for o in range(cout):
            for i1 in range(m1):
                for i2 in range(m2):
                    acc = 0.0
                    for c in range(cin):
                        for d1, d2, o1, o2 in taps:
                            s1, s2 = stride * i1 + o1, stride * i2 + o2
                            if 0 <= s1 < n1 and 0 <= s2 < n2:
                                acc += kernel.weights[o, c, d1, d2] * image[c, s1, s2]
                    out[o, i1, i2] = acc
    return out


# ---------------------------------------------------------------- conv_apply


def test_identity_kernel_preserves_input():
    rng = np.random.default_rng(3)
    img = rng.normal(size=(1, 6, 7))
    one = ConvKernel(np.ones((1, 1, 1, 1)))
    assert np.array_equal(conv_apply(one, img), img)
    img2 = rng.normal(size=(2, 5, 5))
    eye = ConvKernel(np.eye(2).reshape(2, 2, 1, 1))
    assert np.array_equal(conv_apply(eye, img2), img2)


def test_plain_conv_matches_loop_oracle():
    rng = np.random.default_rng(11)
    kern = ConvKernel(rng.normal(size=(2, 3, 3, 3)))
    img = rng.normal(size=(3, 7, 6))
    got = conv_apply(kern, img)
    want = loop_conv(kern, img)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-14)


# fine lattices are odd; coarse (transposed-input) lattices odd and even
ORACLE_LATTICES = {
    "plain": ((7, 6), (5, 5), (4, 9)),
    "strided2": ((7, 7), (9, 5), (3, 11)),
    "transpose-strided2": ((4, 4), (5, 3), (2, 5)),
}


def first_tap_conv(kernel, image):
    """The layer with window offsets counted from its first tap, from conv_apply.

    conv_apply counts offsets from the centre tap c = (size - 1) // 2, so the
    first-tap layer (how `conv_mark_refine` anchors the refine layer) is the
    centred layer read c nodes on.  Padding the image by c zero nodes on every
    side keeps that read on the lattice: it starts 2c nodes in for plain and c
    nodes in for strided2 (coarse nodes) and transpose-strided2 (fine nodes).
    """
    c1, c2 = ((s - 1) // 2 for s in kernel.weights.shape[2:])
    _, n1, n2 = image.shape
    out = conv_apply(kernel, np.pad(image, ((0, 0), (c1, c1), (c2, c2))))
    if kernel.mode == "plain":
        return out[:, 2 * c1 : 2 * c1 + n1, 2 * c2 : 2 * c2 + n2]
    if kernel.mode == "strided2":
        return out[:, c1 : c1 + (n1 + 1) // 2, c2 : c2 + (n2 + 1) // 2]
    return out[:, c1 : c1 + 2 * n1 - 1, c2 : c2 + 2 * n2 - 1]


@pytest.mark.parametrize("size", [(1, 1), (2, 2), (3, 3), (3, 5), (5, 3)])
@pytest.mark.parametrize("cell_anchored", [False, True])
@pytest.mark.parametrize("mode", sorted(ORACLE_LATTICES))
def test_conv_modes_match_loop_oracle(mode, cell_anchored, size):
    rng = np.random.default_rng(13)
    kh, kw = size
    kern = ConvKernel(rng.normal(size=(2, 3, kh, kw)), mode=mode)
    cin = 2 if mode == "transpose-strided2" else 3
    for shape in ORACLE_LATTICES[mode]:
        img = rng.normal(size=(cin,) + shape)
        got = first_tap_conv(kern, img) if cell_anchored else conv_apply(kern, img)
        want = loop_conv(kern, img, cell_anchored)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-13, atol=1e-14)


def test_translate_gates_a_checkerboard():
    bank = build_stencil_bank(build_hierarchy(3, 1))
    img = np.random.default_rng(5).normal(size=(7, 7))
    i1, i2 = np.indices((7, 7))
    board = ((i1 + i2) % 2).astype(np.uint8)
    got = conv_translate(bank, img, board)
    assert np.array_equal(got, loop_conv(bank.translate, img[None]) * board)
    assert not got[:, board == 0].any()
    assert got[:, board == 1].any()


def test_strided_pair_adjointness():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(3, 2, 3, 3))
    down = ConvKernel(w, mode="strided2")
    up = ConvKernel(w.copy(), mode="transpose-strided2")
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
    # a transpose-strided2 input is a coarse image, which may be even; its
    # 2n - 1 output is always odd
    coarse = np.random.default_rng(4).normal(size=(4, 4))
    assert np.array_equal(conv_prolongate(bank, coarse), prolongate_uniform(coarse))


def test_kernel_validation():
    for shape in ((1, 3, 3), (1, 1, 1, 3, 3)):
        with pytest.raises(ConfigurationError):
            ConvKernel(np.zeros(shape))
    with pytest.raises(ConfigurationError):
        ConvKernel(np.zeros((1, 1, 1, 1)), mode="fancy")
    with pytest.raises(ConfigurationError):
        ConvKernel(np.zeros((1, 1, 3, 3)), mode="submanifold")
    kern = ConvKernel(np.zeros((1, 2, 3, 3)))
    assert (kern.out_channels, kern.in_channels) == (1, 2)
    with pytest.raises(ConfigurationError):
        conv_apply(kern, np.zeros((5, 5)))
    with pytest.raises(ConfigurationError):
        conv_apply(kern, np.zeros((3, 5, 5)))
    # transpose mode consumes out_channels many input channels
    up = ConvKernel(np.zeros((3, 2, 3, 3)), mode="transpose-strided2")
    with pytest.raises(ConfigurationError):
        conv_apply(up, np.zeros((2, 5, 5)))


def scanned_taps(kernel):
    """A fresh row-major scan of the weights: (window offset, (out, in) matrix)
    for every nonzero window position, offsets from the centre tap."""
    height, width = kernel.weights.shape[2:]
    return [
        ((d1 - (height - 1) // 2, d2 - (width - 1) // 2), kernel.weights[:, :, d1, d2])
        for d1 in range(height)
        for d2 in range(width)
        if kernel.weights[:, :, d1, d2].any()
    ]


def einsum_conv(kernel, image):
    """conv_apply with every tap an `np.einsum` over the contracted channels,
    read from a fresh scan of the weights."""
    n1, n2 = image.shape[1:]
    scan = scanned_taps(kernel)
    if kernel.mode == "transpose-strided2":
        dilated = np.zeros((image.shape[0], 2 * n1 - 1, 2 * n2 - 1))
        dilated[:, ::2, ::2] = image
        out = np.zeros((kernel.in_channels,) + dilated.shape[1:])
        mirrored = [(-o1, -o2) for (o1, o2), _ in scan]
        for (_, tap), view in zip(scan, offset_views(dilated, mirrored)):
            out += np.einsum("oc,oab->cab", tap, view)
    else:
        step = 2 if kernel.mode == "strided2" else 1
        out = np.zeros((kernel.out_channels, (n1 - 1) // step + 1, (n2 - 1) // step + 1))
        for (_, tap), view in zip(scan, offset_views(image, [o for o, _ in scan])):
            out += np.einsum("oc,cab->oab", tap, view[:, ::step, ::step])
    return out


def bank_kernels(bank):
    kernels = {
        name: getattr(bank, name)
        for name in ("operator", "upsilon", "prolong", "restrict", "corner", "aggregate_r2", "aggregate_j2", "refine", "translate")
    }
    kernels.update((f"jump_{name}", k) for name, k in bank.jumps.items())
    return kernels


def plant_zeros(rng, a, share=0.2):
    """a with about `share` of its entries set to +0.0 or -0.0 at random."""
    a = a.copy()
    hit = rng.random(a.shape) < share
    a[hit] = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)[hit]
    return a


@pytest.mark.parametrize("bank", [False, True])
@pytest.mark.parametrize("mode", sorted(ORACLE_LATTICES))
def test_single_channel_taps_give_the_einsum_bytes(mode, bank):
    """Every layer's staged gather gives the bytes of an `np.einsum` per
    tap (`einsum_conv`), signed zeros included, on inputs with planted
    +-0.0: single-channel layers and random multi-channel layers with
    sparse and +-0.0 weights on odd and even lattices, or (bank) the
    bank's kernels of this mode at n = 5, 9 and 17.  The layer's kept
    block with its index cut down to the columns of a random subset of
    output nodes, in random order, gives those nodes' bytes."""
    rng = np.random.default_rng(29)
    transposed = mode == "transpose-strided2"
    cases = []
    if bank:
        for kern in bank_kernels(build_stencil_bank(build_hierarchy(3, 2))).values():
            if kern.mode == mode:
                cin = kern.out_channels if transposed else kern.in_channels
                cases += [(kern, (cin, n, n)) for n in (5, 9, 17)]
    else:
        weights = rng.normal(size=(1, 3, 3, 3) if transposed else (3, 1, 3, 3))
        weights[..., 0, 2] = 0.0  # a zero tap is skipped
        weights[0, 0, 1, 0] = -0.0
        layers = [weights]
        for size in ((1, 1), (2, 2), (3, 3), (3, 5), (5, 3)):
            for channels in ((2, 3), (4, 2), (1, 7), (6, 7), (3, 1)):
                w = rng.normal(size=channels + size) * (rng.random(channels + size) < 0.5)
                layers.append(plant_zeros(rng, w))
        for w in layers:
            cin = w.shape[0] if transposed else w.shape[1]
            kern = ConvKernel(w, mode=mode)
            cases += [(kern, (cin,) + lattice) for lattice in ORACLE_LATTICES[mode]]
    assert len(cases) >= (6 if bank else 78)
    for kern, shape in cases:
        img = plant_zeros(rng, rng.normal(size=shape))
        got = conv_apply(kern, img)
        want = einsum_conv(kern, img)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        nodes = rng.permutation(got[0].size)[: max(1, got[0].size // 3)]
        kept = kern.gather(shape)
        cut = Taps(kept.index[..., nodes], kern.coef)(np.append(img, 0.0))
        assert cut.tobytes() == got.reshape(len(got), -1)[:, nodes].tobytes()


def staged_terms(kernel):
    """A fresh scan of the weights into the staged block, (emitted, taps,
    ranks): per emitted channel its nonzero window positions in row-major
    order, and per tap its (channel, offset from the centre tap, mirrored
    for transpose-strided2, weight) terms in channel order; shorter taps,
    and emitted channels with fewer taps, padded to the block with
    zero-reading (-1, (0, 0), 0.0) terms."""
    transposed = kernel.mode == "transpose-strided2"
    w = kernel.weights.transpose(1, 0, 2, 3) if transposed else kernel.weights
    taps = []
    for e in range(w.shape[0]):
        taps.append([])
        for (o1, o2), matrix in scanned_taps(ConvKernel(w[e : e + 1])):
            off = (-o1, -o2) if transposed else (o1, o2)
            taps[-1].append([(c, off, matrix[0, c]) for c in range(w.shape[1]) if matrix[0, c]])
    count = max(1, max(map(len, taps)))
    ranks = max([1] + [len(tap) for row in taps for tap in row])
    pad = (-1, (0, 0), 0.0)
    return [
        [tap + [pad] * (ranks - len(tap)) for tap in row] + [[pad] * ranks] * (count - len(row))
        for row in taps
    ]


# (terms, block size) of the bank kernels whose ranks are unbalanced, so
# that padding adds terms; every other kernel's block has no padding term
PADDED = {
    "operator": (14, 18),
    "aggregate_r2": (8, 12),
    "aggregate_j2": (8, 12),
    "refine": (12, 18),
}


def test_bank_kernels_stage_a_fresh_scan_of_their_weights():
    """Each bank kernel stages the block of a fresh scan of its weights:
    the (emitted, taps, ranks, 3) (channel, offset) pattern and the
    (emitted, taps, ranks, 1) weights, padded only where its ranks or tap
    counts are unbalanced (`PADDED`); its gather is a `field.Taps`.  Every
    kernel keeps its own gathers: two separately built banks share none,
    and give equal bytes."""
    first, second = (build_stencil_bank(build_hierarchy(3, 2)) for _ in range(2))
    rng = np.random.default_rng(41)
    for (name, kernel), other in zip(bank_kernels(first).items(), bank_kernels(second).values()):
        block = staged_terms(kernel)
        assert kernel.pattern.dtype == np.intp, name
        assert kernel.pattern.tolist() == [
            [[[c, o1, o2] for c, (o1, o2), _ in tap] for tap in row] for row in block
        ], name
        assert kernel.coef.tolist() == [[[[w] for _, _, w in tap] for tap in row] for row in block], name
        terms = np.count_nonzero(kernel.weights)
        assert np.count_nonzero(kernel.pattern[..., 0] >= 0) == np.count_nonzero(kernel.coef) == terms
        assert (terms, kernel.coef.size) == PADDED.get(name, (terms, terms)), name
        cin = kernel.out_channels if kernel.mode == "transpose-strided2" else kernel.in_channels
        for n in (5, 9, 17):
            img = rng.normal(size=(cin, n, n))
            assert conv_apply(kernel, img).tobytes() == conv_apply(other, img).tobytes(), name
            assert type(kernel.gather(img.shape)) is Taps, name
            assert kernel.gather(img.shape) is not other.gather(img.shape), name
        assert kernel._gathers is not other._gathers, name
        assert set(kernel._gathers) == set(other._gathers), name


def test_kernel_weights_are_a_read_only_copy():
    """A kernel keeps a read-only copy of its weights: writing them raises,
    and changing the caller's array changes neither the weights nor the
    layer's output, so the exported bank is the network that runs."""
    bank = build_stencil_bank(build_hierarchy(3, 2))
    with pytest.raises(ValueError):
        bank.translate.weights[:] = 0.0
    w = np.random.default_rng(43).normal(size=(2, 3, 3, 3))
    kern = ConvKernel(w)
    img = np.random.default_rng(47).normal(size=(3, 5, 5))
    before = conv_apply(kern, img)
    saved = w.copy()
    w[:] = 0.0
    assert np.array_equal(kern.weights, saved)
    assert conv_apply(kern, img).tobytes() == before.tobytes()


@st.composite
def conv_layers(draw):
    """A layer of any mode, 1-4 emitted and 1-5 contracted channels and a
    window of up to 3x3, whose weights are sparse with a keep rate drawn per
    window position (so the taps' channel counts are unbalanced) and +-0.0
    planted; an input on an odd or even lattice (odd for strided2) with
    +-0.0 planted; and a random cut of its output nodes, in random order,
    of at least two nodes where there are two (a single column sums 8 or
    more taps pairwise, `field.Taps`)."""
    mode = draw(st.sampled_from(convnet.MODES))
    shape = tuple(draw(st.integers(1, top)) for top in (4, 5, 3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = rng.random(shape) < rng.random((1, 1) + shape[2:])
    kern = ConvKernel(plant_zeros(rng, rng.normal(size=shape) * keep), mode=mode)
    lattice = [draw(st.integers(1, 6)) for _ in range(2)]
    if mode == "strided2":
        lattice = [2 * n - 1 for n in lattice]
    channels = shape[0] if mode == "transpose-strided2" else shape[1]
    img = plant_zeros(rng, rng.normal(size=(channels, *lattice)))
    nodes = int(np.prod(convnet._lattice(mode, *lattice)))
    cut = rng.permutation(nodes)[: draw(st.integers(min(2, nodes), nodes))]
    return kern, img, cut


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(conv_layers())
def test_conv_apply_gives_the_einsum_bytes_property(layer):
    """`conv_apply` gives `einsum_conv`'s bytes, and the layer's kept block
    cut to some output nodes gives those nodes' bytes."""
    kern, img, cut = layer
    got = conv_apply(kern, img)
    assert got.tobytes() == einsum_conv(kern, img).tobytes()
    kept = kern.gather(img.shape)
    part = Taps(kept.index[..., cut], kern.coef)(np.append(img, 0.0))
    assert part.tobytes() == got.reshape(len(got), -1)[:, cut].tobytes()


def test_staging_pads_uneven_taps_and_skips_zero_weights():
    """An emitted channel with fewer taps gets zero-reading taps, a tap
    with fewer terms zero-reading terms, and a zero or -0.0 weight is no
    term; the block is (emitted, taps, ranks)."""
    w = np.zeros((2, 3, 3, 3))
    w[0, 1, 0, 0], w[0, 2, 0, 0], w[0, 0, 2, 2] = 1.0, 2.0, 3.0
    w[1, 2, 1, 1], w[1, 0, 1, 1] = 4.0, -0.0
    kern = ConvKernel(w)
    pad = [-1, 0, 0]
    # output 0 at (-1, -1) (two terms) and (1, 1); output 1 at the centre
    # and a padding tap
    assert kern.pattern.tolist() == [
        [[[1, -1, -1], [2, -1, -1]], [[0, 1, 1], pad]],
        [[[2, 0, 0], pad], [pad, pad]],
    ]
    assert kern.coef.ravel().tolist() == [1.0, 2.0, 3.0, 0.0, 4.0, 0.0, 0.0, 0.0]
    assert kern.coef.shape == (2, 2, 2, 1)
    img = np.random.default_rng(31).normal(size=(3, 4, 5))
    assert conv_apply(kern, img).tobytes() == einsum_conv(kern, img).tobytes()


def test_zero_weights_read_no_input():
    """A zero weight is no term of the gather: the one-hot translate layer
    moves an inf to one node per channel and leaves +0.0 elsewhere, where an
    einsum over every channel of each tap would give 0 * inf = NaN; a
    multi-channel layer ignores an inf channel it does not weight."""
    bank = build_stencil_bank(build_hierarchy(3, 2))
    img = np.zeros((7, 7))
    img[3, 4] = np.inf
    stack = conv_apply(bank.translate, img[None])
    assert np.array_equal(stack, np.stack(offset_views(img, hat_overlap_offsets())))
    assert not np.isnan(stack).any() and np.isinf(stack).sum() == 7
    pair = np.stack([np.ones((5, 5)), np.full((5, 5), -np.inf)])
    first = ConvKernel(np.array([1.0, 0.0]).reshape(1, 2, 1, 1))
    assert np.array_equal(conv_apply(first, pair), np.ones((1, 5, 5)))


@pytest.mark.filterwarnings("ignore:dropping .* marked triangles:RuntimeWarning")
def test_mark_refine_builds_no_layer(monkeypatch):
    """`conv_mark_refine` applies the fixed marking layer and subtracts the
    threshold from its output: repeated calls construct no `ConvKernel`,
    and their masks are the bytes of threshold marking plus refinement at
    every threshold scale."""
    hier = build_hierarchy(5, 3)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(37)
    diff = compute_upsilon(hier, rng.uniform(0.5, 2.0, size=(17, 17)))
    masks = random_masks(hier, rng)
    est = estimate(random_field(hier, masks, rng), np.ones((17, 17)), diff, masks)
    deltas = [0.3 * float(e.max()) + 1e-12 for e in est.eta2]
    built = []
    real_post_init = ConvKernel.__post_init__

    def counted_post_init(kernel):
        built.append(kernel)
        real_post_init(kernel)

    monkeypatch.setattr(ConvKernel, "__post_init__", counted_post_init)
    for scale in (0.5, 1.0, 2.0):
        scaled = [scale * d for d in deltas]
        got = conv_mark_refine(bank, est, scaled, masks)
        want = refine(masks, mark_threshold(est, scaled), hier)
        assert [m.active.tobytes() for m in got] == [m.active.tobytes() for m in want]
    assert built == []


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
            want = np.stack(offset_views(img, hat_overlap_offsets())) * mask.active
            assert np.array_equal(got, want)
            assert np.array_equal(got[0], img * mask.active)


def test_upsilon_channels_equivalence():
    """The bank's `upsilon` kernel gives the finest Upsilon channels: it sums
    a channel's three vertex values times h^2/6, and a node whose incident
    triangle leaves the lattice gets a hard 0 through the channel's gate,
    the owned-square image read at the channel's owner offset, as in
    `compute_upsilon`."""
    hier = build_hierarchy(5, 3)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(29)
    last = hier.levels - 1
    n, h = hier.n(last), hier.h(last)
    owned = np.zeros((n, n), dtype=bool)
    owned[: n - 1, : n - 1] = True
    gates = np.stack(offset_views(owned, [owner for _, owner in NODE_TRIANGLES]))
    cookie = discretize_kappa(CookieProblem(), (0.7, 0.2), hier)
    for kappa in (rng.uniform(0.5, 3.0, size=(n, n)), cookie):
        want = compute_upsilon(hier, kappa).upsilon[last]
        got = (h * h) * conv_apply(bank.upsilon, kappa[None]) * gates
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


def test_ungated_apply_A_equivalence():
    """The stiffness action of an ungated stack, the translate layer's
    output on an interior image, is `apply_A_level`'s: the carry-up's
    action on u_k."""
    hier = build_hierarchy(5, 3)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(37)
    diff = compute_upsilon(hier, rng.uniform(0.5, 3.0, size=(17, 17)))
    for case in range(12):
        k = case % hier.levels
        n, h = hier.n(k), hier.h(k)
        v = zero_frame(rng.normal(size=(n, n)))
        got = conv_apply_A(bank, conv_apply(bank.translate, v[None]), diff.upsilon[k], h)
        want = apply_A_level(v, diff.upsilon[k], h)
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() <= 1e-12 * scale
    with pytest.raises(ConfigurationError):
        conv_apply_A(bank, np.zeros((7, 5, 5)), diff.upsilon[1], hier.h(1))


@pytest.mark.parametrize("levels", [2, 3, 4, 5, 6])
def test_stiffness_is_symmetric_bit_for_bit(levels):
    """Both routes carry up with A_k itself, which rests on its symmetry:
    on random kappa, every level's staged weight images give w[t, j] ==
    w[t', j + p_t] bit for bit at every pair of interior nodes, t' the tap
    of -p_t; and the operator layer's two diagonal stack channels hold only
    zero weights, so no stiffness term reads a diagonal neighbour."""
    rng = np.random.default_rng(83 + levels)
    offsets, pairs = hat_overlap_offsets(), 0
    for coarse in (3, 5):
        hier = build_hierarchy(coarse, levels)
        nf = hier.n(levels - 1)
        diff = compute_upsilon(hier, rng.uniform(0.1, 10.0, size=(nf, nf)))
        for k in range(levels):
            w, n = diff.stencil(k), hier.n(k)
            for t, (d1, d2) in enumerate(offsets):
                mirror = offsets.index((-d1, -d2))
                # interior nodes j with j + p_t interior
                rows = slice(max(1, 1 - d1), min(n - 1, n - 1 - d1))
                cols = slice(max(1, 1 - d2), min(n - 1, n - 1 - d2))
                here = w[t, rows, cols]
                there = w[mirror, rows.start + d1 : rows.stop + d1, cols.start + d2 : cols.stop + d2]
                assert here.tobytes() == there.tobytes(), (k, t)
                pairs += here.size
    assert pairs > 0
    operator = build_stencil_bank(build_hierarchy(3, 2)).operator
    diagonal = [offsets.index((1, 1)), offsets.index((-1, -1))]
    assert not operator.weights[:, diagonal].any()
    assert np.count_nonzero(operator.weights) == 14


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


def occupied_masks(hier, depth, rng):
    """Random active sets on levels 0..depth-1, empty levels below them."""
    return [
        random_mask(hier, k, rng) if k < depth else empty_mask(hier, k)
        for k in range(hier.levels)
    ]


def test_conv_sweep_matches_solver_sweep():
    check_conv_sweep_matches_solver_sweep(levels=3, depth=3)


def test_conv_sweep_culls_the_empty_levels():
    # dofs on levels 0 and 1 of four: both routes visit only those two, and
    # the conv iterate stays +0.0 on levels 2 and 3
    check_conv_sweep_matches_solver_sweep(levels=4, depth=2)


def check_conv_sweep_matches_solver_sweep(levels, depth):
    hier = build_hierarchy(5, levels)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(43)
    nf = hier.n(hier.levels - 1)
    for _ in range(5):
        diff = compute_upsilon(hier, rng.uniform(0.5, 3.0, size=(nf, nf)))
        rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
        masks = occupied_masks(hier, depth, rng)
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
            for k in range(depth, hier.levels):
                iterate = state.u.values[k]
                assert not iterate.any() and not np.signbit(iterate).any()


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
        assert np.array_equal(out, state.u.values[k])
        assert out.any() and not out[masks[k].active == 0].any()
        out[:] = 99.0
        assert not np.array_equal(state.u.values[k], out)


def test_sweep_state_validation():
    """The state is checked when it is staged; a sweep then refuses a state
    whose images or masks were replaced, or another bank."""
    hier = build_hierarchy(5, 2)
    bank = build_stencil_bank(hier)
    diff = compute_upsilon(hier, np.ones((9, 9)))
    masks = uniform_masks(hier)

    def rhs():
        return assemble_rhs(hier, np.ones((9, 9)))

    with pytest.raises(ConfigurationError):
        init_llmg_state(
            bank, zero_field(hier, masks), rhs(), diff,
            SmootherConfig(omegas=(0.1,)),
        )
    sm = choose_omega(diff, masks)
    for wrong in (np.zeros((7, 9, 9)), np.zeros((5, 5))):
        u = zero_field(hier, masks)
        u.values[1] = wrong
        with pytest.raises(ConfigurationError, match="group u"):
            init_llmg_state(bank, u, rhs(), diff, sm)
        f = rhs()
        f.images[1] = wrong
        with pytest.raises(ConfigurationError, match="group f"):
            init_llmg_state(bank, zero_field(hier, masks), f, diff, sm)
    for shape in ((5, 5), (9, 7)):
        bad = [masks[0], LevelMask(np.pad(np.ones((shape[0] - 2, shape[1] - 2)), 1))]
        with pytest.raises(ConfigurationError, match="group masks"):
            init_llmg_state(bank, zero_field(hier, bad), rhs(), diff, sm)
    u = zero_field(hier, masks)
    u.values.pop()
    with pytest.raises(ConfigurationError, match="group u"):
        init_llmg_state(bank, u, rhs(), diff, sm)
    # a mask with active frame nodes is refused where it is made
    for k in range(2):
        with pytest.raises(ConfigurationError, match="boundary frame"):
            LevelMask(np.ones((hier.n(k), hier.n(k))))

    # images of the right shape swapped in after staging are refused too:
    # the staged levels keep updating the arrays they were staged on
    swaps = (
        lambda s: s.u.values, lambda s: s.utld, lambda s: s.ubar, lambda s: s.f.images,
    )
    for group in swaps:
        state = init_llmg_state(bank, zero_field(hier, masks), rhs(), diff, sm)
        group(state)[1] = group(state)[1].copy()
        with pytest.raises(ConfigurationError, match="replaced"):
            conv_llmg_sweep(state, bank)
    state = init_llmg_state(bank, zero_field(hier, masks), rhs(), diff, sm)
    state.u.masks[1].active = state.u.masks[1].active.copy()
    with pytest.raises(ConfigurationError, match="replaced"):
        conv_llmg_sweep(state, bank)
    state = init_llmg_state(bank, zero_field(hier, masks), rhs(), diff, sm)
    state.u.values.pop()
    with pytest.raises(ConfigurationError, match="replaced"):
        conv_llmg_sweep(state, bank)
    state = init_llmg_state(bank, zero_field(hier, masks), rhs(), diff, sm)
    with pytest.raises(ConfigurationError, match="another stencil bank"):
        conv_llmg_sweep(state, build_stencil_bank(hier))
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.u = zero_field(hier, masks)


def test_conv_staging_rejects_non_finite_data():
    """Staging refuses what the direct route's staging refuses, with its
    wording: a NaN load or an inf iterate at an active node, on each
    occupied level, before any sweep could carry it into the iterate.  A
    non-finite iterate off the active sets is staged as +0.0 and passes."""
    hier = build_hierarchy(5, 3)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(71)
    nf = hier.n(2)
    diff = compute_upsilon(hier, rng.uniform(0.5, 3.0, size=(nf, nf)))
    masks = occupied_masks(hier, 3, rng)
    sm = choose_omega(diff, masks)
    for k in range(3):
        node = tuple(np.argwhere(masks[k].active)[-1])
        rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
        rhs.images[k][node] = np.nan
        with pytest.raises(ConfigurationError, match=f"load image of level {k} is not finite on its active set"):
            init_llmg_state(bank, zero_field(hier, masks), rhs, diff, sm)
        rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
        u = zero_field(hier, masks)
        u.values[k][node] = np.inf
        with pytest.raises(ConfigurationError, match=f"iterate image of level {k} is not finite on its active set"):
            init_llmg_state(bank, u, rhs, diff, sm)
        u.values[k][node] = 0.0
        u.values[k][tuple(np.argwhere(masks[k].active == 0)[0])] = np.inf
        conv_llmg_sweep(init_llmg_state(bank, u, rhs, diff, sm), bank)


@pytest.mark.parametrize(
    "levels, depth",
    [pytest.param(2, 2, id="2"), pytest.param(3, 3, id="3"), pytest.param(4, 2, id="4-depth2")],
)
def test_sweep_applies_exactly_the_counted_layers(monkeypatch, levels, depth):
    """The layers one sweep and the state setup apply are the ones
    parameter_count books for the occupied depth, counted on the gathers
    they run: a level's smoothing gather counts as the translate and
    stiffness layers it fuses, its carry-up gathers as those two layers
    and the restriction, and its carry-down gather is the prolongation's
    kept one.  No stack or chain is built and left unread, and no level
    without dofs is visited.  Each smoothing gather emits exactly its
    level's active interior rows, each carry-up action gather the interior
    nodes that positive-weight copies of the two layers light from those
    rows, and each restriction the coarse interior."""
    hier = build_hierarchy(5, levels)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(59)
    nf = hier.n(levels - 1)
    diff = compute_upsilon(hier, rng.uniform(0.5, 3.0, size=(nf, nf)))
    rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
    masks = occupied_masks(hier, depth, rng)
    sm = choose_omega(diff, masks)
    u = random_field(hier, masks, rng)

    called = []
    real_call = Taps.__call__

    def counted_call(taps, src, out=None):
        out = real_call(taps, src, out)
        called.append((taps, out.shape))
        return out

    monkeypatch.setattr(Taps, "__call__", counted_call)
    state = init_llmg_state(bank, u, rhs, diff, sm)
    init_calls = called[:]
    called.clear()
    conv_llmg_sweep(state, bank)

    # each gather's layers: a bank kernel's kept full-lattice gathers, and
    # the gathers each staged level cuts from them: the smoothing and
    # carry-up actions, which run the translate and stiffness layers as
    # one, and the two transfers
    entries = [getattr(bank, f.name) for f in dataclasses.fields(bank)]
    kernels = [k for e in entries for k in (e.values() if isinstance(e, dict) else [e])]
    layers = {id(t): (k,) for k in kernels for t in k._gathers.values()}
    for level in state.levels:
        layers[id(level.section.gather)] = (bank.translate, bank.operator)
        if hasattr(level, "action"):
            layers[id(level.action.gather)] = (bank.translate, bank.operator)
            layers[id(level.restriction)] = (bank.restrict,)
        if hasattr(level, "interpolation"):
            layers[id(level.interpolation)] = (bank.prolong,)

    def applied(calls):
        return [k for taps, _ in calls for k in layers[id(taps)]]

    assert sum(k.weights.size for k in applied(init_calls)) == (depth - 1) * 9
    # every smoothing step also multiplies by its damping factor, which no
    # kernel applies: one weight per step, two steps per level
    weights = sum(k.weights.size for k in applied(called))
    assert weights == parameter_count(depth, 1)["per_sweep"] - 2 * depth
    # one smoothing step, and one carry-up action, is one stack and one
    # stiffness layer
    counted = (bank.translate, bank.operator, bank.prolong, bank.restrict)
    uses = [sum(k is layer for k in applied(called)) for layer in counted]
    assert uses == [3 * depth - 1, 3 * depth - 1, depth - 1, depth - 1]
    assert len(state.levels) == depth
    reach_layers = [ConvKernel(np.abs(bank.translate.weights)), ConvKernel(np.abs(bank.operator.weights))]
    for k, level in enumerate(state.levels):
        interior = zero_frame(masks[k].active)
        rows = np.flatnonzero(interior)
        assert np.array_equal(level.rows, rows)
        shapes = [out for taps, out in called if taps is level.section.gather]
        assert shapes == [(6, rows.size)] * 2
        if k == 0:
            continue
        lit = conv_apply(reach_layers[1], conv_apply(reach_layers[0], interior[None].astype(float)))
        reach = np.flatnonzero(zero_frame(lit.sum(axis=0)) > 0.0)
        assert np.array_equal(level.reach, reach)
        nc = hier.n(k - 1)
        for gather, shape in ((level.action.gather, (6, reach.size)), (level.restriction, (1, nc - 2, nc - 2))):
            assert [out for taps, out in called if taps is gather] == [shape]
    # the carry-up is culled: some level's action gather skips interior nodes
    assert any(level.reach.size < (hier.n(k) - 2) ** 2 for k, level in enumerate(state.levels) if k)


def test_warm_bank_stages_a_state_with_no_index_build(monkeypatch):
    """Once the bank has met a level's lattice, staging a state builds no
    gather index and no channel layout: every gather it builds is a level's
    block cut from its layers' kept gathers, in the layer's (emitted, taps,
    ranks) block layout; both transfers are cut to their output's
    interior."""
    hier = build_hierarchy(5, 4)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(71)
    nf = hier.n(3)
    diff = compute_upsilon(hier, rng.uniform(0.5, 3.0, size=(nf, nf)))
    rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
    sm = choose_omega(diff, uniform_masks(hier))
    init_llmg_state(bank, zero_field(hier, uniform_masks(hier)), rhs, diff, sm)

    builds, kernels, gathers = [], [], []
    real_index, real_post_init, real_taps = convnet._gather_index, ConvKernel.__post_init__, Taps.__init__

    def counted_index(*args):
        builds.append(args)
        return real_index(*args)

    def counted_post_init(kernel):
        kernels.append(kernel)
        real_post_init(kernel)

    def counted_taps(taps, index, coef):
        gathers.append(taps)
        real_taps(taps, index, coef)

    monkeypatch.setattr(convnet, "_gather_index", counted_index)
    monkeypatch.setattr(ConvKernel, "__post_init__", counted_post_init)
    monkeypatch.setattr(Taps, "__init__", counted_taps)
    masks = occupied_masks(hier, 3, rng)
    state = init_llmg_state(bank, random_field(hier, masks, rng), rhs, diff, sm)
    conv_llmg_sweep(state, bank)
    assert builds == [] and kernels == []
    assert len(state.levels) == 3
    cut = []
    for k, level in enumerate(state.levels):
        n = hier.n(k)
        cut.append(level.section.gather)
        block = bank.operator.pattern.shape[:3]
        assert level.section.gather.index.shape == block + (level.rows.size,)
        if k > 0:
            cut += [level.action.gather, level.restriction]
            nc = hier.n(k - 1)
            assert level.action.gather.index.shape == block + (level.reach.size,)
            kept = bank.restrict.gather((1, n, n)).index.reshape(1, 7, 1, nc, nc)
            assert np.array_equal(level.restriction.index, kept[..., 1:-1, 1:-1])
        else:
            assert not hasattr(level, "action") and not hasattr(level, "restriction")
        if k < 2:
            cut.append(level.interpolation)
            nf = hier.n(k + 1)
            kept = bank.prolong.gather((1, n, n)).index.reshape(1, 7, 1, nf, nf)
            assert np.array_equal(level.interpolation.index, kept[..., 1:-1, 1:-1])
        else:
            assert not hasattr(level, "interpolation")
    assert gathers == cut


def sweep_pairs(bank, u, rhs, diff, sm, sweeps):
    """Two states staged from u, one swept by `conv_llmg_sweep` and one by
    the full-lattice oracle: both after each of `sweeps` sweeps."""
    culled = init_llmg_state(bank, u, rhs, diff, sm)
    full = init_llmg_state(bank, u, rhs, diff, sm)
    for _ in range(sweeps):
        conv_llmg_sweep(culled, bank)
        full_lattice_conv_sweep(full)
        yield culled, full


def state_bytes(state):
    return [a.tobytes() for group in (state.u.values, state.utld, state.ubar) for a in group]


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_culled_sweep_gives_the_full_lattice_bytes(depth):
    """On random masks of occupied depth 1-4, the staged sweep, which
    smooths only the active interior rows and culls the carry-up, leaves
    the iterate and both carried images with the bytes of the full-lattice
    smoothing step and the per-call carry layers (`oracles`), after each
    of 3 sweeps."""
    hier = build_hierarchy(5, 4)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(61 + depth)
    nf = hier.n(3)
    for _ in range(3):
        diff = compute_upsilon(hier, rng.uniform(0.5, 3.0, size=(nf, nf)))
        rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
        masks = occupied_masks(hier, depth, rng)
        u = random_field(hier, masks, rng)
        for culled, full in sweep_pairs(bank, u, rhs, diff, choose_omega(diff, masks), 3):
            assert state_bytes(culled) == state_bytes(full)
        assert any(v.any() for v in culled.u.values)


def test_culled_sweep_edge_cases():
    """Planted -0.0 and active rows next to the frame, against the
    full-lattice step and the per-call carries, after each of 3 sweeps.

    - -0.0 planted in the iterate off the active sets is staged as +0.0, and
      -0.0 planted at active nodes is smoothed like any value.
    - The culled carry-up's action reaches the frame-adjacent nodes from
      the rows next to the frame.
    - A mask holds interior nodes only (`field.LevelMask`), so every active
      node is a row, and every byte of the iterate and both carried images
      is the full-lattice step's and the per-call carries'.
    """
    hier = build_hierarchy(5, 3)
    bank = build_stencil_bank(hier)
    rng = np.random.default_rng(67)
    nf = hier.n(2)
    diff = compute_upsilon(hier, rng.uniform(0.5, 3.0, size=(nf, nf)))
    rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
    masks, values = [], []
    for k in range(hier.levels):
        n = hier.n(k)
        active = random_mask(hier, k, rng).active.copy()
        active[[1, n - 2, 2, n - 3], [2, 1, n - 2, 1]] = 1  # rows next to the frame
        v = rng.normal(size=(n, n))
        plant = rng.random((n, n)) < 0.3
        v[plant] = -0.0
        masks.append(LevelMask(active))
        values.append(v)
        assert (plant & (active == 0)).any() and (plant & (active == 1)).any()
    u = MultilevelField(hier, values, masks)
    for culled, full in sweep_pairs(bank, u, rhs, diff, choose_omega(diff, masks), 3):
        assert state_bytes(culled) == state_bytes(full)
    skipped = []
    for k, level in enumerate(culled.levels[1:], start=1):
        n = hier.n(k)
        near = np.unravel_index(level.reach, (n, n))
        assert (np.minimum(near[0], near[1]) == 1).any()
        skipped.append((n - 2) ** 2 - level.reach.size)
    assert max(skipped) > 0
    # a level whose only active node is next to two sides of the frame
    masks[2] = LevelMask(np.pad(np.ones((1, 1)), ((1, 15), (15, 1))))
    u = MultilevelField(hier, values, masks)
    for culled, full in sweep_pairs(bank, u, rhs, diff, choose_omega(diff, masks), 2):
        assert state_bytes(culled) == state_bytes(full)
    assert culled.levels[2].rows.tolist() == [1 * nf + 15]


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(refined_inputs())
def test_culled_sweep_property(inputs):
    """The staged sweep gives the bytes of the iterate and both carried
    images of the full-lattice step and the per-call carries, after 1 and 3
    sweeps, on every mask the adaptive loop can reach (no active frame
    nodes; level 0's rows next to the frame)."""
    u, rhs, diff = inputs
    bank = build_stencil_bank(u.hierarchy)
    pairs = sweep_pairs(bank, u, rhs, diff, choose_omega(diff, u.masks), 3)
    for sweeps, (culled, full) in enumerate(pairs, start=1):
        if sweeps in (1, 3):
            assert state_bytes(culled) == state_bytes(full)


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


def test_conv_mark_warns_at_the_caller():
    hier = build_hierarchy(5, 2)
    bank = build_stencil_bank(hier)
    masks = uniform_masks(hier)
    diff = compute_upsilon(hier, np.ones((9, 9)))
    u = random_field(hier, masks, np.random.default_rng(71))
    est = estimate(u, np.ones((9, 9)), diff, masks)
    top = int(est.tri_mask[-1].sum())
    with pytest.warns(RuntimeWarning, match=f"dropping {top} marked triangles") as record:
        conv_mark_refine(bank, est, 1e-300, masks)
    assert record[0].filename == __file__


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
    assert names == [
        "operator", "upsilon", "prolong", "restrict", "corner",
        "jump_bottom", "jump_diag", "jump_left", "jump_right", "jump_top",
        "aggregate_r2", "aggregate_j2", "refine", "translate",
    ]
    # the dataset's kernel_bank blob holds these bytes
    assert hashlib.sha256(vec.tobytes()).hexdigest() == (
        "8b19b22be8733075e38daef40663ee5acc8f911bd5693a1e45034edec07d9bed"
    )
