import numpy as np
import pytest

from mlfem.field import (
    LevelMask,
    MultilevelField,
    empty_mask,
    flatten_to_finest,
    full_mask,
    offset_views,
    prolongate,
    prolongate_uniform,
    restrict_uniform,
    restrict_weighted,
    uniform_masks,
    zero_field,
)
from mlfem.mesh import ConfigurationError, build_hierarchy, hat_overlap_offsets

from oracles import hat_value, multilevel_eval, pl_eval, random_field, random_mask


def translate(image, mask):
    """Masked translation stack: out[t, i] = image[i + p_t] * active[i]."""
    return np.stack(offset_views(image, hat_overlap_offsets())) * mask.active


def test_offset_views_match_index_loop():
    rng = np.random.default_rng(5)
    offsets = [(d1, d2) for d1 in (-1, 0, 1) for d2 in (-1, 0, 1)]
    n = 6
    for image in (rng.normal(size=(n, n)), rng.normal(size=(7, n, n))):
        views = offset_views(image, offsets)
        assert len(views) == len(offsets)
        for (d1, d2), view in zip(offsets, views):
            assert view.shape == image.shape
            expect = np.zeros_like(image)
            for i1 in range(n):
                for i2 in range(n):
                    if 0 <= i1 + d1 < n and 0 <= i2 + d2 < n:
                        expect[..., i1, i2] = image[..., i1 + d1, i2 + d2]
            assert np.array_equal(view, expect)


def test_offset_views_radius_cache_cannot_go_stale():
    """The padding radius is looked up per offset set; sets of radius 0, 1
    and 2, as lists and as tuples and interleaved, each read the views of a
    fresh zero pad of their own radius."""
    rng = np.random.default_rng(9)
    image = rng.normal(size=(2, 6, 7))
    sets = [
        [],
        [(2, -1), (0, 0)],
        [(1, 0), (0, -1), (-1, 1)],
        [(0, 0)],
        [(0, -2)],
        [(-1, -1), (1, 1)],
        [(0, 0), (2, 2), (-2, 0)],
    ]
    for offsets in sets * 2 + sets[::-1]:
        r = max((max(abs(d1), abs(d2)) for d1, d2 in offsets), default=0)
        padded = np.pad(image, ((0, 0), (r, r), (r, r)))
        want = [padded[:, r + d1 : r + d1 + 6, r + d2 : r + d2 + 7] for d1, d2 in offsets]
        for form in (list(offsets), tuple(offsets)):
            got = offset_views(image, form)
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_translate_zero_image():
    hier = build_hierarchy(5, 1)
    stack = translate(np.zeros((5, 5)), full_mask(hier, 0))
    assert stack.shape == (7, 5, 5)
    assert not stack.any()


def test_translate_delta():
    hier = build_hierarchy(5, 1)
    img = np.zeros((5, 5))
    img[2, 2] = 1.0
    stack = translate(img, full_mask(hier, 0))
    offsets = hat_overlap_offsets()
    assert stack[0, 2, 2] == 1.0
    for t, (d1, d2) in enumerate(offsets):
        src = (2 - d1, 2 - d2)
        if 1 <= src[0] <= 3 and 1 <= src[1] <= 3:
            assert stack[t, src[0], src[1]] == 1.0


def test_translate_index_loop_oracle():
    hier = build_hierarchy(5, 2)
    rng = np.random.default_rng(3)
    offsets = hat_overlap_offsets()
    for trial in range(5):
        mask = random_mask(hier, 1, rng)
        img = rng.normal(size=(9, 9))
        stack = translate(img, mask)
        for t, (d1, d2) in enumerate(offsets):
            for i1 in range(9):
                for i2 in range(9):
                    s1, s2 = i1 + d1, i2 + d2
                    want = img[s1, s2] if 0 <= s1 < 9 and 0 <= s2 < 9 else 0.0
                    want *= mask.active[i1, i2]
                    assert stack[t, i1, i2] == want


def frame_nodes(n):
    """The middle of each side of the frame, then its four corners."""
    m = n // 2
    return [(0, m), (n - 1, m), (m, 0), (m, n - 1), (0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)]


def test_mask_rejects_an_active_frame_node():
    """The stacked system acts on interior hats only (the boundary is
    homogeneous Dirichlet), so a mask is refused where it is made if it
    activates a node on any side or corner of the frame, whatever its
    interior holds; the same images without that node are accepted."""
    hier = build_hierarchy(5, 2)
    for k in range(hier.levels):
        n = hier.n(k)
        for interior in (hier.interior_mask(k), np.zeros((n, n), dtype=np.uint8)):
            for node in frame_nodes(n):
                active = interior.copy()
                active[node] = 1
                with pytest.raises(ConfigurationError, match="boundary frame"):
                    LevelMask(active)
            assert np.array_equal(LevelMask(interior).active, interior)


@pytest.mark.parametrize("entry", [2, 0.5, 256.0, np.nan], ids=["2", "0.5", "256.0", "nan"])
def test_mask_rejects_entries_other_than_0_and_1(entry):
    """Any raw entry other than 0 or 1 is refused, before a uint8 cast
    could turn 0.5 or 256.0 into 0 or 2 into an active node."""
    active = np.zeros((5, 5))
    active[2, 2] = entry
    with pytest.raises(ConfigurationError, match="0 or 1"):
        LevelMask(active)


def test_mask_keeps_bool_and_float_images_as_uint8():
    """Bool and float 0/1 images, C- or F-ordered, are kept as C-contiguous
    uint8 with the same entries."""
    hier = build_hierarchy(5, 1)
    want = random_mask(hier, 0, np.random.default_rng(7)).active
    for image in (want.astype(bool), want.astype(float), np.asfortranarray(want.astype(float))):
        got = LevelMask(image).active
        assert got.dtype == np.uint8 and got.flags.c_contiguous
        assert np.array_equal(got, want)
    with pytest.raises(ConfigurationError, match="2-D"):
        LevelMask(want.ravel())


def test_mask_closure_is_dilation():
    hier = build_hierarchy(5, 1)
    rng = np.random.default_rng(5)
    mask = random_mask(hier, 0, rng)
    for i1 in range(5):
        for i2 in range(5):
            should = any(
                0 <= i1 + d1 < 5 and 0 <= i2 + d2 < 5 and mask.active[i1 + d1, i2 + d2]
                for d1, d2 in hat_overlap_offsets()
            )
            assert bool(mask.closure[i1, i2]) == should
    assert np.all(mask.active <= mask.closure)


def test_prolongate_delta_weights():
    # hat-evaluation oracle: fine values are the coarse hat at fine nodes
    hier = build_hierarchy(3, 2)
    coarse = np.zeros((3, 3))
    coarse[1, 1] = 1.0
    fine = prolongate(coarse, full_mask(hier, 0), full_mask(hier, 1))
    assert fine[2, 2] == 1.0
    for spot in [(1, 2), (3, 2), (2, 1), (2, 3), (3, 3), (1, 1)]:
        assert fine[spot] == 0.5
    assert fine[1, 3] == 0.0
    assert fine[3, 1] == 0.0
    coords = hier.node_coords(1)
    want = hat_value((1, 1), hier.h(0), coords)
    # boundary rows of the write mask force zeros there
    want[0, :] = 0.0
    want[-1, :] = 0.0
    want[:, 0] = 0.0
    want[:, -1] = 0.0
    assert np.allclose(fine, want)


def test_prolongate_zero():
    hier = build_hierarchy(3, 2)
    out = prolongate(np.zeros((3, 3)), full_mask(hier, 0), full_mask(hier, 1))
    assert not out.any()


def test_prolongate_preserves_function_values():
    hier = build_hierarchy(5, 2)
    rng = np.random.default_rng(11)
    coarse = np.zeros((5, 5))
    coarse[1:-1, 1:-1] = rng.normal(size=(3, 3))
    fine = prolongate(coarse, full_mask(hier, 0), full_mask(hier, 1))
    pts = rng.random((300, 2))
    assert np.allclose(
        pl_eval(fine, hier.h(1), pts), pl_eval(coarse, hier.h(0), pts), atol=1e-12
    )


def test_restrict_is_adjoint_of_prolongate():
    hier = build_hierarchy(5, 2)
    rng = np.random.default_rng(7)
    for trial in range(100):
        cm = random_mask(hier, 0, rng)
        fm = random_mask(hier, 1, rng)
        v = rng.normal(size=(5, 5)) * cm.write()
        w = rng.normal(size=(9, 9))
        lhs = np.sum(prolongate(v, cm, fm) * w)
        rhs = np.sum(v * restrict_weighted(w, cm, fm))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_restrict_deltas():
    hier = build_hierarchy(3, 2)
    cm, fm = full_mask(hier, 0), full_mask(hier, 1)
    fine = np.zeros((5, 5))
    fine[2, 2] = 1.0  # coincident with coarse (1,1)
    out = restrict_weighted(fine, cm, fm)
    assert out[1, 1] == 1.0
    fine = np.zeros((5, 5))
    fine[2, 1] = 1.0  # midpoint of coarse (1,0)-(1,1) edge
    out = restrict_weighted(fine, cm, fm)
    assert out[1, 0] == 0.5 or out[1, 1] == 0.5
    # both endpoints receive 0.5 where they are writable
    assert out[1, 1] == 0.5


def test_evaluate_field_zero_and_delta():
    hier = build_hierarchy(5, 1)
    masks = [full_mask(hier, 0)]
    u = zero_field(hier, masks)
    pts = np.array([[0.3, 0.7], [0.5, 0.5]])
    assert np.allclose(multilevel_eval(u, pts), 0.0)
    u.values[0][2, 2] = 1.0
    coords = hier.node_coords(0).reshape(-1, 2)
    vals = multilevel_eval(u, coords).reshape(5, 5)
    want = np.zeros((5, 5))
    want[2, 2] = 1.0
    assert np.allclose(vals, want)


def test_two_level_field_equals_flattened_single_level():
    hier = build_hierarchy(5, 2)
    rng = np.random.default_rng(2)
    masks = uniform_masks(hier)
    u = random_field(hier, masks, rng)
    flat = flatten_to_finest(u)
    single = MultilevelField(
        hier,
        [np.zeros((5, 5)), flat],
        [empty_mask(hier, 0), full_mask(hier, 1)],
    )
    pts = rng.random((1000, 2))
    assert np.allclose(multilevel_eval(u, pts), multilevel_eval(single, pts), atol=1e-12)


def test_flatten_single_level_is_identity():
    hier = build_hierarchy(5, 1)
    rng = np.random.default_rng(4)
    u = random_field(hier, uniform_masks(hier), rng)
    assert np.array_equal(flatten_to_finest(u), u.values[0])


def test_flatten_matches_pointwise_evaluation():
    hier = build_hierarchy(3, 3)
    rng = np.random.default_rng(9)
    masks = [random_mask(hier, k, rng) for k in range(3)]
    u = random_field(hier, masks, rng)
    flat = flatten_to_finest(u)
    coords = hier.node_coords(2).reshape(-1, 2)
    assert np.allclose(multilevel_eval(u, coords), flat.ravel(), atol=1e-12)


def test_prolongate_uniform_round_trip_shapes():
    rng = np.random.default_rng(13)
    coarse = rng.normal(size=(5, 5))
    fine = prolongate_uniform(coarse)
    assert fine.shape == (9, 9)
    assert restrict_uniform(rng.normal(size=(9, 9))).shape == (5, 5)
    # uniform prolongation keeps coincident nodes exact
    assert np.allclose(fine[::2, ::2], coarse)


def test_linearity_of_field_operators():
    hier = build_hierarchy(5, 2)
    rng = np.random.default_rng(17)
    cm = random_mask(hier, 0, rng)
    fm = random_mask(hier, 1, rng)
    a, b = 2.5, -1.25
    v1 = rng.normal(size=(5, 5))
    v2 = rng.normal(size=(5, 5))
    assert np.allclose(
        translate(a * v1 + b * v2, cm),
        a * translate(v1, cm) + b * translate(v2, cm),
        atol=1e-12,
    )
    assert np.allclose(
        prolongate(a * v1 + b * v2, cm, fm),
        a * prolongate(v1, cm, fm) + b * prolongate(v2, cm, fm),
        atol=1e-12,
    )
    w1 = rng.normal(size=(9, 9))
    w2 = rng.normal(size=(9, 9))
    assert np.allclose(
        restrict_weighted(a * w1 + b * w2, cm, fm),
        a * restrict_weighted(w1, cm, fm) + b * restrict_weighted(w2, cm, fm),
        atol=1e-12,
    )
