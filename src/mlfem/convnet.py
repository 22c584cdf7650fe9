"""Convolutional realizations of the lattice operators.

Every operator the engine uses (stiffness action, its transpose, the
full-lattice transfer pair, one multigrid sweep, the error estimator, and
threshold marking with refinement) is also expressible as a small stack of
convolutions with fixed rational kernels and exact elementwise products.
This module builds those kernels (`build_stencil_bank`) and provides the
conv-side twins (conv_*) whose outputs are checked against the direct
implementations in `assembly`, `solver`, `estimator` and `adapt`.

Kernel/image conventions: channels-first `(C, n1, n2)` images, row-major,
zero padding outside the lattice (the Dirichlet boundary carries zeros
anyway).  Strided modes align windows with the coarse-coincident fine node
`2i`; kernels acting on cell-indexed (per-triangle) channels align with the
cell-center node `2i + 1` instead, selected per call with `cell_anchored`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .assembly import DiffusionField, RhsField
from .estimator import EstimatorField, leaf_triangle_masks
from .field import LevelMask, MultilevelField, make_mask, zero_frame
from .mesh import (
    NODE_TRIANGLES,
    TRI_CHILD_OFFSETS,
    TRI_FOOTPRINT_OFFSETS,
    TRI_VERTEX_OFFSETS,
    ConfigurationError,
    GridHierarchy,
    hat_overlap_offsets,
)
from .solver import SmootherConfig

__all__ = [
    "ConvKernel",
    "StencilBank",
    "ConvLlmgState",
    "conv_apply",
    "build_stencil_bank",
    "conv_apply_A",
    "conv_apply_A_transpose",
    "conv_prolongate",
    "conv_restrict",
    "conv_translate",
    "init_llmg_state",
    "conv_llmg_sweep",
    "conv_estimator",
    "conv_mark_refine",
    "parameter_count",
    "flatten_bank",
]

MODES = ("plain", "strided2", "transpose-strided2", "submanifold")


@dataclass(frozen=True, eq=False)
class ConvKernel:
    """One convolution layer: weights (out_channels, in_channels, h, w).

    `mode` selects how the window walks the lattice.  plain and submanifold
    preserve shape; strided2 reads the fine lattice and emits one value per
    coarse node; transpose-strided2 is the zero-dilated adjoint, so its
    weights keep the strided2 layout (first axis indexes the *input* of the
    transposed application).
    """

    out_channels: int
    in_channels: int
    height: int
    width: int
    weights: np.ndarray
    bias: np.ndarray | None = None
    mode: str = "plain"

    def __post_init__(self):
        expect = (self.out_channels, self.in_channels, self.height, self.width)
        if self.weights.shape != expect:
            raise ConfigurationError(
                f"kernel weights {self.weights.shape} do not match {expect}"
            )
        if self.bias is not None and self.bias.shape != (self.out_channels,):
            raise ConfigurationError("bias must have one entry per out channel")
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown conv mode {self.mode!r}")


def _tap_windows(
    kernel: ConvKernel, coarse: tuple, fine: tuple, stride: int, cell_anchored: bool
):
    """Nonzero taps with the index windows they pair.

    Yields (tap, coarse_index, fine_index): coarse position i meets fine
    position stride*i + o for the tap's window offset o, and both index
    tuples cover exactly the positions where each partner lies on its
    lattice.  Taps with no such position, or with all-zero weights, are
    skipped.  Stride 1 (coarse and fine the same lattice) is the plain conv.
    """

    def axis(size: int, center: int, m: int, n: int) -> list:
        windows = []
        for o in range(-center, size - center):
            a = max(0, -(o // stride))
            b = min(m - 1, (n - 1 - o) // stride)
            windows.append((slice(a, b + 1), slice(stride * a + o, stride * b + o + 1, stride)))
        return windows

    c1 = 0 if cell_anchored else (kernel.height - 1) // 2
    c2 = 0 if cell_anchored else (kernel.width - 1) // 2
    rows = axis(kernel.height, c1, coarse[0], fine[0])
    cols = axis(kernel.width, c2, coarse[1], fine[1])
    for d1, (lo1, hi1) in enumerate(rows):
        for d2, (lo2, hi2) in enumerate(cols):
            tap = kernel.weights[:, :, d1, d2]
            if lo1.start < lo1.stop and lo2.start < lo2.stop and tap.any():
                yield tap, (slice(None), lo1, lo2), (slice(None), hi1, hi2)


def conv_apply(
    kernel: ConvKernel,
    image: np.ndarray,
    mask: np.ndarray | None = None,
    cell_anchored: bool = False,
) -> np.ndarray:
    """Apply one kernel to a channels-first image with zero padding.

    plain: cross-correlation, shape preserved.  strided2: output on the
    coarse lattice, window offsets measured from the coincident fine node
    (or from the cell-center node when cell_anchored).  transpose-strided2:
    exact adjoint of strided2, coarse in, fine out.  submanifold: plain conv
    multiplied by mask, so positions with mask 0 are never written.
    """
    if image.ndim != 3:
        raise ConfigurationError(f"expected (channels, n1, n2) image, got {image.shape}")
    cin = kernel.out_channels if kernel.mode == "transpose-strided2" else kernel.in_channels
    if image.shape[0] != cin:
        raise ConfigurationError(
            f"kernel consumes {cin} channels, image has {image.shape[0]}"
        )
    if kernel.mode == "submanifold" and mask is None:
        raise ConfigurationError("submanifold mode requires a mask")
    shape = image.shape[1:]
    if kernel.mode not in ("plain", "submanifold") and (shape[0] % 2 == 0 or shape[1] % 2 == 0):
        raise ConfigurationError(
            f"strided modes need an odd lattice (2n-1 layout), got {image.shape}"
        )

    if kernel.mode == "transpose-strided2":
        # out[c, 2i + offset] += w[o, c, tap] * in[o, i]
        fine = (2 * shape[0] - 1, 2 * shape[1] - 1)
        out = np.zeros((kernel.in_channels,) + fine)
        for tap, lo, hi in _tap_windows(kernel, shape, fine, 2, cell_anchored):
            out[hi] += np.einsum("oc,oab->cab", tap, image[lo])
    else:
        stride = 2 if kernel.mode == "strided2" else 1
        coarse = ((shape[0] + 1) // 2, (shape[1] + 1) // 2) if stride == 2 else shape
        out = np.zeros((kernel.out_channels,) + coarse)
        for tap, lo, hi in _tap_windows(kernel, coarse, shape, stride, cell_anchored):
            # (O, I) x (I, a, b) -> (O, a, b)
            out[lo] += np.einsum("oc,cab->oab", tap, image[hi])
    if kernel.bias is not None:
        out += kernel.bias[:, None, None]
    if kernel.mode == "submanifold":
        out = out * np.asarray(mask)
    return out


# ---------------------------------------------------------------------------
# kernel bank


def _hat_gradients(verts: list[tuple[int, int]]) -> tuple[np.ndarray, float]:
    """Gradients of the three vertex hats, by the rotated-edge-vector rule.

    For the triangle (v0, v1, v2) with signed area As, the hat of vertex i
    has the constant gradient rot90(v_{i+2} - v_{i+1}) / (2 As).  This is
    deliberately a different derivation route from the one in `assembly`.
    """
    p = np.asarray(verts, dtype=float)
    e1, e2 = p[1] - p[0], p[2] - p[0]
    a_signed = 0.5 * float(e1[0] * e2[1] - e1[1] * e2[0])
    grads = np.empty((3, 2))
    for i in range(3):
        e = p[(i + 2) % 3] - p[(i + 1) % 3]
        grads[i] = np.array([-e[1], e[0]]) / (2.0 * a_signed)
    return grads, abs(a_signed)


def _operator_couplings() -> np.ndarray:
    """42 constants: row l holds the couplings of node-triangle l with the
    seven overlap offsets, in unit mesh size (they are h-independent)."""
    offsets = hat_overlap_offsets()
    out = np.zeros((len(NODE_TRIANGLES), len(offsets)))
    for chan, (q, owner) in enumerate(NODE_TRIANGLES):
        verts = [(owner[0] + a, owner[1] + b) for a, b in TRI_VERTEX_OFFSETS[q]]
        grads, area = _hat_gradients(verts)
        center = verts.index((0, 0))
        for t, off in enumerate(offsets):
            if off in verts:
                out[chan, t] = area * float(grads[center] @ grads[verts.index(off)])
    return out


_TRANSFER_WEIGHTS = np.array(
    [[0.5, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 0.5]]
)

# estimator taps: (row offset, col offset) -> weight, offsets measured from
# the owner node; the split into five families mirrors the edge bookkeeping
# of `estimator.finest_estimator_images`
_JUMP_TAPS = {
    "left": ({(1, 1): 1.0, (0, 1): -1.0, (0, 0): -1.0, (-1, 0): 1.0}, 3, 3),
    "top": ({(0, 1): 1.0, (0, 0): -1.0, (1, 2): -1.0, (1, 1): 1.0}, 3, 5),
    "diag": ({(1, 1): 1.0, (0, 1): -1.0, (1, 0): -1.0, (0, 0): 1.0}, 3, 3),
    "bottom": ({(1, 1): 1.0, (1, 0): -1.0, (0, 0): -1.0, (0, -1): 1.0}, 3, 3),
    "right": ({(1, 0): 1.0, (0, 0): -1.0, (2, 1): -1.0, (1, 1): 1.0}, 5, 3),
}


@dataclass(frozen=True, eq=False)
class StencilBank:
    """All fixed kernels for one hierarchy, exact rationals times h-powers.

    operator maps the 7-channel translation stack to the six node-triangle
    channels, and operator_transpose is its mirrored adjoint;
    upsilon integrates nodal kappa over the six incident triangles (times
    h^2 at use); prolong/restrict share the 3x3 interpolation weights as a
    transpose/strided pair; corner and jump kernels feed the estimator;
    aggregate_* sum child triangles with the h-rescaling factors 4 and 2;
    refine maps marked-triangle channels to next-level node activations;
    translate builds the 7-offset stack as a submanifold conv.
    """

    operator: ConvKernel
    operator_transpose: ConvKernel
    upsilon: ConvKernel
    prolong: ConvKernel
    restrict: ConvKernel
    corner: ConvKernel
    jumps: dict[str, ConvKernel]
    aggregate_r2: ConvKernel
    aggregate_j2: ConvKernel
    refine: ConvKernel
    translate: ConvKernel


def build_stencil_bank(hierarchy: GridHierarchy) -> StencilBank:
    """Derive every kernel from the reference geometry.

    The couplings are integrated here from scratch (rotated-edge gradients)
    rather than imported from `assembly`, so the two routes stay independent
    checks of each other; the constant-coefficient row sums are asserted to
    reproduce the 5-point stencil.
    """
    couplings = _operator_couplings()
    stencil = couplings.sum(axis=0)
    expect = {(0, 0): 4.0, (1, 0): -1.0, (-1, 0): -1.0, (0, 1): -1.0, (0, -1): -1.0}
    for t, off in enumerate(hat_overlap_offsets()):
        if stencil[t] != expect.get(off, 0.0):
            raise ConfigurationError("reference integration lost the Courant stencil")

    operator = ConvKernel(6, 7, 1, 1, couplings.reshape(6, 7, 1, 1))

    wt = np.zeros((1, 6, 3, 3))
    for chan in range(6):
        for t, (d1, d2) in enumerate(hat_overlap_offsets()):
            wt[0, chan, 1 - d1, 1 - d2] += couplings[chan, t]
    operator_transpose = ConvKernel(1, 6, 3, 3, wt)

    wu = np.zeros((6, 1, 3, 3))
    for chan, (q, owner) in enumerate(NODE_TRIANGLES):
        for a, b in TRI_VERTEX_OFFSETS[q]:
            wu[chan, 0, 1 + owner[0] + a, 1 + owner[1] + b] = 1.0 / 6.0
    upsilon = ConvKernel(6, 1, 3, 3, wu)

    tw = _TRANSFER_WEIGHTS.reshape(1, 1, 3, 3).copy()
    prolong = ConvKernel(1, 1, 3, 3, tw, mode="transpose-strided2")
    restrict = ConvKernel(1, 1, 3, 3, tw.copy(), mode="strided2")

    wc = np.zeros((4, 1, 2, 2))
    for chan, (a, b) in enumerate(((0, 0), (1, 1), (0, 1), (1, 0))):
        wc[chan, 0, a, b] = 1.0
    corner = ConvKernel(4, 1, 2, 2, wc)

    jumps = {}
    for name, (taps, kh, kw) in _JUMP_TAPS.items():
        wj = np.zeros((1, 1, kh, kw))
        ch, cw = (kh - 1) // 2, (kw - 1) // 2
        for (d1, d2), val in taps.items():
            wj[0, 0, d1 + ch, d2 + cw] = val
        jumps[name] = ConvKernel(1, 1, kh, kw, wj)

    agg_r = np.zeros((2, 2, 2, 2))
    agg_j = np.zeros((2, 2, 2, 2))
    for q in (1, 2):
        for cq, (d1, d2) in TRI_CHILD_OFFSETS[q]:
            agg_r[q - 1, cq - 1, d1, d2] = 4.0
            agg_j[q - 1, cq - 1, d1, d2] = 2.0
    aggregate_r2 = ConvKernel(2, 2, 2, 2, agg_r, mode="strided2")
    aggregate_j2 = ConvKernel(2, 2, 2, 2, agg_j, mode="strided2")

    wr = np.zeros((2, 1, 3, 3))
    for q in (1, 2):
        for d1, d2 in TRI_FOOTPRINT_OFFSETS[q]:
            wr[q - 1, 0, d1, d2] = 1.0
    refine = ConvKernel(2, 1, 3, 3, wr, mode="transpose-strided2")

    wtr = np.zeros((7, 1, 3, 3))
    for t, (d1, d2) in enumerate(hat_overlap_offsets()):
        wtr[t, 0, 1 + d1, 1 + d2] = 1.0
    translate = ConvKernel(7, 1, 3, 3, wtr, mode="submanifold")

    return StencilBank(
        operator=operator,
        operator_transpose=operator_transpose,
        upsilon=upsilon,
        prolong=prolong,
        restrict=restrict,
        corner=corner,
        jumps=jumps,
        aggregate_r2=aggregate_r2,
        aggregate_j2=aggregate_j2,
        refine=refine,
        translate=translate,
    )


# ---------------------------------------------------------------------------
# operator, transfer and sweep twins


def conv_translate(bank: StencilBank, image: np.ndarray, mask01: np.ndarray) -> np.ndarray:
    """7-offset translation stack gated by a 0/1 mask (channel 0 = image)."""
    return conv_apply(bank.translate, image[None, :, :], mask=mask01)


def conv_upsilon_channels(bank: StencilBank, kappa: np.ndarray, h: float) -> np.ndarray:
    """Finest-level Upsilon channels from the nodal coefficient image.

    The integration kernel sums the three vertex values times h^2/6; nodes
    whose incident triangle falls outside the lattice get a hard 0 through
    the per-channel owner-validity gate, matching `compute_upsilon`.
    """
    n = kappa.shape[0]
    ups = (h * h) * conv_apply(bank.upsilon, kappa[None, :, :])
    idx1, idx2 = np.indices((n, n))
    for chan, (_, (d1, d2)) in enumerate(NODE_TRIANGLES):
        owner1 = idx1 + d1
        owner2 = idx2 + d2
        valid = (owner1 >= 0) & (owner1 < n - 1) & (owner2 >= 0) & (owner2 < n - 1)
        ups[chan] *= valid
    return ups


def conv_apply_A(
    bank: StencilBank, stack: np.ndarray, upsilon: np.ndarray, h: float
) -> np.ndarray:
    """Stiffness action from a translation stack and the six Upsilon channels.

    out = (2/h^2) sum_l upsilon[l] * (stack conv K)[l], frame zeroed.
    """
    if stack.shape != (7,) + upsilon.shape[1:] or upsilon.shape[0] != 6:
        raise ConfigurationError(
            f"stack {stack.shape} and upsilon {upsilon.shape} do not pair"
        )
    sections = conv_apply(bank.operator, stack)
    acc = np.zeros(stack.shape[1:])
    for chan in range(6):
        acc += upsilon[chan] * sections[chan]
    return zero_frame(acc * (2.0 / (h * h)))


def conv_apply_A_transpose(
    bank: StencilBank, image: np.ndarray, upsilon: np.ndarray, h: float
) -> np.ndarray:
    """Transposed stiffness action: mirrored taps on the Upsilon-weighted image."""
    if upsilon.shape != (6,) + image.shape:
        raise ConfigurationError(
            f"upsilon {upsilon.shape} does not match image {image.shape}"
        )
    v = zero_frame(np.asarray(image, dtype=float))
    out = conv_apply(bank.operator_transpose, upsilon * v[None, :, :])[0]
    return zero_frame(out * (2.0 / (h * h)))


def conv_prolongate(bank: StencilBank, coarse: np.ndarray) -> np.ndarray:
    """Transpose-strided interpolation onto the next finer lattice (`prolongate_uniform`)."""
    return conv_apply(bank.prolong, coarse[None, :, :])[0]


def conv_restrict(bank: StencilBank, fine: np.ndarray) -> np.ndarray:
    """Strided adjoint of conv_prolongate, boundary frame zeroed."""
    return zero_frame(conv_apply(bank.restrict, fine[None, :, :])[0])


@dataclass
class ConvLlmgState:
    """Per-level images of the sweep: the iterate v, the carried-down
    content utld, the carried-up content ubar and the right-hand side f,
    each (n, n), plus the 6 Upsilon channels.

    Only the smoothing step builds a translation stack (of v + utld, gated
    by the active mask); the carried contents live on the full lattice, and
    utld[0] and ubar[-1] stay zero.
    """

    hierarchy: GridHierarchy
    masks: list[LevelMask]
    omegas: tuple[float, ...]
    v: list[np.ndarray]
    utld: list[np.ndarray]
    ubar: list[np.ndarray]
    upsilon: list[np.ndarray]
    f: list[np.ndarray]

    @property
    def levels(self) -> int:
        return self.hierarchy.levels

    def solution_images(self) -> list[np.ndarray]:
        """Copies of each level's v image: the current iterate."""
        return [self.v[k].copy() for k in range(self.levels)]


def init_llmg_state(
    bank: StencilBank,
    u: MultilevelField,
    f: RhsField,
    diffusion: DiffusionField,
    smoother: SmootherConfig,
) -> ConvLlmgState:
    """Stage the sweep images from field-side objects.

    v is u on the active sets and +0.0 elsewhere; the carried-down chain
    utld[k+1] = conv_prolongate(utld[k] + v[k]), on the full lattice as in
    `compute_utilde`, is built here once, and each sweep's upward half keeps
    it current afterwards.
    """
    hier = u.hierarchy
    if len(smoother.omegas) != hier.levels:
        raise ConfigurationError("smoother has wrong number of levels")
    masks = [m.copy() for m in u.masks]
    levels = range(hier.levels)
    v = [np.where(masks[k].active, u.values[k], 0.0) for k in levels]
    utld = [np.zeros((hier.n(0), hier.n(0)))]
    for k in range(hier.levels - 1):
        utld.append(conv_prolongate(bank, utld[k] + v[k]))
    return ConvLlmgState(
        hierarchy=hier,
        masks=masks,
        omegas=tuple(smoother.omegas),
        v=v,
        utld=utld,
        ubar=[np.zeros((hier.n(k), hier.n(k))) for k in levels],
        upsilon=[np.array(diffusion.upsilon[k]) for k in levels],
        f=[f.images[k].copy() for k in levels],
    )


def _conv_smooth(state: ConvLlmgState, bank: StencilBank, k: int) -> None:
    act = state.masks[k].active
    stack = conv_translate(bank, state.v[k] + state.utld[k], act)
    section = conv_apply_A(bank, stack, state.upsilon[k], state.hierarchy.h(k))
    section = section + state.ubar[k]
    state.v[k] = state.v[k] + state.omegas[k] * (state.f[k] - section) * act


def conv_llmg_sweep(state: ConvLlmgState, bank: StencilBank) -> ConvLlmgState:
    """One multigrid sweep on the image state, in place.

    Computes what solver.llmg_sweep computes: smooth fine-to-coarse while
    accumulating the carried-up content, then smooth coarse-to-fine
    re-extending the carried-down content.  Per level that is two
    translation stacks, and one restriction and one prolongation per link.
    """
    hier = state.hierarchy
    nlev = hier.levels
    for name in ("v", "utld", "ubar", "f"):
        group = getattr(state, name)
        if len(group) != nlev or any(
            group[k].shape != (hier.n(k), hier.n(k)) for k in range(nlev)
        ):
            raise ConfigurationError(f"state group {name} does not match the hierarchy")

    for k in range(nlev - 1, -1, -1):
        _conv_smooth(state, bank, k)
        if k > 0:
            lifted = state.ubar[k] + conv_apply_A_transpose(
                bank, state.v[k], state.upsilon[k], hier.h(k)
            )
            state.ubar[k - 1] = conv_restrict(bank, lifted)

    for k in range(nlev):
        _conv_smooth(state, bank, k)
        if k < nlev - 1:
            state.utld[k + 1] = conv_prolongate(bank, state.utld[k] + state.v[k])
    return state


# ---------------------------------------------------------------------------
# estimator, marking, refinement


def conv_estimator(
    bank: StencilBank,
    u_flat: np.ndarray,
    f_values: np.ndarray,
    diffusion: DiffusionField,
    masks: list[LevelMask],
) -> EstimatorField:
    """Estimator images through the kernel pipeline; equals estimator.estimate.

    Finest residual and jump images come from corner-extraction kernels and
    the five jump kernels combined by exact elementwise products; coarser
    levels follow from the stride-2 aggregation kernels; leaf masking is the
    same 0/1 gating as on the direct route.
    """
    hier = diffusion.hierarchy
    last = hier.levels - 1
    n = hier.n(last)
    h = hier.h(last)
    if u_flat.shape != (n, n) or f_values.shape != (n, n):
        raise ConfigurationError("images must live on the finest lattice")
    m = n - 1
    area = h * h / 2.0

    ua, ub, uc, ud = conv_apply(bank.corner, u_flat[None, :, :])
    ka, kb, kc, kd = conv_apply(bank.corner, diffusion.kappa[last][None, :, :])
    fa, fb, fc, fd = conv_apply(bank.corner, f_values[None, :, :])

    g1 = ((ub - uc) * (kb - kc) + (uc - ua) * (kc - ka)) / (h * h)
    g2 = ((ud - ua) * (kd - ka) + (ub - ud) * (kb - kd)) / (h * h)
    int_f1 = (area / 3.0) * (fa + fb + fc)
    int_f2 = (area / 3.0) * (fa + fd + fb)
    int_ff1 = (area / 6.0) * (fa * fa + fb * fb + fc * fc + fa * fb + fb * fc + fc * fa)
    int_ff2 = (area / 6.0) * (fa * fa + fd * fd + fb * fb + fa * fd + fd * fb + fb * fa)
    r2_fine = np.zeros((2, n, n))
    r2_fine[0] = (h * h) * (int_ff1 + 2.0 * g1 * int_f1 + g1 * g1 * area)
    r2_fine[1] = (h * h) * (int_ff2 + 2.0 * g2 * int_f2 + g2 * g2 * area)
    r2_fine[:, m:, :] = 0.0
    r2_fine[:, :, m:] = 0.0

    u_img = u_flat[None, :, :]
    jl = conv_apply(bank.jumps["left"], u_img)[0] / h
    jl[0, :] = 0.0
    jt = conv_apply(bank.jumps["top"], u_img)[0] / h
    jt[:, m - 1 :] = 0.0
    jd = (math.sqrt(2.0) / h) * conv_apply(bank.jumps["diag"], u_img)[0]
    jb = conv_apply(bank.jumps["bottom"], u_img)[0] / h
    jb[:, 0] = 0.0
    jr = conv_apply(bank.jumps["right"], u_img)[0] / h
    jr[m - 1 :, :] = 0.0

    w_left = (h / 3.0) * (ka * ka + ka * kc + kc * kc)
    w_top = (h / 3.0) * (kc * kc + kc * kb + kb * kb)
    w_diag = (math.sqrt(2.0) * h / 3.0) * (ka * ka + ka * kb + kb * kb)
    w_bottom = (h / 3.0) * (ka * ka + ka * kd + kd * kd)
    w_right = (h / 3.0) * (kd * kd + kd * kb + kb * kb)

    j2_fine = np.zeros((2, n, n))
    j2_fine[0] = h * (jl * jl * w_left + jt * jt * w_top + jd * jd * w_diag)
    j2_fine[1] = h * (jb * jb * w_bottom + jr * jr * w_right + jd * jd * w_diag)
    j2_fine[:, m:, :] = 0.0
    j2_fine[:, :, m:] = 0.0

    raw_r2: list[np.ndarray] = [np.empty(0)] * hier.levels
    raw_j2: list[np.ndarray] = [np.empty(0)] * hier.levels
    raw_r2[last], raw_j2[last] = r2_fine, j2_fine
    for k in range(hier.levels - 2, -1, -1):
        raw_r2[k] = conv_apply(bank.aggregate_r2, raw_r2[k + 1])
        raw_j2[k] = conv_apply(bank.aggregate_j2, raw_j2[k + 1])

    tri_mask = leaf_triangle_masks(hier, masks)
    r2 = [raw_r2[k] * tri_mask[k] for k in range(hier.levels)]
    j2 = [raw_j2[k] * tri_mask[k] for k in range(hier.levels)]
    eta2 = [r2[k] + j2[k] for k in range(hier.levels)]
    return EstimatorField(hier, r2, j2, eta2, tri_mask)


def conv_mark_refine(
    bank: StencilBank,
    est: EstimatorField,
    thresholds,
    masks: list[LevelMask],
) -> list[LevelMask]:
    """Threshold marking and refinement as a heaviside-of-conv cascade.

    Per level: a 1x1 layer with bias -delta_k followed by the step function
    gives the marked-triangle channels; the transpose-strided refinement
    kernel (cell anchored, since marks index triangles) lights every
    next-level node whose hat meets a marked triangle; a final step plus the
    interior gate reproduces adapt.refine bit for bit.
    """
    hier = est.hierarchy
    deltas = np.broadcast_to(np.asarray(thresholds, dtype=float), (hier.levels,))
    if not np.all(deltas > 0.0):
        raise ConfigurationError("thresholds must be positive on every level")
    if len(masks) != hier.levels:
        raise ConfigurationError("masks do not match the hierarchy depth")

    new_active = [np.array(mk.active, dtype=np.uint8) for mk in masks]
    top_marks = 0
    for k in range(hier.levels):
        layer = ConvKernel(
            2, 2, 1, 1,
            np.eye(2).reshape(2, 2, 1, 1),
            bias=np.array([-deltas[k], -deltas[k]]),
        )
        scores = conv_apply(layer, est.eta2[k])
        marks = ((scores > 0.0).astype(np.uint8)) & est.tri_mask[k]
        if k == hier.levels - 1:
            top_marks = int(marks.sum())
            continue
        if not marks.any():
            continue
        lit = conv_apply(bank.refine, marks.astype(float), cell_anchored=True)[0]
        add = (lit > 0.0).astype(np.uint8) & hier.interior_mask(k + 1)
        new_active[k + 1] |= add
    if top_marks:
        warnings.warn(
            f"dropping {top_marks} marked triangles at the deepest level "
            f"({hier.levels - 1}); hierarchy depth is saturated",
            RuntimeWarning,
            stacklevel=2,
        )
    return [make_mask(a) for a in new_active]


# ---------------------------------------------------------------------------
# bookkeeping


def parameter_count(levels: int, sweeps: int) -> dict:
    """Weight-and-bias counts of the full pipeline, layers replicated.

    Counts use the stored tensor sizes (the 6x7x1x1 operator kernel is 42
    weights per level).  Layers are counted once per application, so the
    solver part scales with sweeps x levels while the setup, estimator and
    refinement parts are affine in the level count:

        total = fixed(levels) + sweeps * per_sweep(levels)

    which makes the total affine in each of `levels` and `sweeps` separately.
    """
    if levels < 1 or sweeps < 0:
        raise ConfigurationError("need levels >= 1 and sweeps >= 0")
    op = 6 * 7          # one 6x7x1x1 kernel
    op_t = 6 * 9        # mirrored 1x6x3x3 kernel
    trans = 7 * 9       # translation stack, 7 one-hot 3x3 taps
    transfer = 9        # one 3x3 interpolation kernel each way
    ups = 6 * 9         # kappa integration kernel, finest level
    corner = 4 * 4
    jump = sum(kh * kw for _, kh, kw in _JUMP_TAPS.values())
    agg = 2 * (2 * 2 * 2 * 2)
    refine = 2 * 9
    marking = 2 * 2 + 2  # per-level 1x1 pair with threshold biases

    smoothing = trans + op + 1  # stack, stiffness kernel, damping factor
    down_link = op_t + transfer  # transposed stiffness, restriction
    up_link = transfer  # prolongation
    per_sweep = levels * 2 * smoothing + (levels - 1) * (down_link + up_link)
    chain_setup = (levels - 1) * transfer  # carried-down chain, built once
    estimator_block = corner + jump + (levels - 1) * agg
    mark_block = levels * marking + (levels - 1) * refine
    fixed = ups + chain_setup + estimator_block + mark_block
    return {
        "operator_per_level": op,
        "smoothing_block": smoothing,
        "fixed": fixed,
        "per_sweep": per_sweep,
        "total": fixed + sweeps * per_sweep,
    }


def flatten_bank(bank: StencilBank) -> tuple[np.ndarray, list[tuple[str, tuple[int, ...]]]]:
    """Serialize the bank to one float64 vector plus a (name, shape) layout."""
    parts: list[tuple[str, np.ndarray]] = [("operator", bank.operator.weights)]
    parts.append(("operator_transpose", bank.operator_transpose.weights))
    parts.append(("upsilon", bank.upsilon.weights))
    parts.append(("prolong", bank.prolong.weights))
    parts.append(("restrict", bank.restrict.weights))
    parts.append(("corner", bank.corner.weights))
    for name in sorted(bank.jumps):
        parts.append((f"jump_{name}", bank.jumps[name].weights))
    parts.append(("aggregate_r2", bank.aggregate_r2.weights))
    parts.append(("aggregate_j2", bank.aggregate_j2.weights))
    parts.append(("refine", bank.refine.weights))
    parts.append(("translate", bank.translate.weights))
    layout = [(name, arr.shape) for name, arr in parts]
    vec = np.concatenate([arr.ravel() for _, arr in parts])
    return vec, layout
