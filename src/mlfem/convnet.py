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
anyway).  Window offsets count from the kernel's centre tap, and strided
modes align that tap with the coarse-coincident fine node `2i`.  Every
layer reads its neighbours through `field.offset_views`, the shift
primitive of the direct route too; it moves images and derives no weight,
so the kernels stay an independent derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from .adapt import level_thresholds, warn_dropped_marks
from .assembly import DiffusionField, RhsField, occupied_depth
from .estimator import EstimatorField, closed_forms, on_leaves
from .field import LevelMask, MultilevelField, make_mask, offset_views, zero_frame
from .mesh import (
    NODE_TRIANGLES,
    TRI_CHILD_OFFSETS,
    TRI_FOOTPRINT_OFFSETS,
    TRI_VERTEX_OFFSETS,
    ConfigurationError,
    GridHierarchy,
    hat_overlap_offsets,
)
from .solver import SmootherConfig, carry_down_chain, llmg_schedule

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

MODES = ("plain", "strided2", "transpose-strided2")


@dataclass(frozen=True, eq=False)
class ConvKernel:
    """One convolution layer: weights (out_channels, in_channels, h, w).

    The channel counts are read from the weights.  `mode` selects how the
    window walks the lattice.  plain preserves shape; strided2 reads the fine
    lattice and emits one value per coarse node; transpose-strided2 is the
    zero-dilated adjoint, so its weights keep the strided2 layout (first axis
    indexes the *input* of the transposed application).

    The layer is staged once, at construction, in the form `conv_apply`
    applies it: `taps` holds the weights at each nonzero window position and
    `offsets` the lattice offset that tap reads its input at (the window
    offset from the centre tap, mirrored for transpose-strided2).  A tap is
    the (out, in) weight matrix; when the layer contracts one channel only
    (in_channels == 1, or out_channels == 1 for transpose-strided2) it is
    the emitted channels' weights shaped (emitted, 1, 1) for a broadcast
    product.  The weights are read here only, so they must not change later.
    """

    weights: np.ndarray
    bias: np.ndarray | None = None
    mode: str = "plain"
    taps: tuple[np.ndarray, ...] = dc_field(init=False, repr=False)
    offsets: tuple[tuple[int, int], ...] = dc_field(init=False, repr=False)

    def __post_init__(self):
        if self.weights.ndim != 4:
            raise ConfigurationError(
                f"kernel weights must be (out, in, h, w), got shape {self.weights.shape}"
            )
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown conv mode {self.mode!r}")
        # a transposed layer emits in_channels channels (see conv_apply)
        transposed = self.mode == "transpose-strided2"
        emitted = self.in_channels if transposed else self.out_channels
        if self.bias is not None and self.bias.shape != (emitted,):
            raise ConfigurationError("bias must have one entry per emitted channel")

        single = (self.out_channels if transposed else self.in_channels) == 1
        height, width = self.weights.shape[2:]
        taps, offsets = [], []
        for d1 in range(height):
            for d2 in range(width):
                tap = self.weights[:, :, d1, d2]
                if tap.any():
                    taps.append(tap.reshape(emitted, 1, 1) if single else tap)
                    o1, o2 = d1 - (height - 1) // 2, d2 - (width - 1) // 2
                    offsets.append((-o1, -o2) if transposed else (o1, o2))
        object.__setattr__(self, "taps", tuple(taps))
        object.__setattr__(self, "offsets", tuple(offsets))

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]


def conv_apply(kernel: ConvKernel, image: np.ndarray) -> np.ndarray:
    """Apply one kernel to a channels-first image with zero padding.

    Window offsets count from the centre tap, `(size - 1) // 2` per axis.
    plain: cross-correlation, shape preserved.  strided2: output on the
    coarse lattice, the centre tap on the coincident fine node.
    transpose-strided2: exact adjoint of strided2, coarse in, fine out.

    Every tap reads its neighbours through `field.offset_views` at the
    kernel's staged offsets: strided2 is the plain conv read at every second
    node, and transpose-strided2 is the plain conv of the zero-dilated input
    with mirrored offsets.  A tap that contracts one channel is a broadcast
    product, the others an `np.einsum` over the contracted channels.
    """
    if image.ndim != 3:
        raise ConfigurationError(f"expected (channels, n1, n2) image, got {image.shape}")
    cin = kernel.out_channels if kernel.mode == "transpose-strided2" else kernel.in_channels
    if image.shape[0] != cin:
        raise ConfigurationError(
            f"kernel consumes {cin} channels, image has {image.shape[0]}"
        )
    n1, n2 = image.shape[1:]
    if kernel.mode == "strided2" and (n1 % 2 == 0 or n2 % 2 == 0):
        raise ConfigurationError(
            f"strided2 needs an odd fine lattice (2n-1 layout), got {image.shape}"
        )

    if kernel.mode == "transpose-strided2":
        # out[c, 2i + offset] += w[o, c, tap] * in[o, i]
        dilated = np.zeros((cin, 2 * n1 - 1, 2 * n2 - 1))
        dilated[:, ::2, ::2] = image
        out = np.zeros((kernel.in_channels,) + dilated.shape[1:])
        for tap, view in zip(kernel.taps, offset_views(dilated, kernel.offsets)):
            out += tap * view if cin == 1 else np.einsum("oc,oab->cab", tap, view)
    else:
        step = 2 if kernel.mode == "strided2" else 1
        out = np.zeros((kernel.out_channels, (n1 - 1) // step + 1, (n2 - 1) // step + 1))
        for tap, view in zip(kernel.taps, offset_views(image, kernel.offsets)):
            view = view[:, ::step, ::step]
            # (O, I) x (I, a, b) -> (O, a, b)
            out += tap * view if cin == 1 else np.einsum("oc,cab->oab", tap, view)
    if kernel.bias is not None:
        out += kernel.bias[:, None, None]
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
# the owner node; the five families are the edge families of
# `estimator.closed_forms`
_JUMP_TAPS = {
    "left": ({(1, 1): 1.0, (0, 1): -1.0, (0, 0): -1.0, (-1, 0): 1.0}, 3, 3),
    "top": ({(0, 1): 1.0, (0, 0): -1.0, (1, 2): -1.0, (1, 1): 1.0}, 3, 5),
    "diag": ({(1, 1): 1.0, (0, 1): -1.0, (1, 0): -1.0, (0, 0): 1.0}, 3, 3),
    "bottom": ({(1, 1): 1.0, (1, 0): -1.0, (0, 0): -1.0, (0, -1): 1.0}, 3, 3),
    "right": ({(1, 0): 1.0, (0, 0): -1.0, (2, 1): -1.0, (1, 1): 1.0}, 5, 3),
}


@dataclass(frozen=True, eq=False)
class StencilBank:
    """All fixed kernels of the network, exact rationals.

    The weights do not depend on the hierarchy: every mesh-size factor is
    applied where a kernel is used, so every hierarchy builds the same bank.

    operator maps the 7-channel translation stack to the six node-triangle
    channels, and operator_transpose is its mirrored adjoint;
    upsilon integrates nodal kappa over the six incident triangles (times
    h^2 at use); prolong/restrict share the 3x3 interpolation weights as a
    transpose/strided pair; corner and jump kernels feed the estimator;
    aggregate_* sum child triangles with the h-rescaling factors 4 and 2;
    refine maps marked-triangle channels to next-level node activations;
    translate builds the 7-offset stack.
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

    operator = ConvKernel(couplings.reshape(6, 7, 1, 1))

    wt = np.zeros((1, 6, 3, 3))
    for chan in range(6):
        for t, (d1, d2) in enumerate(hat_overlap_offsets()):
            wt[0, chan, 1 - d1, 1 - d2] += couplings[chan, t]
    operator_transpose = ConvKernel(wt)

    wu = np.zeros((6, 1, 3, 3))
    for chan, (q, owner) in enumerate(NODE_TRIANGLES):
        for a, b in TRI_VERTEX_OFFSETS[q]:
            wu[chan, 0, 1 + owner[0] + a, 1 + owner[1] + b] = 1.0 / 6.0
    upsilon = ConvKernel(wu)

    tw = _TRANSFER_WEIGHTS.reshape(1, 1, 3, 3).copy()
    prolong = ConvKernel(tw, mode="transpose-strided2")
    restrict = ConvKernel(tw.copy(), mode="strided2")

    wc = np.zeros((4, 1, 2, 2))
    for chan, (a, b) in enumerate(((0, 0), (1, 1), (0, 1), (1, 0))):
        wc[chan, 0, a, b] = 1.0
    corner = ConvKernel(wc)

    jumps = {}
    for name, (taps, kh, kw) in _JUMP_TAPS.items():
        wj = np.zeros((1, 1, kh, kw))
        ch, cw = (kh - 1) // 2, (kw - 1) // 2
        for (d1, d2), val in taps.items():
            wj[0, 0, d1 + ch, d2 + cw] = val
        jumps[name] = ConvKernel(wj)

    agg_r = np.zeros((2, 2, 2, 2))
    agg_j = np.zeros((2, 2, 2, 2))
    for q in (1, 2):
        for cq, (d1, d2) in TRI_CHILD_OFFSETS[q]:
            agg_r[q - 1, cq - 1, d1, d2] = 4.0
            agg_j[q - 1, cq - 1, d1, d2] = 2.0
    aggregate_r2 = ConvKernel(agg_r, mode="strided2")
    aggregate_j2 = ConvKernel(agg_j, mode="strided2")

    wr = np.zeros((2, 1, 3, 3))
    for q in (1, 2):
        for d1, d2 in TRI_FOOTPRINT_OFFSETS[q]:
            wr[q - 1, 0, d1, d2] = 1.0
    refine = ConvKernel(wr, mode="transpose-strided2")

    wtr = np.zeros((7, 1, 3, 3))
    for t, (d1, d2) in enumerate(hat_overlap_offsets()):
        wtr[t, 0, 1 + d1, 1 + d2] = 1.0
    translate = ConvKernel(wtr)

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
    """7-offset translation stack gated by a 0/1 mask (channel 0 = image):
    the translate layer's output times the mask."""
    return conv_apply(bank.translate, image[None]) * mask01


def conv_upsilon_channels(bank: StencilBank, kappa: np.ndarray, h: float) -> np.ndarray:
    """Finest-level Upsilon channels from the nodal coefficient image.

    The integration kernel sums the three vertex values times h^2/6; nodes
    whose incident triangle falls outside the lattice get a hard 0 through
    the per-channel gate: the owned-square image read at the channel's
    owner offset, as in `compute_upsilon`.
    """
    n = kappa.shape[0]
    owned = np.zeros((n, n), dtype=bool)
    owned[: n - 1, : n - 1] = True
    gates = offset_views(owned, [owner for _, owner in NODE_TRIANGLES])
    ups = (h * h) * conv_apply(bank.upsilon, kappa[None, :, :])
    return ups * np.stack(gates)


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
    """The sweep's images and the objects they were staged from.

    u holds the iterate, one (n, n) image per level, +0.0 off the active
    sets, on the caller's masks; utld and ubar hold the carried-down and
    carried-up contents on the full lattice, and utld[0] and ubar[-1] stay
    zero.  f, diffusion and smoother are the objects passed to
    `init_llmg_state`.  Only the smoothing step builds a translation stack
    (of u + utld, gated by the active mask).  A sweep never reads or writes a
    level at or beyond the occupied depth D (`assembly.occupied_depth`), so
    u, utld and ubar stay +0.0 there.
    """

    u: MultilevelField
    f: RhsField
    diffusion: DiffusionField
    smoother: SmootherConfig
    utld: list[np.ndarray]
    ubar: list[np.ndarray]

    def solution_images(self) -> list[np.ndarray]:
        """Copies of each level's iterate image."""
        return [v.copy() for v in self.u.values]


def init_llmg_state(
    bank: StencilBank,
    u: MultilevelField,
    f: RhsField,
    diffusion: DiffusionField,
    smoother: SmootherConfig,
) -> ConvLlmgState:
    """Stage the sweep images from field-side objects.

    The iterate is u on the active sets and +0.0 elsewhere.  The
    carried-down chain utld is built here once, on the full lattice of the
    occupied levels, by `solver.carry_down_chain` over the conv level ops,
    and each sweep's upward half keeps it current afterwards.
    """
    hier = u.hierarchy
    if len(smoother.omegas) != hier.levels:
        raise ConfigurationError("smoother has wrong number of levels")
    levels = range(hier.levels)
    state = ConvLlmgState(
        u=MultilevelField(
            hier, [np.where(u.masks[k].active, u.values[k], 0.0) for k in levels], u.masks
        ),
        f=f,
        diffusion=diffusion,
        smoother=smoother,
        utld=[np.zeros((hier.n(k), hier.n(k))) for k in levels],
        ubar=[np.zeros((hier.n(k), hier.n(k))) for k in levels],
    )
    carry_down_chain(_conv_levels(state, bank))
    return state


class _ConvLevel:
    """The conv route's ops of level k for `solver.llmg_schedule`, on the
    images of `state`."""

    def __init__(self, state: ConvLlmgState, bank: StencilBank, k: int):
        self.state, self.bank, self.k = state, bank, k

    def smooth(self) -> None:
        state, bank, k = self.state, self.bank, self.k
        v, act = state.u.values, state.u.masks[k].active
        stack = conv_translate(bank, v[k] + state.utld[k], act)
        section = conv_apply_A(bank, stack, state.diffusion.upsilon[k], state.u.hierarchy.h(k))
        section = section + state.ubar[k]
        v[k] = v[k] + state.smoother.omegas[k] * (state.f.images[k] - section) * act

    def carry_up(self) -> None:
        state, bank, k = self.state, self.bank, self.k
        upsilon, h = state.diffusion.upsilon[k], state.u.hierarchy.h(k)
        lifted = state.ubar[k] + conv_apply_A_transpose(bank, state.u.values[k], upsilon, h)
        state.ubar[k - 1] = conv_restrict(bank, lifted)

    def carry_down(self) -> None:
        state, k = self.state, self.k
        state.utld[k + 1] = conv_prolongate(self.bank, state.utld[k] + state.u.values[k])


def _conv_levels(state: ConvLlmgState, bank: StencilBank) -> list[_ConvLevel]:
    """The ops of the occupied levels 0..D-1 (`assembly.occupied_depth`)."""
    return [_ConvLevel(state, bank, k) for k in range(occupied_depth(state.u.masks))]


def conv_llmg_sweep(state: ConvLlmgState, bank: StencilBank) -> ConvLlmgState:
    """One multigrid sweep on the image state, in place.

    Computes what solver.llmg_sweep computes: `solver.llmg_schedule` over the
    conv level ops (`_ConvLevel`), on the occupied levels 0..D-1 only.  Per
    level that is two translation stacks, and one restriction and one
    prolongation per link.
    """
    hier = state.u.hierarchy
    groups = {"u": state.u.values, "utld": state.utld, "ubar": state.ubar, "f": state.f.images}
    for name, group in groups.items():
        if len(group) != hier.levels or any(
            group[k].shape != (hier.n(k), hier.n(k)) for k in range(hier.levels)
        ):
            raise ConfigurationError(f"state group {name} does not match the hierarchy")
    llmg_schedule(_conv_levels(state, bank))
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

    Finest corner and jump images come from the corner-extraction kernel and
    the five jump kernels and feed the shared `estimator.closed_forms`;
    coarser levels follow from the stride-2 aggregation kernels; leaf
    masking is `estimator.on_leaves`, as on the direct route.
    """
    hier = diffusion.hierarchy
    last = hier.levels - 1
    n = hier.n(last)
    h = hier.h(last)
    if u_flat.shape != (n, n) or f_values.shape != (n, n):
        raise ConfigurationError("images must live on the finest lattice")
    m = n - 1

    u_img = u_flat[None, :, :]
    jumps = {name: conv_apply(kernel, u_img)[0] for name, kernel in bank.jumps.items()}
    jumps["left"][0, :] = 0.0
    jumps["top"][:, m - 1 :] = 0.0
    jumps["bottom"][:, 0] = 0.0
    jumps["right"][m - 1 :, :] = 0.0
    images = (u_flat, diffusion.kappa, f_values)
    corners = (conv_apply(bank.corner, img[None, :, :]) for img in images)
    r2_fine, j2_fine = closed_forms(*corners, jumps, h)
    for img in (r2_fine, j2_fine):
        img[:, m:, :] = 0.0
        img[:, :, m:] = 0.0

    raw_r2: list[np.ndarray] = [np.empty(0)] * hier.levels
    raw_j2: list[np.ndarray] = [np.empty(0)] * hier.levels
    raw_r2[last], raw_j2[last] = r2_fine, j2_fine
    for k in range(hier.levels - 2, -1, -1):
        raw_r2[k] = conv_apply(bank.aggregate_r2, raw_r2[k + 1])
        raw_j2[k] = conv_apply(bank.aggregate_j2, raw_j2[k + 1])

    return on_leaves(hier, raw_r2, raw_j2, masks)


def conv_mark_refine(
    bank: StencilBank,
    est: EstimatorField,
    thresholds,
    masks: list[LevelMask],
) -> list[LevelMask]:
    """Threshold marking and refinement as a heaviside-of-conv cascade.

    Per level: a 1x1 layer with bias -delta_k followed by the step function
    gives the marked-triangle channels; the transpose-strided refinement
    kernel lights every next-level node whose hat meets a marked triangle.
    Its taps count from the triangle's owner node, one node before the
    window centre, so its output is read one node on; the entries this
    drops, in row and column 0, are boundary nodes.  A final step plus the interior
    gate reproduces adapt.refine bit for bit.
    """
    hier = est.hierarchy
    deltas = level_thresholds(thresholds, hier)
    if len(masks) != hier.levels:
        raise ConfigurationError("masks do not match the hierarchy depth")

    new_active = [np.array(mk.active, dtype=np.uint8) for mk in masks]
    for k in range(hier.levels):
        layer = ConvKernel(np.eye(2).reshape(2, 2, 1, 1), bias=np.array([-deltas[k], -deltas[k]]))
        scores = conv_apply(layer, est.eta2[k])
        marks = ((scores > 0.0).astype(np.uint8)) & est.tri_mask[k]
        if k == hier.levels - 1:
            warn_dropped_marks(marks, hier)
            continue
        if not marks.any():
            continue
        lit = conv_apply(bank.refine, marks.astype(float))[0]
        lit = offset_views(lit, [(-1, -1)])[0]
        add = (lit > 0.0).astype(np.uint8) & hier.interior_mask(k + 1)
        new_active[k + 1] |= add
    return [make_mask(a) for a in new_active]


# ---------------------------------------------------------------------------
# bookkeeping


def parameter_count(levels: int, sweeps: int) -> dict:
    """Weight-and-bias counts of the full pipeline, layers replicated.

    This books the full-depth network, every one of `levels` levels in each
    sweep.  A sweep on adaptive masks runs only the occupied levels 0..D-1
    (`assembly.occupied_depth`), so it applies the per-sweep layers of
    `parameter_count(D, 1)`; the fixed part still spans all levels.

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
    """Serialize the bank to one float64 vector plus a (name, shape) layout.

    Kernels follow the StencilBank field order; the jumps dict contributes
    one `jump_<name>` entry per kernel, sorted by name.
    """
    parts: list[tuple[str, np.ndarray]] = []
    for field in fields(bank):
        value = getattr(bank, field.name)
        if isinstance(value, dict):
            parts.extend((f"jump_{name}", value[name].weights) for name in sorted(value))
        else:
            parts.append((field.name, value.weights))
    layout = [(name, arr.shape) for name, arr in parts]
    vec = np.concatenate([arr.ravel() for _, arr in parts])
    return vec, layout
