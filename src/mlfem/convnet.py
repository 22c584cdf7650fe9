"""Convolutional realizations of the lattice operators.

Every operator the engine uses (stiffness action, the full-lattice
transfer pair, one multigrid sweep, the error estimator, and
threshold marking with refinement) is also expressible as a small stack of
convolutions with fixed rational kernels and exact elementwise products.
This module builds those kernels (`build_stencil_bank`) and provides the
conv-side twins (conv_*) whose outputs are checked against the direct
implementations in `assembly`, `solver`, `estimator` and `adapt`.

Kernel/image conventions: channels-first `(C, n1, n2)` images, row-major,
zero padding outside the lattice (the Dirichlet boundary carries zeros
anyway).  Window offsets count from the kernel's centre tap, and strided
modes align that tap with the coarse-coincident fine node `2i`.  Every
layer runs as one fixed-weight gather, `field.Taps`, the primitive the
direct route stages its level ops with: it gathers each weight's input
and sums the products, with the layer's own weights, and derives no
weight, so the kernels stay an independent derivation.

The sweep is staged once per state (`init_llmg_state`): one `_ConvLevel`
per occupied level, whose ops run blocks of the layers' kept gathers.  Its
smoothing step is one gather that fuses the translate and stiffness
layers, cut down to the level's active interior nodes, the rows the direct
route smooths (a submanifold convolution), with the iterates of the
full-lattice step, bit for bit.  Its carry-up is culled to the nodes those
rows reach, and its carry-down runs the prolongation's kept gather on the
full lattice; both carried images have the bytes of the per-call
wrappers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from .adapt import level_thresholds, warn_dropped_marks
from .assembly import DiffusionField, RhsField, occupied_depth
from .estimator import EstimatorField, closed_forms, on_leaves
from .field import LevelMask, MultilevelField, Taps, offset_views, zero_frame
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

    The layer keeps a read-only copy of the weights it is given and stages
    it once, at construction, as one dense padded block of a `field.Taps`
    gather: each emitted channel's taps are its nonzero window positions in
    row-major order, and a tap's terms are the contracted channels with a
    nonzero weight there, in channel order.  `pattern`, shape (emitted,
    taps, ranks, 3), holds each term's (channel, row offset, column offset):
    the offset is the window offset from the centre tap, mirrored for
    transpose-strided2, and channel -1 reads the zero that `conv_apply`
    appends to its input.  Such terms pad the taps with fewer terms, and
    the emitted channels with fewer taps, to the block; `coef`, shape
    (emitted, taps, ranks, 1), holds the terms' weights, +0.0 for the pads.
    The gather on each input lattice is built on the layer's first use of
    it and kept by this layer alone (`gather`).
    """

    weights: np.ndarray
    mode: str = "plain"
    pattern: np.ndarray = dc_field(init=False, repr=False)
    coef: np.ndarray = dc_field(init=False, repr=False)
    _gathers: dict = dc_field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if self.weights.ndim != 4:
            raise ConfigurationError(
                f"kernel weights must be (out, in, h, w), got shape {self.weights.shape}"
            )
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown conv mode {self.mode!r}")
        weights = np.array(self.weights)
        transposed = self.mode == "transpose-strided2"
        # nonzero weights in (emitted, row, column, contracted) order
        window = weights.transpose(1, 2, 3, 0) if transposed else weights.transpose(0, 2, 3, 1)
        nonzero = np.nonzero(window)
        centre = [(size - 1) // 2 for size in window.shape[1:3]]
        sign = -1 if transposed else 1
        taps = [[] for _ in range(window.shape[0])]  # per emitted: [(position, terms)]
        for e, d1, d2, c, w in zip(*(a.tolist() for a in nonzero), window[nonzero].tolist()):
            if not taps[e] or taps[e][-1][0] != (d1, d2):
                taps[e].append(((d1, d2), []))
            taps[e][-1][1].append((c, sign * (d1 - centre[0]), sign * (d2 - centre[1]), w))
        count = max(1, max(map(len, taps)))
        ranks = max([1] + [len(terms) for row in taps for _, terms in row])
        pad = (-1, 0, 0, 0.0)
        block = [
            [terms + [pad] * (ranks - len(terms)) for _, terms in row]
            + [[pad] * ranks] * (count - len(row))
            for row in taps
        ]
        staged = {
            "weights": weights,
            "pattern": np.array([[[t[:3] for t in tap] for tap in row] for row in block], dtype=np.intp),
            "coef": np.array([[[t[3:] for t in tap] for tap in row] for row in block], dtype=weights.dtype),
        }
        for name, value in staged.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    def gather(self, shape: tuple[int, int, int]) -> Taps:
        """The layer's `field.Taps` block on a (channels, n1, n2) input,
        built on first use (`_gather_index`) and kept by this layer; its
        callers read it, and may cut its index down to some output nodes,
        but never change it."""
        taps = self._gathers.get(shape)
        if taps is None:
            index = _gather_index(self.pattern, self.mode, shape)
            taps = self._gathers[shape] = Taps(index, self.coef)
        return taps


def _gather_index(pattern: np.ndarray, mode: str, shape: tuple[int, int, int]) -> np.ndarray:
    """Flat source indices of a staged (emitted, taps, ranks, 3) pattern on
    a (channels, n1, n2) input with one zero appended (`conv_apply`): the
    block (emitted, taps, ranks, output nodes), the output nodes row-major.

    Each output node reads its term's channel at the node's source position
    plus the term's offset: the node itself (plain), the fine node 2i
    (strided2), or the zero-dilated image's node (transpose-strided2), whose
    input node is half its position when both coordinates are even.  Reads
    that leave the lattice, land between the dilated input nodes, or belong
    to a padding term read the appended zero.
    """
    chan, o1, o2 = (pattern[..., i, None, None] for i in range(3))
    cin, n1, n2 = shape
    y1, y2 = np.indices(_lattice(mode, n1, n2), sparse=True)
    if mode == "transpose-strided2":
        z1, z2 = y1 + o1, y2 + o2
        s1, s2 = z1 // 2, z2 // 2
        reads = (z1 % 2 == 0) & (z2 % 2 == 0)
    else:
        step = 2 if mode == "strided2" else 1
        s1, s2 = step * y1 + o1, step * y2 + o2
        reads = True
    reads = reads & (chan >= 0) & (s1 >= 0) & (s1 < n1) & (s2 >= 0) & (s2 < n2)
    index = np.where(reads, (chan * n1 + s1) * n2 + s2, cin * n1 * n2)
    index = index.reshape(pattern.shape[:-1] + (-1,))
    index.flags.writeable = False
    return index


def _lattice(mode: str, n1: int, n2: int) -> tuple[int, int]:
    """The output lattice of a layer of this mode on an (n1, n2) input."""
    if mode == "transpose-strided2":
        return 2 * n1 - 1, 2 * n2 - 1
    step = 2 if mode == "strided2" else 1
    return (n1 - 1) // step + 1, (n2 - 1) // step + 1


_ZERO = np.zeros(1)


def conv_apply(kernel: ConvKernel, image: np.ndarray) -> np.ndarray:
    """Apply one kernel to a channels-first image with zero padding.

    Window offsets count from the centre tap, `(size - 1) // 2` per axis.
    plain: cross-correlation, shape preserved.  strided2: output on the
    coarse lattice, the centre tap on the coincident fine node.
    transpose-strided2: exact adjoint of strided2, coarse in, fine out.

    The layer runs as its staged gather (`ConvKernel.gather`) on the image
    with one zero appended, which every read off the lattice (or, for
    transpose-strided2, between the zero-dilated input nodes) takes.  The
    sums run over the taps in row-major window order and, within a tap,
    over the contracted channels in order, each from +0.0: the bytes of a
    loop of per-tap `np.einsum` products over the zero-padded
    (zero-dilated) image, for finite inputs.  A zero weight is no term, so
    it reads no input: an inf input stays inf (or -inf) in every output it
    reaches through nonzero weights, instead of turning into NaN through
    0 * inf elsewhere.  A threshold is no part of a layer: its caller
    subtracts it from the output (`conv_mark_refine`).
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
    out = kernel.gather(image.shape)(np.concatenate((image.reshape(-1), _ZERO)))
    return out.reshape(out.shape[:1] + _lattice(kernel.mode, n1, n2))


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
    channels (the level matrix is symmetric, so it also gives the carried-up
    content); upsilon integrates nodal kappa over the six incident
    triangles (times h^2 at use); prolong/restrict share the 3x3 interpolation weights as a
    transpose/strided pair; corner and jump kernels feed the estimator;
    aggregate_* sum child triangles with the h-rescaling factors 4 and 2;
    refine maps marked-triangle channels to next-level node activations;
    translate builds the 7-offset stack.
    """

    operator: ConvKernel
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
    # the channel sum from +0.0, in channel order
    acc = np.add.reduce(upsilon * conv_apply(bank.operator, stack), axis=0)
    return zero_frame(acc * (2.0 / (h * h)))


def conv_prolongate(bank: StencilBank, coarse: np.ndarray) -> np.ndarray:
    """Transpose-strided interpolation onto the next finer lattice (`prolongate_uniform`)."""
    return conv_apply(bank.prolong, coarse[None, :, :])[0]


def conv_restrict(bank: StencilBank, fine: np.ndarray) -> np.ndarray:
    """Strided adjoint of conv_prolongate, boundary frame zeroed."""
    return zero_frame(conv_apply(bank.restrict, fine[None, :, :])[0])


@dataclass(frozen=True, eq=False)
class ConvLlmgState:
    """The sweep's images, the objects they were staged from, and the
    staged level ops.

    u holds the iterate, one (n, n) image per level, +0.0 off the active
    sets, on the caller's masks; utld and ubar hold the carried-down and
    carried-up contents on the full lattice, and utld[0] and ubar[-1] stay
    zero.  f, diffusion, smoother and bank are the objects passed to
    `init_llmg_state`.  `levels` holds one `_ConvLevel` per occupied level
    0..D-1 (`assembly.occupied_depth`), staged once on these images, which
    the sweeps update in place; a sweep never reads or writes a level at or
    beyond D, so u, utld and ubar stay +0.0 there.  `conv_llmg_sweep`
    refuses a state whose images or masks were swapped after staging.
    """

    u: MultilevelField
    f: RhsField
    diffusion: DiffusionField
    smoother: SmootherConfig
    utld: list[np.ndarray]
    ubar: list[np.ndarray]
    bank: StencilBank
    levels: list = dc_field(repr=False)
    _staged: tuple = dc_field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_staged", self.images())

    def solution_images(self) -> list[np.ndarray]:
        """Copies of each level's iterate image."""
        return [v.copy() for v in self.u.values]

    def images(self) -> tuple:
        """The arrays the staged levels read and write, in a fixed order."""
        actives = [m.active for m in self.u.masks]
        return (*self.u.values, *self.utld, *self.ubar, *self.f.images, *actives)


def init_llmg_state(
    bank: StencilBank,
    u: MultilevelField,
    f: RhsField,
    diffusion: DiffusionField,
    smoother: SmootherConfig,
) -> ConvLlmgState:
    """Stage the sweep: its images and one `_ConvLevel` per occupied level.

    The iterate is u on the active sets and +0.0 elsewhere.  Staging checks
    the iterate, masks and loads against the hierarchy, and rejects an
    iterate or load that is not finite on an active set with the direct
    route's wording (a `ConfigurationError`).  The carried-down chain utld
    is built here once, on the full lattice of the occupied levels, by
    `solver.carry_down_chain` over the staged levels, and each sweep's
    upward half keeps it current afterwards.
    """
    hier = u.hierarchy
    if len(smoother.omegas) != hier.levels:
        raise ConfigurationError("smoother has wrong number of levels")
    groups = {"u": u.values, "masks": [m.active for m in u.masks], "f": f.images}
    for name, group in groups.items():
        if len(group) != hier.levels or any(
            group[k].shape != (hier.n(k), hier.n(k)) for k in range(hier.levels)
        ):
            raise ConfigurationError(f"state group {name} does not match the hierarchy")
    levels = range(hier.levels)
    values = [np.where(u.masks[k].active, u.values[k], 0.0) for k in levels]
    utld = [np.zeros((hier.n(k), hier.n(k))) for k in levels]
    ubar = [np.zeros((hier.n(k), hier.n(k))) for k in levels]
    iterate = MultilevelField(hier, values, u.masks)
    depth = occupied_depth(u.masks)
    ops = [
        _ConvLevel(bank, iterate, f, diffusion, smoother.omegas[k], k, utld[:depth], ubar)
        for k in range(depth)
    ]
    state = ConvLlmgState(iterate, f, diffusion, smoother, utld, ubar, bank, ops)
    carry_down_chain(ops)
    return state


class _Stiffness:
    """The stiffness action (2/h^2) A_k of a level at some of its interior
    nodes (`nodes`, flat), from a flat source of the level's image with the
    zero appended.

    One gather (`gather`) runs the translate and 1x1 stiffness layers: each
    stiffness term reads the translate layer's kept gather of its stack
    channel (one term of weight 1) at the nodes, which gives the two
    layers' bytes, since their tap sums start from +0.0; the padding terms
    (channel -1) read the zero.  Then the six stiffness channels times the
    Upsilon channels at the nodes, summed from +0.0 in channel order (as
    `conv_apply_A` sums), and the 2/h^2 scale: node for node, `conv_apply_A`
    of the stack gated by any 0/1 mask that holds the nodes.
    """

    def __init__(self, bank, upsilon, h, nodes):
        n = upsilon.shape[-1]
        stack = bank.translate.gather((1, n, n)).index.reshape(-1, n * n)
        chan = bank.operator.pattern[..., :1]
        self.gather = Taps(np.where(chan >= 0, stack[chan, nodes], n * n), bank.operator.coef)
        self.weights = upsilon.reshape(6, -1).take(nodes, axis=1)
        self.scale = 2.0 / (h * h)
        self.terms, self.out = np.empty((6, nodes.size)), np.empty(nodes.size)

    def __call__(self, source: np.ndarray) -> np.ndarray:
        """The action at the nodes, into a buffer the next call overwrites."""
        terms = self.gather(source, out=self.terms)
        terms *= self.weights
        out = np.add.reduce(terms, axis=0, out=self.out)
        out *= self.scale
        return out


class _ConvLevel:
    """The conv route's ops of occupied level k for `solver.llmg_schedule`,
    staged once per state (`init_llmg_state`) on the state's images, which
    they update in place.  Every op applies bank layers through blocks cut
    from the gathers the layers keep (`ConvKernel.gather`), reading a
    level-owned source with the zero appended: staging builds no gather
    index once the bank has met the level's lattice, and a sweep calls no
    `conv_apply`.

    `smooth` works on the active nodes only (`rows`, the rows of
    `solver._LevelStage`), as a submanifold convolution: the stiffness
    action at the rows (`section`, a `_Stiffness`) from u_k + utilde_k,
    then ubar, the load and the damped update at the rows.  Node for node
    that is the full-lattice step (the stack gated by the active mask,
    `conv_apply_A`, the update times the 0/1 mask), whose update adds x * 0
    off the rows; so for finite loads and carried images every entry keeps
    its bits.

    `carry_up` (levels > 0) is culled too.  The level matrix is symmetric,
    so the carried-up content restricts ubar_k + A_k u_k.  The stiffness
    action (`action`, a `_Stiffness`) runs from u_k only at the interior
    nodes (`reach`) whose nonzero stiffness terms read a row; it is added
    to a copy of ubar_k, and the restriction, cut to the coarse interior,
    writes ubar_{k-1} there.  The full-lattice carry (`conv_apply_A` of u_k's
    stack gated by the interior, and `conv_restrict`) reads u_k +0.0 off
    the rows, so off `reach` each stiffness channel sums its coincident
    term's +0.0 with w * (+0.0) terms, the action is +0.0 and adds +0.0 to
    ubar_k, which is never -0.0; its fine frame reaches only the coarse
    frame, which it zeroes and the cull never writes, so that keeps the
    +0.0 it was staged with.  The carried image is the wrappers' bytes, for
    finite Upsilon channels.  `carry_down` (all but the deepest occupied
    level) runs on the full lattice: the prolongation of utilde_k + u_k
    into utilde_{k+1} (`conv_prolongate`).
    """

    def __init__(self, bank, u, f, diffusion, omega, k, utld, ubar):
        n, h = u.hierarchy.n(k), u.hierarchy.h(k)
        self.values, self.tld, self.bar = u.values[k], utld[k], ubar[k]
        self.values_flat, self.bar_flat = self.values.reshape(-1), ubar[k].reshape(-1)
        self.rows = np.flatnonzero(u.masks[k].active)
        self.loads = f.images[k].take(self.rows)
        for name, image in (("iterate", self.values_flat.take(self.rows)), ("load", self.loads)):
            if not np.isfinite(image).all():
                raise ConfigurationError(f"{name} image of level {k} is not finite on its active set")
        self.omega = omega
        # the input of the level's next gather, with the zero its reads off
        # the lattice take; each op writes it before its gather reads it
        self.source = np.zeros(n * n + 1)
        self.source_image = self.source[:-1].reshape(n, n)
        self.section = _Stiffness(bank, diffusion.upsilon[k], h, self.rows)

        if k > 0:
            # the interior nodes j whose nonzero terms read a row j + p
            chan = bank.operator.pattern[..., 0]
            offsets = bank.translate.pattern[chan[chan >= 0], 0, 0, 1:]
            r1, r2 = np.divmod(self.rows, n)
            reach = np.zeros((n, n), dtype=bool)
            reach[r1 - offsets[:, :1], r2 - offsets[:, 1:]] = True
            reach[[0, -1]] = reach[:, [0, -1]] = False
            self.reach = np.flatnonzero(reach)
            self.action = _Stiffness(bank, diffusion.upsilon[k], h, self.reach)
            nc = u.hierarchy.n(k - 1)
            layer = bank.restrict
            index = layer.gather((1, n, n)).index.reshape(layer.pattern.shape[:3] + (nc, nc))
            self.restriction = Taps(index[..., 1:-1, 1:-1], layer.coef[..., None])
            self.coarse = ubar[k - 1][None, 1:-1, 1:-1]
        if k + 1 < len(utld):
            self.interpolation = bank.prolong.gather((1, n, n))
            self.fine_row = utld[k + 1].reshape(1, -1)

    def smooth(self) -> None:
        np.add(self.values, self.tld, out=self.source_image)
        section = self.section(self.source)
        section += self.bar_flat[self.rows]
        np.subtract(self.loads, section, out=section)
        section *= self.omega
        self.values_flat[self.rows] += section

    def carry_up(self) -> None:
        np.copyto(self.source_image, self.values)
        lifted = self.action(self.source)
        np.copyto(self.source_image, self.bar)
        self.source[self.reach] += lifted
        self.restriction(self.source, out=self.coarse)

    def carry_down(self) -> None:
        np.add(self.tld, self.values, out=self.source_image)
        self.interpolation(self.source, out=self.fine_row)


def conv_llmg_sweep(state: ConvLlmgState, bank: StencilBank) -> ConvLlmgState:
    """One multigrid sweep on the image state, in place.

    Computes what solver.llmg_sweep computes: `solver.llmg_schedule` over the
    state's staged level ops (`_ConvLevel`), on the occupied levels 0..D-1
    only.  Per level that is two culled smoothing steps, and one
    restriction and one prolongation per link.  The state must be staged
    with `bank`, and hold the images and masks it was staged on.
    """
    if bank is not state.bank:
        raise ConfigurationError("state was staged with another stencil bank")
    now = state.images()
    if len(now) != len(state._staged) or not all(map(operator.is_, now, state._staged)):
        raise ConfigurationError("state images were replaced after staging")
    llmg_schedule(state.levels)
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


# the marking layer: one 1x1 identity per triangle channel
_MARK = ConvKernel(np.eye(2).reshape(2, 2, 1, 1))


def conv_mark_refine(
    bank: StencilBank,
    est: EstimatorField,
    thresholds,
    masks: list[LevelMask],
) -> list[LevelMask]:
    """Threshold marking and refinement as a heaviside-of-conv cascade.

    Per level: the fixed 1x1 marking layer `_MARK`, the threshold delta_k
    subtracted from its output (the layer's bias, the one value that
    changes from call to call) and the step function give the
    marked-triangle channels; the transpose-strided refinement kernel
    lights every next-level node whose hat meets a marked triangle.  Its
    taps count from the triangle's owner node, one node before the window
    centre, so its output is read one node on; the entries this drops, in
    row and column 0, are boundary nodes.  A final step plus the interior
    gate reproduces adapt.refine bit for bit.  A level whose triangle mask
    holds no leaf is skipped: its marks would all be zero.
    """
    hier = est.hierarchy
    deltas = level_thresholds(thresholds, hier)
    if len(masks) != hier.levels:
        raise ConfigurationError("masks do not match the hierarchy depth")

    new_active = [np.array(mk.active, dtype=np.uint8) for mk in masks]
    for k in range(hier.levels):
        if not est.tri_mask[k].any():
            continue
        scores = conv_apply(_MARK, est.eta2[k]) - deltas[k]
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
    return [LevelMask(a) for a in new_active]


# ---------------------------------------------------------------------------
# bookkeeping


def parameter_count(levels: int, sweeps: int) -> dict:
    """Weight-and-bias counts of the full pipeline, layers replicated.

    This books the full-depth network, every one of `levels` levels in each
    sweep.  A sweep on adaptive masks runs only the occupied levels 0..D-1
    (`assembly.occupied_depth`), so it applies the per-sweep layers of
    `parameter_count(D, 1)`; the fixed part still spans all levels.  The
    count is of weights, not of the nodes they are applied at: a smoothing
    step applies the same translate and stiffness weights at its level's
    active interior nodes only (`_ConvLevel`), so the counts, and check 09,
    do not change with the cull.

    Counts use the stored tensor sizes (the 6x7x1x1 operator kernel is 42
    weights per level).  Layers are counted once per application: a
    smoothing step applies the translate and stiffness layers, a carry-up
    link those two and the restriction, a carry-down link the
    prolongation.  So the solver part scales with sweeps x levels while the setup, estimator and
    refinement parts are affine in the level count:

        total = fixed(levels) + sweeps * per_sweep(levels)

    which makes the total affine in each of `levels` and `sweeps` separately.
    """
    if levels < 1 or sweeps < 0:
        raise ConfigurationError("need levels >= 1 and sweeps >= 0")
    op = 6 * 7          # one 6x7x1x1 kernel
    trans = 7 * 9       # translation stack, 7 one-hot 3x3 taps
    transfer = 9        # one 3x3 interpolation kernel each way
    ups = 6 * 9         # kappa integration kernel, finest level
    corner = 4 * 4
    jump = sum(kh * kw for _, kh, kw in _JUMP_TAPS.values())
    agg = 2 * (2 * 2 * 2 * 2)
    refine = 2 * 9
    marking = 2 * 2 + 2  # per-level 1x1 pair with threshold biases

    smoothing = trans + op + 1  # stack, stiffness kernel, damping factor
    down_link = trans + op + transfer  # stack and stiffness of u_k, restriction
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
