"""Multilevel coefficient images, activity masks, and transfer operators.

A coefficient image is a plain (n, n) float64 array holding nodal FE
coefficients of one level; entry [i1, i2] belongs to the lattice node
(i1*h, i2*h).  Solution-type images are zero on the boundary (homogeneous
Dirichlet) and zero off the active set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import GridHierarchy, hat_overlap_offsets

__all__ = [
    "LevelMask",
    "MultilevelField",
    "Taps",
    "offset_views",
    "shift",
    "zero_frame",
    "make_mask",
    "full_mask",
    "empty_mask",
    "uniform_masks",
    "prolongate",
    "prolongate_uniform",
    "restrict_weighted",
    "restrict_uniform",
    "flatten_to_finest",
    "zero_field",
]


def offset_views(image: np.ndarray, offsets) -> list[np.ndarray]:
    """Lattice-neighbour views: views[t][..., i] = image[..., i + offsets[t]].

    All views read one zero-padded copy of `image`, so entries whose source
    index leaves the lattice are zero.  Leading axes are carried along; the
    offsets act on the last two.  The unstaged stencils read their
    neighbours from such views: the direct route's stiffness action, its
    transpose, load and Gershgorin sums, mask closure and Upsilon channels,
    and the conv route's Upsilon gates and refinement read-out.  Staged ops
    (a solve's level steps, every conv layer) gather through `Taps`
    instead.  The padding radius, the largest |component| over the
    offsets, is computed on every call.
    """
    r = max((max(abs(d1), abs(d2)) for d1, d2 in offsets), default=0)
    n1, n2 = image.shape[-2], image.shape[-1]
    padded = np.zeros(image.shape[:-2] + (n1 + 2 * r, n2 + 2 * r), dtype=image.dtype)
    padded[..., r : r + n1, r : r + n2] = image
    return [padded[..., r + d1 : r + d1 + n1, r + d2 : r + d2 + n2] for d1, d2 in offsets]


class Taps:
    """A fixed-weight gather: out[..., j] = sum_t coef[..., t, j] * src[index[..., t, j]].

    `index` holds flat source indices, shape (..., T, m), and `coef`
    broadcasts to it.  The sum over the tap axis is one `np.add.reduce`: it
    starts from +0.0 and adds the taps in order, as an `out = zeros; out +=
    w * view` loop does (numpy sums a single column pairwise from T = 8 on,
    so an m = 1 gather keeps that order only for T <= 7).

    With `channels`, an (E, T) array of positive counts, tap t of output e
    contracts channels[e, t] terms, summed in order before the taps are.
    `index` is then (R, m): rows 0..E*T-1 hold each tap's first term in
    (e, t) order, and the rows after them each tap's further terms rank by
    rank, the second term of every tap that has one, in tap order, then the
    third, and so on.  The output is (E, m).  A tap's sum starts from its
    first term rather than +0.0; only the sign of a zero sum differs, and
    adding it to the tap sum from +0.0 erases that.
    """

    def __init__(self, index: np.ndarray, coef: np.ndarray, channels: np.ndarray | None = None):
        self.index, self.coef = index, coef
        # the gathered terms, overwritten by every call: a fresh (T, m) array
        # per call made the allocator return and refault its pages
        self.terms = np.empty(index.shape)
        # (taps that receive the rank's terms, rows holding them), rank by rank
        self.channel_sums: list[tuple] = []
        if channels is None:
            return
        self.taps = channels.size
        self.shape = channels.shape + index.shape[-1:]
        counts, row = channels.ravel(), channels.size
        for rank in range(1, int(counts.max())):
            dst = np.flatnonzero(counts > rank)
            rows = slice(row, row + dst.size)
            step = dst[1] - dst[0] if dst.size > 1 else 1
            if (np.diff(dst) == step).all():
                dst = slice(dst[0], dst[-1] + 1, step)
            self.channel_sums.append((dst, rows))
            row = rows.stop
        if not self.channel_sums:
            self.index = index.reshape(self.shape)
            self.coef = coef.reshape(channels.shape + coef.shape[-1:])
            self.terms = self.terms.reshape(self.shape)

    def __call__(self, src: np.ndarray) -> np.ndarray:
        """The gather of a float64 `src`; the indices are in range by
        construction, so `take` skips its bounds check (clip mode)."""
        terms = src.take(self.index, out=self.terms, mode="clip")
        terms *= self.coef
        if self.channel_sums:
            for dst, rows in self.channel_sums:
                terms[dst] += terms[rows]
            terms = terms[: self.taps].reshape(self.shape)
        return np.add.reduce(terms, axis=-2)


def shift(a: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """out[..., i1, i2] = a[..., i1+d1, i2+d2], zero where the source index leaves the lattice."""
    return offset_views(a, [(d1, d2)])[0]


def zero_frame(image: np.ndarray) -> np.ndarray:
    """Copy of an image with its boundary frame (first/last row and column) zeroed."""
    out = image.copy()
    out[..., 0, :] = 0
    out[..., -1, :] = 0
    out[..., :, 0] = 0
    out[..., :, -1] = 0
    return out


@dataclass
class LevelMask:
    """Active set on one level, as a 0/1 uint8 image.

    `closure`, computed when read, is the active set dilated by the hat-overlap
    stencil, clipped to the lattice; it may contain boundary lattice entries.
    Values written at boundary entries are always forced to zero (interior hat
    functions vanish identically on the domain boundary), which `write` encodes.
    """

    active: np.ndarray

    @property
    def n(self) -> int:
        return self.active.shape[0]

    @property
    def closure(self) -> np.ndarray:
        return np.bitwise_or.reduce(offset_views(self.active, hat_overlap_offsets()))

    def write(self) -> np.ndarray:
        """closure with the boundary frame zeroed: where operators may write."""
        return zero_frame(self.closure)

    def copy(self) -> "LevelMask":
        return LevelMask(self.active.copy())


def make_mask(active: np.ndarray) -> LevelMask:
    """Build a LevelMask from an active 0/1 image."""
    return LevelMask(np.ascontiguousarray(active, dtype=np.uint8))


def full_mask(hierarchy: GridHierarchy, level: int) -> LevelMask:
    return make_mask(hierarchy.interior_mask(level))


def empty_mask(hierarchy: GridHierarchy, level: int) -> LevelMask:
    return LevelMask(np.zeros((hierarchy.n(level),) * 2, dtype=np.uint8))


def uniform_masks(hierarchy: GridHierarchy) -> list[LevelMask]:
    """Full interior active sets on every level."""
    return [full_mask(hierarchy, k) for k in range(hierarchy.levels)]


@dataclass
class MultilevelField:
    """Per-level coefficient images with their activity masks.

    Represents v = sum over levels k and active nodes i of values[k][i] *
    hat_i^k.  Values are zero off the active sets and on the boundary.
    """

    hierarchy: GridHierarchy
    values: list[np.ndarray]
    masks: list[LevelMask]

    @property
    def levels(self) -> int:
        return self.hierarchy.levels

    def copy(self) -> "MultilevelField":
        return MultilevelField(
            self.hierarchy,
            [v.copy() for v in self.values],
            self.masks,
        )

    def dof_count(self) -> int:
        return int(sum(int(m.active.sum()) for m in self.masks))


def zero_field(hierarchy: GridHierarchy, masks: list[LevelMask]) -> MultilevelField:
    values = [np.zeros((hierarchy.n(k), hierarchy.n(k))) for k in range(hierarchy.levels)]
    return MultilevelField(hierarchy, values, masks)


def prolongate_uniform(coarse: np.ndarray) -> np.ndarray:
    """Uniform (unmasked) prolongation: nodal interpolation onto the (2n-1)-grid."""
    n = coarse.shape[0]
    nf = 2 * n - 1
    fine = np.zeros((nf, nf), dtype=coarse.dtype)
    fine[0::2, 0::2] = coarse
    fine[1::2, 0::2] = 0.5 * (coarse[:-1, :] + coarse[1:, :])
    fine[0::2, 1::2] = 0.5 * (coarse[:, :-1] + coarse[:, 1:])
    fine[1::2, 1::2] = 0.5 * (coarse[:-1, :-1] + coarse[1:, 1:])
    return fine


def restrict_uniform(fine: np.ndarray) -> np.ndarray:
    """Exact transpose of prolongate_uniform."""
    c = fine[0::2, 0::2].copy()
    mid_x = fine[1::2, 0::2]
    c[:-1, :] += 0.5 * mid_x
    c[1:, :] += 0.5 * mid_x
    mid_y = fine[0::2, 1::2]
    c[:, :-1] += 0.5 * mid_y
    c[:, 1:] += 0.5 * mid_y
    mid_d = fine[1::2, 1::2]
    c[:-1, :-1] += 0.5 * mid_d
    c[1:, 1:] += 0.5 * mid_d
    return c


def prolongate(coarse: np.ndarray, coarse_mask: LevelMask, fine_mask: LevelMask) -> np.ndarray:
    """Masked prolongation P_k: interpolate, then keep only the fine closure.

    Weight 1 at the coincident fine node, 1/2 at the six edge-midpoint
    neighbors, 0 at the anti-diagonal fine nodes.  Input entries off the
    coarse closure are ignored; the output is multiplied by the fine closure
    (with the Dirichlet boundary zeroed).
    """
    if 2 * coarse.shape[0] - 1 != fine_mask.n:
        raise ValueError("fine mask is not one level below the coarse image")
    v = coarse * coarse_mask.write()
    return prolongate_uniform(v) * fine_mask.write()


def restrict_weighted(fine: np.ndarray, coarse_mask: LevelMask, fine_mask: LevelMask) -> np.ndarray:
    """Weighted restriction P_k^T: the exact transpose of prolongate."""
    if 2 * coarse_mask.n - 1 != fine.shape[0]:
        raise ValueError("coarse mask is not one level above the fine image")
    w = fine * fine_mask.write()
    return restrict_uniform(w) * coarse_mask.write()


def flatten_to_finest(field: MultilevelField) -> np.ndarray:
    """Coefficients on the finest level of the summed multilevel function.

    Uses the uniform prolongation chain (no masks): acc_{k+1} = interp(acc_k)
    + values_{k+1}; exact because nodal interpolation of a coarse hat onto the
    next grid reproduces it.
    """
    acc = field.values[0].copy()
    for k in range(1, field.levels):
        acc = prolongate_uniform(acc) + field.values[k]
    return acc
