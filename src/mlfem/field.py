"""Multilevel coefficient images, activity masks, and transfer operators.

A coefficient image is a plain (n, n) float64 array holding nodal FE
coefficients of one level; entry [i1, i2] belongs to the lattice node
(i1*h, i2*h).  Solution-type images are zero on the boundary (homogeneous
Dirichlet) and zero off the active set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import ConfigurationError, GridHierarchy, hat_overlap_offsets

__all__ = [
    "LevelMask",
    "MultilevelField",
    "Taps",
    "offset_views",
    "shift",
    "zero_frame",
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
    neighbours from such views: the direct route's stiffness action, load
    and Gershgorin sums, mask closure and Upsilon channels, and the conv
    route's refinement read-out.  Staged ops (a solve's level steps, every
    conv layer) gather through `Taps` instead.  The padding radius, the
    largest |component| over the offsets, is computed on every call.
    """
    r = max((max(abs(d1), abs(d2)) for d1, d2 in offsets), default=0)
    n1, n2 = image.shape[-2], image.shape[-1]
    padded = np.zeros(image.shape[:-2] + (n1 + 2 * r, n2 + 2 * r), dtype=image.dtype)
    padded[..., r : r + n1, r : r + n2] = image
    return [padded[..., r + d1 : r + d1 + n1, r + d2 : r + d2 + n2] for d1, d2 in offsets]


class Taps:
    """A fixed-weight gather in one block layout: `index` holds flat source
    indices, shape (E, T, R, nodes...), and `coef` broadcasts to it;
    out[e, j] = sum_t sum_r coef[e, t, r, j] * src[index[e, t, r, j]].

    Output e's tap t contracts R terms, summed in order from +0.0 before the
    taps are, each sum one `np.add.reduce` that adds in order from +0.0, as
    an `out = zeros; out += w * view` loop does (numpy sums a single column
    pairwise from 8 terms on, so a one-node block keeps that order only for
    T and R <= 7); the output is (E, nodes...).  A tap with fewer terms is
    padded with +0.0-weighted reads of a zero, which leave its sum as it is
    (x + +0.0 is x, and a sum from +0.0 is never -0.0).  A block of one rank
    has no rank sum, and one of one tap no tap sum: a single term or tap
    adds to +0.0 as itself, but for a -0.0, which the other sum from +0.0
    erases.  A block is kept with its ranks leading in memory and its
    weights spread over the nodes (`index` and `coef` are views of that
    copy), so each product and sum runs over contiguous slabs: on the few
    nodes of a culled level, a broadcast product or a sum over a middle
    axis costs up to twice as much.
    """

    def __init__(self, index: np.ndarray, coef: np.ndarray):
        nodes = tuple(range(3, index.ndim))
        self.gathered = np.ascontiguousarray(index.transpose((2, 0, 1) + nodes))
        self.weights = np.empty(self.gathered.shape)
        self.weights[...] = coef.transpose((2, 0, 1) + nodes)
        self.index, self.coef = (a.transpose((1, 2, 0) + nodes) for a in (self.gathered, self.weights))
        # the gathered terms, overwritten by every call: a fresh array per
        # call made the allocator return and refault its pages
        self.terms = self.summed = np.empty(self.gathered.shape)
        self.ranks, self.axis = None, 1
        ranks, _, taps = self.gathered.shape[:3]
        if taps == 1:  # the rank sums are the output
            self.summed, self.axis = self.terms[:, :, 0], 0
        elif ranks == 1:  # the terms are the tap sums
            self.summed = self.terms[0]
        else:
            self.ranks = self.summed = np.empty(self.gathered.shape[1:])

    def __call__(self, src: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The gather of a float64 `src`, into `out` if given; the indices
        are in range by construction, so `take` skips its bounds check (clip
        mode)."""
        terms = src.take(self.gathered, out=self.terms, mode="clip")
        terms *= self.weights
        if self.ranks is not None:
            np.add.reduce(terms, axis=0, out=self.ranks)
        return np.add.reduce(self.summed, axis=self.axis, out=out)


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
    """Active set on one level: a 0/1 uint8 image of interior nodes.

    The stacked system acts on interior hats only (the boundary is
    homogeneous Dirichlet), and construction is where a mask is checked: it
    raises `ConfigurationError` for an image that is not 2-D, an entry other
    than 0 or 1 (NaN included) or an active node on the frame, and keeps
    the image as C-contiguous uint8.  Nothing writes to a mask after making it.

    `closure`, computed when read, is the active set dilated by the hat-overlap
    stencil, clipped to the lattice; it may contain boundary lattice entries.
    Values written at boundary entries are always forced to zero (interior hat
    functions vanish identically on the domain boundary), which `write` encodes.
    """

    active: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.active)
        if raw.ndim != 2:
            raise ConfigurationError(f"a mask is a 2-D image, got shape {raw.shape}")
        if not ((raw == 0) | (raw == 1)).all():
            raise ConfigurationError(f"mask entries must be 0 or 1, got values {np.unique(raw)}")
        if np.count_nonzero(raw) != np.count_nonzero(raw[1:-1, 1:-1]):
            raise ConfigurationError("mask has an active node on the boundary frame")
        self.active = np.ascontiguousarray(raw, dtype=np.uint8)

    @property
    def n(self) -> int:
        return self.active.shape[0]

    @property
    def closure(self) -> np.ndarray:
        return np.bitwise_or.reduce(offset_views(self.active, hat_overlap_offsets()))

    def write(self) -> np.ndarray:
        """closure with the boundary frame zeroed: where operators may write."""
        return zero_frame(self.closure)


def full_mask(hierarchy: GridHierarchy, level: int) -> LevelMask:
    return LevelMask(hierarchy.interior_mask(level))


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
