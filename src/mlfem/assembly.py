"""Levelwise operator assembly for the multilevel Courant discretization.

The stiffness action on one uniform level never forms a matrix.  Each lattice
node carries the integrals of the diffusion coefficient over its six incident
triangles (`compute_upsilon`); pairing those channels with constant
reference-element gradient couplings gives the seven-point stencil row by
row.  `DiffusionField.stencil` stages those weight images once per level,
and `apply_stencil` and its transpose apply them.  The stacked (all-levels)
operator is defined once, by three level steps: `carry_down` and `carry_up`
pass the carried-down and carried-up contents one level on, and
`level_section` is one level's row A_k(u_k + utilde_k) + ubar_k.
`compute_utilde`, `compute_ubar` and `apply_stacked` loop over them, each
only over the occupied levels 0..D-1 (`occupied_depth`); `assemble_global`
is the brute-force sparse counterpart used for verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING

import numpy as np

from .field import (
    MultilevelField,
    offset_views,
    prolongate_uniform,
    restrict_uniform,
    zero_frame,
)
from .mesh import (
    NODE_TRIANGLES,
    TRI_VERTEX_OFFSETS,
    ConfigurationError,
    GridHierarchy,
    child_sums,
    hat_overlap_offsets,
    square_corners,
)

# scipy is imported inside the verification routes that use it, so importing
# the package does not load it
if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "STENCIL_COUPLINGS",
    "DiffusionField",
    "RhsField",
    "compute_upsilon",
    "apply_stencil",
    "apply_stencil_transpose",
    "apply_A_level",
    "apply_A_level_transpose",
    "carry_down",
    "carry_up",
    "level_section",
    "occupied_depth",
    "compute_utilde",
    "compute_ubar",
    "apply_stacked",
    "assemble_global",
    "assemble_rhs",
    "h1_seminorm",
    "l2_norm",
]


def _reference_gradients(q: int) -> np.ndarray:
    """Gradients of the three vertex hats on T^q with h = 1, one row per vertex.

    Vertex order is that of `TRI_VERTEX_OFFSETS[q]`.
    """
    verts = np.array(TRI_VERTEX_OFFSETS[q], dtype=float)
    vm = np.column_stack([np.ones(3), verts])
    coeff = np.linalg.inv(vm)  # column m: lambda_m(x, y) = c0 + c1 x + c2 y
    return coeff[1:, :].T


def _stencil_couplings() -> np.ndarray:
    """K[l, t] = integral over T^l of <grad hat_0, grad hat_{p_t}>.

    T^l is the l-th node-incident triangle and p_t the t-th hat-overlap
    offset.  The value is independent of h (gradients scale like 1/h, the
    area like h^2); entries where the offset node is not a vertex of T^l are
    zero.  42 constants in total, shared with the convolutional kernels.
    """
    offsets = hat_overlap_offsets()
    out = np.zeros((len(NODE_TRIANGLES), len(offsets)))
    for chan, (q, owner) in enumerate(NODE_TRIANGLES):
        grads = _reference_gradients(q)
        verts = [(owner[0] + d1, owner[1] + d2) for d1, d2 in TRI_VERTEX_OFFSETS[q]]
        me = verts.index((0, 0))
        for m, v in enumerate(verts):
            out[chan, offsets.index(v)] = 0.5 * float(grads[me] @ grads[m])
    return out


STENCIL_COUPLINGS = _stencil_couplings()

_OFFSETS = hat_overlap_offsets()
_MIRRORED = [(-d1, -d2) for d1, d2 in _OFFSETS]


def _stencil_weights(upsilon: np.ndarray) -> np.ndarray:
    """The seven stencil weight images of one level, (7, n, n), h = 1 and unscaled:
    weights[t, j] = sum_l upsilon[l, j] K[l, t]."""
    return np.einsum("lt,lij->tij", STENCIL_COUPLINGS, upsilon)


@dataclass
class DiffusionField:
    """Per-level coefficient data derived from the finest nodal image.

    kappa             (n, n) nodal values of kappa_h on the finest lattice,
    tri_integrals[k]  (2, n-1, n-1) integrals of kappa_h over T^1/T^2 at each
                      owner node,
    upsilon[k]        (6, n, n) the same integrals gathered into the six
                      node-incident channels, zero where the triangle falls
                      outside the lattice.

    `stencil(k)` stages level k's seven stencil weight images from
    upsilon[k] on first use and keeps them, read-only: the level steps and
    the Gershgorin bound only apply them.  A field that is only assembled
    (`assemble_global`, the overkill reference) never builds them.
    """

    hierarchy: GridHierarchy
    kappa: np.ndarray
    tri_integrals: list[np.ndarray]
    upsilon: list[np.ndarray]
    _stencils: dict[int, np.ndarray] = dc_field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def stencil(self, k: int) -> np.ndarray:
        """(7, n, n) weight images of level k, as `apply_stencil` takes them."""
        weights = self._stencils.get(k)
        if weights is None:
            weights = _stencil_weights(self.upsilon[k])
            weights.flags.writeable = False
            self._stencils[k] = weights
        return weights


@dataclass
class RhsField:
    """Load images per level: images[k][j] = <f_h, hat_j^k>, boundary rows zero."""

    hierarchy: GridHierarchy
    images: list[np.ndarray]


def compute_upsilon(hierarchy: GridHierarchy, kappa: np.ndarray) -> DiffusionField:
    """Triangle integrals of the finest-level coefficient interpolant, all levels.

    On the finest level the integral of the piecewise-linear kappa_h over one
    of its own triangles is area/3 times the sum of the three vertex values.
    A coarse triangle is the disjoint union of its four children, so coarser
    integrals are exact sums of child integrals, never re-interpolations.
    Every entry of kappa must be finite and > 0: the model is elliptic only then.
    """
    last = hierarchy.levels - 1
    nf = hierarchy.n(last)
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape != (nf, nf):
        raise ConfigurationError(
            f"kappa image must be {(nf, nf)} (finest lattice), got {kappa.shape}"
        )
    if not np.all(np.isfinite(kappa) & (kappa > 0.0)):
        raise ConfigurationError("kappa image must be finite and > 0 at every node")

    tri: list[np.ndarray] = [np.empty(0)] * hierarchy.levels
    hf = hierarchy.h(last)
    third = hf * hf / 6.0  # area/3 with area = h^2/2
    a, b, c, d = square_corners(kappa)
    t1 = third * (a + b + c)
    t2 = third * (a + d + b)
    tri[last] = np.stack([t1, t2])
    for k in range(last - 1, -1, -1):
        tri[k] = child_sums(tri[k + 1], hierarchy.n(k) - 1)

    owners = [owner for _, owner in NODE_TRIANGLES]
    ups = []
    for k in range(hierarchy.levels):
        n = hierarchy.n(k)
        embedded = np.zeros((2, n, n))
        embedded[:, : n - 1, : n - 1] = tri[k]
        views = offset_views(embedded, owners)
        ups.append(np.stack([view[q - 1] for (q, _), view in zip(NODE_TRIANGLES, views)]))
    return DiffusionField(hierarchy, kappa, tri, ups)


def apply_stencil(image: np.ndarray, weights: np.ndarray, h: float) -> np.ndarray:
    """Stiffness action of one uniform level from its stencil weight images.

    out[j] = (2/h^2) * sum_t weights[t, j] * image[j + p_t], with input and
    output restricted to interior lattice nodes (homogeneous Dirichlet rows
    and columns); `weights` is `DiffusionField.stencil(k)`.
    """
    if weights.shape != (7,) + image.shape:
        raise ValueError(f"stencil weights {weights.shape} do not match image {image.shape}")
    v = zero_frame(np.asarray(image, dtype=float))
    out = np.zeros_like(v)
    for w, view in zip(weights, offset_views(v, _OFFSETS)):
        out += w * view
    return zero_frame(out * (2.0 / (h * h)))


def apply_stencil_transpose(image: np.ndarray, weights: np.ndarray, h: float) -> np.ndarray:
    """Transposed stiffness action: the weight images read at the source node.

    out[j] = (2/h^2) * sum_t weights[t, j - p_t] * image[j - p_t].  The level
    matrix is symmetric, so this agrees with `apply_stencil` up to
    round-off; it is kept separate because the convolutional realization of
    the two actions differs, and the carried-up recursion is defined through
    the transpose.
    """
    if weights.shape != (7,) + image.shape:
        raise ValueError(f"stencil weights {weights.shape} do not match image {image.shape}")
    v = zero_frame(np.asarray(image, dtype=float))
    out = np.zeros_like(v)
    for t, view in enumerate(offset_views(weights * v, _MIRRORED)):
        out += view[t]
    return zero_frame(out * (2.0 / (h * h)))


def apply_A_level(image: np.ndarray, upsilon: np.ndarray, h: float) -> np.ndarray:
    """Stiffness action of one uniform level on a nodal image, from its Upsilon channels.

    out[j] = (2/h^2) * sum_t (sum_l upsilon[l, j] K[l, t]) * image[j + p_t]:
    `apply_stencil` of the contracted weights, formed on every call.
    """
    if upsilon.shape != (6,) + image.shape:
        raise ValueError(f"upsilon {upsilon.shape} does not match image {image.shape}")
    return apply_stencil(image, _stencil_weights(upsilon), h)


def apply_A_level_transpose(image: np.ndarray, upsilon: np.ndarray, h: float) -> np.ndarray:
    """Transposed stiffness action from the Upsilon channels: `apply_stencil_transpose`
    of the contracted weights, formed on every call."""
    if upsilon.shape != (6,) + image.shape:
        raise ValueError(f"upsilon {upsilon.shape} does not match image {image.shape}")
    return apply_stencil_transpose(image, _stencil_weights(upsilon), h)


def carry_down(tld_k: np.ndarray, values_k: np.ndarray) -> np.ndarray:
    """utilde_{k+1} = interp(utilde_k + u_k): level k's carried and own content, one level finer."""
    return prolongate_uniform(tld_k + values_k)


def carry_up(
    bar_k: np.ndarray, values_k: np.ndarray, diffusion: DiffusionField, k: int
) -> np.ndarray:
    """ubar_{k-1} = restrict(ubar_k + A_k^T u_k), boundary rows forced to zero."""
    h = diffusion.hierarchy.h(k)
    lifted = bar_k + apply_stencil_transpose(values_k, diffusion.stencil(k), h)
    return zero_frame(restrict_uniform(lifted))


def level_section(
    values_k: np.ndarray,
    tld_k: np.ndarray,
    bar_k: np.ndarray,
    diffusion: DiffusionField,
    k: int,
) -> np.ndarray:
    """Level-k row of the stacked operator, A_k(u_k + utilde_k) + ubar_k, unmasked."""
    h = diffusion.hierarchy.h(k)
    return apply_stencil(values_k + tld_k, diffusion.stencil(k), h) + bar_k


def occupied_depth(masks) -> int:
    """D = 1 + the deepest level with an active node (0 when no node is active).

    The stacked operator needs only levels 0..D-1.  A level at or beyond D
    holds +0.0 values: its smoothing step adds `x * 0`, its transposed action
    and the content restricted from it are exactly zero, and no level below
    D reads the carried-down content of a level at or beyond D.  So every
    level loop of both routes stops at D, with bit-identical results.
    """
    return max((k + 1 for k, m in enumerate(masks) if m.active.any()), default=0)


def compute_utilde(u: MultilevelField) -> list[np.ndarray]:
    """Carried-down content: nodal values at level k of all coarser components.

    utilde[0] = 0, then `carry_down` of the active values on the full
    lattice.  Exact for any masks because every coarser hat is reproduced by
    nodal interpolation onto finer lattices.  Only the occupied levels
    k < `occupied_depth(u.masks)` are returned.
    """
    depth = occupied_depth(u.masks)
    tld = [np.zeros_like(u.values[0])]
    for k in range(depth - 1):
        tld.append(carry_down(tld[k], u.values[k] * u.masks[k].active))
    return tld[:depth]


def compute_ubar(u: MultilevelField, diffusion: DiffusionField) -> list[np.ndarray]:
    """Carried-up content: restriction of the transposed actions of all finer levels.

    ubar[D-1] = 0, then `carry_up` of the active values down to level 0,
    for the occupied levels k < D = `occupied_depth(u.masks)` only.
    """
    depth = occupied_depth(u.masks)
    bar: list[np.ndarray] = [np.zeros_like(u.values[k]) for k in range(depth)]
    for k in range(depth - 1, 0, -1):
        bar[k - 1] = carry_up(bar[k], u.values[k] * u.masks[k].active, diffusion, k)
    return bar


def apply_stacked(u: MultilevelField, diffusion: DiffusionField) -> list[np.ndarray]:
    """Row blocks of the stacked stiffness applied to a multilevel field.

    Level k of the result is `level_section` of the active values, masked to
    the active rows: the same values the global sparse matrix produces at
    level-k degrees of freedom.  Levels at or beyond `occupied_depth` have
    no active rows, and their blocks are zero.
    """
    tld = compute_utilde(u)
    bar = compute_ubar(u, diffusion)
    out = [np.zeros_like(v) for v in u.values]
    for k in range(len(tld)):
        act = u.masks[k].active
        out[k] = level_section(u.values[k] * act, tld[k], bar[k], diffusion, k) * act
    return out


def _prolongation_matrix(n_coarse: int) -> sp.csr_matrix:
    """Sparse nodal interpolation matrix from an n-grid onto the (2n-1)-grid."""
    import scipy.sparse as sp

    nc = n_coarse
    nf = 2 * nc - 1

    def fid(i1, i2):
        return (i1 * nf + i2).ravel()

    def cid(i1, i2):
        return (i1 * nc + i2).ravel()

    rows, cols, data = [], [], []
    ci, cj = np.meshgrid(np.arange(nc), np.arange(nc), indexing="ij")
    rows.append(fid(2 * ci, 2 * cj))
    cols.append(cid(ci, cj))
    data.append(np.ones(nc * nc))

    mi, mj = np.meshgrid(np.arange(nc - 1), np.arange(nc), indexing="ij")
    for dc in (0, 1):
        rows.append(fid(2 * mi + 1, 2 * mj))
        cols.append(cid(mi + dc, mj))
        data.append(np.full(mi.size, 0.5))
        rows.append(fid(2 * mj, 2 * mi + 1))
        cols.append(cid(mj, mi + dc))
        data.append(np.full(mi.size, 0.5))

    di, dj = np.meshgrid(np.arange(nc - 1), np.arange(nc - 1), indexing="ij")
    for dc in (0, 1):
        rows.append(fid(2 * di + 1, 2 * dj + 1))
        cols.append(cid(di + dc, dj + dc))
        data.append(np.full(di.size, 0.5))

    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nf * nf, nc * nc),
    )
    return mat.tocsr()


def assemble_global(
    hierarchy: GridHierarchy, masks, diffusion: DiffusionField
) -> tuple[sp.csr_matrix, list[np.ndarray]]:
    """Stacked stiffness over all active degrees of freedom, as a sparse matrix.

    Brute-force verification route: assemble the finest uniform stiffness
    element by element, then conjugate with uniform prolongation chains and
    select active columns.  Degrees of freedom are ordered level-major and
    row-major within each level; the second return value holds the flat
    lattice indices per level.
    """
    import scipy.sparse as sp

    last = hierarchy.levels - 1
    nf = hierarchy.n(last)
    hf = hierarchy.h(last)
    tri = diffusion.tri_integrals[last]

    oi, oj = np.meshgrid(np.arange(nf - 1), np.arange(nf - 1), indexing="ij")
    base = oi * nf + oj
    vert_ids = {
        q: [base + d1 * nf + d2 for d1, d2 in TRI_VERTEX_OFFSETS[q]] for q in (1, 2)
    }
    rows, cols, data = [], [], []
    for q in (1, 2):
        grads = _reference_gradients(q)
        gdot = grads @ grads.T
        w = tri[q - 1] / (hf * hf)
        for a in range(3):
            for b in range(3):
                rows.append(vert_ids[q][a].ravel())
                cols.append(vert_ids[q][b].ravel())
                data.append((w * gdot[a, b]).ravel())
    fine = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nf * nf, nf * nf),
    ).tocsr()

    chains: list[sp.csr_matrix] = [None] * hierarchy.levels  # type: ignore[list-item]
    chains[last] = sp.identity(nf * nf, format="csr")
    for k in range(last - 1, -1, -1):
        chains[k] = chains[k + 1] @ _prolongation_matrix(hierarchy.n(k))

    indices = [np.flatnonzero(masks[k].active.ravel()) for k in range(hierarchy.levels)]
    selected = sp.hstack(
        [chains[k][:, indices[k]] for k in range(hierarchy.levels)], format="csr"
    )
    return (selected.T @ fine @ selected).tocsr(), indices


def assemble_rhs(hierarchy: GridHierarchy, f_values: np.ndarray) -> RhsField:
    """Load images for all levels from finest nodal values of f.

    On the finest level <f_h, hat_j> is the mass stencil h^2/2 at the node and
    h^2/12 at the six overlap neighbors; coarser images are exact weighted
    restrictions.  Boundary rows are zeroed (no boundary test functions).
    """
    last = hierarchy.levels - 1
    nf = hierarchy.n(last)
    f_values = np.asarray(f_values, dtype=float)
    if f_values.shape != (nf, nf):
        raise ConfigurationError(
            f"f image must be {(nf, nf)} (finest lattice), got {f_values.shape}"
        )
    hf = hierarchy.h(last)
    load = (hf * hf / 2.0) * f_values
    for view in offset_views(f_values, _OFFSETS[1:]):
        load += (hf * hf / 12.0) * view
    images: list[np.ndarray] = [np.empty(0)] * hierarchy.levels
    images[last] = zero_frame(load)
    for k in range(last - 1, -1, -1):
        images[k] = zero_frame(restrict_uniform(images[k + 1]))
    return RhsField(hierarchy, images)


def h1_seminorm(image: np.ndarray) -> float:
    """H^1 seminorm of the P1 interpolant of a nodal image on one uniform level.

    In 2-D it does not depend on the mesh size: the squared gradient's 1/h^2
    cancels the triangle area h^2/2.
    """
    a, b, c, d = square_corners(image)
    s = 0.5 * ((b - c) ** 2 + (c - a) ** 2 + (d - a) ** 2 + (b - d) ** 2).sum()
    return math.sqrt(max(float(s), 0.0))


def l2_norm(image: np.ndarray, h: float) -> float:
    """L^2 norm of the P1 interpolant of a nodal image on one uniform level."""
    a, b, c, d = square_corners(image)
    s1 = a * a + b * b + c * c + a * b + b * c + c * a
    s2 = a * a + b * b + d * d + a * b + b * d + d * a
    return math.sqrt(max(float((s1 + s2).sum()) * h * h / 12.0, 0.0))
