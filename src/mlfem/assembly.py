"""Levelwise operator assembly for the multilevel Courant discretization.

The stiffness action on one uniform level never forms a matrix.  Each lattice
node carries the integrals of the diffusion coefficient over its six incident
triangles (`compute_upsilon`); pairing those channels with constant
reference-element gradient couplings gives the seven-point stencil row by
row.  The stacked (all-levels) operator is realized through the carried-down
and carried-up content recursions `compute_utilde` / `compute_ubar`, with
`assemble_global` as the brute-force sparse counterpart used for
verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .field import (
    MultilevelField,
    flatten_to_finest,
    offset_views,
    prolongate_uniform,
    restrict_uniform,
    zero_frame,
)
from .mesh import (
    NODE_TRIANGLES,
    TRI_CHILD_OFFSETS,
    TRI_VERTEX_OFFSETS,
    ConfigurationError,
    GridHierarchy,
    hat_overlap_offsets,
)

__all__ = [
    "STENCIL_COUPLINGS",
    "DiffusionField",
    "RhsField",
    "compute_upsilon",
    "apply_A_level",
    "apply_A_level_transpose",
    "compute_utilde",
    "compute_ubar",
    "apply_stacked",
    "assemble_global",
    "assemble_rhs",
    "h1_seminorm",
    "l2_norm",
    "weighted_h1_seminorm",
    "energy_seminorm",
]


def _reference_gradients(q: int) -> np.ndarray:
    """Gradients of the three vertex hats on T^q with h = 1, one row per vertex.

    Vertex order is that of `TRI_VERTEX_OFFSETS[q]`, as in `mesh.triangle_vertices`.
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


@dataclass
class DiffusionField:
    """Per-level coefficient data derived from the finest nodal image.

    kappa[k]          nodal values of kappa_h on the level-k lattice (exact,
                      because coarse nodes coincide with finest nodes),
    tri_integrals[k]  (2, n-1, n-1) integrals of kappa_h over T^1/T^2 at each
                      owner node,
    upsilon[k]        (6, n, n) the same integrals gathered into the six
                      node-incident channels, zero where the triangle falls
                      outside the lattice.
    """

    hierarchy: GridHierarchy
    kappa: list[np.ndarray]
    tri_integrals: list[np.ndarray]
    upsilon: list[np.ndarray]


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
    """
    last = hierarchy.levels - 1
    nf = hierarchy.n(last)
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape != (nf, nf):
        raise ConfigurationError(
            f"kappa image must be {(nf, nf)} (finest lattice), got {kappa.shape}"
        )

    kap: list[np.ndarray] = [np.empty(0)] * hierarchy.levels
    tri: list[np.ndarray] = [np.empty(0)] * hierarchy.levels
    kap[last] = kappa
    hf = hierarchy.h(last)
    third = hf * hf / 6.0  # area/3 with area = h^2/2
    t1 = third * (kappa[:-1, :-1] + kappa[1:, 1:] + kappa[:-1, 1:])
    t2 = third * (kappa[:-1, :-1] + kappa[1:, :-1] + kappa[1:, 1:])
    tri[last] = np.stack([t1, t2])
    for k in range(last - 1, -1, -1):
        kap[k] = kap[k + 1][::2, ::2]
        m = hierarchy.n(k) - 1
        acc = np.zeros((2, m, m))
        for q in (1, 2):
            for qc, (d1, d2) in TRI_CHILD_OFFSETS[q]:
                acc[q - 1] += tri[k + 1][qc - 1, d1::2, d2::2]
        tri[k] = acc

    owners = [owner for _, owner in NODE_TRIANGLES]
    ups = []
    for k in range(hierarchy.levels):
        n = hierarchy.n(k)
        embedded = np.zeros((2, n, n))
        embedded[:, : n - 1, : n - 1] = tri[k]
        views = offset_views(embedded, owners)
        ups.append(np.stack([view[q - 1] for (q, _), view in zip(NODE_TRIANGLES, views)]))
    return DiffusionField(hierarchy, kap, tri, ups)


def apply_A_level(image: np.ndarray, upsilon: np.ndarray, h: float) -> np.ndarray:
    """Stiffness action of one uniform level on a nodal image.

    out[j] = (2/h^2) * sum_t (sum_l upsilon[l, j] K[l, t]) * image[j + p_t],
    with input and output restricted to interior lattice nodes (homogeneous
    Dirichlet rows and columns).
    """
    if upsilon.shape != (6,) + image.shape:
        raise ValueError(f"upsilon {upsilon.shape} does not match image {image.shape}")
    v = zero_frame(np.asarray(image, dtype=float))
    weights = np.einsum("lt,lij->tij", STENCIL_COUPLINGS, upsilon)
    out = np.zeros_like(v)
    for w, view in zip(weights, offset_views(v, hat_overlap_offsets())):
        out += w * view
    return zero_frame(out * (2.0 / (h * h)))


def apply_A_level_transpose(image: np.ndarray, upsilon: np.ndarray, h: float) -> np.ndarray:
    """Transposed stiffness action: coefficient channels read at the source node.

    out[j] = (2/h^2) * sum_t (sum_l upsilon[l, j - p_t] K[l, t]) * image[j - p_t].
    The level matrix is symmetric, so this agrees with `apply_A_level` up to
    round-off; it is kept separate because the convolutional realization of
    the two actions differs, and the carried-up recursion is defined through
    the transpose.
    """
    if upsilon.shape != (6,) + image.shape:
        raise ValueError(f"upsilon {upsilon.shape} does not match image {image.shape}")
    v = zero_frame(np.asarray(image, dtype=float))
    weights = np.einsum("lt,lij->tij", STENCIL_COUPLINGS, upsilon)
    mirrored = [(-d1, -d2) for d1, d2 in hat_overlap_offsets()]
    out = np.zeros_like(v)
    for t, view in enumerate(offset_views(weights * v, mirrored)):
        out += view[t]
    return zero_frame(out * (2.0 / (h * h)))


def compute_utilde(u: MultilevelField) -> list[np.ndarray]:
    """Carried-down content: nodal values at level k of all coarser components.

    utilde[0] = 0 and utilde[k+1] = interp(utilde[k] + active values of level
    k), on the full lattice.  Exact for any masks because every coarser hat is
    reproduced by nodal interpolation onto finer lattices.
    """
    tld = [np.zeros_like(u.values[0])]
    for k in range(u.levels - 1):
        carried = tld[k] + u.values[k] * u.masks[k].active
        tld.append(prolongate_uniform(carried))
    return tld


def compute_ubar(u: MultilevelField, diffusion: DiffusionField) -> list[np.ndarray]:
    """Carried-up content: restriction of the transposed actions of all finer levels.

    ubar[L] = 0 and ubar[k] = restrict(ubar[k+1] + A_{k+1}^T u_{k+1}), on the
    full lattice with boundary rows forced to zero.
    """
    last = u.levels - 1
    bar: list[np.ndarray] = [np.empty(0)] * u.levels
    bar[last] = np.zeros_like(u.values[last])
    for k in range(last - 1, -1, -1):
        ak = u.values[k + 1] * u.masks[k + 1].active
        lifted = bar[k + 1] + apply_A_level_transpose(
            ak, diffusion.upsilon[k + 1], u.hierarchy.h(k + 1)
        )
        bar[k] = zero_frame(restrict_uniform(lifted))
    return bar


def apply_stacked(u: MultilevelField, diffusion: DiffusionField) -> list[np.ndarray]:
    """Row blocks of the stacked stiffness applied to a multilevel field.

    Level k of the result is A_k(u_k + utilde_k) + ubar_k, masked to the
    active rows: the same values the global sparse matrix produces at level-k
    degrees of freedom.
    """
    tld = compute_utilde(u)
    bar = compute_ubar(u, diffusion)
    out = []
    for k in range(u.levels):
        ak = u.values[k] * u.masks[k].active
        img = apply_A_level(ak + tld[k], diffusion.upsilon[k], u.hierarchy.h(k))
        out.append((img + bar[k]) * u.masks[k].active)
    return out


def _prolongation_matrix(n_coarse: int) -> sp.csr_matrix:
    """Sparse nodal interpolation matrix from an n-grid onto the (2n-1)-grid."""
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
    for view in offset_views(f_values, hat_overlap_offsets()[1:]):
        load += (hf * hf / 12.0) * view
    images: list[np.ndarray] = [np.empty(0)] * hierarchy.levels
    images[last] = zero_frame(load)
    for k in range(last - 1, -1, -1):
        images[k] = zero_frame(restrict_uniform(images[k + 1]))
    return RhsField(hierarchy, images)


def _triangle_corner_views(image: np.ndarray):
    a = image[:-1, :-1]
    b = image[1:, 1:]
    c = image[:-1, 1:]
    d = image[1:, :-1]
    return a, b, c, d


def h1_seminorm(image: np.ndarray, h: float) -> float:
    """H^1 seminorm of the P1 interpolant of a nodal image on one uniform level."""
    a, b, c, d = _triangle_corner_views(image)
    s = 0.5 * ((b - c) ** 2 + (c - a) ** 2 + (d - a) ** 2 + (b - d) ** 2).sum()
    return math.sqrt(max(float(s), 0.0))


def weighted_h1_seminorm(image: np.ndarray, tri_integrals: np.ndarray, h: float) -> float:
    """Energy seminorm sqrt(sum_T (int_T kappa) |grad|^2) for a nodal image."""
    a, b, c, d = _triangle_corner_views(image)
    g1 = (b - c) ** 2 + (c - a) ** 2
    g2 = (d - a) ** 2 + (b - d) ** 2
    s = float((tri_integrals[0] * g1 + tri_integrals[1] * g2).sum()) / (h * h)
    return math.sqrt(max(s, 0.0))


def l2_norm(image: np.ndarray, h: float) -> float:
    """L^2 norm of the P1 interpolant of a nodal image on one uniform level."""
    a, b, c, d = _triangle_corner_views(image)
    s1 = a * a + b * b + c * c + a * b + b * c + c * a
    s2 = a * a + b * b + d * d + a * b + b * d + d * a
    return math.sqrt(max(float((s1 + s2).sum()) * h * h / 12.0, 0.0))


def energy_seminorm(u: MultilevelField, diffusion: DiffusionField) -> float:
    """A-seminorm of a multilevel field, via its summed finest-level image."""
    last = u.hierarchy.levels - 1
    flat = flatten_to_finest(u)
    return weighted_h1_seminorm(flat, diffusion.tri_integrals[last], u.hierarchy.h(last))
