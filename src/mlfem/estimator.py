"""Residual a posteriori error estimation on the multilevel Courant mesh.

Per triangle T the local contribution is

    eta_T^2 = h_T^2 ||f_h + div(kappa_h grad u_h)||^2_{L2(T)}
            + h_T   sum over edges K of T not on the boundary of
                    ||jump of kappa_h grad u_h . n||^2_{L2(K)}.

Everything in the integrands is piecewise polynomial (u_h and kappa_h are P1,
so the divergence term collapses to the constant grad kappa_h . grad u_h per
triangle), which gives exact closed forms on the finest level.  A coarse
triangle is the union of its four children, so coarser images follow from an
exact aggregation recurrence rather than re-integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import DiffusionField
from .field import LevelMask, MultilevelField, flatten_to_finest
from .mesh import (
    TRI_CHILD_OFFSETS,
    TRI_FOOTPRINT_OFFSETS,
    GridHierarchy,
    child_sums,
    square_corners,
)

__all__ = [
    "EstimatorField",
    "closed_forms",
    "finest_estimator_images",
    "aggregate_to_level",
    "leaf_triangle_masks",
    "estimate",
    "on_leaves",
]


@dataclass
class EstimatorField:
    """Per-level estimator images over the owner lattice.

    r2[k], j2[k], eta2[k] are (2, n_k, n_k) arrays indexed by triangle type
    (T^1, T^2) and owner node; the last row/column of each image is unused
    padding (nodes there own no triangle).  tri_mask[k] marks the triangles
    of the composite mesh surfaced at level k (leaves of the refinement), and
    all three value arrays are masked by it, so every physical element is
    counted exactly once across levels.
    """

    hierarchy: GridHierarchy
    r2: list[np.ndarray]
    j2: list[np.ndarray]
    eta2: list[np.ndarray]
    tri_mask: list[np.ndarray]

    def total(self) -> float:
        return float(sum(e.sum() for e in self.eta2))


def closed_forms(u_corners, kappa_corners, f_corners, jumps, h: float):
    """Per-triangle residual and jump terms on the finest level, for both routes.

    The corner arguments are u_h, kappa_h and f_h at the corners (a, b, c, d)
    of every lattice square (`mesh.square_corners` layout); `jumps` maps the
    edge families left, top, diag, bottom, right to the second differences
    of u_h across them, 0 on boundary edges.  Returns (r2, j2), each stacked
    over (T1, T2) on the shape of the inputs.
    """
    ua, ub, uc, ud = u_corners
    ka, kb, kc, kd = kappa_corners
    fa, fb, fc, fd = f_corners
    area = h * h / 2.0

    # strong residual: f_h + grad(kappa_h) . grad(u_h), the gradient part
    # constant per triangle
    g1 = ((ub - uc) * (kb - kc) + (uc - ua) * (kc - ka)) / (h * h)
    g2 = ((ud - ua) * (kd - ka) + (ub - ud) * (kb - kd)) / (h * h)
    int_f1 = (area / 3.0) * (fa + fb + fc)
    int_f2 = (area / 3.0) * (fa + fd + fb)
    int_ff1 = (area / 6.0) * (fa * fa + fb * fb + fc * fc + fa * fb + fb * fc + fc * fa)
    int_ff2 = (area / 6.0) * (fa * fa + fd * fd + fb * fb + fa * fd + fd * fb + fb * fa)
    r2 = np.stack([
        (h * h) * (int_ff1 + 2.0 * g1 * int_f1 + g1 * g1 * area),
        (h * h) * (int_ff2 + 2.0 * g2 * int_f2 + g2 * g2 * area),
    ])

    # normal jumps of grad(u_h) across the five edge families; kappa_h enters
    # each edge integral as (|K|/3)(k_p^2 + k_p k_q + k_q^2)
    jump_left = jumps["left"] / h
    jump_top = jumps["top"] / h
    jump_diag = (math.sqrt(2.0) / h) * jumps["diag"]
    jump_bottom = jumps["bottom"] / h
    jump_right = jumps["right"] / h
    w_left = (h / 3.0) * (ka * ka + ka * kc + kc * kc)
    w_top = (h / 3.0) * (kc * kc + kc * kb + kb * kb)
    w_diag = (math.sqrt(2.0) * h / 3.0) * (ka * ka + ka * kb + kb * kb)
    w_bottom = (h / 3.0) * (ka * ka + ka * kd + kd * kd)
    w_right = (h / 3.0) * (kd * kd + kd * kb + kb * kb)
    j2 = np.stack([
        h * (jump_left**2 * w_left + jump_top**2 * w_top + jump_diag**2 * w_diag),
        h * (jump_bottom**2 * w_bottom + jump_right**2 * w_right + jump_diag**2 * w_diag),
    ])
    return r2, j2


def finest_estimator_images(
    u_flat: np.ndarray, f_values: np.ndarray, diffusion: DiffusionField
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form residual and jump images on the finest level.

    u_flat and f_values are nodal images on the finest lattice (the solution
    via `flatten_to_finest`, f by interpolation).  Returns (r2, j2), each
    (2, n, n) over owner nodes.  Edges on the domain boundary contribute 0.
    """
    hier = diffusion.hierarchy
    last = hier.levels - 1
    n = hier.n(last)
    h = hier.h(last)
    if u_flat.shape != (n, n) or f_values.shape != (n, n):
        raise ValueError("images must live on the finest lattice")
    un = u_flat
    m = n - 1
    # diagonal edges are all interior; the axis families keep 0 on the boundary
    jumps = {name: np.zeros((m, m)) for name in ("left", "top", "bottom", "right")}
    jumps["left"][1:, :] = un[2:, 1:] - un[1:-1, 1:] - un[1:-1, :-1] + un[:-2, :-1]
    jumps["top"][:, :-1] = un[:-1, 1:-1] - un[:-1, :-2] - un[1:, 2:] + un[1:, 1:-1]
    jumps["diag"] = un[1:, 1:] - un[:-1, 1:] - un[1:, :-1] + un[:-1, :-1]
    jumps["bottom"][:, 1:] = un[1:, 2:] - un[1:, 1:-1] - un[:-1, 1:-1] + un[:-1, :-2]
    jumps["right"][:-1, :] = un[1:-1, :-1] - un[:-2, :-1] - un[2:, 1:] + un[1:-1, 1:]
    corners = (square_corners(img) for img in (u_flat, diffusion.kappa, f_values))
    r2 = np.zeros((2, n, n))
    j2 = np.zeros((2, n, n))
    r2[:, :m, :m], j2[:, :m, :m] = closed_forms(*corners, jumps, h)
    return r2, j2


def aggregate_to_level(
    fine_r2: np.ndarray, fine_j2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One level of the exact coarse-from-fine estimator recurrence.

    A coarse triangle is the union of its four children and h doubles, so
    r2 entries sum with factor 4 (h_T^2 bookkeeping) and j2 entries with
    factor 2; the children's interior edges are legitimately retained (they
    are part of the coarse triangle's refined boundary integrals by the
    definition adopted for multilevel totals).
    """
    nf = fine_r2.shape[1]
    if fine_r2.shape != (2, nf, nf) or fine_j2.shape != (2, nf, nf):
        raise ValueError("expected (2, n, n) owner images")
    nc = (nf + 1) // 2
    if 2 * nc - 1 != nf:
        raise ValueError(f"owner image size {nf} is not refinable (need odd)")
    m = nc - 1
    r2 = np.zeros((2, nc, nc))
    j2 = np.zeros((2, nc, nc))
    r2[:, :m, :m] = child_sums(fine_r2, m)
    j2[:, :m, :m] = child_sums(fine_j2, m)
    return 4.0 * r2, 2.0 * j2


def leaf_triangle_masks(
    hierarchy: GridHierarchy, masks: list[LevelMask]
) -> list[np.ndarray]:
    """Triangles of the composite mesh, per level, as (2, n, n) binary images.

    A triangle is covered when all its next-level footprint nodes that lie in
    the domain interior are active; covered triangles pass activity to their
    four children.  Level 0 triangles are all active (the root mesh tiles the
    domain); a leaf is an active triangle that is not covered.
    """
    n = hierarchy.n(0)
    active = np.zeros((2, n, n), dtype=np.uint8)
    active[:, : n - 1, : n - 1] = 1
    leaves: list[np.ndarray] = []
    for k in range(hierarchy.levels - 1):
        m = hierarchy.n(k) - 1
        # a footprint node suffices if active or pinned on the boundary
        ok = masks[k + 1].active.astype(np.uint8) | (1 - hierarchy.interior_mask(k + 1))
        covered = active[:, :m, :m].copy()
        for q in (1, 2):
            for d1, d2 in TRI_FOOTPRINT_OFFSETS[q]:
                covered[q - 1] &= ok[d1 : d1 + 2 * m : 2, d2 : d2 + 2 * m : 2]
        active[:, :m, :m] &= 1 - covered
        leaves.append(active)
        n = hierarchy.n(k + 1)
        active = np.zeros((2, n, n), dtype=np.uint8)
        for q in (1, 2):
            for qc, (d1, d2) in TRI_CHILD_OFFSETS[q]:
                active[qc - 1, d1 : d1 + 2 * m : 2, d2 : d2 + 2 * m : 2] |= covered[q - 1]
    leaves.append(active)
    return leaves


def estimate(
    u: MultilevelField,
    f_values: np.ndarray,
    diffusion: DiffusionField,
    masks: list[LevelMask],
) -> EstimatorField:
    """Estimator images for every level of the composite mesh.

    Finest images come from the closed forms on the flattened solution;
    coarser levels follow by aggregation; each level is then masked to its
    leaf triangles.
    """
    hier = u.hierarchy
    if len(masks) != hier.levels:
        raise ValueError("mask list does not match the hierarchy")
    u_flat = flatten_to_finest(u)
    raw_r2: list[np.ndarray] = [np.empty(0)] * hier.levels
    raw_j2: list[np.ndarray] = [np.empty(0)] * hier.levels
    raw_r2[-1], raw_j2[-1] = finest_estimator_images(u_flat, f_values, diffusion)
    for k in range(hier.levels - 2, -1, -1):
        raw_r2[k], raw_j2[k] = aggregate_to_level(raw_r2[k + 1], raw_j2[k + 1])
    return on_leaves(hier, raw_r2, raw_j2, masks)


def on_leaves(
    hierarchy: GridHierarchy,
    raw_r2: list[np.ndarray],
    raw_j2: list[np.ndarray],
    masks: list[LevelMask],
) -> EstimatorField:
    """Mask every level's raw images to the leaf triangles of the composite
    mesh and add them up: the common tail of both estimator routes."""
    tri_mask = leaf_triangle_masks(hierarchy, masks)
    r2 = [r * t for r, t in zip(raw_r2, tri_mask)]
    j2 = [j * t for j, t in zip(raw_j2, tri_mask)]
    eta2 = [r + j for r, j in zip(r2, j2)]
    return EstimatorField(hierarchy, r2, j2, eta2, tri_mask)
