"""Nested Courant triangulations of the unit square.

Every level is a uniform lattice of n x n nodes with spacing h = 1/(n-1);
each lattice square is split by its lower-left-to-upper-right diagonal into
an upper-left triangle T1 and a lower-right triangle T2.  A triangle is
identified by (level, q, i) where q in {1, 2} and i = (i1, i2) is the node
at the lower-left corner of the square (the triangle pair sits in the upper
right quadrant of node i).  Node indices are 0-based with axis 0 the
x-direction, so node (i1, i2) sits at (i1*h, i2*h).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridHierarchy",
    "build_hierarchy",
    "children_of_triangle",
    "hat_overlap_offsets",
    "triangle_vertices",
    "node_triangles",
    "NODE_TRIANGLES",
    "TRI_CHILD_OFFSETS",
    "TRI_FOOTPRINT_OFFSETS",
    "TRI_VERTEX_OFFSETS",
]

# The 6 triangles incident to an interior node, as (q, owner-node offset).
# The order fixes the Upsilon channel layout used by assembly and convnet.
NODE_TRIANGLES = (
    (1, (0, 0)),
    (2, (0, 0)),
    (1, (-1, -1)),
    (2, (-1, -1)),
    (2, (-1, 0)),
    (1, (0, -1)),
)

# Vertices of T^q as offsets from its owner node, counterclockwise:
# T1 = {i, i+(1,1), i+(0,1)} (upper-left of the diagonal), T2 = {i, i+(1,0), i+(1,1)}.
TRI_VERTEX_OFFSETS = {1: ((0, 0), (1, 1), (0, 1)), 2: ((0, 0), (1, 0), (1, 1))}

# Children of T^q at coarse node i, as (q_child, fine-node offset from 2i).
TRI_CHILD_OFFSETS = {
    1: ((1, (0, 0)), (1, (0, 1)), (1, (1, 1)), (2, (0, 1))),
    2: ((2, (0, 0)), (2, (1, 0)), (2, (1, 1)), (1, (1, 0))),
}

# Fine lattice nodes whose hats overlap T^q at coarse node i with positive
# measure: the 6 vertices of the 4 children, as offsets from fine node 2i.
TRI_FOOTPRINT_OFFSETS = {
    1: ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)),
    2: ((0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (2, 2)),
}


class ConfigurationError(ValueError):
    """Invalid hierarchy or run parameters."""


@dataclass(frozen=True)
class GridHierarchy:
    """Nested uniform grids; level 0 is the coarsest of `levels` levels."""

    levels: int
    nodes_per_side: tuple[int, ...]
    mesh_size: tuple[float, ...]

    def n(self, level: int) -> int:
        return self.nodes_per_side[level]

    def h(self, level: int) -> float:
        return self.mesh_size[level]

    def node_coords(self, level: int) -> np.ndarray:
        """(n, n, 2) array of node coordinates, coords[i1, i2] = (i1*h, i2*h)."""
        n = self.n(level)
        h = self.h(level)
        g = np.arange(n) * h
        out = np.empty((n, n, 2))
        out[:, :, 0] = g[:, None]
        out[:, :, 1] = g[None, :]
        return out

    def interior_mask(self, level: int) -> np.ndarray:
        n = self.n(level)
        m = np.zeros((n, n), dtype=np.uint8)
        m[1 : n - 1, 1 : n - 1] = 1
        return m

    def owner_limit(self, level: int) -> int:
        """Nodes with both indices < owner_limit own a T1/T2 pair."""
        return self.n(level) - 1


def build_hierarchy(coarse_nodes_per_side: int, levels: int) -> GridHierarchy:
    """Construct `levels` nested grids starting from an n0 x n0 lattice."""
    if coarse_nodes_per_side < 3:
        raise ConfigurationError(
            f"coarse_nodes_per_side must be >= 3 (got {coarse_nodes_per_side}): "
            "the coarse grid needs at least one interior node"
        )
    if levels < 1:
        raise ConfigurationError(f"levels must be >= 1 (got {levels})")
    ns = [coarse_nodes_per_side]
    for _ in range(levels - 1):
        ns.append(2 * ns[-1] - 1)
    hs = tuple(1.0 / (n - 1) for n in ns)
    return GridHierarchy(levels=levels, nodes_per_side=tuple(ns), mesh_size=hs)


def triangle_vertices(hierarchy: GridHierarchy, level: int, q: int, i: tuple[int, int]) -> np.ndarray:
    """(3, 2) vertex coordinates of T^q at owner node i, in the
    counterclockwise order of `TRI_VERTEX_OFFSETS`."""
    i1, i2 = i
    lim = hierarchy.owner_limit(level)
    if not (0 <= i1 < lim and 0 <= i2 < lim):
        raise IndexError(f"node {i} owns no triangles on level {level}")
    if q not in TRI_VERTEX_OFFSETS:
        raise IndexError(f"q must be 1 or 2 (got {q})")
    idx = [(i1 + d1, i2 + d2) for d1, d2 in TRI_VERTEX_OFFSETS[q]]
    return np.array(idx, dtype=float) * hierarchy.h(level)


def children_of_triangle(
    hierarchy: GridHierarchy, level: int, q: int, i: tuple[int, int]
) -> list[tuple[int, tuple[int, int]]]:
    """The 4 level-(level+1) triangles partitioning T^q at node i.

    Returned as (q_child, fine owner node) on level+1.
    """
    if level >= hierarchy.levels - 1:
        raise IndexError(f"level {level} has no finer level")
    lim = hierarchy.owner_limit(level)
    if not (0 <= i[0] < lim and 0 <= i[1] < lim):
        raise IndexError(f"node {i} owns no triangles on level {level}")
    if q not in (1, 2):
        raise IndexError(f"q must be 1 or 2 (got {q})")
    base = (2 * i[0], 2 * i[1])
    return [
        (qc, (base[0] + d[0], base[1] + d[1])) for qc, d in TRI_CHILD_OFFSETS[q]
    ]


def hat_overlap_offsets() -> list[tuple[int, int]]:
    """Index offsets of hat functions overlapping a given hat in positive measure.

    On the Courant mesh this is m = 7 offsets: the node itself, the four edge
    neighbors, and the two diagonal neighbors along the mesh diagonal.  The
    anti-diagonal neighbors (1,-1) and (-1,1) share only a single mesh point,
    so they are excluded.
    """
    return [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]


def node_triangles(hierarchy: GridHierarchy, level: int, i: tuple[int, int]) -> list[tuple[int, tuple[int, int]]]:
    """The 6 triangles surrounding node i, in the fixed channel order.

    Entries are (q, owner node); triangles that would fall outside the lattice
    (possible only for boundary nodes) are skipped.
    """
    lim = hierarchy.owner_limit(level)
    out = []
    for q, (d1, d2) in NODE_TRIANGLES:
        o = (i[0] + d1, i[1] + d2)
        if 0 <= o[0] < lim and 0 <= o[1] < lim:
            out.append((q, o))
    return out
