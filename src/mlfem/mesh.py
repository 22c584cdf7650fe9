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
    "MAX_NODES_PER_SIDE",
    "build_hierarchy",
    "child_sums",
    "hat_overlap_offsets",
    "square_corners",
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


# Nodes per side of the largest lattice `build_hierarchy` builds, overkill
# references included.  1025 admits the reference of 7 levels from 5 nodes:
# on 2 cores and 8 GB that sparse solve, ordered by minimum degree on
# A^T + A, took 8.6 s and 1.5 GB peak RSS (it failed under a 4.5 GB
# address-space limit, ran under 5.5 GB).  The next lattice, 2049, needs
# about 4x that.  A fixed cap keeps a config valid on every host or on none.
MAX_NODES_PER_SIDE = 1025


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


def build_hierarchy(coarse_nodes_per_side: int, levels: int) -> GridHierarchy:
    """Construct `levels` nested grids starting from an n0 x n0 lattice."""
    if coarse_nodes_per_side < 3:
        raise ConfigurationError(
            f"coarse_nodes_per_side must be >= 3 (got {coarse_nodes_per_side}): "
            "the coarse grid needs at least one interior node"
        )
    if levels < 1:
        raise ConfigurationError(f"levels must be >= 1 (got {levels})")
    # the finest side is (n0 - 1) 2^(L-1) + 1; the exponent is clamped at 11
    # (2^11 > the cap), so a huge `levels` is rejected without a huge number
    doublings = min(levels - 1, MAX_NODES_PER_SIDE.bit_length())
    if (coarse_nodes_per_side - 1) * 2**doublings + 1 > MAX_NODES_PER_SIDE:
        raise ConfigurationError(
            f"{levels} levels from {coarse_nodes_per_side} coarse nodes per side give "
            f"a finest lattice of more than {MAX_NODES_PER_SIDE} nodes per side"
        )
    ns = [coarse_nodes_per_side]
    for _ in range(levels - 1):
        ns.append(2 * ns[-1] - 1)
    hs = tuple(1.0 / (n - 1) for n in ns)
    return GridHierarchy(levels=levels, nodes_per_side=tuple(ns), mesh_size=hs)


def hat_overlap_offsets() -> list[tuple[int, int]]:
    """Index offsets of hat functions overlapping a given hat in positive measure.

    On the Courant mesh this is m = 7 offsets: the node itself, the four edge
    neighbors, and the two diagonal neighbors along the mesh diagonal.  The
    anti-diagonal neighbors (1,-1) and (-1,1) share only a single mesh point,
    so they are excluded.
    """
    return [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]


def child_sums(fine: np.ndarray, m: int) -> np.ndarray:
    """Sum a fine (2, ., .) triangle image over each coarse triangle's four
    children: a (2, m, m) image, children added in TRI_CHILD_OFFSETS order."""
    out = np.zeros((2, m, m))
    for q in (1, 2):
        for qc, (d1, d2) in TRI_CHILD_OFFSETS[q]:
            out[q - 1] += fine[qc - 1, d1 : d1 + 2 * m : 2, d2 : d2 + 2 * m : 2]
    return out


def square_corners(image: np.ndarray):
    """Corner views (a, b, c, d) of every lattice square, at offsets (0, 0),
    (1, 1), (0, 1), (1, 0) from its owner node: T1 = (a, b, c) and
    T2 = (a, d, b), as in TRI_VERTEX_OFFSETS."""
    return image[:-1, :-1], image[1:, 1:], image[:-1, 1:], image[1:, :-1]
