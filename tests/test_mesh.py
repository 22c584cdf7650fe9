import numpy as np
import pytest

from mlfem.mesh import (
    MAX_NODES_PER_SIDE,
    TRI_VERTEX_OFFSETS,
    ConfigurationError,
    build_hierarchy,
    hat_overlap_offsets,
    square_corners,
)

from oracles import (
    all_triangles,
    children_of_triangle,
    dunavant4,
    hat_value,
    node_triangles,
    point_in_triangle,
    triangle_verts,
)


def test_build_hierarchy_3_2():
    hier = build_hierarchy(3, 2)
    assert [hier.n(k) for k in range(2)] == [3, 5]
    assert [hier.h(k) for k in range(2)] == [0.5, 0.25]


def test_build_hierarchy_5_3():
    hier = build_hierarchy(5, 3)
    assert [hier.n(k) for k in range(3)] == [5, 9, 17]


def test_build_hierarchy_rejects_degenerate():
    with pytest.raises(ConfigurationError):
        build_hierarchy(2, 1)
    with pytest.raises(ConfigurationError):
        build_hierarchy(5, 0)


def test_build_hierarchy_caps_the_finest_lattice():
    assert build_hierarchy(3, 10).n(9) == MAX_NODES_PER_SIDE == 1025
    assert build_hierarchy(MAX_NODES_PER_SIDE, 1).n(0) == MAX_NODES_PER_SIDE
    for n0, levels in ((3, 11), (MAX_NODES_PER_SIDE + 1, 1), (5, 2000), (5, 10**12)):
        with pytest.raises(ConfigurationError, match="nodes per side"):
            build_hierarchy(n0, levels)


def test_nesting_recurrence():
    hier = build_hierarchy(5, 4)
    for k in range(3):
        assert hier.n(k + 1) == 2 * hier.n(k) - 1
        assert hier.h(k + 1) == hier.h(k) / 2


def test_node_coordinates():
    hier = build_hierarchy(5, 2)
    coords = hier.node_coords(0)
    h = hier.h(0)
    for i1 in range(5):
        for i2 in range(5):
            assert np.allclose(coords[i1, i2], (i1 * h, i2 * h))


def test_coarse_nodes_coincide_with_even_fine_nodes():
    hier = build_hierarchy(3, 2)
    coarse = hier.node_coords(0)
    fine = hier.node_coords(1)
    for i1 in range(3):
        for i2 in range(3):
            assert np.allclose(coarse[i1, i2], fine[2 * i1, 2 * i2])


def test_triangle_areas_cover_unit_square():
    for levels in (1, 2, 3):
        hier = build_hierarchy(3, levels)
        for k in range(levels):
            total = 0.0
            for q, i in all_triangles(hier.n(k)):
                verts = triangle_verts(q, i, hier.h(k))
                _, wts = dunavant4(verts)
                total += wts.sum()
            assert abs(total - 1.0) < 1e-12


def test_triangle_vertices_match_convention():
    # the package's vertex table gives the oracle's vertices, counterclockwise
    h = 0.5
    for q, i in all_triangles(3):
        verts = np.array([(i[0] + d1, i[1] + d2) for d1, d2 in TRI_VERTEX_OFFSETS[q]]) * h
        assert np.allclose(verts, triangle_verts(q, i, h))
        e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
        assert e1[0] * e2[1] - e1[1] * e2[0] > 0.0


def test_square_corners_follow_vertex_offsets():
    # T1 = (a, b, c) and T2 = (a, d, b), vertex for vertex
    image = np.arange(30.0).reshape(5, 6)
    a, b, c, d = square_corners(image)
    for q, views in ((1, (a, b, c)), (2, (a, d, b))):
        for view, (d1, d2) in zip(views, TRI_VERTEX_OFFSETS[q]):
            assert np.array_equal(view, image[d1 : d1 + 4, d2 : d2 + 5])


def test_children_areas_quarter_parent():
    hier = build_hierarchy(3, 2)
    kids = children_of_triangle(1, (1, 1))
    assert len(kids) == 4
    parent_area = dunavant4(triangle_verts(1, (1, 1), hier.h(0)))[1].sum()
    for q, i in kids:
        kid_area = dunavant4(triangle_verts(q, i, hier.h(1)))[1].sum()
        assert abs(kid_area - parent_area / 4) < 1e-14


def test_children_partition_all_triangles():
    hier = build_hierarchy(3, 2)
    for q, i in all_triangles(hier.n(0)):
        parent_area = dunavant4(triangle_verts(q, i, hier.h(0)))[1].sum()
        kid_total = sum(
            dunavant4(triangle_verts(cq, ci, hier.h(1)))[1].sum()
            for cq, ci in children_of_triangle(q, i)
        )
        assert abs(kid_total - parent_area) < 1e-14


def test_child_barycenters_inside_parent():
    # geometric point-in-triangle oracle over all triangles of a (3,3) hierarchy
    hier = build_hierarchy(3, 3)
    for k in range(2):
        for q, i in all_triangles(hier.n(k)):
            parent = triangle_verts(q, i, hier.h(k))
            for cq, ci in children_of_triangle(q, i):
                bary = triangle_verts(cq, ci, hier.h(k + 1)).mean(axis=0)
                assert point_in_triangle(bary, parent)


def test_children_enumerate_next_level_once():
    hier = build_hierarchy(3, 2)
    seen = set()
    for q, i in all_triangles(hier.n(0)):
        for child in children_of_triangle(q, i):
            assert child not in seen
            seen.add(child)
    assert seen == set(all_triangles(hier.n(1)))


def test_hat_overlap_offsets_listed():
    offsets = hat_overlap_offsets()
    assert offsets[0] == (0, 0)
    assert set(offsets) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)}
    assert len(offsets) == 7  # m = 7 on these meshes


def test_hat_overlap_offsets_closed_under_negation():
    offsets = hat_overlap_offsets()
    for p in offsets[1:]:
        assert (-p[0], -p[1]) in offsets


def test_hat_overlap_by_quadrature():
    # enumerate support intersections of hats on a 5x5 grid: the integral of
    # phi_i * phi_j over the square is positive exactly on the 7 offsets
    h = 0.25
    center = (2, 2)
    overlapping = []
    for a in range(5):
        for b in range(5):
            total = 0.0
            for q, i in all_triangles(5):
                pts, wts = dunavant4(triangle_verts(q, i, h))
                total += np.dot(wts, hat_value(center, h, pts) * hat_value((a, b), h, pts))
            if total > 1e-12:
                overlapping.append((a - 2, b - 2))
    assert set(overlapping) == set(hat_overlap_offsets())


def test_interior_node_has_six_triangles():
    hier = build_hierarchy(5, 1)
    tris = node_triangles((2, 2))
    assert len(tris) == 6
    # each listed triangle actually touches the node
    h = hier.h(0)
    for q, i in tris:
        verts = triangle_verts(q, i, h)
        assert any(np.allclose(v, (2 * h, 2 * h)) for v in verts)
