"""Brute-force oracles used by the test suite.

Everything here recomputes quantities from geometry and quadrature alone,
without touching the package's stencil or image shortcuts: hat functions via
their closed form, integrals via Dunavant / Gauss rules, stiffness matrices
via an element loop, cross-level couplings via hat images on the finest
lattice, and refinement footprints via convex polygon clipping.
`children_of_triangle` and `node_triangles` read the package's geometry
tables per triangle, so tests can check those tables against the geometry.

Conventions match the package: nodes at (i1*h, i2*h) with axis 0 the x index,
each grid square split by its lower-left-to-upper-right diagonal into an
upper-left triangle (q=1) and a lower-right one (q=2), both owned by the
square's lower-left node.

The reference measures and solver oracles at the end are the exception:
they reuse the package's code.  `energy_seminorm` and
`reliability_efficiency` measure errors against known or overkill
solutions, and `sample_parameters` draws the default problem's parameter
sets.  The reference sweeps (`ssc_sweep`, `lmg_sweep`) recompute the
stacked action fresh on every level visit, to define the level-order
iteration that the fused `solver.llmg_sweep` must reproduce;
`full_depth_sweep` is the unstaged full-lattice loop over `assembly`'s
level steps, which the staged sweep must reproduce bit for bit, and
`full_lattice_conv_sweep` the conv sweep with the full-lattice smoothing
step that `convnet._ConvLevel` culls to the active rows and the per-call
carry layers that it stages.
`power_lambda_max` estimates a level operator's largest eigenvalue,
`solve_energy_history` records the A-norm errors of `solver.llmg_solve`'s
own iterates against a known solution, and `min_norm_solve` is the dense
minimum-norm solve that `solver.reference_solve`'s CG path must reproduce.

The random fixtures at the very end (`random_mask`, `random_masks`,
`random_field`, `random_refined_masks`) draw the masks and fields the test
modules share, so a given generator state gives every test the same data;
`refined_inputs` is the hypothesis strategy of the property tests.
"""

import math
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from mlfem import solver
from mlfem.adapt import initial_masks, refine
from mlfem.assembly import (
    apply_A_level,
    apply_stacked,
    assemble_rhs,
    carry_down,
    carry_up,
    compute_upsilon,
    level_section,
)
from mlfem.convnet import (
    conv_apply_A,
    conv_prolongate,
    conv_restrict,
    conv_translate,
)
from mlfem.estimator import estimate, leaf_triangle_masks
from mlfem.field import LevelMask, MultilevelField, flatten_to_finest
from mlfem.mesh import NODE_TRIANGLES, TRI_CHILD_OFFSETS, ConfigurationError, build_hierarchy
from mlfem.problems import CookieProblem, reference_error

# vertex index offsets of the two triangles owned by node i
TRI_VERTEX_OFFSETS = {
    1: ((0, 0), (1, 1), (0, 1)),
    2: ((0, 0), (1, 0), (1, 1)),
}

# Dunavant degree-4 rule on a triangle: two 3-point orbits.
_DUN4 = [
    (0.223381589678011, 0.445948490915965),
    (0.109951743655322, 0.091576213509771),
]


def dunavant4(verts):
    """Points (6, 2) and weights (6,) integrating degree-4 exactly; weights sum to area."""
    verts = np.asarray(verts, dtype=float)
    area = 0.5 * abs(
        (verts[1, 0] - verts[0, 0]) * (verts[2, 1] - verts[0, 1])
        - (verts[2, 0] - verts[0, 0]) * (verts[1, 1] - verts[0, 1])
    )
    pts, wts = [], []
    for w, a in _DUN4:
        b = 1.0 - 2.0 * a
        for lam in ((a, a, b), (a, b, a), (b, a, a)):
            pts.append(lam[0] * verts[0] + lam[1] * verts[1] + lam[2] * verts[2])
            wts.append(w * area)
    return np.array(pts), np.array(wts)


def gauss_edge(p0, p1, npts=5):
    """Gauss-Legendre points and weights along the segment p0 -> p1."""
    x, w = np.polynomial.legendre.leggauss(npts)
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    half = 0.5 * np.linalg.norm(p1 - p0)
    pts = 0.5 * (1.0 - x)[:, None] * p0 + 0.5 * (1.0 + x)[:, None] * p1
    return pts, w * half


def hat_ref(xi, eta):
    """Courant hat at the origin of a unit lattice, in lattice coordinates."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    planes = np.stack(
        [1 - xi, 1 - eta, 1 + xi, 1 + eta, 1 - xi + eta, 1 + xi - eta]
    )
    return np.maximum(0.0, planes.min(axis=0))


def hat_value(node, h, pts):
    """Hat of the node (i1, i2) on mesh size h, at cartesian points (..., 2)."""
    pts = np.asarray(pts, dtype=float)
    return hat_ref(pts[..., 0] / h - node[0], pts[..., 1] / h - node[1])


def _locate(image_n, h, pts):
    pts = np.asarray(pts, dtype=float)
    i = np.clip(np.floor(pts[..., 0] / h).astype(int), 0, image_n - 2)
    j = np.clip(np.floor(pts[..., 1] / h).astype(int), 0, image_n - 2)
    xi = pts[..., 0] / h - i
    eta = pts[..., 1] / h - j
    return i, j, xi, eta


def pl_eval(image, h, pts):
    """Piecewise-linear interpolant of a nodal image, evaluated pointwise."""
    n = image.shape[0]
    i, j, xi, eta = _locate(n, h, pts)
    v00 = image[i, j]
    v10 = image[i + 1, j]
    v01 = image[i, j + 1]
    v11 = image[i + 1, j + 1]
    upper = v00 + (v01 - v00) * eta + (v11 - v01) * xi
    lower = v00 + (v10 - v00) * xi + (v11 - v10) * eta
    return np.where(eta >= xi, upper, lower)


def multilevel_eval(u, pts):
    """Value of a multilevel field at points (m, 2): pl_eval summed over the levels."""
    return sum(pl_eval(v, u.hierarchy.h(k), pts) for k, v in enumerate(u.values))


def pl_grad(image, h, pts):
    """Gradient of the interpolant at points (constant per triangle), shape (..., 2)."""
    n = image.shape[0]
    i, j, xi, eta = _locate(n, h, pts)
    v00 = image[i, j]
    v10 = image[i + 1, j]
    v01 = image[i, j + 1]
    v11 = image[i + 1, j + 1]
    gx = np.where(eta >= xi, v11 - v01, v10 - v00) / h
    gy = np.where(eta >= xi, v01 - v00, v11 - v10) / h
    return np.stack([gx, gy], axis=-1)


def triangle_nodes(q, i):
    return [(i[0] + d[0], i[1] + d[1]) for d in TRI_VERTEX_OFFSETS[q]]


def triangle_verts(q, i, h):
    return np.array(triangle_nodes(q, i), dtype=float) * h


def children_of_triangle(q, i):
    """The 4 next-level triangles partitioning T^q at node i, as (q_child, fine owner node)."""
    return [(qc, (2 * i[0] + d1, 2 * i[1] + d2)) for qc, (d1, d2) in TRI_CHILD_OFFSETS[q]]


def node_triangles(i):
    """The 6 triangles around interior node i, as (q, owner node) in channel order."""
    return [(q, (i[0] + d1, i[1] + d2)) for q, (d1, d2) in NODE_TRIANGLES]


def all_triangles(n):
    """Every (q, (i1, i2)) triangle of an n-per-side lattice."""
    return [
        (q, (i1, i2))
        for i1 in range(n - 1)
        for i2 in range(n - 1)
        for q in (1, 2)
    ]


def fine_stiffness_dense(kappa_img, h):
    """Element-loop stiffness over the full lattice, dense (n*n, n*n).

    Per triangle: P1 gradients from solving the local Vandermonde system,
    kappa integral by quadrature of the nodal interpolant.  Rows and columns
    of boundary nodes are assembled too; callers mask as needed.
    """
    n = kappa_img.shape[0]
    A = np.zeros((n * n, n * n))
    for q, i in all_triangles(n):
        nodes = triangle_nodes(q, i)
        verts = triangle_verts(q, i, h)
        V = np.column_stack([np.ones(3), verts])
        grads = np.linalg.solve(V, np.eye(3))[1:, :].T  # row a: gradient of hat a
        pts, wts = dunavant4(verts)
        kint = float(np.dot(wts, pl_eval(kappa_img, h, pts)))
        flat = [a * n + b for a, b in nodes]
        for a in range(3):
            for b in range(3):
                A[flat[a], flat[b]] += kint * float(np.dot(grads[a], grads[b]))
    return A


def hat_image(level_h, node, n_fine, h_fine):
    """Level hat sampled at the finest lattice (its exact fine-basis coefficients)."""
    coords = np.stack(
        np.meshgrid(
            np.arange(n_fine) * h_fine, np.arange(n_fine) * h_fine, indexing="ij"
        ),
        axis=-1,
    )
    return hat_value(node, level_h, coords)


def cross_level_matrix(dofs, level_hs, kappa_img, h_fine):
    """Global matrix a(phi_i^k, phi_j^m) over the listed (level, i1, i2) DOFs.

    Every hat is expanded in the finest nodal basis via its closed form, so
    the entries reduce to fine-stiffness sandwiches.  Independent of the
    package's prolongation and stencil code.
    """
    n_fine = kappa_img.shape[0]
    A_fine = fine_stiffness_dense(kappa_img, h_fine)
    images = np.stack(
        [hat_image(level_hs[k], (a, b), n_fine, h_fine).ravel() for k, a, b in dofs]
    )
    return images @ A_fine @ images.T


def _edge_on_boundary(p0, p1):
    for axis in (0, 1):
        for val in (0.0, 1.0):
            if abs(p0[axis] - val) < 1e-12 and abs(p1[axis] - val) < 1e-12:
                return True
    return False


def _jump_across(u_img, kappa_img, h_fine, p0, p1, nseg):
    """h-free jump term sum_segments jump^2 * int kappa^2 ds along an edge."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if _edge_on_boundary(p0, p1):
        return 0.0
    tangent = p1 - p0
    normal = np.array([-tangent[1], tangent[0]])
    normal = normal / np.linalg.norm(normal)
    eps = 1e-7
    total = 0.0
    for s in range(nseg):
        a = p0 + tangent * (s / nseg)
        b = p0 + tangent * ((s + 1) / nseg)
        mid = 0.5 * (a + b)
        g_plus = pl_grad(u_img, h_fine, mid + eps * normal)
        g_minus = pl_grad(u_img, h_fine, mid - eps * normal)
        jump = float(np.dot(g_plus - g_minus, normal))
        pts, wts = gauss_edge(a, b)
        k2 = float(np.dot(wts, pl_eval(kappa_img, h_fine, pts) ** 2))
        total += jump * jump * k2
    return total


def triangle_estimator(u_img, kappa_img, f_img, h_fine, q, i, level_h, nsub):
    """Quadrature (r2, j2) of one level triangle for data on the finest lattice.

    nsub is the dyadic refinement depth from the triangle's level down to the
    finest lattice (0 on the finest level).  The residual integrand is
    integrated per fine sub-triangle; edges are split into fine segments so
    kappa stays linear on each quadrature piece.  Valid whenever the gradient
    of u is constant on the whole triangle's interior edges, which holds on
    the finest level always and on coarser levels when u lives in that
    level's space.
    """
    scale = 2**nsub
    base = (i[0] * scale, i[1] * scale)
    r2 = 0.0
    for a in range(scale):
        for b in range(scale):
            for qq in (1, 2):
                sub = (base[0] + a, base[1] + b)
                verts = triangle_verts(qq, sub, h_fine)
                centroid = verts.mean(axis=0)
                if not point_in_triangle(centroid, triangle_verts(q, i, level_h)):
                    continue
                grad_u = pl_grad(u_img, h_fine, centroid)
                grad_k = pl_grad(kappa_img, h_fine, centroid)
                c_t = float(np.dot(grad_k, grad_u))
                pts, wts = dunavant4(verts)
                vals = pl_eval(f_img, h_fine, pts) + c_t
                r2 += float(np.dot(wts, vals**2))
    r2 *= level_h * level_h

    verts = triangle_verts(q, i, level_h)
    j2 = 0.0
    for e in range(3):
        j2 += _jump_across(
            u_img, kappa_img, h_fine, verts[e], verts[(e + 1) % 3], 2**nsub
        )
    j2 *= level_h
    return r2, j2


def point_in_triangle(pt, verts, tol=1e-12):
    v0 = verts[1] - verts[0]
    v1 = verts[2] - verts[0]
    d = np.asarray(pt, dtype=float) - verts[0]
    det = v0[0] * v1[1] - v0[1] * v1[0]
    s = (d[0] * v1[1] - d[1] * v1[0]) / det
    t = (v0[0] * d[1] - v0[1] * d[0]) / det
    return s >= -tol and t >= -tol and s + t <= 1.0 + tol


def clip_polygon(subject, clip):
    """Sutherland-Hodgman intersection of convex polygons (lists of 2-vectors)."""
    output = [np.asarray(p, dtype=float) for p in subject]
    clip = [np.asarray(p, dtype=float) for p in clip]
    m = len(clip)
    # clip polygon must be counterclockwise for the inside test below
    area2 = sum(
        clip[k][0] * clip[(k + 1) % m][1] - clip[(k + 1) % m][0] * clip[k][1]
        for k in range(m)
    )
    if area2 < 0:
        clip = clip[::-1]
    for k in range(m):
        a, b = clip[k], clip[(k + 1) % m]
        edge = b - a
        if not output:
            break
        inputs, output = output, []
        prev = inputs[-1]
        prev_in = edge[0] * (prev[1] - a[1]) - edge[1] * (prev[0] - a[0]) >= 0
        for cur in inputs:
            cur_in = edge[0] * (cur[1] - a[1]) - edge[1] * (cur[0] - a[0]) >= 0
            if cur_in != prev_in:
                da = cur - prev
                denom = edge[0] * da[1] - edge[1] * da[0]
                t = (edge[1] * (prev[0] - a[0]) - edge[0] * (prev[1] - a[1])) / denom
                output.append(prev + t * da)
            if cur_in:
                output.append(cur)
            prev, prev_in = cur, cur_in
    return output


def polygon_area(poly):
    if len(poly) < 3:
        return 0.0
    x = np.array([p[0] for p in poly])
    y = np.array([p[1] for p in poly])
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def hat_support_hexagon(node, h):
    offsets = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    return [np.array([(node[0] + d0) * h, (node[1] + d1) * h]) for d0, d1 in offsets]


def refine_support_oracle(marks, level_h, fine_n, fine_h):
    """Fine interior nodes whose hat support overlaps any marked triangle.

    marks: (2, n, n) binary triangle marks on the coarse level.  Overlap is a
    positive-area intersection of the support hexagon with the triangle,
    computed by polygon clipping.
    """
    lit = np.zeros((fine_n, fine_n), dtype=np.uint8)
    qs, i1s, i2s = np.nonzero(marks)
    for q, a, b in zip(qs + 1, i1s, i2s):
        tri = [v for v in triangle_verts(q, (a, b), level_h)]
        for j1 in range(1, fine_n - 1):
            for j2 in range(1, fine_n - 1):
                if lit[j1, j2]:
                    continue
                hexa = hat_support_hexagon((j1, j2), fine_h)
                if polygon_area(clip_polygon(hexa, tri)) > 1e-12:
                    lit[j1, j2] = 1
    return lit


def weighted_h1_seminorm(image, tri_integrals, h):
    """Energy seminorm sqrt(sum_T (int_T kappa) |grad|^2) for a nodal image."""
    a, b, c, d = image[:-1, :-1], image[1:, 1:], image[:-1, 1:], image[1:, :-1]
    g1 = (b - c) ** 2 + (c - a) ** 2
    g2 = (d - a) ** 2 + (b - d) ** 2
    s = float((tri_integrals[0] * g1 + tri_integrals[1] * g2).sum()) / (h * h)
    return math.sqrt(max(s, 0.0))


def energy_seminorm(u, diffusion):
    """A-seminorm of a multilevel field, via its summed finest-level image."""
    last = u.hierarchy.levels - 1
    flat = flatten_to_finest(u)
    return weighted_h1_seminorm(flat, diffusion.tri_integrals[last], u.hierarchy.h(last))


class ReliabilityReport(NamedTuple):
    c_rel: float
    c_eff: float
    degenerate: bool


def reliability_efficiency(u, f_values, diffusion, masks, reference_image, reference_diffusion):
    """Measured reliability/efficiency constants against an overkill solution.

    The reference lives on the finest lattice of a (typically twice-refined)
    reference hierarchy; the current solution is flattened and uniformly
    interpolated onto it.  C_rel = error_A^2 / total eta^2 and
    c_eff = max_T eta_T / error_A are diagnostics, not pass/fail gates.
    """
    est = estimate(u, f_values, diffusion, masks)
    ref_hier = reference_diffusion.hierarchy
    err = reference_error(u, reference_image)
    last = ref_hier.levels - 1
    err_a = weighted_h1_seminorm(err, reference_diffusion.tri_integrals[last], ref_hier.h(last))
    total = est.total()
    if err_a == 0.0 or total == 0.0:
        return ReliabilityReport(math.nan, math.nan, True)
    eta_max = math.sqrt(max(float(e.max()) for e in est.eta2))
    return ReliabilityReport(err_a * err_a / total, eta_max / err_a, False)


def sample_parameters(rng, count):
    """(count, d) i.i.d. uniform parameters, one stream per sample.

    d is the disc count of the default cookie problem.  Philox draws are
    prefix-stable, so the first j columns do not depend on d.
    """
    dim = len(CookieProblem().centers)
    out = np.empty((count, dim))
    for i in range(count):
        out[i] = rng.sample_generator(i).random(dim)
    return out


def ssc_sweep(u, f, diffusion, smoother, order):
    """Successive subspace correction in an arbitrary level order.

    Each visit recomputes the stacked operator action on the current iterate
    through the levelwise identity, so a visit smooths against the exact
    current residual regardless of the order.
    """
    nlev = u.hierarchy.levels
    for k in order:
        if not 0 <= k < nlev:
            raise ConfigurationError(f"level {k} out of range for {nlev} levels")
    for k in order:
        section = apply_stacked(u, diffusion)[k]
        act = u.masks[k].active
        u.values[k] += smoother.omegas[k] * (f.images[k] - section) * act
    return u


def lmg_sweep(u, f, diffusion, smoother):
    """Local multigrid order: fine-to-coarse then coarse-to-fine, fresh actions."""
    nlev = u.hierarchy.levels
    order = list(range(nlev - 1, -1, -1)) + list(range(nlev))
    return ssc_sweep(u, f, diffusion, smoother, order)


def full_depth_sweep(u, f, diff, sm):
    """The unstaged sweep: `assembly`'s level steps (`level_section`,
    `carry_up`, `carry_down`) on the full lattice of every level, occupied or
    not, from a fresh carried-down chain.  `solver.llmg_sweep` must reproduce
    it bit for bit.  Returns the lagged norm sqrt(sum_k ||r_k||^2) of the
    upward half's masked residuals."""
    nlev = u.levels
    act = [m.active for m in u.masks]
    tld = [np.zeros_like(u.values[0])]
    for k in range(nlev - 1):
        tld.append(carry_down(tld[k], u.values[k] * act[k]))
    bar = [np.zeros_like(v) for v in u.values]
    lagged2 = []

    def smooth(k):
        section = level_section(u.values[k], tld[k], bar[k], diff, k)
        r = (f.images[k] - section) * act[k]
        u.values[k] += sm.omegas[k] * (f.images[k] - section) * act[k]
        return float(np.vdot(r, r))

    for k in range(nlev - 1, -1, -1):
        smooth(k)
        if k > 0:
            bar[k - 1] = carry_up(bar[k], u.values[k], diff, k)
    for k in range(nlev):
        lagged2.append(smooth(k))
        if k < nlev - 1:
            tld[k + 1] = carry_down(tld[k], u.values[k])
    return float(np.sqrt(sum(lagged2)))


class _FullLatticeConvLevel:
    """A conv level run by the public per-call layers on the full lattice
    of level k, on a staged state's images: the steps the staged
    `convnet._ConvLevel` replaces, with none of its staging."""

    def __init__(self, state, k):
        self.state, self.k = state, k
        self.upsilon, self.h = state.diffusion.upsilon[k], state.u.hierarchy.h(k)

    def smooth(self):
        """The stack of u_k + utilde_k on every node, gated by the active
        mask (`conv_translate`), the stiffness action on the whole lattice
        (`conv_apply_A`), and the update times the 0/1 mask, written into the
        state's iterate image."""
        state, k = self.state, self.k
        v, act = state.u.values[k], state.u.masks[k].active
        stack = conv_translate(state.bank, v + state.utld[k], act)
        section = conv_apply_A(state.bank, stack, self.upsilon, self.h)
        section = section + state.ubar[k]
        v[...] = v + state.smoother.omegas[k] * (state.f.images[k] - section) * act

    def carry_up(self):
        """ubar_{k-1} = restrict(ubar_k + A_k u_k): `conv_apply_A` of u_k's
        stack gated by the level interior (`conv_translate`), and
        `conv_restrict`."""
        state, k = self.state, self.k
        interior = state.u.hierarchy.interior_mask(k)
        stack = conv_translate(state.bank, state.u.values[k], interior)
        lifted = state.ubar[k] + conv_apply_A(state.bank, stack, self.upsilon, self.h)
        state.ubar[k - 1][...] = conv_restrict(state.bank, lifted)

    def carry_down(self):
        """utilde_{k+1} = prolong(utilde_k + u_k): `conv_prolongate`."""
        state, k = self.state, self.k
        state.utld[k + 1][...] = conv_prolongate(state.bank, state.utld[k] + state.u.values[k])


def full_lattice_conv_sweep(state):
    """`convnet.conv_llmg_sweep` with every level run by the public per-call
    layers on its full lattice (`_FullLatticeConvLevel`), in place, on the
    state's occupied levels."""
    levels = [_FullLatticeConvLevel(state, k) for k in range(len(state.levels))]
    solver.llmg_schedule(levels)


def power_lambda_max(diffusion, k, iterations=50):
    """Largest-eigenvalue estimate of the level-k uniform operator.

    Deterministic start (all-ones on the interior) so repeated runs agree
    exactly; the symmetric operator makes the Rayleigh quotient monotone.
    """
    v = diffusion.hierarchy.interior_mask(k).astype(float)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iterations):
        w = apply_A_level(v, diffusion.upsilon[k], diffusion.hierarchy.h(k))
        lam = float(np.vdot(v, w))
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return lam


def solve_energy_history(u0, f, diffusion, smoother, exact, tol=1e-10, max_sweeps=200):
    """`llmg_solve` with the A-norm error against `exact` recorded after each
    of its own sweeps.

    `llmg_solve` stages its sweeps once (`solver._StagedSweep`); the staged
    sweep is wrapped for the length of the call, so the errors are those of
    the solve's own iterates.  Returns (u, report) of `llmg_solve` and the
    errors, starting with the initial one: there are report.iterations + 1
    of them.
    """

    def energy_error(u):
        delta = [a - b for a, b in zip(u.values, exact.values)]
        return energy_seminorm(MultilevelField(u.hierarchy, delta, u.masks), diffusion)

    energies = [energy_error(u0)]
    sweep = solver._StagedSweep.sweep

    def recorded(staged):
        lagged = sweep(staged)
        energies.append(energy_error(staged.u))
        return lagged

    solver._StagedSweep.sweep = recorded
    try:
        u, report = solver.llmg_solve(u0, f, diffusion, smoother, tol=tol, max_sweeps=max_sweeps)
    finally:
        solver._StagedSweep.sweep = sweep
    return u, report, energies


def min_norm_solve(matrix, b):
    """A^+ b and the numerical rank of A, by a dense least-squares solve.

    `np.linalg.lstsq` with `rcond=None` cuts singular values below
    eps * max(A.shape) * s_max, the threshold of `np.linalg.matrix_rank`.
    """
    x, _, rank, _ = np.linalg.lstsq(matrix.toarray(), b, rcond=None)
    return x, int(rank)


def contraction_ratios(energies):
    """Per-sweep error ratios e_{i+1} / e_i, skipping sweeps that start at zero error."""
    return [b / a for a, b in zip(energies, energies[1:]) if a > 0.0]


def random_mask(hier, level, rng, density=0.6):
    """Active set with each interior node drawn active with `density`."""
    n = hier.n(level)
    act = np.zeros((n, n), dtype=np.uint8)
    act[1:-1, 1:-1] = rng.random((n - 2, n - 2)) < density
    return LevelMask(act)


def random_masks(hier, rng, density=0.6):
    """Independent `random_mask` draws, one per level."""
    return [random_mask(hier, k, rng, density) for k in range(hier.levels)]


def random_field(hier, masks, rng):
    """Standard normal values on the active sets, +0.0 elsewhere.

    Off the active sets the values are +0.0, as in every field a solve sees
    (`zero_field` and the sweeps' updates); `normal * 0` would leave -0.0
    wherever the draw is negative.
    """
    values = [
        np.where(masks[k].active, rng.normal(size=(hier.n(k), hier.n(k))), 0.0)
        for k in range(hier.levels)
    ]
    return MultilevelField(hier, values, masks)


def random_refined_masks(hier, rng, frac=0.35):
    """Admissible hierarchy: grow active sets by marking random leaf triangles.

    These are the masks the adaptive loop produces; `random_masks` draws
    independent per-level ones.
    """
    masks = initial_masks(hier)
    for _ in range(hier.levels - 1):
        leaves = leaf_triangle_masks(hier, masks)
        ms = [np.zeros_like(leaf) for leaf in leaves]
        for k in range(hier.levels - 1):
            pick = (rng.random(leaves[k].shape) < frac).astype(np.uint8)
            ms[k][...] = pick & leaves[k]
        if not any(m.any() for m in ms):
            for k in range(hier.levels - 1):
                idx = np.argwhere(leaves[k])
                if len(idx):
                    q, a, b = idx[rng.integers(len(idx))]
                    ms[k][q, a, b] = 1
                    break
        masks = refine(masks, ms, hier)
    return masks


@st.composite
def refined_inputs(draw):
    """A hierarchy, masks reached by random mark-and-refine steps from the
    initial ones, and a random iterate, load and coefficient, with -0.0
    planted in the iterate on and off the active sets."""
    hier = build_hierarchy(draw(st.integers(3, 6)), draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masks = initial_masks(hier)
    for _ in range(draw(st.integers(0, hier.levels - 1))):
        frac = draw(st.floats(0.05, 0.6))
        leaves = leaf_triangle_masks(hier, masks)
        marks = [(rng.random(leaf.shape) < frac).astype(np.uint8) & leaf for leaf in leaves]
        marks[-1][...] = 0
        masks = refine(masks, marks, hier)
    values = []
    for k in range(hier.levels):
        v = rng.normal(size=(hier.n(k), hier.n(k)))
        v[rng.random(v.shape) < 0.2] = -0.0
        values.append(v)
    nf = hier.n(hier.levels - 1)
    diff = compute_upsilon(hier, rng.uniform(0.1, 3.0, size=(nf, nf)))
    rhs = assemble_rhs(hier, rng.normal(size=(nf, nf)))
    return MultilevelField(hier, values, masks), rhs, diff
