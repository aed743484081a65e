"""Discrete spacelike graphs over the hyperbolic disk.

A graph t = u(y) over the Poincare disk is spacelike iff the Euclidean
gradient satisfies |grad u| < 2/(1+|y|^2); the certified margin of a mesh
function is eps with |grad u|^2 <= (1-eps) * (2/(1+|y|^2))^2 per triangle
(the bound evaluated at the triangle's outermost vertex).

The maximal-surface operator is assembled in weak divergence form.  With
w(y) = (1+|y|^2)/2 and phi = (1+|y|^2)/(1-|y|^2) the graph area is

    Area(u) = integral  lambda^2 sqrt(1 - w^2 |grad u|^2) dy,

a concave functional of u, and its gradient is -F with

    F_i(u) = integral  phi^2 v  grad u . grad N_i  dy,
    v = (1 - w^2 |grad u|^2)^(-1/2).

Mean curvature (trace of the shape operator for the future normal) is
recovered as H_i = -F_i / m_i with the lumped mass m_i = integral phi
lambda^2 N_i; the sign convention is pinned by the closed-form umbilic
surfaces u_r = arctan(tan r / phi), which have H = -2 tan r.

Shape operators are estimated by finite-differencing the unit normal along
mesh edges in the ambient R^{2,2}, solved per vertex in the graph coordinate
frame; the intrinsic Gauss curvature comes from angle defects of the
per-vertex metric.  The two routes are tied together by K = -1 - det B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import lorentz as L
from .constants import (
    BOUNDARY_MASK_RINGS,
    CHI_MASK_TOL,
    CHI_SMOOTH_WIDTH,
    CHI_VALID_FRAC,
    CONE_FLOOR,
    FOCAL_GUARD,
    GRADIENT_CAP,
    MARGIN_FLOOR,
    SHAPE_RIDGE,
    TINY,
)
from .mesh import (
    DiskMesh,
    apply_map,
    corner_sum,
    element_dots,
    fit_map,
    make_mesh,
    p1_matrix,
    p1_slopes,
    ring_points,
    ring_radii,
    sorted_unique,
    vertex_blocks,
    vertex_neighbors,
)

def triangle_gradients(mesh: DiskMesh, u):
    g = mesh.fem
    ut = np.asarray(u, dtype=float)[mesh.triangles]  # (M,3)
    return np.einsum("mk,mkd->md", ut, g["grads"])


def _slope_margins(gu2, slope_limit2):
    return 1.0 - gu2 / slope_limit2


def triangle_margins(mesh: DiskMesh, u):
    """Per-triangle spacelike margin 1 - |grad u|^2 / slope_limit^2."""
    gu = triangle_gradients(mesh, u)
    return _slope_margins((gu**2).sum(axis=1), mesh.fem["slope_limit2"])


@dataclass(frozen=True)
class SpacelikeGraph:
    mesh: DiskMesh
    u: np.ndarray
    margin: float = field(default=0.0)

    @staticmethod
    def certify(mesh: DiskMesh, u, floor: float = MARGIN_FLOOR) -> "SpacelikeGraph":
        u = np.asarray(u, dtype=float)
        eps = float(triangle_margins(mesh, u).min())
        if eps <= floor:
            raise ValueError(f"spacelike margin violated: eps = {eps:.3e}")
        return SpacelikeGraph(mesh, u, eps)


def recovered_gradient(mesh: DiskMesh, u):
    """Area-weighted per-vertex gradient of a P1 function."""
    g = mesh.fem
    gu = triangle_gradients(mesh, u) * g["area"][:, None]
    acc = np.stack([corner_sum(mesh, gu[:, d, None]) for d in range(2)],
                   axis=-1)
    return acc / corner_sum(mesh, g["area"][:, None])[:, None]


def residual(mesh: DiskMesh, u):
    """F_i(u) = integral phi^2 v grad u . grad N_i; the negative of the
    area gradient.  Returns (F, per-triangle margins)."""
    g, q = mesh.fem, mesh.quadrature
    gu = triangle_gradients(mesh, u)
    gu2 = (gu**2).sum(axis=1)
    margins = _slope_margins(gu2, g["slope_limit2"])
    vq = 1.0 / np.sqrt(np.maximum(1.0 - q["wq"] ** 2 * gu2[:, None], CONE_FLOOR))
    coeff = (q["phiq"] ** 2 * vq).sum(axis=1) / 3.0  # quadrature of phi^2 v
    flux = coeff[:, None] * gu * g["area"][:, None]
    F = corner_sum(mesh, (flux[:, None] * g["grads"]).sum(axis=-1))
    return F, margins


def fit_derivatives(mesh: DiskMesh, u):
    """Per-vertex (du1, du2, u11, u12, u22) from a weighted cubic fit over
    the 2-ring stencil; second derivatives are O(h^2)-consistent at interior
    vertices.  Rim vertices, whose one-sided stencils are ill-conditioned,
    are not fitted and read NaN.

    The fit is linear in u: each call builds its five rows as a sparse map
    (`mesh.fit_map`, not cached, since only `mean_curvature_pointwise` reads
    the second derivatives) and applies it.  The gradient rows have the bits
    of the cached `DiskMesh.gradient_map`'s interior rows.
    """
    d = apply_map(fit_map(mesh, 5), np.asarray(u, dtype=float))
    d[~mesh.deep_interior_mask(0)] = np.nan
    return {"du": d[:, :2], "hess": d[:, 2:]}


def mean_curvature_pointwise(S: SpacelikeGraph):
    """Strong-form H = div(phi^2 v grad u) / (phi lambda^2) with fitted
    derivatives; converges under refinement on smooth surfaces.  NaN within
    one ring of the rim."""
    mesh = S.mesh
    y = mesh.vertices
    r2 = (y**2).sum(axis=1)
    phi = (1 + r2) / (1 - r2)
    lam2 = 4 / (1 - r2) ** 2
    wt = (1 + r2) / 2
    dphi = 4 * y / (1 - r2)[:, None] ** 2
    dwt = y
    fit = fit_derivatives(mesh, S.u)
    du = fit["du"]
    u11, u12, u22 = fit["hess"].T
    s = (du**2).sum(axis=1)
    v = 1.0 / np.sqrt(np.maximum(1.0 - wt**2 * s, CONE_FLOOR))
    Hu_du = np.stack([u11 * du[:, 0] + u12 * du[:, 1],
                      u12 * du[:, 0] + u22 * du[:, 1]], axis=-1)
    grad_v = v[:, None] ** 3 * (wt[:, None] * dwt * s[:, None]
                                + (wt**2)[:, None] * Hu_du)
    grad_phi2v = 2 * phi[:, None] * dphi * v[:, None] + (phi**2)[:, None] * grad_v
    div = phi**2 * v * (u11 + u22) + (grad_phi2v * du).sum(axis=1)
    H = div / (phi * lam2)
    H[~S.mesh.deep_interior_mask(1)] = np.nan
    return H


def tangent_stiffness(mesh: DiskMesh, u):
    """Sparse SPD Jacobian dF/du (frozen geometry, exact linearization)."""
    g, q = mesh.fem, mesh.quadrature
    gu = triangle_gradients(mesh, u)
    gu2 = (gu**2).sum(axis=1)
    vq = 1.0 / np.sqrt(np.maximum(1.0 - q["wq"] ** 2 * gu2[:, None], CONE_FLOOR))
    c1 = (q["phiq"] ** 2 * vq).sum(axis=1) / 3.0
    c2 = (q["phiq"] ** 2 * vq**3 * q["wq"] ** 2).sum(axis=1) / 3.0
    # element matrices area (c1 grad N_a . grad N_b + c2 gN_a gN_b), with
    # gN_a = grad u . grad N_a taken once per corner
    gN = (gu[:, None] * g["grads"]).sum(axis=-1)
    E = element_dots(g["grads"], g["grads"])
    E *= c1[:, None, None]
    E += (c2[:, None] * gN)[:, :, None] * gN[:, None, :]
    E *= g["area"][:, None, None]
    return p1_matrix(mesh, E)


def graph_area(mesh: DiskMesh, u):
    """The concave area functional maximized by maximal surfaces."""
    q = mesh.quadrature
    gu2 = (triangle_gradients(mesh, u) ** 2).sum(axis=1)
    integ = (q["lam2q"] * np.sqrt(
        np.maximum(1.0 - q["wq"] ** 2 * gu2[:, None], 0.0)
    )).sum(axis=1) / 3.0
    return float((integ * mesh.fem["area"]).sum())


# ---------------------------------------------------------------------------
# ambient frames and shape data

def chart_frame(y, t):
    """Pushforwards (dq/dy1, dq/dy2, dq/dt) of the cylinder chart, (...,3,4)."""
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    r2 = (y**2).sum(axis=-1)
    d = 1.0 - r2
    h3 = (1 + r2) / d
    ct, st = np.cos(t), np.sin(t)
    # dh[..., j, :] = d(h1, h2, h3)/dy_j of the hyperboloid lift h
    dd = d[..., None, None]
    yh = np.concatenate([y, np.ones_like(y[..., :1])], axis=-1)
    dh = 2 * np.eye(2, 3) / dd + 4 * yh[..., None, :] * y[..., :, None] / dd**2
    frame = np.zeros(y.shape[:-1] + (3, 4))
    frame[..., :2, :2] = dh[..., :2]
    frame[..., :2, 2:] = dh[..., 2:] * np.stack([ct, st], axis=-1)[..., None, :]
    frame[..., 2, 2] = -h3 * st
    frame[..., 2, 3] = h3 * ct
    return frame


def vertex_gradient(S: SpacelikeGraph):
    """Per-vertex gradient of u.  Inside, the cubic fit's gradient: two
    sparse mat-vecs of the disk's cached `DiskMesh.gradient_map`.  On the
    rim, which the fit leaves out, the area-weighted P1 average
    (`recovered_gradient`)."""
    du = apply_map(S.mesh.gradient_map, np.asarray(S.u, dtype=float))
    rim = ~S.mesh.deep_interior_mask(0)
    du[rim] = recovered_gradient(S.mesh, S.u)[rim]
    # clamp into the spacelike cone (fit overshoot near steep rims)
    w = (1 + (S.mesh.vertices**2).sum(axis=1)) / 2
    norm = np.sqrt((du**2).sum(axis=1))
    cap = GRADIENT_CAP / w
    over = norm > cap
    du[over] *= (cap[over] / norm[over])[:, None]
    return du


def graph_points(S: SpacelikeGraph):
    return L.cyl_to_quadric(S.mesh.vertices, S.u)


@dataclass(frozen=True)
class ShapeData:
    """Per-vertex extrinsic package in graph coordinates.

    G holds the graph-coordinate tangent basis G_j = dq/dy_j + u_{,j} dq/dt
    in R^{2,2}; nu is the future unit normal and v = 1/sqrt(1 - phi^2
    |grad u|^2_H) >= 1 the gradient function.  I is the induced metric Gram
    matrix of (G1, G2); B the shape operator (I-self-adjoint, symmetrized in
    the least-squares fit); J the complex structure of I with the graph
    orientation.  K_ext = -1 - det B; K_int is the angle-defect curvature of
    I, computed on first read, since no pipeline stage reads it.  Entries of
    the curvatures on masked vertices (the rim layer) are NaN.
    """

    surface: SpacelikeGraph
    G: np.ndarray         # (N,2,4)
    nu: np.ndarray        # (N,4)
    v: np.ndarray         # (N,)
    I: np.ndarray         # (N,2,2)
    B: np.ndarray         # (N,2,2)
    J: np.ndarray         # (N,2,2)
    H: np.ndarray         # (N,)  trace of B
    detB: np.ndarray      # (N,)
    k1: np.ndarray        # (N,) principal curvatures, k1 >= k2
    k2: np.ndarray
    K_ext: np.ndarray     # (N,) -1 - det B
    mask: np.ndarray      # (N,) True where data is valid

    @property
    def mesh(self) -> DiskMesh:
        return self.surface.mesh

    @cached_property
    def K_int(self) -> np.ndarray:
        """(N,) intrinsic angle-defect curvature of I."""
        K = metric_gauss_curvature(self.mesh, self.I)
        K[~self.mask] = np.nan
        return K


def _complex_structure(I):
    det = I[..., 0, 0] * I[..., 1, 1] - I[..., 0, 1] * I[..., 1, 0]
    J = np.stack([-I[..., 0, 1], -I[..., 1, 1], I[..., 0, 0], I[..., 0, 1]],
                 axis=-1).reshape(I.shape)
    return J / np.sqrt(np.maximum(det, TINY))[..., None, None]


def metric_gauss_curvature(mesh: DiskMesh, metric):
    """Angle-defect Gauss curvature of a per-vertex 2x2 metric field.

    Edge lengths use the midpoint metric; the defect at an interior vertex is
    divided by a third of the incident area.  Boundary vertices are NaN.
    """
    metric = np.asarray(metric, dtype=float)
    t = mesh.triangles
    nxt, prv = [1, 2, 0], [2, 0, 1]
    # squared edge lengths, edge k (corners k+1, k+2) opposite corner k
    a, b = t[:, nxt], t[:, prv]
    d = mesh.vertices.take(b, axis=0) - mesh.vertices.take(a, axis=0)
    mid = 0.5 * (metric.take(a, axis=0) + metric.take(b, axis=0))
    l2 = np.maximum(np.einsum("mki,mkij,mkj->mk", d, mid, d), TINY)
    la2, lb2 = l2[:, nxt], l2[:, prv]
    ang = np.arccos(np.clip((la2 + lb2 - l2) / (2 * np.sqrt(la2 * lb2)),
                           -1.0, 1.0))
    # Heron area from the metric lengths
    ls = np.sqrt(l2)
    s = 0.5 * ls.sum(axis=1)
    har = np.sqrt(np.maximum(
        s * (s - ls[:, 0]) * (s - ls[:, 1]) * (s - ls[:, 2]), 0.0))
    defect = 2 * np.pi - corner_sum(mesh, ang)
    area_share = corner_sum(mesh, (har / 3.0)[:, None])
    K = defect / np.maximum(area_share, TINY)
    K[mesh.boundary_mask] = np.nan
    return K


def shape_data(S: SpacelikeGraph) -> ShapeData:
    """The frame, normal and shape operator of S at every vertex (see
    `ShapeData`).  The gradient is two mat-vecs of the disk's cached
    `DiskMesh.gradient_map`; B's per-vertex 3x3 normal equations, I^-1 and
    det B are taken in closed form, with no LAPACK call."""
    mesh = S.mesh
    y = mesh.vertices
    r2 = (y**2).sum(axis=1)
    lam2 = 4 / (1 - r2) ** 2
    phi = (1 + r2) / (1 - r2)
    w = (1 + r2) / 2
    du = vertex_gradient(S)  # w |du| <= GRADIENT_CAP, so v is finite
    v = 1.0 / np.sqrt(1.0 - w**2 * (du**2).sum(axis=1))
    fr = chart_frame(y, S.u)
    G = fr[:, :2] + du[:, :, None] * fr[:, 2][:, None, :]
    horiz = (du[:, 0, None] * fr[:, 0] + du[:, 1, None] * fr[:, 1]) / lam2[:, None]
    nu = (phi * v)[:, None] * (horiz + fr[:, 2] / (phi**2)[:, None])
    II = np.einsum("nad,d,nbd->nab", G, L.SIGNATURE, G)

    edges = vertex_neighbors(mesh)
    # per vertex, one bincount per distinct entry of A^T A (a^2, ab,
    # a^2 + b^2, b^2) and of A^T m' (below); the edges run in blocks of
    # their first vertex
    tot = np.empty((mesh.n_vertices, 7))
    ptr = np.searchsorted(edges[:, 0],
                          np.arange(mesh.n_vertices + 1, dtype=edges.dtype))
    for v0, v1, lo, hi in vertex_blocks(ptr):
        i, k = edges[lo:hi].T
        # take gathers rows several times faster than fancy indexing
        dy = y.take(k, axis=0) - y.take(i, axis=0)
        dnu = nu.take(k, axis=0) - nu.take(i, axis=0)
        # pair the ambient increment with the midpoint tangent frame (kills
        # the position and normal components and centers the difference)
        Gm = 0.5 * (G.take(i, axis=0) + G.take(k, axis=0))
        m = np.einsum("ed,d,ead->ea", dnu, L.SIGNATURE, Gm)
        # least squares for symmetric C = I B over the edges scaled to unit
        # length: rows [a, b, 0; 0, a, b] c = m' with (a, b) = dy/|dy| and
        # m' = m/|dy|, summed into the normal equations entry by entry
        wgt = 1.0 / np.linalg.norm(dy, axis=1)
        a, b = (dy * wgt[:, None]).T
        m0, m1 = (m * wgt[:, None]).T
        parts = (a * a, a * b, b * b + a * a, b * b,
                 a * m0, b * m0 + a * m1, b * m1)
        for col, x in enumerate(parts):
            tot[v0:v1, col] = np.bincount(i - v0, x, minlength=v1 - v0)
    # the normal equations [[p, e, 0], [e, q, e], [0, e, s]] c = h and
    # B = I^-1 [[c0, c1], [c1, c2]], solved in closed form
    p, e, q, s = tot[:, :4].T
    p, q, s = p + SHAPE_RIDGE, q + SHAPE_RIDGE, s + SHAPE_RIDGE
    h0, h1, h2 = tot[:, 4:].T
    e2 = e * e
    det = p * q * s - e2 * (p + s)
    c0 = ((q * s - e2) * h0 - e * s * h1 + e2 * h2) / det
    c1 = (p * s * h1 - e * s * h0 - p * e * h2) / det
    c2 = (e2 * h0 - p * e * h1 + (p * q - e2) * h2) / det
    I00, I01, I10, I11 = II.reshape(-1, 4).T
    detI = I00 * I11 - I01 * I10
    B = np.stack([I11 * c0 - I01 * c1, I11 * c1 - I01 * c2,
                  I00 * c1 - I10 * c0, I00 * c2 - I10 * c1],
                 axis=-1).reshape(-1, 2, 2) / detI[:, None, None]

    H = B[:, 0, 0] + B[:, 1, 1]
    detB = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
    disc = np.maximum(H**2 - 4 * detB, 0.0)
    k1 = (H + np.sqrt(disc)) / 2
    k2 = (H - np.sqrt(disc)) / 2
    K_ext = -1.0 - detB
    J = _complex_structure(II)

    mask = mesh.deep_interior_mask(BOUNDARY_MASK_RINGS)
    for arr in (H, detB, k1, k2, K_ext, B):
        arr[~mask] = np.nan
    return ShapeData(
        surface=S, G=G, nu=nu, v=v, I=II, B=B, J=J, H=H, detB=detB,
        k1=k1, k2=k2, K_ext=K_ext, mask=mask,
    )


def _metric_operator(mesh: DiskMesh, metric):
    """P1 stiffness and lumped mass of a per-vertex 2x2 metric field."""
    g = mesh.fem
    M = np.asarray(metric).take(mesh.triangles, axis=0).mean(axis=1)
    # inverse and determinant of each 2x2 in closed form
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    Minv = np.stack([M[:, 1, 1], -M[:, 0, 1], -M[:, 1, 0], M[:, 0, 0]],
                    axis=-1).reshape(-1, 2, 2) / det[:, None, None]
    sdet = np.sqrt(np.maximum(det, TINY))
    # element matrices grad N_a . Minv grad N_b, summed over (d, e) in
    # row-major order as einsum("md,mde,me->m") sums them, times area sdet
    ga, gb = g["grads"][:, :, None], g["grads"][:, None]
    E = np.zeros((len(M), 3, 3))
    for d in range(2):
        for e in range(2):
            E += ga[..., d] * Minv[:, None, None, d, e] * gb[..., e]
    E *= g["area"][:, None, None]
    E *= sdet[:, None, None]
    return p1_matrix(mesh, E), corner_sum(mesh, (g["area"] * sdet / 3.0)[:, None])


def chi_residual(sd: ShapeData):
    """Residual of Delta chi = e^{4 chi} - 1 with chi = log(-det B)/4.

    Vertices with det B >= -CHI_MASK_TOL (flat spots) are masked; returns
    (residual, valid_mask).  The Laplacian is the P1 operator of the induced
    metric.  chi is mollified before differentiating, since the raw second
    difference would amplify the O(h^2) noise of the discrete det B by
    h^{-2}: one backward-Euler heat step (M + t K) chi' = M chi with
    t = CHI_SMOOTH_WIDTH^2 / 2, whose variance CHI_SMOOTH_WIDTH^2 is the
    same physical scale on every mesh.  The metric's per-triangle 2x2
    inverses and determinants are taken in closed form; the heat step's LU
    is most of a call.
    """
    mesh = sd.mesh
    detB = sd.detB
    chi_mask = sd.mask & np.isfinite(detB) & (detB < -CHI_MASK_TOL)
    chi = np.zeros(mesh.n_vertices)
    chi[chi_mask] = np.log(-detB[chi_mask]) / 4.0

    K, mass = _metric_operator(mesh, sd.I)

    t = CHI_SMOOTH_WIDTH**2 / 2
    heat = spla.splu((sp.diags(mass) + t * K).tocsc(),
                     permc_spec="MMD_AT_PLUS_A")
    # the indicator, mollified alongside chi, tracks contamination from
    # masked/rim zeros
    chi, ok = heat.solve(mass[:, None] * np.column_stack([chi, chi_mask])).T

    lap = -(K @ chi) / mass
    # report where the mollifier saw essentially no masked data
    valid = (
        chi_mask
        & (ok > CHI_VALID_FRAC)
        & mesh.deep_interior_mask(BOUNDARY_MASK_RINGS)
    )
    res = np.full(mesh.n_vertices, np.nan)
    res[valid] = lap[valid] - (np.exp(4 * chi[valid]) - 1.0)
    return res, valid


# ---------------------------------------------------------------------------
# closed-form surfaces and the normal flow

def plane_surface(mesh: DiskMesh, q=None, branch=-1) -> SpacelikeGraph:
    """Graph of (a lift of) the totally geodesic plane dual to q."""
    q = L.E4 if q is None else q
    u = L.plane_graph_height(q, mesh.vertices, branch=branch)
    return SpacelikeGraph.certify(mesh, u)


def umbilic_surface(mesh: DiskMesh, r: float) -> SpacelikeGraph:
    """Surface at constant timelike distance r above the reference plane:
    u = arctan(sin r / sqrt(cos^2 r + sinh^2 d)) at hyperbolic radius d.
    Principal curvatures are both -tan r, so H = -2 tan r and
    K = -1 - tan^2 r."""
    if not abs(r) < np.pi / 2:
        raise ValueError("|r| < pi/2 required")
    sh = np.sinh(mesh.rho)
    u = np.arctan2(np.sin(r), np.sqrt(np.cos(r) ** 2 + sh**2))
    return SpacelikeGraph.certify(mesh, u)


def horosphere_height(y):
    """Closed-form height of the flat maximal surface over disk points:
    sigma = asinh(sqrt2 h1), beta = asinh(sqrt2 h2),
    u = atan2(cosh beta, cosh sigma)."""
    h = L.poincare_to_hyperboloid(y)
    sig = np.arcsinh(np.sqrt(2.0) * h[..., 0])
    bet = np.arcsinh(np.sqrt(2.0) * h[..., 1])
    return np.arctan2(np.cosh(bet), np.cosh(sig))


def horosphere_surface(mesh: DiskMesh, rotation: float = 0.0):
    """The flat maximal surface: equidistant pi/4 from a spacelike geodesic.

    The default axis is the x1-geodesic; its boundary is the four-lightlike
    tent curve and the principal curvatures are -1 and +1 everywhere.  The
    margin of the interpolant goes to zero toward the four boundary corners,
    so when the requested mesh radius is too large the disk is clipped: the
    radius shrinks by 5 % until the graph certificate holds.  A trial
    radius is tested on its rim cells first, and only one whose rim cells
    all pass builds its disk and takes the margin of every cell.  rotation
    moves the surface by an isometry that keeps the closed form a graph.
    """
    rot = np.array(
        [[np.cos(-rotation), -np.sin(-rotation)],
         [np.sin(-rotation), np.cos(-rotation)]]
    )
    n_rings, n_angular = mesh.n_rings, mesh.n_angular
    # a trial disk is tested on its rim cells first, where the margin runs
    # out: they keep their vertices and directions on every trial radius,
    # and only their ring radii move
    cells = mesh.triangles[mesh.rim_strip[mesh.triangles].all(axis=1)]
    ids = sorted_unique(cells)
    cells = np.searchsorted(ids, cells)
    ring, theta = mesh.ring_index[ids], mesh.theta[ids]
    radius = mesh.radius
    for trial in range(40):
        if trial:
            radius *= 0.95
            y = ring_points(ring_radii(radius, n_rings, n_angular), ring, theta)
        else:
            y = mesh.vertices[ids]
        if _horosphere_graph(y, cells, rot, rotation)[1] > 0.0:
            if trial:
                mesh = make_mesh(radius, n_rings, n_angular)
            u, margin = _horosphere_graph(mesh.vertices, mesh.triangles, rot,
                                          rotation)
            if margin > 0.0:
                return SpacelikeGraph(mesh, u, margin)
    raise ValueError("could not certify a clipped horosphere graph")


def _horosphere_graph(y, triangles, rot, rotation):
    """The horosphere's heights at disk points y, and the least spacelike
    margin of their P1 interpolant over the cells `triangles`: that of
    `triangle_margins` without the whole fem of a disk that may be
    dropped, since only the returned disk builds it."""
    u = horosphere_height(y @ rot.T if rotation != 0.0 else y)
    _, grads, slope_limit2 = p1_slopes(y[triangles])
    gu = np.einsum("mk,mkd->md", u[triangles], grads)
    return u, float(_slope_margins((gu**2).sum(axis=1), slope_limit2).min())


def equidistant_prediction(k0, r):
    """Principal-curvature evolution along the unit normal flow:
    k(r) = tan(arctan k0 - r) in this sign convention."""
    return np.tan(np.arctan(k0) - r)


def equidistant(S: SpacelikeGraph, r: float,
                sd: ShapeData | None = None) -> SpacelikeGraph:
    """Normal-exponential surface at signed distance r, regraphed on the
    same mesh by vertical resampling (piecewise-linear, hence monotone)."""
    if not abs(r) < np.pi / 4:
        raise ValueError("|r| < pi/4 required")
    if r == 0.0:
        return S
    sd = sd if sd is not None else shape_data(S)
    kmax = np.nanmax(np.abs(np.stack([sd.k1, sd.k2])))
    pred = equidistant_prediction(np.array([kmax, -kmax]), r)
    if not np.all(np.isfinite(pred)) or np.nanmax(np.abs(np.tan(
            np.arctan(np.abs(kmax)) + abs(r)))) > FOCAL_GUARD:
        raise ValueError("focal point crossed: principal curvature leaves (-1,1)")
    if kmax >= 1.0:
        raise ValueError("principal curvatures must lie in (-1,1)")
    # imported here, not at module level: this test-only paper check is
    # their one reader, and scipy.interpolate pulls in scipy.optimize
    from scipy.interpolate import LinearNDInterpolator, NearestNDInterpolator

    X = graph_points(S)
    nu = sd.nu
    Xr = np.cos(r) * X + np.sin(r) * nu
    y2, t2 = L.quadric_to_cyl(Xr, t_near=S.u)
    interp = LinearNDInterpolator(y2, t2)
    u2 = interp(S.mesh.vertices)
    bad = ~np.isfinite(u2)
    if bad.any():
        near = NearestNDInterpolator(y2, t2)
        u2[bad] = near(S.mesh.vertices[bad])
    return SpacelikeGraph.certify(S.mesh, u2, floor=0.0)
