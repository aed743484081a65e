"""Geodesic-polar triangulations of hyperbolic disks.

Vertices sit on rings of constant hyperbolic radius (graded spacing, finer
near the boundary), staggered by half an angular step between consecutive
rings so the strips triangulate into near-isoceles cells.  The boundary ring
lies exactly on the radius-r geodesic circle.  The central fan is the one
place where cell angles are forced down to 2pi/n_angular regardless of
grading, so quality audits report the fan separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .constants import FIT_RIDGE, MESH_GRADING, PAIR_BLOCK, RING_SPAN_TOL

# exponents (p, q) of the cubic fit's basis x1^p x2^q without constant term
# (the fit passes through the vertex): du1, du2, u11, u12, u22, then the
# cubics
_FIT_EXP = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
            (3, 0), (2, 1), (1, 2), (0, 3))
# the derivatives a fit map can hold, from the coefficients c_a of the
# first five basis terms over offsets scaled by s: (factor, power) gives
# factor * c_a / s^power
_FIT_DERIVS = ((1.0, 1), (1.0, 1), (2.0, 2), (1.0, 2), (2.0, 2))
# the rows w x1^p x2^q of `weighted_powers`, every degree up to 6, which the
# fit's normal equations need: ATA[a, b] = sum w x^(e_a + e_b) reads row
# _ATA_ROWS[a, b], and basis term a is row _BASIS_ROWS[a]
_POWER_DEGREE = 6
_POWERS = tuple((p, q) for p in range(_POWER_DEGREE + 1)
                for q in range(_POWER_DEGREE + 1 - p))
_ATA_ROWS = np.array([[_POWERS.index((p + r, q + s)) for r, s in _FIT_EXP]
                      for p, q in _FIT_EXP])
_BASIS_ROWS = [_POWERS.index(e) for e in _FIT_EXP]

def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DiskMesh:
    """A triangulated disk.  Data derived from the mesh alone is computed
    on first use and cached on the instance, read-only, so it lives exactly
    as long as the mesh: the edges and neighbour counts, the P1 geometry
    `fem` and the midpoint rule `quadrature`, the vertex gradient as one
    sparse map `gradient_map`, and the factored start fill `strip_fill`."""

    vertices: np.ndarray      # (N,2) Poincare coordinates
    triangles: np.ndarray     # (M,3) CCW
    rho: np.ndarray           # (N,) hyperbolic radius of each vertex
    theta: np.ndarray         # (N,) angular coordinate
    ring_index: np.ndarray    # (N,) 0 = center, n_rings = boundary
    ring_rhos: np.ndarray     # (n_rings,) hyperbolic ring radii
    n_rings: int
    n_angular: int
    radius: float

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def boundary_mask(self) -> np.ndarray:
        return self.ring_index == self.n_rings

    @property
    def interior_mask(self) -> np.ndarray:
        return ~self.boundary_mask

    @property
    def rim_strip(self) -> np.ndarray:
        """The rim ring and the ring inside it: every vertex of a rim cell."""
        return self.ring_index >= self.n_rings - 1

    def deep_interior_mask(self, rings: int = 2) -> np.ndarray:
        """Vertices at least `rings` rings away from the boundary."""
        return self.ring_index <= self.n_rings - 1 - rings

    def ring_slice(self, i: int) -> slice:
        if i == 0:
            return slice(0, 1)
        return slice(1 + (i - 1) * self.n_angular, 1 + i * self.n_angular)

    @cached_property
    def edges(self) -> np.ndarray:
        """Directed edge list (i, k): every triangle edge both ways, sorted."""
        t = self.triangles
        n = self.n_vertices
        i = t[:, [0, 1, 2, 1, 2, 0]].T.ravel().astype(np.int64)
        k = t[:, [1, 2, 0, 0, 1, 2]].T.ravel().astype(np.int64)
        # one 1-D sort of i*n + k orders the pairs as a row-wise unique does
        code = sorted_unique(i * n + k)
        return _read_only(
            np.stack([code // n, code % n], axis=-1).astype(t.dtype))

    @cached_property
    def neighbor_count(self) -> np.ndarray:
        """Number of mesh neighbours of each vertex (at least two: every
        vertex lies on a triangle), as floats."""
        e = self.edges
        return _read_only(
            np.bincount(e[:, 0], minlength=self.n_vertices).astype(float))

    @cached_property
    def strip_fill(self):
        """Map from values on `rim_strip` to the P1 solution of
        div(phi^2 grad u) = 0 off the strip with those Dirichlet values.
        This is the maximal equation linearised at u = 0: the matrix is the
        tangent stiffness at the zero graph, entry for entry.  Its off-strip
        block is factored once per mesh (fill-reducing order on A^T + A, as
        the Newton solves take it)."""
        g = self.fem
        c1 = (self.quadrature["phiq"] ** 2).sum(axis=1) / 3.0
        grads = g["grads"]
        K = p1_matrix(self, g["area"][:, None, None] * (
            c1[:, None, None] * element_dots(grads, grads)))
        strip = self.rim_strip
        off = K[~strip]
        lu = spla.splu(off[:, ~strip].tocsc(), permc_spec="MMD_AT_PLUS_A")
        coupling = off[:, strip]
        return lambda u_strip: lu.solve(-(coupling @ u_strip))

    @cached_property
    def gradient_map(self) -> MappingProxyType:
        """The per-vertex gradient as a linear map of the vertex values, in
        CSR form (`fit_map`): "indptr" and "indices" (int32) and "data", one
        row of coefficients per derivative (du1, du2).  Interior rows
        (`deep_interior_mask(0)`) hold the gradient of the weighted cubic fit
        over the vertex's 2-ring; rim rows are empty (`vertex_gradient`
        takes the P1 average there).  At (3.0, 96, 320), 13 MB; the first
        ring's rows hold about 16 % of the entries, since the central fan
        puts the whole first ring in each of their 2-rings."""
        return fit_map(self, 2)

    @cached_property
    def fem(self) -> MappingProxyType:
        """P1 geometry reused by every assembly over the mesh: per-triangle
        area, basis gradients and slope limit (`p1_slopes`)."""
        area, grads, slope_limit2 = p1_slopes(self.vertices[self.triangles])
        geom = dict(area=area, grads=grads, slope_limit2=slope_limit2)
        return MappingProxyType({k: _read_only(v) for k, v in geom.items()})

    @cached_property
    def quadrature(self) -> MappingProxyType:
        """The midpoint rule of the area functional's assemblies (residual,
        stiffness, area): per triangle wq = phi / lambda, phiq and lam2q at
        the midpoints opposite each corner (M, 3), and the lumped mass
        m_i = integral phi lambda^2 N_i.  Apart from `fem`, so that a disk
        that only reads its metric (a clipped horosphere) does not hold it."""
        p = self.vertices[self.triangles]  # (M,3,2)
        # midpoint quadrature (degree-2 exact): points opposite each vertex
        mids = np.stack(
            [(p[:, 1] + p[:, 2]) / 2, (p[:, 2] + p[:, 0]) / 2,
             (p[:, 0] + p[:, 1]) / 2],
            axis=1,
        )  # (M,3,2)
        r2q = (mids**2).sum(axis=-1)                  # (M,3)
        wq = (1 + r2q) / 2                            # phi / lambda
        phiq = (1 + r2q) / (1 - r2q)
        lam2q = 4 / (1 - r2q) ** 2
        w = phiq * lam2q  # (M,3) at midpoints opposite each vertex
        # N_k vanishes at its opposite midpoint and is 1/2 at the other two
        mass = corner_sum(
            self, (w.sum(axis=1)[:, None] - w) * 0.5
            * self.fem["area"][:, None] / 3.0)
        quad = dict(wq=wq, phiq=phiq, lam2q=lam2q, mass=mass)
        return MappingProxyType({k: _read_only(v) for k, v in quad.items()})


def p1_slopes(p):
    """(area, grads, slope_limit2) of triangles with corners p (M, 3, 2):
    per-triangle area, P1 basis gradients (M, 3 basis, 2) and the squared
    slope limit 4 / (1 + r^2)^2 at the outermost corner, the part of
    `DiskMesh.fem` that a spacelike margin reads."""
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    grads = np.empty((len(p), 3, 2))
    for k in range(3):
        a = p[:, (k + 1) % 3]
        b = p[:, (k + 2) % 3]
        n = np.stack([a[:, 1] - b[:, 1], b[:, 0] - a[:, 0]], axis=-1)
        grads[:, k] = n / (2 * area)[:, None]
    r2max = (p**2).sum(axis=-1).max(axis=1)
    return area, grads, 4.0 / (1 + r2max) ** 2


def sorted_unique(a):
    """The distinct values of an array, flattened and sorted, as np.unique
    gives them, by one sort and a neighbour mask (np.unique's hash path is
    many times slower on integer keys)."""
    a = np.sort(a, axis=None)
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def ring_radii(radius: float, n_rings: int, n_angular: int) -> np.ndarray:
    """Ring radii by graded steps of the conformal polar coordinate
    zeta = log tanh(rho/2), which keeps the strip cells conformally similar.

    The innermost ring sits at radius/n_rings so refinement shrinks cells
    everywhere; MESH_GRADING < 1 packs the remaining steps toward the
    boundary ring (finer there in the resolution coordinate).
    """
    emax = np.tanh(radius / 2.0)
    e1 = np.tanh(radius / (2.0 * n_rings))
    z0, z1 = np.log(e1), np.log(emax)
    s = np.arange(n_rings, dtype=float) / max(n_rings - 1, 1)
    z = z0 + (z1 - z0) * s**MESH_GRADING
    # clamp the step/angle aspect into a range that keeps strip cells fat
    # (apex and base angles both above the 20-degree audit), preserving the
    # total span
    dtheta = 2 * np.pi / n_angular
    steps = np.diff(z)
    if len(steps):
        lo, hi = 0.35 * dtheta, 1.9 * dtheta
        for _ in range(60):
            clamped = np.clip(steps, lo, hi)
            total = clamped.sum()
            if abs(total - (z1 - z0)) < RING_SPAN_TOL * max(abs(z1 - z0), 1.0):
                steps = clamped
                break
            free = (clamped > lo) & (clamped < hi)
            if not free.any():
                steps = clamped * (z1 - z0) / total
                break
            clamped[free] += ((z1 - z0) - total) / free.sum()
            steps = clamped
        z = np.concatenate([[z0], z0 + np.cumsum(steps)])
        z[-1] = z1
    return 2.0 * np.arctanh(np.exp(z))


def ring_points(rhos, ring, theta):
    """Poincare coordinates of points on rings `ring` (1 = innermost) of
    hyperbolic radii rhos, at angles theta: the vertices of `make_mesh`,
    with its bits, for any subset of them."""
    e = np.tanh(rhos / 2.0)[ring - 1]
    return np.stack([e * np.cos(theta), e * np.sin(theta)], axis=-1)


def make_mesh(radius: float, n_rings: int, n_angular: int) -> DiskMesh:
    """Triangulated disk with 1 + n_rings*n_angular vertices, cells CCW.
    Raises ValueError where too few angles fold the strips over each other
    (up to 11 angles at (3.0, 26); (1.8, 7, 6) covers its disk 1.58 times)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n_rings < 2 or n_angular < 6:
        raise ValueError("degenerate resolution")
    rhos = ring_radii(radius, n_rings, n_angular)
    dtheta = 2 * np.pi / n_angular
    j = np.arange(n_angular)

    ring = np.repeat(np.arange(1, n_rings + 1), n_angular)
    ang = (np.tile(j, n_rings) + 0.5 * (ring % 2)) * dtheta
    vertices = np.concatenate([np.zeros((1, 2)), ring_points(rhos, ring, ang)])
    rho_v = np.concatenate([[0.0], np.repeat(rhos, n_angular)])
    theta_v = np.concatenate([[0.0], ang])
    ring_v = np.concatenate([[0], ring]).astype(np.int32)

    def vid(i, jj):
        return 1 + (i - 1) * n_angular + (jj % n_angular)

    fan = np.stack([np.zeros_like(j), vid(1, j), vid(1, j + 1)], axis=-1)
    # the strip between rings i and i+1 has two cells per angular step,
    # ordered by (i, jj, cell)
    i = np.arange(1, n_rings)[:, None]
    a0, a1 = vid(i, j), vid(i, j + 1)
    b0, b1 = vid(i + 1, j), vid(i + 1, j + 1)
    up = (i % 2 == 1)[..., None]  # ring i+1 is offset +1/2 relative to ring i
    first = np.where(up, np.stack([a0, b0, a1], axis=-1),
                     np.stack([a0, b1, a1], axis=-1))
    second = np.where(up, np.stack([a1, b0, b1], axis=-1),
                      np.stack([a0, b0, b1], axis=-1))
    strips = np.stack([first, second], axis=2).reshape(-1, 3)
    triangles = np.concatenate([fan, strips]).astype(np.int32)

    p = vertices[triangles]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    if np.any(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] <= 0):
        raise ValueError("mesh folds: too few angles for its rings")

    return DiskMesh(
        vertices=vertices,
        triangles=triangles,
        rho=rho_v,
        theta=theta_v,
        ring_index=ring_v,
        ring_rhos=rhos,
        n_rings=n_rings,
        n_angular=n_angular,
        radius=float(radius),
    )


def triangle_angles(mesh: DiskMesh) -> np.ndarray:
    """(M,3) Euclidean corner angles.  Conformality of the Poincare metric
    makes these equal to the hyperbolic angles of the straight cells."""
    p = mesh.vertices[mesh.triangles]
    out = np.empty((len(p), 3))
    for k in range(3):
        a = p[:, (k + 1) % 3] - p[:, k]
        b = p[:, (k + 2) % 3] - p[:, k]
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        out[:, k] = np.arccos(np.clip((a * b).sum(axis=1) / (na * nb), -1, 1))
    return out


def quality_report(mesh: DiskMesh) -> dict:
    """Min angles overall and away from the central fan, in degrees."""
    ang = np.degrees(triangle_angles(mesh))
    fan = (mesh.triangles == 0).any(axis=1)
    return {
        "min_angle_deg": float(ang.min()),
        "min_angle_off_fan_deg": float(ang[~fan].min()),
        "n_triangles": int(len(mesh.triangles)),
        "n_vertices": mesh.n_vertices,
    }


def corner_sum(mesh: DiskMesh, vals):
    """Per vertex, the sum of per-corner values vals (broadcast to (M, 3))
    over the triangle corners at that vertex.  One bincount over the corners
    taken column by column sums in the order of an unbuffered scatter of one
    column at a time, so the sums are bitwise equal to such a loop."""
    t = mesh.triangles
    w = np.broadcast_to(vals, t.shape)
    return np.bincount(t.T.ravel(), weights=w.T.ravel(),
                       minlength=mesh.n_vertices)


def element_dots(g, h):
    """(M, 3, 3) dot products g[m, a] . h[m, b] of per-corner 2-vectors g
    and h, each (M, 3, 2), summed as (g * h).sum(axis=-1) sums them."""
    return (g[:, :, None, 0] * h[:, None, :, 0]
            + g[:, :, None, 1] * h[:, None, :, 1])


def p1_matrix(mesh: DiskMesh, elements):
    """Sparse P1 matrix of the (M, 3, 3) element matrices elements[m, a, b],
    the entry of corners a and b of triangle m.  The COO list runs over
    (a, b) and then over the triangles, and duplicates sum in that order."""
    t = mesh.triangles
    shape = (3, 3, len(t))
    rows = np.broadcast_to(t.T[:, None], shape).ravel()
    cols = np.broadcast_to(t.T[None], shape).ravel()
    n = mesh.n_vertices
    return sp.coo_matrix(
        (elements.transpose(1, 2, 0).ravel(), (rows, cols)), shape=(n, n),
    ).tocsr()


def vertex_blocks(ptr):
    """Blocks of consecutive rows of a CSR pattern with row pointers ptr,
    cut where the row of every PAIR_BLOCK-th entry starts, so that a block
    holds at most PAIR_BLOCK entries plus those of one row.  Yields
    (v0, v1, lo, hi): the block's rows v0:v1 and their entries lo:hi.  Per
    row, a bincount over a block's entries sums in the order of one over
    the whole list."""
    cuts = np.searchsorted(ptr, np.arange(0, ptr[-1], PAIR_BLOCK),
                           side="right") - 1
    bounds = np.unique(np.concatenate([[0], cuts, [len(ptr) - 1]]))
    return zip(bounds, bounds[1:], ptr[bounds], ptr[bounds[1:]])


def two_ring(mesh: DiskMesh):
    """CSR pattern (indptr, indices) of each vertex's 2-ring stencil: the
    vertex itself, its neighbours and theirs, in the order of the sparse
    product A + A A of the adjacency A (rows in order, columns not
    sorted)."""
    e = vertex_neighbors(mesh)
    n = mesh.n_vertices
    # boolean entries add as `or`, so no path count overflows or cancels
    A = sp.csr_matrix((np.ones(len(e), dtype=bool), (e[:, 0], e[:, 1])),
                      shape=(n, n))
    A2 = A + A @ A
    return A2.indptr, A2.indices


def fit_map(mesh: DiskMesh, n_derivs):
    """The first `n_derivs` of (du1, du2, u11, u12, u22) of the weighted
    cubic fit over each interior vertex's 2-ring (`deep_interior_mask(0)`),
    as a linear map of the vertex values: a MappingProxyType with CSR
    "indptr" and "indices" (int32) and "data" (n_derivs, nnz), read-only.
    Rim rows, whose one-sided stencils are ill-conditioned, are empty.

    Offsets x to the 2-ring are scaled by the mean stencil length s and
    weighted by w = 1/(1+|x|^2).  The normal matrix ATA[a, b] = sum w
    x^(e_a + e_b) over the stencil, plus FIT_RIDGE on the diagonal, is
    solved once per vertex for the rows Z of the derivatives, the gradient's
    two apart from the others.  The coefficient of a stencil vertex k is
    sum_a Z[a] w x_k^e_a, summed over the nine basis terms in a fixed order,
    and the vertex's own coefficient is minus the sum of the others.  So a
    row's bits depend neither on the blocks (`vertex_blocks`) nor on
    n_derivs.  The arrays are preallocated and filled block by block, so no
    per-entry array outlives its block.
    """
    n = mesh.n_vertices
    inner = mesh.deep_interior_mask(0)
    ptr2, cols2 = two_ring(mesh)
    lens = np.diff(ptr2)
    counts = np.where(inner, lens, 0)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty((n_derivs, indptr[-1]))
    shift = indptr[:-1] - ptr2[:-1]   # where an interior row moves to
    yt = mesh.vertices.T.copy()
    for v0, v1, lo, hi in vertex_blocks(ptr2):
        # every row of the block, rim rows too (they are not written), so
        # that each row's entries are one run
        v = np.repeat(np.arange(v0, v1), lens[v0:v1])
        k = cols2[lo:hi]
        coef = _fit_coefficients(yt.take(k, axis=1) - yt.take(v, axis=1),
                                 lens[v0:v1], n_derivs)
        at = np.arange(lo, hi) + shift[v]
        keep = inner[v]
        if not keep.all():
            at, k, coef = at[keep], k[keep], coef[:, keep]
        indices[at] = k
        data[:, at] = coef
    return MappingProxyType({"indptr": _read_only(indptr),
                             "indices": _read_only(indices),
                             "data": _read_only(data)})


def _fit_coefficients(x, lens, n_derivs):
    """(n_derivs, P) coefficients of `fit_map` over the offsets x (2, P) of
    consecutive stencils of lens[j] entries each, a stencil's own vertex
    among them at x = 0.  That entry adds 0 to every sum below and gets the
    coefficient 0 from the basis, then minus the sum of the others."""
    seg = np.concatenate([[0], np.cumsum(lens[:-1])])
    s = np.add.reduceat(np.sqrt(x[0] * x[0] + x[1] * x[1]), seg) / (lens - 1)
    x /= np.repeat(s, lens)
    powers = weighted_powers(x, _POWER_DEGREE)
    ATA = np.add.reduceat(powers, seg, axis=1).T[:, _ATA_ROWS]
    eye = np.eye(len(_FIT_EXP))
    ATA += FIT_RIDGE * eye
    # right-hand sides with the batch axis spelled out, so that every numpy
    # reads them as a stack of matrices
    rhs = np.broadcast_to(eye, ATA.shape)
    Z = np.linalg.solve(ATA, rhs[..., :2])
    if n_derivs > 2:
        Z = np.concatenate(
            [Z, np.linalg.solve(ATA, rhs[..., 2:n_derivs])], axis=-1)
    factor, power = np.array(_FIT_DERIVS[:n_derivs]).T
    Z *= (factor / s[:, None] ** power)[:, None]
    # per entry, the fixed-order sum over the basis terms
    coef = np.zeros((n_derivs, x.shape[1]))
    for a, row in enumerate(_BASIS_ROWS):
        coef += np.repeat(Z[:, a].T, lens, axis=1) * powers[row]
    own = np.flatnonzero((x[0] == 0.0) & (x[1] == 0.0))
    coef[:, own] = -np.add.reduceat(coef, seg, axis=1)
    return coef


def apply_map(vmap, u):
    """(N, rows) values of a vertex map (`fit_map`) at vertex values u: one
    CSR mat-vec per data row."""
    shape = (len(vmap["indptr"]) - 1, len(u))
    return np.stack([sp.csr_matrix((d, vmap["indices"], vmap["indptr"]),
                                   shape=shape) @ u
                     for d in vmap["data"]], axis=-1)


def weighted_powers(x, degree):
    """Table of w x1^p x2^q over offsets x (2, P), w = 1 / (1 + |x|^2), one
    row per exponent with p + q <= degree, p running outer and q inner from
    (0, 0).  Each row is the one before it times x2, or for q = 0 the row
    (p - 1, 0) times x1."""
    out = np.empty(((degree + 1) * (degree + 2) // 2, x.shape[1]))
    np.divide(1.0, 1.0 + (x[0] * x[0] + x[1] * x[1]), out=out[0])
    j = 0
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            if q:
                np.multiply(out[j - 1], x[1], out=out[j])
            elif p:
                np.multiply(out[j - (degree + 2 - p)], x[0], out=out[j])
            j += 1
    return out


def vertex_neighbors(mesh: DiskMesh):
    """Directed edge list (i, k): every triangle edge both ways."""
    return mesh.edges


def neighbor_average(mesh: DiskMesh, u):
    """Per vertex, the mean of u over its mesh neighbours."""
    e = vertex_neighbors(mesh)
    acc = np.bincount(e[:, 0], weights=u[e[:, 1]], minlength=mesh.n_vertices)
    return acc / mesh.neighbor_count


def interpolate_polar(mesh: DiskMesh, values, rho_t, theta_t):
    """Interpolate vertex data to target polar points.

    Piecewise-bilinear on the (ring, angle) structure: periodic linear in
    angle along each ring, then linear between rings; constant to the center.
    """
    values = np.asarray(values, dtype=float)
    rho_t = np.atleast_1d(np.asarray(rho_t, dtype=float))
    theta_t = np.atleast_1d(np.asarray(theta_t, dtype=float))
    rhos = np.concatenate([[0.0], mesh.ring_rhos])

    def ring_value(i, th):
        if i == 0:
            return np.full_like(th, values[0])
        sl = mesh.ring_slice(i)
        ang = mesh.theta[sl]
        val = values[sl]
        # periodic linear interpolation
        ang_ext = np.concatenate([ang, [ang[0] + 2 * np.pi]])
        val_ext = np.concatenate([val, [val[0]]])
        q = np.mod(th - ang_ext[0], 2 * np.pi) + ang_ext[0]
        return np.interp(q, ang_ext, val_ext)

    rq = np.clip(rho_t, 0.0, rhos[-1])
    idx = np.clip(np.searchsorted(rhos, rq, side="right") - 1, 0, mesh.n_rings - 1)
    out = np.empty_like(rq)
    for i in np.unique(idx):
        sel = idx == i
        r0, r1 = rhos[i], rhos[i + 1]
        w = (rq[sel] - r0) / (r1 - r0)
        v0 = ring_value(i, theta_t[sel])
        v1 = ring_value(i + 1, theta_t[sel])
        out[sel] = (1 - w) * v0 + w * v1
    return out
