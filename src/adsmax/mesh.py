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

from .constants import MESH_GRADING, PAIR_BLOCK, RING_SPAN_TOL

# exponents (p, q) of the stencil moments sum w x1^p x2^q that
# `DiskMesh.fit_moments` holds: every degree 2 to 6, as the normal equations
# of a cubic fit read them, in the order `weighted_powers` makes them
_MOMENT_DEGREE = 6
MOMENT_EXP = tuple((p, q) for p in range(_MOMENT_DEGREE + 1)
                   for q in range(_MOMENT_DEGREE + 1 - p) if p + q >= 2)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DiskMesh:
    """A triangulated disk.  Data derived from the mesh alone is computed
    on first use and cached on the instance, read-only, so it lives exactly
    as long as the mesh: the edges and neighbour counts, the 2-ring pairs,
    the P1 geometry `fem`, the cubic fit's stencil scales and moments
    `fit_moments` (per vertex, no per-pair array), and the factored start
    fill `strip_fill`."""

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
    def two_ring_pairs(self) -> np.ndarray:
        """COO pairs (i, k) with k in the 2-ring neighborhood of i (k != i),
        sorted by i."""
        e = vertex_neighbors(self)
        n = self.n_vertices
        A = sp.coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])),
                          shape=(n, n)).tocsr()
        A2 = (A + A @ A).tocoo()
        keep = A2.row != A2.col
        return _read_only(np.stack([A2.row[keep], A2.col[keep]], axis=-1))

    @cached_property
    def strip_fill(self):
        """Map from values on `rim_strip` to the P1 solution of
        div(phi^2 grad u) = 0 off the strip with those Dirichlet values.
        This is the maximal equation linearised at u = 0: the matrix is the
        tangent stiffness at the zero graph, entry for entry.  Its off-strip
        block is factored once per mesh (fill-reducing order on A^T + A, as
        the Newton solves take it)."""
        g = self.fem
        c1 = (g["phiq"] ** 2).sum(axis=1) / 3.0
        grads = g["grads"]
        K = p1_matrix(self, g["area"][:, None, None] * (
            c1[:, None, None] * element_dots(grads, grads)))
        strip = self.rim_strip
        off = K[~strip]
        lu = spla.splu(off[:, ~strip].tocsc(), permc_spec="MMD_AT_PLUS_A")
        coupling = off[:, strip]
        return lambda u_strip: lu.solve(-(coupling @ u_strip))

    @cached_property
    def fit_moments(self) -> MappingProxyType:
        """The mesh-only half of `surface.fit_derivatives`' normal
        equations, per interior vertex v (`deep_interior_mask(0)`): "scale",
        the mean length s of its 2-ring offsets, and "moments", the sums
        sum w x1^p x2^q over its 2-ring pairs in `MOMENT_EXP` order, with
        x = (y_k - y_v) / s and w = 1 / (1 + |x|^2).  Built block by block
        (`stencil_blocks`), so no per-pair array outlives its block."""
        n = np.count_nonzero(self.deep_interior_mask(0))
        scale = np.empty(n)
        moments = np.empty((n, len(MOMENT_EXP)))
        col = {e: a for a, e in enumerate(MOMENT_EXP)}
        for rows, i, _, x in stencil_blocks(self):
            nb = rows.stop - rows.start
            cnt = np.bincount(i, minlength=nb)
            s = np.bincount(i, np.linalg.norm(x, axis=1), minlength=nb)
            s = s / np.maximum(cnt, 1.0)
            scale[rows] = s
            x /= s[i, None]
            for e, wx in weighted_powers(x, _MOMENT_DEGREE):
                if e in col:
                    moments[rows, col[e]] = np.bincount(i, wx, minlength=nb)
        return MappingProxyType({"scale": _read_only(scale),
                                 "moments": _read_only(moments)})

    @cached_property
    def fem(self) -> MappingProxyType:
        """P1 geometry reused by every assembly over the mesh: per-triangle
        area, basis gradients, midpoint-quadrature weights and slope limit,
        and the lumped mass m_i = integral phi lambda^2 N_i."""
        p = self.vertices[self.triangles]  # (M,3,2)
        area, grads, slope_limit2 = p1_slopes(p)
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
            self, (w.sum(axis=1)[:, None] - w) * 0.5 * area[:, None] / 3.0)
        geom = dict(
            area=area, grads=grads, wq=wq, phiq=phiq, lam2q=lam2q,
            slope_limit2=slope_limit2, mass=mass,
        )
        return MappingProxyType({k: _read_only(v) for k, v in geom.items()})


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


def make_mesh(radius: float, n_rings: int, n_angular: int) -> DiskMesh:
    """Triangulated disk with 1 + n_rings*n_angular vertices."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n_rings < 2 or n_angular < 6:
        raise ValueError("degenerate resolution")
    rhos = ring_radii(radius, n_rings, n_angular)
    dtheta = 2 * np.pi / n_angular
    j = np.arange(n_angular)

    ring = np.repeat(np.arange(1, n_rings + 1), n_angular)
    ang = (np.tile(j, n_rings) + 0.5 * (ring % 2)) * dtheta
    e = np.repeat(np.tanh(rhos / 2.0), n_angular)
    ring_pts = np.stack([e * np.cos(ang), e * np.sin(ang)], axis=-1)
    vertices = np.concatenate([np.zeros((1, 2)), ring_pts])
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
    first = np.where(up, np.stack([a0, a1, b0], axis=-1),
                     np.stack([a0, a1, b1], axis=-1))
    second = np.where(up, np.stack([a1, b1, b0], axis=-1),
                      np.stack([a0, b1, b0], axis=-1))
    strips = np.stack([first, second], axis=2).reshape(-1, 3)
    triangles = np.concatenate([fan, strips]).astype(np.int32)

    # enforce CCW orientation
    p = vertices[triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    flip = area2 < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]

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


def vertex_blocks(mesh: DiskMesh, first):
    """Blocks of consecutive vertices over a pair list sorted by its first
    vertices `first`, cut where the vertex of every PAIR_BLOCK-th pair
    starts, so that a block holds at most PAIR_BLOCK pairs plus those of
    one vertex.  Yields (v0, v1, lo, hi): the block's vertices v0:v1 and
    the pairs lo:hi whose first vertex lies in it.  Per vertex, a bincount
    over a block's pairs sums in the order of one over the whole list."""
    n = mesh.n_vertices
    # needles of the list's dtype, so that the search makes no converted copy
    ptr = np.searchsorted(first, np.arange(n + 1, dtype=first.dtype))
    cuts = np.searchsorted(ptr, np.arange(0, len(first), PAIR_BLOCK),
                           side="right") - 1
    bounds = np.unique(np.concatenate([[0], cuts, [n]]))
    return zip(bounds, bounds[1:], ptr[bounds], ptr[bounds[1:]])


def stencil_blocks(mesh: DiskMesh):
    """The 2-ring stencils of the interior vertices (`deep_interior_mask(0)`),
    block by block (`vertex_blocks`).  Per block, yields (rows, i, k, x):
    the slice of the block's rows among the interior vertices and, for each
    pair (v, k) of `two_ring_pairs` with v interior and in the block, in
    that list's order, the row i of v within the block, k and the offset
    x = y_k - y_v.  The pairs are sorted by v, so every vertex of a block
    has its pairs whole and in order there."""
    inner = mesh.deep_interior_mask(0)
    row = np.cumsum(inner) - 1   # row of each vertex among the interior ones
    pairs = mesh.two_ring_pairs
    y = mesh.vertices
    for v0, v1, lo, hi in vertex_blocks(mesh, pairs[:, 0]):
        first, last = row[v0] + (not inner[v0]), row[v1 - 1] + 1
        if last == first:
            continue
        v, k = pairs[lo:hi].T
        keep = inner[v]
        v, k = v[keep], k[keep]
        # take gathers rows several times faster than fancy indexing
        yield (slice(first, last), row[v] - first, k,
               y.take(k, axis=0) - y.take(v, axis=0))


def weighted_powers(x, degree):
    """Yields ((p, q), w x1^p x2^q) for p + q <= degree over offsets x (P, 2),
    w = 1 / (1 + |x|^2), p running outer and q inner.  Running products
    keep only a few per-pair arrays alive."""
    w = 1.0 / (1.0 + (x**2).sum(axis=1))
    for p in range(degree + 1):
        wp = wp * x[:, 0] if p else w   # w x1^p
        wpq = wp                        # w x1^p x2^q
        for q in range(degree + 1 - p):
            if q:
                x2q = x2q * x[:, 1] if q > 1 else x[:, 1]
                wpq = wp * x2q
            yield (p, q), wpq


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
