"""Convex hulls of boundary curves in the projective chart and the width.

The curve is recentered in time (midrange of tau to 0) so its image stays
away from the chart poles, then hulled with qhull in the affine chart where
convexity agrees with the geodesic convexity of the quadric.  Facets split
into past / future / vertical by the time component of the outward normal.
The width is the supremum of timelike separation between the past and the
future boundary.  Facets are ideal triangles, so that sup lies on a pair of
edges, whole spacelike geodesics between curve samples, where it has a closed
form in the quadric model (see `width`).  The samples sit in one cyclic order
on both ruling circles, so only edge pairs whose index chords cross can reach
that sup: an edge between adjacent samples crosses none and is not searched.

The dense kernels run HULL_BLOCK_ROWS rows at a time.  The facet margins
of many points take their products and minima block by block into a reused
buffer, so no (points x facets) table is built.  The width search takes its
Gram products, values and least causal pair block by block of past edges,
so no (past edges x future edges) table is built either (see `width`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull as QHull
from scipy.spatial import QhullError

from . import lorentz as L
from .boundary import BoundaryCurve
from .constants import (
    HULL_BLOCK_ROWS, POLE_MARGIN, VERTICAL_FACET_TOL)
from .mesh import DiskMesh, sorted_unique


@dataclass(frozen=True)
class ConvexHull3:
    curve: BoundaryCurve
    t_shift: float                 # time translation applied before hulling
    points: np.ndarray             # (K,3) chart samples (recentered frame)
    planar: bool
    equations: np.ndarray          # (F,4): a.z + b <= 0 inside; planar: p, -p
    simplices: np.ndarray | None   # (F,3) indices into points
    labels: np.ndarray | None      # (F,): -1 past, 0 vertical, +1 future

    def facet_margins(self, z):
        """Signed distances of chart point(s) z to the nearest facet plane
        (positive inside); planar hulls measure in-plane margins minus the
        off-plane deviation."""
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if self.planar:
            c = self.points.mean(axis=0)
            q = self.points - c
            _, _, vt = np.linalg.svd(q, full_matrices=False)
            b1, b2, nrm = vt[0], vt[1], vt[2]
            zz = z - c
            off = np.abs(zz @ nrm)
            uv = np.stack([zz @ b1, zz @ b2], axis=-1)
            flat = np.stack([q @ b1, q @ b2], axis=-1)
            return _least_margins(uv, QHull(flat).equations) - off
        return _least_margins(z, self.equations)


def _least_margins(x, eq):
    """Least signed distance -(a.x + b) / |a| of each point x (N, d) over
    the half-spaces a.x + b <= 0 in the rows of eq (F, d + 1).  Rows of x
    run HULL_BLOCK_ROWS at a time, so no (N, F) table is built."""
    a = eq[:, :-1]
    neg_norm = -np.linalg.norm(a, axis=1)
    out = np.empty(len(x))
    buf = np.empty((min(HULL_BLOCK_ROWS, len(x)), len(eq)))
    for lo in range(0, len(x), HULL_BLOCK_ROWS):
        xb = x[lo:lo + HULL_BLOCK_ROWS]
        m = np.matmul(xb, a.T, out=buf[:len(xb)])
        m += eq[:, -1]
        m /= neg_norm
        m.min(axis=1, out=out[lo:lo + HULL_BLOCK_ROWS])
    return out


def _recentered_samples(curve: BoundaryCurve):
    t0 = 0.5 * (curve.tau.max() + curve.tau.min())
    tau = curve.tau - t0
    if np.abs(tau).max() >= np.pi / 2 - POLE_MARGIN:
        raise ValueError("curve reaches the chart poles even after recentering")
    return t0, L.quadric_to_projective(L.null_from_angles(curve.theta, tau))


def convex_hull(curve: BoundaryCurve) -> ConvexHull3:
    """Hull of the projective images of the curve samples, as given.

    An isometry acts on the chart as a projective map, so it carries this
    hull onto the hull of the image samples, and `width` is exact on any
    hull: isometric copies get equal widths however unevenly they are
    sampled.  Totally geodesic boundary data (Mobius curves) degenerates
    to a planar hull, flagged rather than rejected.
    """
    t0, z = _recentered_samples(curve)
    try:
        q = None if curve.is_planar() else QHull(z)
    except QhullError:  # nearly planar input
        q = None
    if q is None:  # the least-squares plane, as two half-spaces
        A = np.column_stack([z, np.ones(len(z))])
        p = np.linalg.svd(A, full_matrices=False)[2][-1]
        return ConvexHull3(curve, t0, z, True, np.stack([p, -p]), None, None)
    nt = q.equations[:, 2]
    labels = np.where(
        np.abs(nt) <= VERTICAL_FACET_TOL, 0, np.where(nt > 0, 1, -1)
    ).astype(np.int8)
    return ConvexHull3(curve, t0, z, False, q.equations, q.simplices, labels)


@dataclass(frozen=True)
class WidthReport:
    width: float                  # clamped at pi/2
    width_raw: float              # unclamped value
    argmax_past: np.ndarray       # quadric point on the past boundary
    argmax_future: np.ndarray     # quadric point on the future boundary


def _edges(hull: ConvexHull3, label: int):
    """(2, E) sample indices of the edges of the facets with the given label,
    each edge once, in lexicographic order: edge (a, b), a < b, is the
    key a n + b."""
    t = np.sort(hull.simplices[hull.labels == label], axis=1).T.astype(np.int64)
    n = len(hull.points)
    return np.array(np.divmod(sorted_unique(t[[0, 1, 0]] * n + t[[1, 2, 2]]),
                              n))


def _edge_point(z, p, q, s):
    """Chart point at parameter s of the hull edge between samples p and q:
    the quadric geodesic through e^s P_p + e^-s P_q, P = (z1, z2, 1, z3)."""
    th = np.tanh(s)[..., None]
    return 0.5 * ((1 + th) * z[p] + (1 - th) * z[q])


def width(hull: ConvexHull3) -> WidthReport:
    """Sup of timelike separation between past and future hull boundaries.

    Facets are ideal triangles, and inside a pair of spacelike facets the
    separation has only the common-normal saddle, so the sup over the pair
    lies on an edge of each.  An edge is the whole geodesic
    x(s) = (e^s p + e^-s q) / sqrt(2 G(p, q)) between two null samples, with
    G(p, q) = -<p, q>.  For a past edge (p1, q1) and a future edge (p2, q2),
    -<x(s), y(r)> is convex in (s, r) with minimum

        (sqrt(A D) + sqrt(B C)) / sqrt(G(p1, q1) G(p2, q2)),

    A = G(p1, p2), B = G(p1, q2), C = G(q1, p2), D = G(q1, q2), attained at
    e^{2(s+r)} = D/A and e^{2(s-r)} = C/B.  The width is the arccos of the
    least such value over the edge pairs whose minimisers are timelike and in
    causal order (chart time is a time function).

    Only edges whose index chords can cross are searched.  For null samples
    G(p, q) = 2 sin(dxi/2) sin(deta/2) in the ruling coordinates, and the
    value is unchanged when a sample is rescaled, so it equals
    sqrt(X_xi X_eta) + sqrt(X'_xi X'_eta).  On one ruling circle, with
    c(p, q) = |sin(d/2)| the chord of the samples p and q,
    X = c(p1, p2) c(q1, q2) / (c(p1, q1) c(p2, q2)), and X' is X with p2 and
    q2 swapped.  By Ptolemy's theorem X + X' = 1 where the chords (p1, q1)
    and (p2, q2) cross, and |X - X'| = 1 where they do not.  Both xi and eta
    are monotone along the curve, so the samples sit in one cyclic order on
    both circles, and a pair of chords that do not cross has value >= 1,
    with equality only when they share a sample.  (Round-off can put such a
    value a little below 1, by up to 1e-10 on the test hulls; only widths
    below about 1e-5 come that near 1.)  An edge between cyclically
    adjacent samples, q = p + 1 or the edge (0, n - 1), crosses no chord, so
    it is dropped with the edges whose G is not positive: at 512 samples
    that is 512 of 1,021 edges a side, three quarters of the pairs.

    The search runs over HULL_BLOCK_ROWS searched past edges at a time
    against every searched future edge, in buffers reused from block to
    block, so no (past x future) table is built.  A block's value is inf
    where a coefficient is not positive or where it is not below the least
    causal value found so far (at most 1).  The block's least value is then
    tested first, its tied pairs in row-major order: the first causal one
    is the new best.  If none is causal, every finite value of the block is
    tested for causal order in one pass, and the least causal one, the
    first of its ties in row-major order, is the new best; so a block costs
    two tests however many of its least values run from future to past.
    Later blocks keep only strictly lower values, so ties go to the first
    pair in row-major order, as in one pass over all searched pairs.
    """
    zero = np.zeros(4)
    empty = WidthReport(0.0, 0.0, zero, zero)
    if hull.planar:
        return empty
    z = hull.points
    P = np.column_stack([z[:, 0], z[:, 1], np.ones(len(z)), z[:, 2]])
    Q = -P * L.SIGNATURE

    def searched(p, q):
        # G of an edge between lightlike-related samples (two_step) is 0 up
        # to round-off and can come out negative: such edges are not
        # spacelike.  Edges between adjacent samples cross no chord.
        g = (Q[p] * P[q]).sum(axis=1)
        keep = (g > 0) & (q - p > 1) & (q - p < len(z) - 1)
        return p[keep], q[keep], g[keep]

    (p1, q1, g1), (p2, q2, g2) = (searched(*_edges(hull, label))
                                  for label in (-1, 1))
    Pp2, Pq2 = P[p2].T, P[q2].T
    ends = ((p1, Pp2), (p1, Pq2), (q1, Pp2), (q1, Pq2))  # A, B, C, D
    # A, B, C, D, cos and scratch, each (rows, future edges)
    bufs = np.empty((6, min(HULL_BLOCK_ROWS, len(p1)), len(p2)))
    keep = np.empty(bufs.shape[1:], dtype=bool)
    best, found = 1.0, None
    for lo in range(0, len(p1), HULL_BLOCK_ROWS):
        b = slice(lo, lo + HULL_BLOCK_ROWS)
        *gram, cos, t = bufs[:, :len(p1[b])]
        kb = keep[:len(cos)]
        for X, (u, v) in zip(gram, ends):
            np.matmul(Q[u[b]], v, out=X)
        A, B_, C, D = gram
        np.greater(A, 0.0, out=kb)
        for X in (B_, C, D):
            kb &= X > 0
        with np.errstate(invalid="ignore"):  # NaN only where kb fails
            np.sqrt(np.multiply(A, D, out=cos), out=cos)
            cos += np.sqrt(np.multiply(B_, C, out=t), out=t)
            cos /= np.sqrt(np.multiply(g1[b, None], g2, out=t), out=t)
        kb &= cos < best
        np.copyto(cos, np.inf, where=~kb)
        flat = cos.ravel()
        least = flat.min(initial=np.inf)
        if not least < best:
            continue
        # the least value's pairs first, then, if none is causal, every
        # pair of the block below best in one pass
        for mask in (flat == least, kb):
            cand = np.flatnonzero(mask)
            i, j = np.divmod(cand, len(p2))
            lA, lB, lC, lD = (np.log(X.ravel()[cand]) for X in gram)
            s = 0.25 * (lC + lD - lA - lB)
            r = 0.25 * (lB + lD - lA - lC)
            t_past = _edge_point(z[:, 2:], p1[lo + i], q1[lo + i], s)[:, 0]
            t_future = _edge_point(z[:, 2:], p2[j], q2[j], r)[:, 0]
            ok = np.flatnonzero(t_future > t_past)
            if len(ok):
                # the least causal value; argmin takes the first of its ties
                k = ok[np.argmin(flat[cand[ok]])]
                best, found = flat[cand[k]], (lo + i[k], j[k], s[k], r[k])
                break
    if found is None:
        return empty
    i, j, s, r = found
    raw = float(np.arccos(best))

    def point(p, q, s):  # back from the recentered frame
        x = L.projective_to_quadric(_edge_point(z, p, q, s))
        return L.apply_isometry(L.time_translation(hull.t_shift), x)

    return WidthReport(
        width=min(raw, np.pi / 2),
        width_raw=raw,
        argmax_past=point(p1[i], q1[i], s),
        argmax_future=point(p2[j], q2[j], r),
    )


def graph_margins(hull: ConvexHull3, y, t):
    """Facet margins of the points (y, t) over the disk points y, shape
    (N, 2), at times t (original time frame), vectorized."""
    q = L.cyl_to_quadric(y, np.asarray(t, float) - hull.t_shift)
    z = L.quadric_to_projective(q)
    return hull.facet_margins(z)


def hull_heights(hull: ConvexHull3, y):
    """Heights (t_lo, t_hi) of the hull boundaries over the disk points y,
    shape (N, 2) (original time frame).  Planar hulls return the plane
    height twice.

    The vertical (Killing) line over a disk point is the chart curve
    (k sec t, tan t) with k the Klein coordinates, so a facet a.z + b <= 0
    becomes c + R sin(t + phi) <= 0 with c = a12.k, R = hypot(a3, b) and
    phi = atan2(b, a3).  Where s = -c/R < 1, the up-crossing root
    asin(s) - phi bounds t from above and pi - asin(s) - phi from below,
    wrapped into [-pi, pi); roots with |t| >= pi/2 do not bind.

    The wrap needs no float modulo.  With asin(s) in [-pi/2, pi/2] and phi
    in [-pi, pi], an up root + pi lies in [-pi/2, 5pi/2]: outside [0, 2pi)
    both (root + pi) - pi and its wrap have |t| >= pi/2.  A down root + pi
    lies in [pi/2, 7pi/2], and where it is >= 2pi, subtracting 2pi is exact
    (Sterbenz), so it is the remainder.  Elementwise work runs on blocks of
    HULL_BLOCK_ROWS points, which stay in cache.
    """
    h = L.poincare_to_hyperboloid(y)
    k = h[:, :2] / h[:, 2:3]  # Klein coordinates
    eq = hull.equations
    phi = np.arctan2(eq[:, 3], eq[:, 2])
    neg_r = -np.hypot(eq[:, 2], eq[:, 3])
    c = k @ eq[:, :2].T  # (N,F); one product, as BLAS bits depend on the rows
    t_lo, t_hi = np.empty(len(k)), np.empty(len(k))
    for blk in range(0, len(k), HULL_BLOCK_ROWS):
        s = c[blk:blk + HULL_BLOCK_ROWS] / neg_r
        miss = s >= 1.0
        asn = np.arcsin(np.clip(s, -1.0, 1.0, out=s), out=s)
        up = asn - phi + np.pi
        down = np.pi - asn - phi + np.pi
        down[down >= 2 * np.pi] -= 2 * np.pi
        for t, edge, out, pick in ((up, np.pi / 2, t_hi, np.min),
                                   (down, -np.pi / 2, t_lo, np.max)):
            t -= np.pi
            t[miss | (np.abs(t) >= np.pi / 2)] = edge
            pick(t, axis=1, out=out[blk:blk + HULL_BLOCK_ROWS])
    return t_lo + hull.t_shift, t_hi + hull.t_shift


def dod_envelopes(curve: BoundaryCurve, mesh: DiskMesh):
    """Boundary envelopes (u_minus, u_plus) of the domain of dependence.

    u_plus(x) = min over curve samples of the future-lightcone height of the
    sample over x, and symmetrically for u_minus; the hull lies between them.
    """
    h = L.poincare_to_hyperboloid(mesh.vertices)
    c = (np.outer(h[:, 0], np.cos(curve.theta))
         + np.outer(h[:, 1], np.sin(curve.theta))) / h[:, 2:3]
    arc = np.arccos(np.clip(c, -1.0, 1.0))
    u_plus = (curve.tau[None, :] + arc).min(axis=1)
    u_minus = (curve.tau[None, :] - arc).max(axis=1)
    return u_minus, u_plus
