"""Convex hulls of boundary curves in the projective chart and the width.

The curve is recentered in time (midrange of tau to 0) so its image stays
away from the chart poles, then hulled with qhull in the affine chart where
convexity agrees with the geodesic convexity of the quadric.  Facets split
into past / future / vertical by the time component of the outward normal.
The width is the supremum of timelike separation between the past and the
future boundary.  Facets are ideal triangles, so that sup lies on a pair of
edges, whole spacelike geodesics between curve samples, where it has a closed
form in the quadric model (see `width`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull as QHull
from scipy.spatial import QhullError

from . import lorentz as L
from .boundary import BoundaryCurve
from .constants import (
    HULL_FACET_TOL,
    REGULARITY_CHART_DEPTH,
    REGULARITY_LEVEL,
    REGULARITY_REFINE,
    RESAMPLE_SPACING_RATIO,
    VERTICAL_FACET_TOL,
)
from .mesh import DiskMesh, neighbor_average


@dataclass(frozen=True)
class ConvexHull3:
    curve: BoundaryCurve
    t_shift: float                 # time translation applied before hulling
    points: np.ndarray             # (K,3) chart samples (recentered frame)
    planar: bool
    equations: np.ndarray | None   # (F,4): a.z + b <= 0 inside
    simplices: np.ndarray | None   # (F,3) indices into points
    labels: np.ndarray | None      # (F,): -1 past, 0 vertical, +1 future

    def facet_margins(self, z):
        """Signed distances of chart point(s) z to all facet planes
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
            hull2 = QHull(flat)
            m2 = -(uv @ hull2.equations[:, :2].T + hull2.equations[:, 2])
            m2 /= np.linalg.norm(hull2.equations[:, :2], axis=1)
            return m2.min(axis=1) - off
        a = self.equations[:, :3]
        b = self.equations[:, 3]
        m = -(z @ a.T + b) / np.linalg.norm(a, axis=1)
        return m.min(axis=1)


def _recentered_samples(curve: BoundaryCurve):
    t0 = 0.5 * (curve.tau.max() + curve.tau.min())
    tau = curve.tau - t0
    if np.abs(tau).max() >= np.pi / 2 - 1e-12:
        raise ValueError("curve reaches the chart poles even after recentering")
    v = L.null_from_angles(curve.theta, tau)
    z = np.stack([v[:, 0] / v[:, 2], v[:, 1] / v[:, 2], v[:, 3] / v[:, 2]],
                 axis=-1)
    return t0, z


def convex_hull(curve: BoundaryCurve) -> ConvexHull3:
    """Hull of the projective images of the curve samples.

    Totally geodesic boundary data (Mobius curves) degenerates to a planar
    hull, flagged rather than rejected, and is tested as given: resampling
    moves it off its plane.  Other curves with strongly uneven parameter
    spacing (images under boosts) are resampled uniformly first, so the
    facet geometry stays comparable across isometric copies.
    """
    planar = curve.is_planar()
    dth = np.diff(np.concatenate([curve.theta, [curve.theta[0] + 2 * np.pi]]))
    if not planar and dth.max() > RESAMPLE_SPACING_RATIO * dth.min():
        curve = curve.resample(len(curve.theta))
    t0, z = _recentered_samples(curve)
    if planar:
        return ConvexHull3(curve, t0, z, True, None, None, None)
    try:
        q = QHull(z)
    except QhullError as exc:  # nearly planar input
        return ConvexHull3(curve, t0, z, True, None, None, None)
    nt = q.equations[:, 2]
    labels = np.where(
        np.abs(nt) <= VERTICAL_FACET_TOL, 0, np.where(nt > 0, 1, -1)
    ).astype(np.int8)
    return ConvexHull3(curve, t0, z, False, q.equations, q.simplices, labels)


def hull_is_convex(hull: ConvexHull3) -> bool:
    if hull.planar:
        return True
    a = hull.equations[:, :3]
    b = hull.equations[:, 3]
    return bool((hull.points @ a.T + b).max() <= HULL_FACET_TOL)


def _facet_samples(hull: ConvexHull3, label: int, level: int):
    """Barycentric grid samples on facets with the given label."""
    sel = np.where(hull.labels == label)[0]
    tris = hull.points[hull.simplices[sel]]
    bary = []
    for i in range(level + 1):
        for j in range(level + 1 - i):
            bary.append((i, j, level - i - j))
    bary = np.asarray(bary, dtype=float) / level
    return np.einsum("bk,fkd->fbd", bary, tris).reshape(-1, 3)


@dataclass(frozen=True)
class WidthReport:
    width: float                  # clamped at pi/2
    width_raw: float              # unclamped value
    argmax_past: np.ndarray       # quadric point on the past boundary
    argmax_future: np.ndarray     # quadric point on the future boundary


def _edges(hull: ConvexHull3, label: int):
    """(2, E) sample indices of the edges of the facets with the given label,
    each edge once."""
    tri = hull.simplices[hull.labels == label]
    e = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]])
    return np.unique(np.sort(e, axis=1), axis=0).T


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
    causal order (chart time is a time function).  A pair sharing a sample
    has a vanishing coefficient and its separation tends to 0; it is skipped.
    """
    zero = np.zeros(4)
    empty = WidthReport(0.0, 0.0, zero, zero)
    if hull.planar:
        return empty
    z = hull.points
    P = np.column_stack([z[:, 0], z[:, 1], np.ones(len(z)), z[:, 2]])
    Q = -P * L.SIGNATURE
    (p1, q1), (p2, q2) = _edges(hull, -1), _edges(hull, 1)
    # G of an edge between lightlike-related samples (two_step) is 0 up to
    # round-off and can come out negative: such edges are not spacelike
    g1 = (Q[p1] * P[q1]).sum(axis=1)
    g2 = (Q[p2] * P[q2]).sum(axis=1)
    p1, q1, g1 = p1[g1 > 0], q1[g1 > 0], g1[g1 > 0]
    p2, q2, g2 = p2[g2 > 0], q2[g2 > 0], g2[g2 > 0]
    A, B = Q[p1] @ P[p2].T, Q[p1] @ P[q2].T
    C, D = Q[q1] @ P[p2].T, Q[q1] @ P[q2].T
    keep = (A > 0) & (B > 0) & (C > 0) & (D > 0)
    for X in (A, B, C, D):  # >= 0 on achronal data, up to round-off
        np.maximum(X, 0.0, out=X)
    cos = (np.sqrt(A * D) + np.sqrt(B * C)) / np.sqrt(np.outer(g1, g2))
    i, j = np.nonzero(keep & (cos < 1.0))
    cos = cos[i, j]
    lA, lB, lC, lD = (np.log(X[i, j]) for X in (A, B, C, D))
    s = 0.25 * (lC + lD - lA - lB)
    r = 0.25 * (lB + lD - lA - lC)
    t_past = _edge_point(z[:, 2:], p1[i], q1[i], s)[:, 0]
    t_future = _edge_point(z[:, 2:], p2[j], q2[j], r)[:, 0]
    ok = np.flatnonzero(t_future > t_past)
    if len(ok) == 0:
        return empty
    k = ok[np.argmin(cos[ok])]
    raw = float(np.arccos(cos[k]))

    def point(p, q, s):  # back from the recentered frame
        x = L.projective_to_quadric(_edge_point(z, p, q, s))
        return L.apply_isometry(L.time_translation(hull.t_shift), x)

    return WidthReport(
        width=min(raw, np.pi / 2),
        width_raw=raw,
        argmax_past=point(p1[i[k]], q1[i[k]], s[k]),
        argmax_future=point(p2[j[k]], q2[j[k]], r[k]),
    )


def contains(hull: ConvexHull3, point):
    """(inside, margin) for a quadric/CylPoint/array point; the margin is the
    minimal signed facet distance in chart coordinates."""
    if isinstance(point, L.CylPoint):
        q = L.cyl_to_quadric(point.y, point.t)
    elif isinstance(point, L.QuadricPoint):
        q = point.v
    else:
        q = np.asarray(point, dtype=float)
    q = np.atleast_2d(q)
    g = L.time_translation(-hull.t_shift)
    q = L.apply_isometry_null(g, q)
    if np.any(q[:, 2] <= 0):
        raise ValueError("point outside the projective chart (|t| >= pi/2)")
    z = L.quadric_to_projective(q)
    m = hull.facet_margins(z)
    inside = m >= 0
    if m.shape == (1,):
        return bool(inside[0]), float(m[0])
    return inside, m


def graph_margins(hull: ConvexHull3, mesh: DiskMesh, u):
    """Facet margins of every vertex of a graph, vectorized."""
    q = L.cyl_to_quadric(mesh.vertices, np.asarray(u, float) - hull.t_shift)
    z = L.quadric_to_projective(q)
    return hull.facet_margins(z)


def hull_heights(hull: ConvexHull3, mesh: DiskMesh):
    """Heights (t_lo, t_hi) of the hull boundaries over each mesh vertex
    (original time frame).  Planar hulls return the plane height twice.

    The vertical (Killing) line over a disk point is the chart curve
    (k sec t, tan t) with k the Klein coordinates, so a facet a.z + b <= 0
    becomes c + R sin(t + phi) <= 0 with c = a12.k, R = hypot(a3, b) and
    phi = atan2(b, a3).  Where s = -c/R < 1, the up-crossing root
    asin(s) - phi bounds t from above and pi - asin(s) - phi from below.
    """
    h = L.poincare_to_hyperboloid(mesh.vertices)
    k = h[:, :2] / h[:, 2:3]  # Klein coordinates
    eq = hull.equations
    if hull.planar:  # the plane through the curve, as two half-spaces
        A = np.column_stack([hull.points, np.ones(len(hull.points))])
        p = np.linalg.svd(A, full_matrices=False)[2][-1]
        eq = np.stack([p, -p])
    phi = np.arctan2(eq[:, 3], eq[:, 2])
    s = -(k @ eq[:, :2].T) / np.hypot(eq[:, 2], eq[:, 3])  # (N,F)
    asn = np.arcsin(np.clip(s, -1.0, 1.0))

    def bound(roots, edge):
        roots = (roots + np.pi) % (2 * np.pi) - np.pi
        return np.where((s < 1.0) & (np.abs(roots) < np.pi / 2), roots, edge)

    t_hi = bound(asn - phi, np.pi / 2).min(axis=1)
    t_lo = bound(np.pi - asn - phi, -np.pi / 2).max(axis=1)
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


def _envelope_separation(curve: BoundaryCurve, y_disk, q_hull, t_hull):
    """delta between the past-envelope point over y_disk and a hull point
    (0 when not causally ordered)."""
    y_disk = np.asarray(y_disk, dtype=float)
    if (y_disk**2).sum() >= 1.0 - 1e-12:
        return 0.0
    h = L.poincare_to_hyperboloid(y_disk)
    cth = (h[0] * np.cos(curve.theta) + h[1] * np.sin(curve.theta)) / h[2]
    u_m = (curve.tau - np.arccos(np.clip(cth, -1, 1))).max()
    if u_m >= t_hull:
        return 0.0
    x = L.cyl_to_quadric(y_disk, u_m)
    c = -L.inner(x, q_hull)
    if not -1.0 < c < 1.0:
        return 0.0
    return float(np.arccos(c))


def regularity_margin(hull: ConvexHull3, curve: BoundaryCurve,
                      mesh: DiskMesh) -> float:
    """eps = min over past-hull samples y of max over past-envelope points
    x in I^-(y) of delta(x, y); positive exactly when the hull stays away
    from the past envelope (width < pi/2 regime).

    Vertex sampling of the envelope underestimates the inner max (its
    extremizers sit on cone ridges, e.g. the dual-point apex for totally
    geodesic data), so the smallest outer candidates are refined by a local
    pattern search over the disk with the closed-form envelope.  Hull
    samples hugging the asymptotic boundary (chart depth below
    REGULARITY_CHART_DEPTH) are excluded: every quantity degenerates together
    there and the sampled statistic would collapse to zero for any curve.
    """
    u_minus, _ = dod_envelopes(curve, mesh)
    Xenv = L.cyl_to_quadric(mesh.vertices, u_minus)
    t_env = u_minus
    if hull.planar:
        # every point of a totally geodesic slab sees the past envelope at
        # exactly pi/2 (the dual-point apex), so the min does not depend on
        # the sample; a few representative samples suffice
        t_lo, _ = hull_heights(hull, mesh)
        idx = np.linspace(0, mesh.n_vertices - 1, 8).astype(int)
        Y = L.cyl_to_quadric(mesh.vertices[idx], t_lo[idx])
        t_hull = t_lo[idx]
    else:
        zp = _facet_samples(hull, -1, REGULARITY_LEVEL)
        zp = zp[1.0 + zp[:, 2] ** 2 - zp[:, 0] ** 2 - zp[:, 1] ** 2
                > REGULARITY_CHART_DEPTH]
        if len(zp) == 0:
            return 0.0
        Y = L.projective_to_quadric(zp)
        t_hull = np.arctan(zp[:, 2]) + hull.t_shift
        Y = L.apply_isometry_null(L.time_translation(hull.t_shift), Y)
        Y = L.normalize_quadric(Y)
    c = -(Xenv * L.SIGNATURE) @ Y.T   # (env, hull)
    ordered = (c > -1.0) & (c < 1.0) & (t_env[:, None] < t_hull[None, :])
    sep = np.where(ordered, np.arccos(np.clip(c, -1 + 1e-15, 1 - 1e-15)), 0.0)
    per_hull = sep.max(axis=0)
    best_env = sep.argmax(axis=0)

    # cone points of the envelope (candidate extremizers): largest positive
    # jump of u_minus below its neighborhood average
    sharp = neighbor_average(mesh, u_minus) - u_minus
    apex_starts = np.argsort(sharp)[-4:]

    def inner_max(j):
        starts = [mesh.vertices[best_env[j]]]
        starts += [mesh.vertices[a] for a in apex_starts]
        # position of the hull sample itself: the envelope point straight
        # below is always timelike-related, so the search can climb
        yj, _ = L.quadric_to_cyl(Y[j])
        starts.append(np.asarray(yj))
        best = per_hull[j]
        for y0 in starts:
            best = max(best, _pattern_search(
                lambda yd: _envelope_separation(curve, yd, Y[j], t_hull[j]),
                y0,
            ))
        return best

    # refine the running argmin until it is itself a refined value: the
    # refinement only raises entries, so this terminates at the true min
    refined = per_hull.copy()
    done = np.zeros(len(per_hull), dtype=bool)
    for _ in range(REGULARITY_REFINE):
        j = int(np.argmin(refined))
        if done[j]:
            break
        refined[j] = inner_max(j)
        done[j] = True
    return float(refined.min())


def _pattern_search(f, y0, scale0=0.2, shrink=0.5, n_scales=14):
    """Deterministic 8-direction pattern maximization over the disk."""
    y = np.asarray(y0, dtype=float).copy()
    best = f(y)
    dirs = np.stack(
        [np.array([np.cos(a), np.sin(a)])
         for a in np.arange(8) * (np.pi / 4)]
    )
    s = scale0
    for _ in range(n_scales):
        moved = True
        while moved:
            moved = False
            for d in dirs:
                cand = y + s * d
                val = f(cand)
                if val > best + 1e-14:
                    best, y, moved = val, cand, True
        s *= shrink
    return best
