"""Convex hulls of boundary curves in the projective chart and the width.

The curve is recentered in time (midrange of tau to 0) so its image stays
away from the chart poles, then hulled with qhull in the affine chart where
convexity agrees with the geodesic convexity of the quadric.  Facets split
into past / future / vertical by the time component of the outward normal.
The width is the supremum of timelike separation between past-boundary and
future-boundary samples, evaluated back in the quadric model, where it is a
chart-independent quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull as QHull
from scipy.spatial import QhullError

from . import lorentz as L
from .boundary import BoundaryCurve
from .constants import (
    BARY_INSIDE_SLACK,
    HULL_FACET_TOL,
    NULL_DEPTH_CUT,
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


def hull_is_convex(hull: ConvexHull3, tol: float = HULL_FACET_TOL) -> bool:
    if hull.planar:
        return True
    a = hull.equations[:, :3]
    b = hull.equations[:, 3]
    return bool((hull.points @ a.T + b).max() <= tol)


def _facet_samples(hull: ConvexHull3, label: int, level: int,
                   with_ids: bool = False):
    """Barycentric grid samples on facets with the given label."""
    sel = np.where(hull.labels == label)[0]
    tris = hull.points[hull.simplices[sel]]
    bary = []
    for i in range(level + 1):
        for j in range(level + 1 - i):
            bary.append((i, j, level - i - j))
    bary = np.asarray(bary, dtype=float) / level
    pts = np.einsum("bk,fkd->fbd", bary, tris).reshape(-1, 3)
    if not with_ids:
        return pts
    fid = np.repeat(sel, len(bary))
    bar = np.tile(bary, (len(sel), 1))
    return pts, fid, bar


@dataclass(frozen=True)
class WidthReport:
    width: float                  # clamped at pi/2
    width_raw: float              # unclamped sampled value
    argmax_past: np.ndarray       # quadric point on the past boundary
    argmax_future: np.ndarray     # quadric point on the future boundary
    past_max_separation: np.ndarray  # per past sample, max over future
    n_past: int
    n_future: int


def _refine_width_pair(hull: ConvexHull3, fp: int, ff: int, bp, bf):
    """Maximize the ordered separation over a (past facet, future facet)
    pair by pattern search in barycentric coordinates.  Scalar arithmetic:
    this sits in a tight loop."""
    tp = hull.points[hull.simplices[fp]]
    tf = hull.points[hull.simplices[ff]]

    def clamp(b):
        b0, b1, b2 = max(b[0], 0.0), max(b[1], 0.0), max(b[2], 0.0)
        s = b0 + b1 + b2
        if s <= 0:
            return (1 / 3, 1 / 3, 1 / 3)
        return (b0 / s, b1 / s, b2 / s)

    def corner(tri, w):
        return (
            w[0] * tri[0, 0] + w[1] * tri[1, 0] + w[2] * tri[2, 0],
            w[0] * tri[0, 1] + w[1] * tri[1, 1] + w[2] * tri[2, 1],
            w[0] * tri[0, 2] + w[1] * tri[1, 2] + w[2] * tri[2, 2],
        )

    def value(x):
        zp = corner(tp, clamp(x[:3]))
        zf = corner(tf, clamp(x[3:]))
        if zf[2] <= zp[2]:
            return 0.0
        sp = 1 + zp[2] * zp[2] - zp[0] * zp[0] - zp[1] * zp[1]
        sf = 1 + zf[2] * zf[2] - zf[0] * zf[0] - zf[1] * zf[1]
        if sp < 1e-9 or sf < 1e-9:
            return 0.0
        c = -(zp[0] * zf[0] + zp[1] * zf[1] - 1.0 - zp[2] * zf[2])
        c = c / math.sqrt(sp * sf)
        if not -1.0 < c < 1.0:
            return 0.0
        return math.acos(c)

    x = [bp[0], bp[1], bp[2], bf[0], bf[1], bf[2]]
    best = value(x)
    step = 0.25
    for _ in range(12):
        for _sweep in range(12):
            moved = False
            for i in range(6):
                for s in (step, -step):
                    cand = list(x)
                    cand[i] += s
                    v = value(cand)
                    if v > best + 1e-10:
                        best, x, moved = v, cand, True
            if not moved:
                break
        step *= 0.5
    return (
        best,
        np.asarray(corner(tp, clamp(x[:3]))),
        np.asarray(corner(tf, clamp(x[3:]))),
    )


def _dual_route_candidates(hull: ConvexHull3, top_k: int = 10):
    """Width candidates from the facet-plane duality.

    For a (past, future) facet pair the common normal geodesic passes
    through the two facet planes' dual points; its feet have closed forms
    and are separated by delta(d1, d2).  The feet are a critical point of
    the separation, not its maximum over the pair (sampled points on a
    facet pair can exceed delta), so they only give candidates: the best
    pair of feet landing inside both facets, and, clamped into the
    simplexes, seeds for the constrained pattern search.  Returns
    (candidate or None, [(value, fp, ff, bary_p, bary_f), ...]).
    """
    eq = hull.equations
    a, b = eq[:, :3], eq[:, 3]
    d = np.stack([a[:, 0], a[:, 1], -b, -a[:, 2]], axis=-1)
    dd = L.inner(d, d)
    spacelike_plane = dd < -1e-10
    dhat = np.zeros_like(d)
    dhat[spacelike_plane] = d[spacelike_plane] / np.sqrt(
        -dd[spacelike_plane]
    )[:, None]

    past = np.where((hull.labels == -1) & spacelike_plane)[0]
    fut = np.where((hull.labels == 1) & spacelike_plane)[0]
    if len(past) == 0 or len(fut) == 0:
        return None, []
    tri = hull.points[hull.simplices]  # (F,3,3)
    T = np.concatenate([tri.transpose(0, 2, 1),
                        np.ones((len(tri), 1, 3))], axis=1)  # (F,4,3)
    Tinv = np.linalg.pinv(T)

    def barycentric(f_idx, chart_pts):
        rhs = np.concatenate([chart_pts, np.ones((len(chart_pts), 1))],
                             axis=1)
        return np.einsum("fij,fj->fi", Tinv[f_idx], rhs)

    C = -(dhat[past] * L.SIGNATURE) @ dhat[fut].T  # (P,F)
    usable = np.abs(C) < 1.0 - 1e-12
    if not usable.any():
        return None, []
    ip, jf = np.where(usable)
    c = np.abs(C[ip, jf])
    delta = np.arccos(c)
    d1 = dhat[past[ip]]
    d2 = dhat[fut[jf]] * np.sign(C[ip, jf])[:, None]
    sd = np.sin(delta)[:, None]
    v1 = (d2 - np.cos(delta)[:, None] * d1) / sd   # feet up to sign
    v2 = (d1 - np.cos(delta)[:, None] * d2) / sd
    # the chart image v[:, [0,1,3]] / v[:, 2] does not see the sign of v
    good = (np.abs(v1[:, 2]) > 1e-12) & (np.abs(v2[:, 2]) > 1e-12)
    ip, jf = ip[good], jf[good]
    delta, v1, v2 = delta[good], v1[good], v2[good]
    if len(ip) == 0:
        return None, []
    z1 = v1[:, [0, 1, 3]] / v1[:, 2:3]
    z2 = v2[:, [0, 1, 3]] / v2[:, 2:3]
    ordered = z2[:, 2] > z1[:, 2]
    bar1 = barycentric(past[ip], z1)
    bar2 = barycentric(fut[jf], z2)
    inside = ((bar1 > -BARY_INSIDE_SLACK).all(axis=1)
              & (bar2 > -BARY_INSIDE_SLACK).all(axis=1) & ordered)

    feet = None
    if inside.any():
        k = np.where(inside)[0][np.argmax(delta[inside])]
        feet = (float(delta[k]),
                L.projective_to_quadric(z1[k]),
                L.projective_to_quadric(z2[k]))

    # clamped-feet seeds: evaluate the separation at the simplex-projected
    # feet for every pair, keep the strongest
    def clamp_bar(bar):
        bb = np.clip(bar, 0.0, None)
        s = bb.sum(axis=1, keepdims=True)
        return np.where(s > 0, bb / s, 1 / 3)

    cb1 = clamp_bar(bar1)
    cb2 = clamp_bar(bar2)
    zc1 = np.einsum("ek,ekd->ed", cb1, tri[past[ip]])
    zc2 = np.einsum("ek,ekd->ed", cb2, tri[fut[jf]])
    s1 = 1 + zc1[:, 2] ** 2 - zc1[:, 0] ** 2 - zc1[:, 1] ** 2
    s2 = 1 + zc2[:, 2] ** 2 - zc2[:, 0] ** 2 - zc2[:, 1] ** 2
    val = np.zeros(len(ip))
    okc = (s1 > 1e-9) & (s2 > 1e-9) & (zc2[:, 2] > zc1[:, 2])
    iq = (zc1[:, 0] * zc2[:, 0] + zc1[:, 1] * zc2[:, 1]
          - 1.0 - zc1[:, 2] * zc2[:, 2])
    cc = np.where(okc, -iq / np.sqrt(np.maximum(s1 * s2, 1e-300)), 2.0)
    tl = okc & (np.abs(cc) < 1.0)
    val[tl] = np.arccos(cc[tl])
    pos = np.flatnonzero(val > 0)  # a few dozen of ~10^5 pairs
    # descending; a stable sort keeps tied values in pair order
    order = pos[np.argsort(-val[pos], kind="stable")[:top_k]]
    seeds = [
        (float(val[k]), int(past[ip[k]]), int(fut[jf[k]]), cb1[k], cb2[k])
        for k in order
    ]
    return feet, seeds


# past rows per block of the causal sweep in `width`: a 64 x N block is a few
# MB, where the whole past x future block is hundreds
_SWEEP_BLOCK = 64


def _causal_min(Xs, Y, tX, tY):
    """Per past row i, the min of -(Xs[i] . Y[j]) over the future samples j
    with tY[j] > tX[i], and its first argmin; (inf, 0) where no j is later.
    Works through _SWEEP_BLOCK rows at a time in two reused buffers."""
    n = len(Xs)
    best = np.empty(n)
    arg = np.empty(n, dtype=np.int64)
    buf = np.empty((_SWEEP_BLOCK, len(Y)))
    mask = np.empty((_SWEEP_BLOCK, len(Y)), dtype=bool)
    for lo in range(0, n, _SWEEP_BLOCK):
        hi = min(lo + _SWEEP_BLOCK, n)
        c, later = buf[:hi - lo], mask[:hi - lo]
        np.matmul(Xs[lo:hi], Y.T, out=c)
        np.negative(c, out=c)
        np.less_equal(tY, tX[lo:hi, None], out=later)
        np.copyto(c, np.inf, where=later)
        arg[lo:hi] = c.argmin(axis=1)
        best[lo:hi] = c[np.arange(hi - lo), arg[lo:hi]]
    return best, arg


def width(hull: ConvexHull3, level: int = 4) -> WidthReport:
    """Sup of timelike separation between past and future hull boundaries."""
    if hull.planar:
        zero = np.zeros(4)
        return WidthReport(0.0, 0.0, zero, zero, np.zeros(0), 0, 0)
    zp, fp_id, bp = _facet_samples(hull, -1, level, with_ids=True)
    zf, ff_id, bf = _facet_samples(hull, 1, level, with_ids=True)
    # drop samples hugging the null boundary: their normalization blows up
    # and inner products lose all precision (the sup is interior anyway)
    def depth(z):
        return 1.0 + z[:, 2] ** 2 - z[:, 0] ** 2 - z[:, 1] ** 2

    keep_p = depth(zp) > NULL_DEPTH_CUT
    keep_f = depth(zf) > NULL_DEPTH_CUT
    zp, fp_id, bp = zp[keep_p], fp_id[keep_p], bp[keep_p]
    zf, ff_id, bf = zf[keep_f], ff_id[keep_f], bf[keep_f]
    if len(zp) == 0 or len(zf) == 0:
        zero = np.zeros(4)
        return WidthReport(0.0, 0.0, zero, zero, np.zeros(0), 0, 0)
    X = L.projective_to_quadric(zp)
    Y = L.projective_to_quadric(zf)
    # causal order: pair x with y only when y is in the future of x (chart
    # time is a time function, so t_y > t_x decides it for timelike pairs)
    tX = np.arctan(zp[:, 2])
    tY = np.arctan(zf[:, 2])
    best, arg = _causal_min(X * L.SIGNATURE, Y, tX, tY)
    seps = np.where(best < 1.0, np.arccos(np.clip(best, -1.0, 1.0)), 0.0)
    # local pattern refinement over the leading facet pairs removes the
    # dependence on the barycentric sampling density
    top = np.argsort(seps)[::-1]
    raw = float(seps[top[0]])
    i = int(top[0])
    zbest_p = zp[i]
    zbest_f = zf[int(arg[i])]
    seen = set()
    for i in top[:400]:
        if len(seen) >= 16:
            break
        pair = (int(fp_id[i]), int(ff_id[int(arg[i])]))
        if pair in seen or seps[i] == 0.0:
            continue
        seen.add(pair)
        val, zc_p, zc_f = _refine_width_pair(
            hull, pair[0], pair[1], bp[i], bf[int(arg[i])]
        )
        if val > raw:
            raw, zbest_p, zbest_f = val, zc_p, zc_f
    # duality route: the common-normal feet inside both facets as one more
    # candidate, and clamped-feet seeds for the pattern search
    feet, seeds = _dual_route_candidates(hull)
    for val0, fp, ff, cb1, cb2 in seeds:
        if (fp, ff) in seen:
            continue
        seen.add((fp, ff))
        val, zc_p, zc_f = _refine_width_pair(hull, fp, ff, cb1, cb2)
        if val > raw:
            raw, zbest_p, zbest_f = val, zc_p, zc_f
    qp = L.projective_to_quadric(zbest_p)
    qf = L.projective_to_quadric(zbest_f)
    if feet is not None and feet[0] > raw:
        raw = feet[0]
        qp, qf = feet[1], feet[2]
    return WidthReport(
        width=min(raw, np.pi / 2),
        width_raw=raw,
        argmax_past=qp,
        argmax_future=qf,
        past_max_separation=seps,
        n_past=len(X),
        n_future=len(Y),
    )


def contains(hull: ConvexHull3, point, tol: float = 0.0):
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
    inside = m >= -abs(tol)
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
                      mesh: DiskMesh, level: int = 2,
                      refine: int = 64, chart_depth: float = 0.05) -> float:
    """eps = min over past-hull samples y of max over past-envelope points
    x in I^-(y) of delta(x, y); positive exactly when the hull stays away
    from the past envelope (width < pi/2 regime).

    Vertex sampling of the envelope underestimates the inner max (its
    extremizers sit on cone ridges, e.g. the dual-point apex for totally
    geodesic data), so the smallest outer candidates are refined by a local
    pattern search over the disk with the closed-form envelope.  Hull
    samples hugging the asymptotic boundary (chart depth below chart_depth)
    are excluded: every quantity degenerates together there and the sampled
    statistic would collapse to zero for any curve.
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
        zp = _facet_samples(hull, -1, level)
        zp = zp[1.0 + zp[:, 2] ** 2 - zp[:, 0] ** 2 - zp[:, 1] ** 2
                > chart_depth]
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
    for _ in range(max(refine, 1)):
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
