import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import QhullError

from adsmax import boundary as B
from adsmax import hull as HU
from adsmax import lorentz as L
from adsmax import mesh as MM
from adsmax.constants import HULL_BLOCK_ROWS

MESH = MM.make_mesh(2.0, 12, 36)


def step_curve(kappa, n=512):
    return B.lift_graph(B.step_family(kappa), n)


def steep_image(seed, n=512):
    """step 0.8 moved by a random isometry: past and future facets meet at
    steep angles, where shortcuts on the facet labels go wrong."""
    g = L.random_isometry(np.random.default_rng(seed), 0.3)
    return step_curve(0.8, n).transform(g)


def spiked_curve(n=128, lift=0.8):
    """A gentle curve with one sample moved up in time by `lift` sample
    spacings: the width then lies on the chord over that sample, between
    the samples two apart."""
    theta = 2 * np.pi * np.arange(n) / n
    tau = 0.1 * np.sin(theta)
    tau[n // 3] += lift * 2 * np.pi / n
    return B.BoundaryCurve(theta, tau)


def heights_with_modulo(hull, y):
    """Reference for `hull_heights`: both roots wrapped with a float modulo,
    on the whole (N, F) array at once."""
    h = L.poincare_to_hyperboloid(y)
    k = h[:, :2] / h[:, 2:3]
    eq = hull.equations
    phi = np.arctan2(eq[:, 3], eq[:, 2])
    s = -(k @ eq[:, :2].T) / np.hypot(eq[:, 2], eq[:, 3])
    asn = np.arcsin(np.clip(s, -1.0, 1.0))

    def bound(roots, edge):
        roots = (roots + np.pi) % (2 * np.pi) - np.pi
        return np.where((s < 1.0) & (np.abs(roots) < np.pi / 2), roots, edge)

    t_hi = bound(asn - phi, np.pi / 2).min(axis=1)
    t_lo = bound(np.pi - asn - phi, -np.pi / 2).max(axis=1)
    return t_lo + hull.t_shift, t_hi + hull.t_shift


def edge_pairs(hull):
    """Reference for `width`: every edge pair's value and causal test at
    once, over all edges with positive G.  `width` searches only the edges
    whose chords can cross; this reference keeps the edges between adjacent
    samples too, so it checks that leaving them out loses nothing.  A, B, C
    and D are taken in HULL_BLOCK_ROWS-row blocks of these past edges, since
    a BLAS product's bits depend on its row count; on the kernels tried, the
    pairs `width` searches get the same bits from its blocks of fewer rows.
    Returns the edges and, for the pairs with positive coefficients and
    value below 1 in row-major order, the value, the past and future edge
    rows i and j, the edge parameters s and r, and the causal test."""
    z = hull.points
    P = np.column_stack([z[:, 0], z[:, 1], np.ones(len(z)), z[:, 2]])
    Q = -P * L.SIGNATURE
    (p1, q1), (p2, q2) = HU._edges(hull, -1), HU._edges(hull, 1)
    g1 = (Q[p1] * P[q1]).sum(axis=1)
    g2 = (Q[p2] * P[q2]).sum(axis=1)
    p1, q1, g1 = p1[g1 > 0], q1[g1 > 0], g1[g1 > 0]
    p2, q2, g2 = p2[g2 > 0], q2[g2 > 0], g2[g2 > 0]
    A, B_, C, D = (
        np.concatenate([Q[u[lo:lo + HULL_BLOCK_ROWS]] @ P[v].T
                        for lo in range(0, len(p1), HULL_BLOCK_ROWS)])
        for u, v in ((p1, p2), (p1, q2), (q1, p2), (q1, q2)))
    keep = (A > 0) & (B_ > 0) & (C > 0) & (D > 0)
    for X in (A, B_, C, D):
        np.maximum(X, 0.0, out=X)
    cos = (np.sqrt(A * D) + np.sqrt(B_ * C)) / np.sqrt(np.outer(g1, g2))
    i, j = np.nonzero(keep & (cos < 1.0))
    lA, lB, lC, lD = (np.log(X[i, j]) for X in (A, B_, C, D))
    s = 0.25 * (lC + lD - lA - lB)
    r = 0.25 * (lB + lD - lA - lC)
    t_past = HU._edge_point(z[:, 2:], p1[i], q1[i], s)[:, 0]
    t_future = HU._edge_point(z[:, 2:], p2[j], q2[j], r)[:, 0]
    return (p1, q1, p2, q2), cos[i, j], i, j, s, r, t_future > t_past


def width_all_pairs(hull):
    """The least causal value of `edge_pairs`, first in row-major order:
    (width_raw, argmax_past, argmax_future, past edge row)."""
    (p1, q1, p2, q2), cos, i, j, s, r, causal = edge_pairs(hull)
    ok = np.flatnonzero(causal)
    k = ok[np.argmin(cos[ok])]

    def point(p, q, s):
        x = L.projective_to_quadric(HU._edge_point(hull.points, p, q, s))
        return L.apply_isometry(L.time_translation(hull.t_shift), x)

    return (float(np.arccos(cos[k])), point(p1[i[k]], q1[i[k]], s[k]),
            point(p2[j[k]], q2[j[k]], r[k]), i[k])


def adjacent(n, p, q):
    """Edges (p, q) between samples next to each other on the closed curve
    of n samples, taken from the indices modulo n."""
    return np.isin((q - p) % n, (1, n - 1))


def crossing(p1, q1, p2, q2):
    """Index chords (p1, q1) and (p2, q2), each with p < q, that cross:
    exactly one end of the second lies strictly inside the first."""
    inside = ((p1 < p2) & (p2 < q1)).astype(int) + ((p1 < q2) & (q2 < q1))
    return (inside == 1) & (p2 != p1) & (p2 != q1) & (q2 != p1) & (q2 != q1)


def searched(hull):
    """The pairs of `edge_pairs` that `width` searches, both of whose edges
    join samples that are not adjacent.  Returns their values, causal tests
    and rows among the searched past edges in row-major order, the searched
    row of `width_all_pairs`' pair, and the searched past-edge count."""
    (p1, q1, p2, q2), cos, i, j, _, _, causal = edge_pairs(hull)
    n = len(hull.points)
    far1, far2 = ~adjacent(n, p1, q1), ~adjacent(n, p2, q2)
    row = np.cumsum(far1) - 1
    on = far1[i] & far2[j]
    return (cos[on], causal[on], row[i[on]], row[width_all_pairs(hull)[3]],
            far1.sum())


def labels_swapped_left_of(hull, x=0.0):
    """Past and future labels swapped on the facets whose centroids lie at
    chart x below the given one: edge pairs running from future to past
    then take some of the least values."""
    over = hull.points[hull.simplices].mean(axis=1)[:, 0] < x
    return dataclasses.replace(
        hull, labels=np.where(over, -hull.labels, hull.labels).astype(np.int8))


def matches_all_pairs(hull):
    w = HU.width(hull)
    raw, past, future, _ = width_all_pairs(hull)
    return same_bits((w.width_raw, raw), (w.argmax_past, past),
                     (w.argmax_future, future))


def same_bits(*pairs):
    return all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
               for a, b in pairs)


class TestConvexHull:
    def test_identity_planar_width_zero(self):
        h = HU.convex_hull(B.lift_graph(B.CircleHomeo.identity(), 128))
        assert h.planar
        assert HU.width(h).width == 0.0

    def test_mobius_planar(self):
        m = L.random_mobius(np.random.default_rng(7), 0.5)
        h = HU.convex_hull(B.lift_graph(B.mobius_boundary(m), 256))
        assert h.planar
        assert HU.width(h).width == 0.0

    def test_qhull_failure_gives_the_plane(self, monkeypatch):
        # a flat curve that is_planar misses fails in Qhull; the hull is then
        # the plane of the is_planar path, as its two half-spaces
        m = L.random_mobius(np.random.default_rng(1), 0.4)
        c = B.lift_graph(B.mobius_boundary(m), 256)
        ref = HU.convex_hull(c)

        def flat(points):
            raise QhullError("QH6154 initial simplex is flat")

        monkeypatch.setattr(HU, "QHull", flat)
        monkeypatch.setattr(B.BoundaryCurve, "is_planar", lambda self: False)
        h = HU.convex_hull(c)
        assert h.planar and ref.planar
        assert h.equations.tobytes() == ref.equations.tobytes()
        lo, hi = HU.hull_heights(h, MESH.vertices)
        assert np.abs(hi - lo).max() <= 1e-14

    def test_rejects_few_samples(self):
        c = B.two_step_curve(16)
        with pytest.raises(ValueError):
            HU.convex_hull(B.BoundaryCurve(c.theta[:3], c.tau[:3]))

    def test_convexity_certificate(self):
        h = HU.convex_hull(step_curve(0.5))
        a, b = h.equations[:, :3], h.equations[:, 3]
        assert (h.points @ a.T + b).max() <= 1e-9

    def test_vertices_inside_chart_region(self):
        h = HU.convex_hull(step_curve(0.7))
        z = h.points
        assert np.all(z[:, 0] ** 2 + z[:, 1] ** 2 <= z[:, 2] ** 2 + 1 + 1e-9)

    def test_labels_partition(self):
        h = HU.convex_hull(step_curve(0.5))
        assert set(np.unique(h.labels)).issubset({-1, 0, 1})
        assert (h.labels == -1).any() and (h.labels == 1).any()


class TestWidth:
    def test_two_step_is_pi_half(self):
        w = HU.width(HU.convex_hull(B.two_step_curve(512)))
        assert w.width == pytest.approx(np.pi / 2, abs=0.02)

    def test_never_exceeds_pi_half(self):
        for k in (0.3, 0.6, 0.9, 0.99):
            w = HU.width(HU.convex_hull(step_curve(k)))
            assert w.width <= np.pi / 2 + 1e-3
            assert w.width_raw <= np.pi / 2 + 5e-3

    def test_monotone_in_kappa(self):
        ws = [HU.width(HU.convex_hull(step_curve(k))).width
              for k in (0.0, 0.25, 0.5, 0.75, 0.9, 0.99)]
        assert all(a <= b + 1e-9 for a, b in zip(ws, ws[1:]))
        assert ws[-1] >= np.pi / 2 - 0.05

    def test_sampling_refinement_stable(self):
        w1 = HU.width(HU.convex_hull(B.lift_graph(B.bump_family(0.6), 256)))
        w2 = HU.width(HU.convex_hull(B.lift_graph(B.bump_family(0.6), 512)))
        assert abs(w2.width - w1.width) < 1e-3
        assert w2.width >= w1.width - 1e-6  # refinement-monotone

    def test_isometry_invariance(self):
        # step 0.8 under the first draw of seed 8 loses its sup when edges
        # shared by past and future facets are left out
        for kappa, seed, draws in ((0.6, 11, 3), (0.8, 8, 1)):
            rng = np.random.default_rng(seed)
            c = step_curve(kappa)
            w0 = HU.width(HU.convex_hull(c)).width
            for _ in range(draws):
                g = L.random_isometry(rng, 0.3)
                w1 = HU.width(HU.convex_hull(c.transform(g))).width
                # an isometry maps the sample hull onto the image samples' hull
                assert abs(w1 - w0) < 1e-12

    def test_argmax_pair_is_timelike(self):
        w = HU.width(HU.convex_hull(step_curve(0.75)))
        kind, val = L.lorentz_separation(w.argmax_past, w.argmax_future)
        assert kind == "timelike"
        assert val == pytest.approx(w.width_raw, abs=1e-9)

    def test_argmax_pair_lies_on_the_hull(self):
        # an isometry image is recentered in time before hulling
        g = L.random_isometry(np.random.default_rng(0), 0.3)
        h = HU.convex_hull(step_curve(0.5, 256).transform(g))
        assert abs(h.t_shift) > 0.05
        w = HU.width(h)
        for q in (w.argmax_past, w.argmax_future):
            y, t = L.quadric_to_cyl(q)
            assert abs(HU.graph_margins(h, y[None], [t])[0]) < 1e-12

    def test_every_route_is_needed(self):
        # lower bounds from the sampled routes the closed-form edge pass
        # replaced: the dense sweep set the first value and the duality route
        # the second; those values were attained, so no exact width is lower
        w = HU.width(HU.convex_hull(step_curve(0.5)))
        assert w.width_raw >= 0.367121806734 - 1e-12
        w = HU.width(HU.convex_hull(B.lift_graph(B.bump_family(0.6), 512)))
        assert w.width_raw >= 0.105823187130 - 1e-12

    def test_bump_reaches_its_edge_pair(self):
        # the sampled routes stopped at the common-normal saddle, 0.1058232
        w = HU.width(HU.convex_hull(B.lift_graph(B.bump_family(0.6), 512)))
        assert w.width_raw >= 0.10583600

    @pytest.mark.parametrize("kappa,value", [
        (0.1, 0.0012344633743755914),
        (0.3, 0.054317206184626786),
        (0.5, 0.3671218067342039),
        (0.7, 0.8311762944053616),
        (0.9, 1.3074927522869304),
    ])
    def test_step_widths_are_pinned(self, kappa, value):
        w = HU.width(HU.convex_hull(step_curve(kappa)))
        assert w.width_raw == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("curve", [
        step_curve(0.3), step_curve(0.9),
        B.lift_graph(B.bump_family(0.6), 512), B.two_step_curve(512),
        steep_image(1012), steep_image(8),
    ], ids=["step_0.3", "step_0.9", "bump_0.6", "two_step", "step_0.8_image",
            "step_0.8_image_8"])
    def test_least_first_matches_all_pairs(self, curve):
        assert matches_all_pairs(HU.convex_hull(curve))

    def test_width_on_the_chord_over_one_sample(self):
        # a search that dropped more edges than those between adjacent
        # samples would miss this width
        h = HU.convex_hull(spiked_curve())
        (p1, q1, p2, q2), cos, i, j, _, _, causal = edge_pairs(h)
        k = np.flatnonzero(causal)[np.argmin(cos[causal])]
        assert min(q1[i[k]] - p1[i[k]], q2[j[k]] - p2[j[k]]) == 2
        assert matches_all_pairs(h)

    @pytest.mark.parametrize("hull", [
        HU.convex_hull(step_curve(0.3)), HU.convex_hull(step_curve(0.9)),
        HU.convex_hull(B.lift_graph(B.bump_family(0.6), 512)),
        HU.convex_hull(B.two_step_curve(512)),
        HU.convex_hull(steep_image(1012)), HU.convex_hull(steep_image(8)),
        labels_swapped_left_of(HU.convex_hull(step_curve(0.5))),
        HU.convex_hull(spiked_curve()),
    ], ids=["step_0.3", "step_0.9", "bump_0.6", "two_step", "step_0.8_image",
            "step_0.8_image_8", "step_0.5_swapped", "spike"])
    def test_only_crossing_edges_go_below_one(self, hull):
        # by Ptolemy's theorem on both ruling circles, a pair of chords that
        # do not cross has value >= 1, and 1 when they share a sample; an
        # edge between adjacent samples crosses nothing.  Step 0.8's image
        # at seed 8 has past edges shared with future facets that are not
        # between adjacent samples.
        (p1, q1, p2, q2), cos, i, j, *_ = edge_pairs(hull)
        a, b, c, d = p1[i], q1[i], p2[j], q2[j]
        shared = (a == c) | (a == d) | (b == c) | (b == d)
        assert (crossing(a, b, c, d) | shared).all()
        n = len(hull.points)
        near = adjacent(n, a, b) | adjacent(n, c, d)
        assert np.all(cos[near] >= 1 - 1e-10)

    def test_search_skips_pairs_running_from_future_to_past(self):
        # with the labels over x < 0 swapped the least value belongs to a
        # pair running from future to past, and the width to a causal pair
        # of higher value
        h = HU.convex_hull(B.lift_graph(B.bump_family(0.6), 128))
        mixed = labels_swapped_left_of(h)
        w = HU.width(mixed)
        assert 0.1 < w.width_raw < HU.width(h).width_raw - 1e-4
        assert matches_all_pairs(mixed)

    def test_swapped_boundaries_have_no_ordered_pair(self):
        # every timelike edge pair then runs from future to past; at 512
        # samples a search that tries the values one at a time takes seconds
        h = HU.convex_hull(step_curve(0.5, 512))
        assert HU.width(h).width_raw > 0.3
        swapped = dataclasses.replace(h, labels=-h.labels)
        assert HU.width(swapped).width_raw == 0.0

    @pytest.mark.parametrize("f", [B.bump_family(0.6), B.step_family(0.6)],
                             ids=["bump_0.6", "step_0.6"])
    def test_dense_facet_grid_never_beats_edge_pass(self, f):
        # every past x future facet pair on a barycentric grid of level 20,
        # in causal order; samples hugging the null boundary lose precision
        h = HU.convex_hull(B.lift_graph(f, 48))
        w = HU.width(h).width_raw

        level = 20
        bary = np.array([(i, j, level - i - j) for i in range(level + 1)
                         for j in range(level + 1 - i)], dtype=float) / level

        def grid(label):
            tris = h.points[h.simplices[h.labels == label]]
            z = np.einsum("bk,fkd->fbd", bary, tris)
            depth = 1 + z[..., 2] ** 2 - z[..., 0] ** 2 - z[..., 1] ** 2
            return z, depth > 1e-6

        zp, deep_p = grid(-1)
        zf, deep_f = grid(1)
        zf = zf[deep_f]
        Y = L.projective_to_quadric(zf)
        best = 0.0
        for z, deep in zip(zp, deep_p):  # one past facet at a time
            z = z[deep]
            c = -(L.projective_to_quadric(z) * L.SIGNATURE) @ Y.T
            c[zf[:, 2] <= z[:, 2:3]] = 1.0
            best = max(best, float(np.arccos(min(c.min(), 1.0))))
        assert best <= w + 1e-12
        assert best >= w - 1e-3


class TestContains:
    def test_hull_vertex_margin_zero(self):
        # a hull vertex is an ideal point, with no (y, t) over the disk
        h = HU.convex_hull(step_curve(0.5))
        assert abs(h.facet_margins(h.points[:1])[0]) < 1e-7

    def test_center_of_mass_inside(self):
        h = HU.convex_hull(step_curve(0.5))
        tbar = h.curve.tau.mean()
        assert HU.graph_margins(h, np.zeros((1, 2)), [tbar])[0] > 0

    def test_far_future_outside(self):
        h = HU.convex_hull(step_curve(0.5))
        assert HU.graph_margins(h, np.zeros((1, 2)), [1.5])[0] < 0

    def test_point_outside_chart_rejected(self):
        h = HU.convex_hull(step_curve(0.5))
        with pytest.raises(ValueError):
            HU.graph_margins(h, np.zeros((1, 2)), [np.pi / 2 + 0.2])


def slab_hull():
    eq = np.array([[0.0, 0, 1, -0.5], [0, 0, -1, -0.5], [-1, 0, 0, 0.1]])
    c = B.lift_graph(B.step_family(0.5), 64)
    return HU.ConvexHull3(c, 0.0, np.zeros((4, 3)), False, eq, None, None)


class TestEnvelopes:
    def test_identity_center_heights(self):
        c = B.lift_graph(B.CircleHomeo.identity(), 256)
        um, up = HU.dod_envelopes(c, MESH)
        assert up[0] == pytest.approx(np.pi / 2, abs=1e-12)
        assert um[0] == pytest.approx(-np.pi / 2, abs=1e-12)

    def test_mobius_gap_is_pi_at_apex(self):
        # duality: the two envelope cones meet at timelike distance pi; the
        # apexes must lie inside the mesh, so keep the tilt gentle
        m = L.random_mobius(np.random.default_rng(3), 0.15)
        c = B.lift_graph(B.mobius_boundary(m), 256)
        fine = MM.make_mesh(3.0, 40, 120)
        um, up = HU.dod_envelopes(c, fine)
        X = L.cyl_to_quadric(fine.vertices, um)
        Y = L.cyl_to_quadric(fine.vertices, up)
        cM = -(X * L.SIGNATURE) @ Y.T
        ordered = (cM > -1) & (cM < 1) & (um[:, None] < up[None, :])
        sep = np.where(ordered, np.arccos(np.clip(cM, -1, 1)), 0.0)
        i, j = np.unravel_index(sep.argmax(), sep.shape)
        assert sep.max() == pytest.approx(np.pi, abs=0.02)
        assert fine.rho[i] < 2.0 and fine.rho[j] < 2.0

    def test_envelopes_are_ordered(self):
        c = step_curve(0.5)
        um, up = HU.dod_envelopes(c, MESH)
        assert np.all(um <= up)

    def test_hull_sandwich(self):
        c = step_curve(0.5)
        h = HU.convex_hull(c)
        um, up = HU.dod_envelopes(c, MESH)
        lo, hi = HU.hull_heights(h, MESH.vertices)
        assert np.all(um <= lo + 1e-8)
        assert np.all(lo <= hi + 1e-12)
        assert np.all(hi <= up + 1e-8)

    @pytest.mark.parametrize("curve", [
        B.lift_graph(B.bump_family(0.3), 256), step_curve(0.5, 256),
        steep_image(1012, 256),
    ], ids=["bump_0.3", "step_0.5", "step_0.8_image"])
    def test_heights_are_exact_hull_boundaries(self, curve):
        # thin hulls: a sampled search collapses these intervals to a point;
        # on the steep image, t_hi bounded by future-labelled facets alone
        # leaves the hull
        h = HU.convex_hull(curve)
        mesh = MM.make_mesh(2.2, 20, 64)
        lo, hi = HU.hull_heights(h, mesh.vertices)
        assert np.all(lo < hi)
        for t in (lo, hi):
            assert np.abs(HU.graph_margins(h, mesh.vertices, t)).max() < 1e-12
        assert HU.graph_margins(h, mesh.vertices, 0.5 * (lo + hi)).min() > 0

    def test_subset_rows_match_full_mesh(self):
        h = HU.convex_hull(step_curve(0.5, 256))
        lo, hi = HU.hull_heights(h, MESH.vertices)
        outer = MESH.rho > 1.0
        assert 0 < outer.sum() < MESH.n_vertices
        sub = HU.hull_heights(h, MESH.vertices[outer])
        for full, part in zip((lo, hi), sub):
            assert np.abs(part - full[outer]).max() <= 1e-14

    def test_facet_missing_the_line_does_not_bind(self):
        # slab |z3| <= 1/2 cut by z1 >= 1/10: over Klein points with
        # k1 >= 1/10 the cut never meets the vertical line (k sec t, tan t)
        h = slab_hull()
        lo, hi = HU.hull_heights(h, MESH.vertices)
        h3 = L.poincare_to_hyperboloid(MESH.vertices)
        far = h3[:, 0] / h3[:, 2] >= 0.1
        assert far.sum() > 50
        assert np.allclose(hi[far], np.arctan(0.5), atol=1e-14)
        assert np.allclose(lo[far], -np.arctan(0.5), atol=1e-14)

    @pytest.mark.parametrize("hull", [
        HU.convex_hull(steep_image(1012)),
        HU.convex_hull(B.lift_graph(B.bump_family(0.3), 512)),
        HU.convex_hull(B.lift_graph(B.mobius_boundary(
            L.random_mobius(np.random.default_rng(1), 0.4)), 256)),
        slab_hull(),
    ], ids=["step_0.8_image", "bump_0.3", "mobius", "slab"])
    def test_heights_match_the_modulo_form(self, hull):
        mesh = MM.make_mesh(2.2, 20, 64)
        got = HU.hull_heights(hull, mesh.vertices)
        assert same_bits(*zip(got, heights_with_modulo(hull, mesh.vertices)))

    def test_planar_heights_match_plane(self):
        m = L.random_mobius(np.random.default_rng(1), 0.4)
        c = B.lift_graph(B.mobius_boundary(m), 256)
        h = HU.convex_hull(c)
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        q = L.normalize_quadric(L.from_matrix(L.adj2(np.linalg.inv(J) @ m.m)))
        lo, hi = HU.hull_heights(h, MESH.vertices)
        dev = min(
            np.abs(lo - L.plane_graph_height(q, MESH.vertices, branch=b)).max()
            for b in (-1, 1)
        )
        assert dev < 1e-9
        assert np.abs(hi - lo).max() < 1e-9


def traced_peak(f, *args):
    """Peak bytes that numpy and Python allocate during f(*args)."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRowBlocks:
    @pytest.mark.parametrize("curve", [step_curve(0.5), B.two_step_curve(512)],
                             ids=["step_0.5", "two_step"])
    def test_edges_are_the_sorted_unique_facet_edges(self, curve):
        # width_all_pairs reads _edges too, so it cannot catch an edge error
        h = HU.convex_hull(curve)
        for label in (-1, 1):
            tri = h.simplices[h.labels == label]
            e = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]])
            assert np.array_equal(HU._edges(h, label),
                                  np.unique(np.sort(e, axis=1), axis=0).T)

    def test_width_builds_no_edge_pair_table(self):
        # buffers of HULL_BLOCK_ROWS rows, far below one (past x future) table
        h = HU.convex_hull(step_curve(0.5, 2048))
        table = len(HU._edges(h, -1)[0]) * len(HU._edges(h, 1)[0]) * 8
        assert traced_peak(HU.width, h) <= 0.1 * table

    def test_width_blocks_with_a_remainder_match_all_pairs(self):
        # a larger hull first: a buffer read past the last block's rows
        # would show stale values
        h = HU.convex_hull(B.lift_graph(B.bump_family(0.6), 128))
        assert searched(h)[4] % HULL_BLOCK_ROWS != 0
        HU.width(HU.convex_hull(step_curve(0.9)))
        assert matches_all_pairs(h)

    def test_width_from_a_later_block_than_a_noncausal_least(self):
        h = labels_swapped_left_of(HU.convex_hull(step_curve(0.5, 128)))
        cos, causal, row, width_row, _ = searched(h)
        first = row < HULL_BLOCK_ROWS
        least = first & (cos == cos[first].min())
        assert not causal[least].any()
        assert width_row >= HULL_BLOCK_ROWS
        assert matches_all_pairs(h)

    def test_width_from_the_block_of_a_noncausal_least(self):
        h = labels_swapped_left_of(
            HU.convex_hull(B.lift_graph(B.bump_family(0.6), 128)), 0.5)
        cos, causal, row, width_row, _ = searched(h)
        block = row // HULL_BLOCK_ROWS == width_row // HULL_BLOCK_ROWS
        least = block & (cos == cos[block].min())
        assert not causal[least].any()
        assert matches_all_pairs(h)

    @pytest.mark.parametrize("x", [-0.5, 0.0, 0.5])
    def test_block_of_noncausal_least_values_matches_all_pairs(self, x):
        # such a block is searched in one pass over its values below best
        h = labels_swapped_left_of(HU.convex_hull(step_curve(0.5, 256)), x)
        assert matches_all_pairs(h)

    def test_graph_margins_build_no_vertex_facet_table(self):
        h = HU.convex_hull(step_curve(0.5))
        mesh = MM.make_mesh(3.0, 26, 84)
        t = np.full(mesh.n_vertices, h.t_shift)
        table = mesh.n_vertices * len(h.equations) * 8
        assert traced_peak(HU.graph_margins, h, mesh.vertices, t) <= 0.1 * table

    def test_margin_blocks_with_a_remainder_match_full_mesh(self):
        h = HU.convex_hull(step_curve(0.5))
        mesh = MM.make_mesh(3.0, 26, 84)
        lo, hi = HU.hull_heights(h, mesh.vertices)
        t = 0.5 * (lo + hi)
        full = HU.graph_margins(h, mesh.vertices, t)
        outer = mesh.rho > 1.0
        assert outer.sum() % HULL_BLOCK_ROWS != 0
        part = HU.graph_margins(h, mesh.vertices[outer], t[outer])
        assert np.abs(part - full[outer]).max() <= 1e-14
