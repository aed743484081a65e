import numpy as np
import pytest

from adsmax import boundary as B
from adsmax import hull as HU
from adsmax import lorentz as L
from adsmax import mesh as MM

MESH = MM.make_mesh(2.0, 12, 36)


def step_curve(kappa, n=512):
    return B.lift_graph(B.step_family(kappa), n)


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

    def test_rejects_few_samples(self):
        c = B.two_step_curve(16)
        with pytest.raises(ValueError):
            HU.convex_hull(B.BoundaryCurve(c.theta[:3], c.tau[:3]))

    def test_convexity_certificate(self):
        h = HU.convex_hull(step_curve(0.5))
        assert HU.hull_is_convex(h)

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
        rng = np.random.default_rng(11)
        c = step_curve(0.6)
        w0 = HU.width(HU.convex_hull(c)).width
        for _ in range(3):
            g = L.random_isometry(rng, 0.3)
            w1 = HU.width(HU.convex_hull(c.transform(g))).width
            assert abs(w1 - w0) < 2e-3

    def test_argmax_pair_is_timelike(self):
        w = HU.width(HU.convex_hull(step_curve(0.75)))
        kind, val = L.lorentz_separation(w.argmax_past, w.argmax_future)
        assert kind == "timelike"
        assert val == pytest.approx(w.width_raw, abs=1e-9)

    def test_every_route_is_needed(self):
        # the dense sweep sets the first value (the duality route alone gives
        # 0.3671095), the duality route the second (the dense sweep and its
        # refinement alone give 0.1038711)
        w = HU.width(HU.convex_hull(step_curve(0.5)))
        assert w.width_raw >= 0.367121806734 - 1e-12
        w = HU.width(HU.convex_hull(B.lift_graph(B.bump_family(0.6), 512)))
        assert w.width_raw >= 0.105823187130 - 1e-12

    def test_blocked_sweep_matches_one_shot(self):
        rng = np.random.default_rng(3)
        n, m = 2 * HU._SWEEP_BLOCK + 23, 40
        Xs, Y = rng.normal(size=(n, 4)), rng.normal(size=(m, 4))
        tX, tY = rng.uniform(-1, 1, n), rng.uniform(-1, 1, m)
        tX[5] = tY.max()  # no later future sample
        c0 = np.where(tY > tX[0], -(Xs[0] @ Y.T), np.inf)
        j = int(c0.argmin())
        Y, tY = np.vstack([Y, Y[j]]), np.append(tY, tY[j])  # a tie in row 0

        best, arg = HU._causal_min(Xs, Y, tX, tY)
        c = np.where(tY[None, :] > tX[:, None], -(Xs @ Y.T), np.inf)
        assert np.array_equal(best, c.min(axis=1))
        assert np.array_equal(arg, c.argmin(axis=1))
        assert arg[0] == j
        assert best[5] == np.inf and arg[5] == 0


class TestContains:
    def test_hull_vertex_margin_zero(self):
        h = HU.convex_hull(step_curve(0.5))
        z = h.points[0]
        q = L.projective_to_quadric(z)
        q = L.apply_isometry_null(L.time_translation(h.t_shift), q)
        inside, margin = HU.contains(h, L.normalize_quadric(q))
        assert abs(margin) < 1e-7

    def test_center_of_mass_inside(self):
        h = HU.convex_hull(step_curve(0.5))
        tbar = h.curve.tau.mean()
        inside, margin = HU.contains(h, L.CylPoint(np.zeros(2), tbar))
        assert inside and margin > 0

    def test_far_future_outside(self):
        h = HU.convex_hull(step_curve(0.5))
        inside, margin = HU.contains(h, L.CylPoint(np.zeros(2), 1.5))
        assert not inside and margin < 0

    def test_point_outside_chart_rejected(self):
        h = HU.convex_hull(step_curve(0.5))
        with pytest.raises(ValueError):
            HU.contains(h, L.CylPoint(np.zeros(2), np.pi / 2 + 0.2))


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

    def test_envelopes_weakly_spacelike(self):
        c = step_curve(0.5)
        um, up = HU.dod_envelopes(c, MESH)
        for u in (um, up):
            g = np.linalg.norm(
                np.stack(np.gradient(u[:2]), axis=0), axis=0
            )  # crude smoke check only on ordering below
        assert np.all(um <= up)

    def test_hull_sandwich(self):
        c = step_curve(0.5)
        h = HU.convex_hull(c)
        um, up = HU.dod_envelopes(c, MESH)
        lo, hi = HU.hull_heights(h, MESH)
        assert np.all(um <= lo + 1e-8)
        assert np.all(lo <= hi + 1e-12)
        assert np.all(hi <= up + 1e-8)

    @pytest.mark.parametrize("f", [B.bump_family(0.3), B.step_family(0.5)],
                             ids=["bump_0.3", "step_0.5"])
    def test_heights_are_exact_hull_boundaries(self, f):
        # thin hulls: a sampled search collapses these intervals to a point
        h = HU.convex_hull(B.lift_graph(f, 256))
        mesh = MM.make_mesh(2.2, 20, 64)
        lo, hi = HU.hull_heights(h, mesh)
        assert np.all(lo < hi)
        for t in (lo, hi):
            assert np.abs(HU.graph_margins(h, mesh, t)).max() < 1e-12
        assert HU.graph_margins(h, mesh, 0.5 * (lo + hi)).min() > 0

    def test_facet_missing_the_line_does_not_bind(self):
        # slab |z3| <= 1/2 cut by z1 >= 1/10: over Klein points with
        # k1 >= 1/10 the cut never meets the vertical line (k sec t, tan t)
        eq = np.array([[0.0, 0, 1, -0.5], [0, 0, -1, -0.5], [-1, 0, 0, 0.1]])
        c = B.lift_graph(B.step_family(0.5), 64)
        h = HU.ConvexHull3(c, 0.0, np.zeros((4, 3)), False, eq, None, None)
        lo, hi = HU.hull_heights(h, MESH)
        h3 = L.poincare_to_hyperboloid(MESH.vertices)
        far = h3[:, 0] / h3[:, 2] >= 0.1
        assert far.sum() > 50
        assert np.allclose(hi[far], np.arctan(0.5), atol=1e-14)
        assert np.allclose(lo[far], -np.arctan(0.5), atol=1e-14)

    def test_planar_heights_match_plane(self):
        m = L.random_mobius(np.random.default_rng(1), 0.4)
        c = B.lift_graph(B.mobius_boundary(m), 256)
        h = HU.convex_hull(c)
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        q = L.normalize_quadric(L.from_matrix(L.adj2(np.linalg.inv(J) @ m.m)))
        lo, hi = HU.hull_heights(h, MESH)
        dev = min(
            np.abs(lo - L.plane_graph_height(q, MESH.vertices, branch=b)).max()
            for b in (-1, 1)
        )
        assert dev < 1e-9
        assert np.abs(hi - lo).max() < 1e-9


class TestRegularityMargin:
    def test_mobius_is_pi_half(self):
        m = L.random_mobius(np.random.default_rng(1), 0.4)
        c = B.lift_graph(B.mobius_boundary(m), 256)
        eps = HU.regularity_margin(HU.convex_hull(c), c, MESH)
        assert eps == pytest.approx(np.pi / 2, abs=1e-3)

    def test_decreasing_to_zero_along_family(self):
        eps = [
            HU.regularity_margin(HU.convex_hull(step_curve(k)), step_curve(k),
                                 MESH)
            for k in (0.5, 0.9, 0.99)
        ]
        assert eps[0] > eps[1] > eps[2]
        assert eps[2] < 0.05

    def test_bounded_by_pi_half(self):
        for k in (0.0, 0.5):
            c = step_curve(k) if k else B.lift_graph(B.CircleHomeo.identity(), 128)
            eps = HU.regularity_margin(HU.convex_hull(c), c, MESH)
            assert eps <= np.pi / 2 + 1e-9

    def test_tracks_width_complement(self):
        c = step_curve(0.9)
        h = HU.convex_hull(c)
        eps = HU.regularity_margin(h, c, MESH)
        w = HU.width(h).width
        assert eps <= np.pi / 2 - w + 0.05
        assert eps > 0
