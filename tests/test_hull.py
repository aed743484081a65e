import dataclasses

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

    def test_argmax_pair_lies_on_the_hull(self):
        # an isometry image is recentered in time before hulling
        g = L.random_isometry(np.random.default_rng(0), 0.3)
        h = HU.convex_hull(step_curve(0.5, 256).transform(g))
        assert abs(h.t_shift) > 0.05
        w = HU.width(h)
        for q in (w.argmax_past, w.argmax_future):
            assert abs(HU.contains(h, q)[1]) < 1e-12

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
        (0.7, 0.8311468374501078),
        (0.9, 1.3073039407159233),
    ])
    def test_step_widths_are_pinned(self, kappa, value):
        w = HU.width(HU.convex_hull(step_curve(kappa)))
        assert w.width_raw == pytest.approx(value, abs=1e-12)

    def test_swapped_boundaries_have_no_ordered_pair(self):
        # every timelike edge pair then runs from future to past
        h = HU.convex_hull(step_curve(0.5, 128))
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

        def grid(label):
            z = HU._facet_samples(h, label, 20)
            z = z.reshape((h.labels == label).sum(), -1, 3)
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
