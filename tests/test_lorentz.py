import numpy as np
import pytest

from adsmax import lorentz as L
from adsmax import surface as SF


def random_quadric_point(rng):
    v = rng.standard_normal(4)
    v[2:] *= 3.0
    while L.inner(v, v) >= -0.1:
        v = rng.standard_normal(4)
        v[2:] *= 3.0
    return L.normalize_quadric(v)


def random_unit_tangent(rng, p, kind):
    """Unit tangent at p of given causal class ('timelike'/'spacelike'/'null')."""
    for _ in range(200):
        w = rng.standard_normal(4)
        w = w + L.inner(w, p) * p  # project out p (note <p,p>=-1)
        q = L.inner(w, w)
        if kind == "timelike" and q < -1e-3:
            return w / np.sqrt(-q)
        if kind == "spacelike" and q > 1e-3:
            return w / np.sqrt(q)
        if kind == "null":
            # mix a timelike and a spacelike unit vector
            t = random_unit_tangent(rng, p, "timelike")
            s = random_unit_tangent(rng, p, "spacelike")
            s = s + L.inner(s, t) * t
            s = s / np.sqrt(L.inner(s, s))
            return t + s
    raise AssertionError("failed to sample tangent")


class TestInner:
    def test_signature(self):
        e = np.eye(4)
        assert L.inner(e[0], e[0]) == 1
        assert L.inner(e[1], e[1]) == 1
        assert L.inner(e[2], e[2]) == -1
        assert L.inner(e[3], e[3]) == -1

    def test_circle_on_quadric(self):
        t = np.linspace(0, 2 * np.pi, 7)
        v = np.stack([0 * t, 0 * t, np.cos(t), np.sin(t)], axis=-1)
        assert np.allclose(L.inner(v, v), -1)

    def test_bilinear_symmetric(self):
        rng = np.random.default_rng(3)
        a, b, c = rng.standard_normal((3, 4))
        assert L.inner(a, b) == pytest.approx(L.inner(b, a))
        assert L.inner(a + 2 * c, b) == pytest.approx(
            L.inner(a, b) + 2 * L.inner(c, b)
        )


class TestChart:
    def test_basepoint(self):
        q = L.cyl_to_quadric(np.zeros(2), 0.0)
        assert np.allclose(q, [0, 0, 1, 0])

    def test_full_period(self):
        q = L.cyl_to_quadric(np.zeros(2), 2 * np.pi)
        assert np.allclose(q, [0, 0, 1, 0], atol=1e-12)

    def test_lift_on_quadric(self):
        y = np.array([0.3, 0.4])  # |y| = 0.5
        q = L.cyl_to_quadric(y, 0.37)
        assert abs(L.inner(q, q) + 1) < 1e-12

    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            y = rng.uniform(-0.6, 0.6, 2)
            if (y**2).sum() >= 0.9:
                continue
            t = rng.uniform(-np.pi + 1e-6, np.pi)
            y2, t2 = L.quadric_to_cyl(L.cyl_to_quadric(y, t))
            assert np.allclose(y2, y, atol=1e-12)
            assert t2 == pytest.approx(t, abs=1e-12)

    @pytest.mark.parametrize("gap", [1e-9, 1e-5, 3e-5])
    def test_roundtrip_just_above_minus_pi(self, gap):
        # the principal value lies in (-pi, pi]: only t = -pi itself wraps
        t = -np.pi + gap
        y2, t2 = L.quadric_to_cyl(L.cyl_to_quadric(np.array([0.1, 0.2]), t))
        assert t2 == pytest.approx(t, abs=1e-12)

    def test_winding_hint(self):
        t = 2 * np.pi + 0.3
        q = L.cyl_to_quadric(np.array([0.2, 0.0]), t)
        _, t2 = L.quadric_to_cyl(q, t_near=2 * np.pi)
        assert t2 == pytest.approx(t, abs=1e-12)

    def test_x3x4_always_at_least_one(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = random_quadric_point(rng)
            assert np.hypot(p[2], p[3]) >= 1.0 - 1e-12


class TestGeodesics:
    def test_identity_at_zero(self):
        rng = np.random.default_rng(4)
        p = random_quadric_point(rng)
        for kind in ("timelike", "spacelike", "null"):
            v = random_unit_tangent(rng, p, kind)
            assert np.allclose(L.geodesic_exp(p, v, 0.0), p, atol=1e-12)

    def test_timelike_antipode(self):
        rng = np.random.default_rng(5)
        p = random_quadric_point(rng)
        v = random_unit_tangent(rng, p, "timelike")
        assert np.allclose(L.geodesic_exp(p, v, np.pi), -p, atol=1e-10)

    def test_timelike_period(self):
        rng = np.random.default_rng(6)
        p = random_quadric_point(rng)
        v = random_unit_tangent(rng, p, "timelike")
        assert np.allclose(L.geodesic_exp(p, v, 2 * np.pi), p, atol=1e-10)

    def test_spacelike_branch(self):
        rng = np.random.default_rng(7)
        p = random_quadric_point(rng)
        v = random_unit_tangent(rng, p, "spacelike")
        out = L.geodesic_exp(p, v, 1.0)
        assert np.allclose(out, np.cosh(1) * p + np.sinh(1) * v, atol=1e-10)

    def test_rejects_non_orthogonal(self):
        rng = np.random.default_rng(8)
        p = random_quadric_point(rng)
        with pytest.raises(ValueError):
            L.geodesic_exp(p, p + random_unit_tangent(rng, p, "spacelike"), 0.5)

    def test_group_law_with_parallel_transport(self):
        rng = np.random.default_rng(9)
        p = random_quadric_point(rng)
        v = random_unit_tangent(rng, p, "timelike")
        s, s2 = 0.4, 0.9
        q1 = L.geodesic_exp(p, v, s + s2)
        mid = L.geodesic_exp(p, v, s)
        # the transported tangent -sin(s) p + cos(s) v is the point a
        # quarter period further on
        vmid = L.geodesic_exp(p, v, s + np.pi / 2)
        q2 = L.geodesic_exp(mid, vmid, s2)
        assert np.allclose(q1, q2, atol=1e-10)


class TestSeparation:
    def test_timelike_plugin(self):
        rng = np.random.default_rng(10)
        p = random_quadric_point(rng)
        v = random_unit_tangent(rng, p, "timelike")
        kind, val = L.lorentz_separation(p, L.geodesic_exp(p, v, np.pi / 2))
        assert kind == "timelike"
        assert val == pytest.approx(np.pi / 2, abs=1e-10)

    def test_spacelike_plugin(self):
        rng = np.random.default_rng(11)
        p = random_quadric_point(rng)
        v = random_unit_tangent(rng, p, "spacelike")
        kind, val = L.lorentz_separation(p, L.geodesic_exp(p, v, 2.0))
        assert kind == "spacelike"
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_lightlike(self):
        rng = np.random.default_rng(12)
        p = random_quadric_point(rng)
        v = random_unit_tangent(rng, p, "null")
        kind, val = L.lorentz_separation(p, L.geodesic_exp(p, v, 1.3))
        assert kind == "lightlike"
        assert val == 0.0

    def test_beyond_period_raises(self):
        # -<p,q> < -1 happens for the antipode of a spacelike-related point
        rng = np.random.default_rng(13)
        p = random_quadric_point(rng)
        v = random_unit_tangent(rng, p, "spacelike")
        q = -L.geodesic_exp(p, v, 1.0)
        with pytest.raises(ValueError):
            L.lorentz_separation(p, q)

    def test_principal_value_past_antipode(self):
        # s = pi + 0.3 lands at timelike separation pi - 0.3 (short way around)
        rng = np.random.default_rng(113)
        p = random_quadric_point(rng)
        v = random_unit_tangent(rng, p, "timelike")
        kind, val = L.lorentz_separation(p, L.geodesic_exp(p, v, np.pi + 0.3))
        assert kind == "timelike"
        assert val == pytest.approx(np.pi - 0.3, abs=1e-10)

    def test_reverse_triangle_inequality(self):
        # delta(p,r) >= delta(p,q) + delta(q,r) for chained timelike triples
        rng = np.random.default_rng(14)
        for _ in range(200):
            p = random_quadric_point(rng)
            v = random_unit_tangent(rng, p, "timelike")
            s1 = rng.uniform(0.05, 1.0)
            q = L.geodesic_exp(p, v, s1)
            w = random_unit_tangent(rng, q, "timelike")
            w = np.sign(-L.inner(w, L.geodesic_exp(p, v, s1 + np.pi / 2))) * w
            s2 = rng.uniform(0.05, min(1.0, np.pi - s1 - 0.1))
            r = L.geodesic_exp(q, w, s2)
            k1, d_pq = L.lorentz_separation(p, q)
            k2, d_qr = L.lorentz_separation(q, r)
            try:
                k3, d_pr = L.lorentz_separation(p, r)
            except ValueError:
                continue
            if k3 != "timelike":
                continue
            assert d_pr >= d_pq + d_qr - 1e-9


def plane_points(q, rng, n):
    """n points of the plane dual to q, on its graph over the disk."""
    y = rng.uniform(-0.6, 0.6, (n, 2))
    return L.cyl_to_quadric(y, L.plane_graph_height(q, y))


class TestDuality:
    def test_sampled_separation_pi_half(self):
        rng = np.random.default_rng(16)
        p = random_quadric_point(rng)
        pts = plane_points(p, rng, 25)
        for z in pts:
            kind, val = L.lorentz_separation(p, z)
            assert kind == "timelike"
            assert val == pytest.approx(np.pi / 2, abs=1e-10)


class TestMatrixModel:
    def test_det_identity_random(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((1000, 4))
        dev = np.abs(np.linalg.det(L.to_matrix(x)) + L.inner(x, x))
        assert dev.max() < 1e-12 * np.abs(L.inner(x, x)).max() + 1e-12

    def test_linear(self):
        rng = np.random.default_rng(18)
        a, b = rng.standard_normal((2, 4))
        assert np.allclose(L.to_matrix(a + b), L.to_matrix(a) + L.to_matrix(b))
        assert np.allclose(L.from_matrix(L.to_matrix(a)), a)

    def test_ruling_of_angles(self):
        rng = np.random.default_rng(19)
        th = rng.uniform(0, 2 * np.pi, 40)
        ta = rng.uniform(-1.5, 1.5, 40)
        xi, eta = L.ruling_coords(L.null_from_angles(th, ta))
        assert np.allclose(np.mod(xi - (th - ta), 2 * np.pi) % (2 * np.pi), 0, atol=1e-9) or (
            np.abs(np.angle(np.exp(1j * (xi - (th - ta))))).max() < 1e-9
        )
        assert np.abs(np.angle(np.exp(1j * (eta - (th + ta))))).max() < 1e-9

    def test_ruling_rejects_non_null(self):
        with pytest.raises(ValueError):
            L.ruling_coords(np.array([1.0, 0, 0, 0]))

    def test_common_left_leaf(self):
        # two null points on a common left leaf share xi: take the boundary of
        # a plane and a second plane through the same xi leaf
        rng = np.random.default_rng(20)
        g = L.random_isometry(rng)
        th = np.array([0.4, 0.4])
        ta = np.array([0.1, 0.9])
        # same xi requires th - ta equal:
        th = ta + 0.77
        v = L.apply_isometry(g, L.null_from_angles(th, ta))
        xi, _ = L.ruling_coords(v)
        assert abs(np.angle(np.exp(1j * (xi[0] - xi[1])))) < 1e-9


class TestIsometries:
    def test_identity_fixes(self):
        rng = np.random.default_rng(21)
        p = random_quadric_point(rng)
        assert np.allclose(L.apply_isometry(L.Isometry3(), p), p)

    def test_rotation_pair_fixes_basepoint(self):
        g = L.disk_rotation(0.9)
        p = np.array([0.0, 0, 1, 0])
        assert np.allclose(L.apply_isometry(g, p), p, atol=1e-12)

    def test_preserves_inner(self):
        rng = np.random.default_rng(22)
        g = L.random_isometry(rng)
        a = rng.standard_normal((100, 4))
        b = rng.standard_normal((100, 4))
        ga = L.apply_isometry(g, a)
        gb = L.apply_isometry(g, b)
        assert np.abs(L.inner(ga, gb) - L.inner(a, b)).max() < 1e-10 * max(
            1, np.abs(L.inner(a, b)).max()
        )

    def test_boundary_action_commutes_with_rulings(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            g = L.random_isometry(rng)
            v = L.null_from_angles(rng.uniform(0, 2 * np.pi), rng.uniform(-1, 1))
            xi, eta = L.ruling_coords(v)
            xi2, eta2 = L.ruling_coords(L.apply_isometry(g, v))
            assert abs(np.angle(np.exp(1j * (xi2 - g.left.apply_angle(xi))))) < 1e-9
            assert abs(np.angle(np.exp(1j * (eta2 - g.right.apply_angle(eta))))) < 1e-9

    def test_quadric_preserved(self):
        rng = np.random.default_rng(24)
        g = L.random_isometry(rng)
        q = L.apply_isometry(g, random_quadric_point(rng))
        assert abs(L.inner(q, q) + 1) < 1e-10


class TestProjectiveChart:
    def test_basepoint(self):
        z = L.quadric_to_projective(L.cyl_to_quadric(np.zeros(2), 0.0))
        assert np.allclose(z, 0.0)

    def test_rejects_outside(self):
        # x3 = cos t is 6e-17 at t = pi/2 itself, so step past it
        with pytest.raises(ValueError):
            L.quadric_to_projective(
                L.cyl_to_quadric(np.zeros(2), np.pi / 2 + 0.1))

    def test_geodesics_to_lines(self):
        rng = np.random.default_rng(25)
        p = L.cyl_to_quadric(np.array([0.1, -0.2]), 0.05)
        v = random_unit_tangent(rng, p, "spacelike")
        pts = L.geodesic_exp(p, v, np.array([-0.5, 0.1, 0.4]))
        z = L.quadric_to_projective(pts)
        d1 = z[1] - z[0]
        d2 = z[2] - z[0]
        cross = np.cross(d1, d2)
        assert np.linalg.norm(cross) < 1e-10 * np.linalg.norm(d1) * np.linalg.norm(d2)

    def test_image_inequality(self):
        rng = np.random.default_rng(26)
        y = rng.uniform(-0.5, 0.5, (50, 2))
        t = rng.uniform(-1.4, 1.4, 50)
        z = L.quadric_to_projective(L.cyl_to_quadric(y, t))
        assert np.all(z[:, 0] ** 2 + z[:, 1] ** 2 <= z[:, 2] ** 2 + 1 + 1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(27)
        y = rng.uniform(-0.5, 0.5, (20, 2))
        t = rng.uniform(-1.4, 1.4, 20)
        q = L.cyl_to_quadric(y, t)
        assert np.allclose(L.projective_to_quadric(L.quadric_to_projective(q)), q)


class TestPlaneMobius:
    def test_reference_plane_identity(self):
        assert np.array_equal(L.plane_mobius(L.E4), np.eye(2))

    def test_batched_matches_single(self):
        # dual points q and -q (the same plane) in one (2, 6, 4) batch: the
        # sign rule runs per plane, and one of each pair needs the flip
        rng = np.random.default_rng(31)
        q = np.stack([L.apply_isometry(L.random_isometry(rng, 0.7), L.E4)
                      for _ in range(6)])
        q = np.stack([q, -q])
        m = L.plane_mobius(q)
        assert m.shape == (2, 6, 2, 2)
        for idx in np.ndindex(q.shape[:-1]):
            assert np.array_equal(m[idx], L.plane_mobius(q[idx]))
        assert np.array_equal(m[0], m[1])
        assert np.all(np.trace(m, axis1=-2, axis2=-1) > 0)
        assert np.allclose(np.linalg.det(m), 1.0, atol=1e-12)

    def test_phil_sends_plane_to_reference(self):
        rng = np.random.default_rng(28)
        g = L.random_isometry(rng, 0.7)
        q = L.apply_isometry(g, L.E4)
        phil, phir = L.leftright_to_P0(q)
        pts = plane_points(q, rng, 20)
        for iso in (phil, phir):
            img = L.apply_isometry(iso, pts)
            assert np.abs(L.inner(img, L.E4)).max() < 1e-9

    def test_phil_preserves_xi_on_boundary(self):
        rng = np.random.default_rng(29)
        g = L.random_isometry(rng, 0.7)
        q = L.apply_isometry(g, L.E4)
        phil, _ = L.leftright_to_P0(q)
        th = np.linspace(0, 2 * np.pi, 9)[:-1]
        # the ideal boundary of the plane dual to g E4 is g of the equator
        v = L.apply_isometry(g, L.null_from_angles(th, 0 * th))
        xi, _ = L.ruling_coords(v)
        xi2, eta2 = L.ruling_coords(L.apply_isometry(phil, v))
        assert np.abs(np.angle(np.exp(1j * (xi2 - xi)))).max() < 1e-9
        # image boundary is the equator graph eta = xi
        assert np.abs(np.angle(np.exp(1j * (eta2 - xi2)))).max() < 1e-9

    def test_plane_graph_and_gradient_function(self):
        rng = np.random.default_rng(30)
        g = L.random_isometry(rng, 0.5)
        q = L.apply_isometry(g, L.E4)
        y = rng.uniform(-0.5, 0.5, (40, 2))
        t = L.plane_graph_height(q, y, branch=-1)
        assert np.abs(L.inner(L.cyl_to_quadric(y, t), q)).max() < 1e-10
        # the gradient function is -<nu, T> for the unit normal nu = q and
        # the unit time direction T
        T = SF.chart_frame(y, t)[:, 2]
        v = -L.inner(q, T) / np.sqrt(-L.inner(T, T))
        assert v.min() >= 1.0 - 1e-12
