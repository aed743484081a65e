import numpy as np
import pytest

from adsmax import boundary as B
from adsmax import lorentz as L


def rp1(x):
    """Doubled angle of the affine RP^1 coordinate x = cot(beta/2)."""
    return 2 * np.arctan2(1.0, np.asarray(x, dtype=float))


class TestCrossRatio:
    def test_paper_value_two(self):
        assert B.cross_ratio(*rp1([-3, -1, 1, np.inf])) == pytest.approx(
            2.0, abs=1e-15)

    def test_paper_value_one(self):
        assert B.cross_ratio(*rp1([0, 0, 1, 1])) == pytest.approx(1.0, abs=1e-15)

    def test_mobius_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = L.random_mobius(rng)
            quad = rp1(rng.standard_normal(4) * 3)
            cr1 = B.cross_ratio(*quad)
            cr2 = B.cross_ratio(*m.apply_angle(quad))
            assert cr2 == pytest.approx(cr1, rel=1e-10, abs=1e-10)

    def test_matches_affine_formula(self):
        # one broadcast call over 200 quadruples of finite RP^1 coordinates
        a, b, c, d = np.random.default_rng(5).standard_normal((4, 200)) * 3
        ref = ((a - c) * (b - d)) / ((b - c) * (a - d))
        got = B.cross_ratio(*rp1([a, b, c, d]))
        assert got.shape == (200,)
        assert np.allclose(got, ref, rtol=1e-9, atol=0)

    def test_three_coincident_raises(self):
        with pytest.raises(ValueError):
            B.cross_ratio(*rp1([1, 1, 1, 2]))


class TestCircleHomeo:
    def test_identity(self):
        f = B.CircleHomeo.identity()
        x = np.linspace(0, 2 * np.pi, 40)
        assert np.allclose(f.lift(x), x)

    def test_rejects_non_monotone(self):
        x = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        y = x.copy()
        y[3], y[4] = y[4], y[3]
        with pytest.raises(ValueError):
            B.CircleHomeo.from_knots(x, y)

    def test_interpolant_monotone(self):
        # linear between strictly increasing knots stays increasing
        rng = np.random.default_rng(1)
        x = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        y = np.cumsum(rng.uniform(0.01, 1.0, 32))
        y = y / y[-1] * (2 * np.pi - 0.1)
        f = B.CircleHomeo.from_knots(x, y)
        s = np.linspace(0, 2 * np.pi, 2000)
        F = f.lift(s)
        assert np.all(np.diff(F) >= 0)

    def test_knots_are_kept_and_joined_by_chords(self):
        # through each knot to round-off, and affine on every interval
        # between consecutive knots, the wrap interval included
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0, 2 * np.pi, 12))
        y = np.cumsum(rng.uniform(0.01, 1.0, 12))
        y = y / (y[-1] + 0.4) * 2 * np.pi + 0.2
        f = B.CircleHomeo.from_knots(x, y)
        assert np.abs(f.lift(x) - y).max() < 1e-14
        xs = np.concatenate([x, [x[0] + 2 * np.pi]])
        ys = np.concatenate([y, [y[0] + 2 * np.pi]])
        t = np.linspace(0, 1, 7)
        for a, b, fa, fb in zip(xs[:-1], xs[1:], ys[:-1], ys[1:]):
            chord = fa + t * (fb - fa)
            assert np.abs(f.lift(a + t * (b - a)) - chord).max() < 1e-13

    def test_degree_one(self):
        f = B.step_family(0.6)
        x = np.linspace(-5, 5, 30)
        assert np.allclose(f.lift(x + 2 * np.pi), f.lift(x) + 2 * np.pi, atol=1e-12)

    def test_sampled_lift_has_degree_one(self):
        rng = np.random.default_rng(7)
        x = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        y = np.cumsum(rng.uniform(0.01, 1.0, 32))
        f = B.CircleHomeo.from_knots(x, y / y[-1] * (2 * np.pi - 0.1))
        s = np.linspace(-5, 5, 301)
        assert np.allclose(f.lift(s + 2 * np.pi), f.lift(s) + 2 * np.pi, atol=1e-12)


class TestFamilies:
    def test_step_zero_is_identity(self):
        x = np.linspace(-5, 5, 101)
        assert np.array_equal(B.step_family(0.0).lift(x), x)

    def test_step_monotone_knots(self):
        x = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        for k in (0.25, 0.5, 0.75, 0.9, 0.99):
            assert np.all(np.diff(B.step_family(k).lift(x)) > 0)

    def test_step_out_of_range(self):
        with pytest.raises(ValueError):
            B.step_family(1.0)

    def test_mobius_identity(self):
        x = np.linspace(-5, 5, 101)
        f = B.mobius_boundary(L.MobiusMap.identity())
        assert np.abs(f.lift(x) - x).max() < 1e-12

    def test_bump_monotone(self):
        f = B.bump_family(0.8)
        s = np.linspace(0, 2 * np.pi, 500)
        assert np.all(np.diff(f.lift(s)) > 0)

    def test_bump_out_of_range(self):
        with pytest.raises(ValueError):
            B.bump_family(1.0)

    @pytest.mark.parametrize("f", [
        B.mobius_boundary(L.random_mobius(np.random.default_rng(2), 0.5)),
        B.step_family(0.5),
        B.bump_family(0.3),
        B.CircleHomeo.from_knots(np.linspace(0, 2 * np.pi, 8, endpoint=False),
                                 np.linspace(0.1, 2 * np.pi + 0.1, 8,
                                             endpoint=False)),
    ], ids=["mobius", "step", "bump", "knots"])
    def test_scalar_in_float_out_shape_kept(self, f):
        assert type(f.lift(0.5)) is float and type(f(0.5)) is float
        x = np.linspace(-5, 5, 6).reshape(2, 3)
        assert f.lift(x).shape == f(x).shape == (2, 3)
        assert f.lift(x[:1, :1]).shape == (1, 1)


class TestQsModulus:
    def test_identity_is_one(self):
        assert B.qs_modulus(B.CircleHomeo.identity()) == pytest.approx(1.0, abs=1e-10)

    def test_mobius_is_one(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            m = L.random_mobius(rng, 0.6)
            assert B.qs_modulus(B.mobius_boundary(m)) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_step_family_monotone_in_kappa(self):
        mods = [B.qs_modulus(B.step_family(k)) for k in (0.0, 0.25, 0.5, 0.75, 0.9)]
        assert all(m2 >= m1 - 1e-9 for m1, m2 in zip(mods, mods[1:]))
        assert mods[-1] > mods[1] > 1.0

    @pytest.mark.parametrize("kappa,value", [
        (0.3, 1.1736040491973145),
        (0.5, 3.2801421787383136),
        (0.7, 14.464249865291977),
        (0.8, 48.54831282817119),
        (0.9, 232.53607821615302),
    ])
    def test_step_family_values_are_pinned(self, kappa, value):
        assert B.qs_modulus(B.step_family(kappa)) == pytest.approx(
            value, rel=1e-13, abs=0)

    def test_composition_with_mobius_stable(self):
        # pre/post-composing with Mobius maps moves the sampled modulus only
        # by sampler resolution
        rng = np.random.default_rng(3)
        f = B.step_family(0.5)
        base = B.qs_modulus(f)
        m1, m2 = L.random_mobius(rng, 0.3), L.random_mobius(rng, 0.3)
        comp = B.CircleHomeo(
            lambda x: m1.apply_angle_lift(f.lift(m2.apply_angle_lift(x))))
        # composed map is quasi-symmetric with the same true modulus; sampled
        # values agree within the stratification tolerance
        assert B.qs_modulus(comp) == pytest.approx(base, rel=0.2)


class TestLiftGraph:
    def test_identity_equator(self):
        c = B.lift_graph(B.CircleHomeo.identity(), 64)
        assert np.abs(c.tau).max() == 0.0
        assert np.abs(c.xi - c.eta).max() < 1e-12

    def test_mobius_lands_on_plane_boundary(self):
        rng = np.random.default_rng(4)
        m = L.random_mobius(rng, 0.5)
        c = B.lift_graph(B.mobius_boundary(m), 128)
        assert c.is_planar()
        res = np.angle(np.exp(1j * (c.eta - m.apply_angle(c.xi))))
        assert np.abs(res).max() < 1e-9

    def test_step_curve_approaches_lightlike(self):
        # the kappa -> 1 limit is the 2-step graph: slopes approach +-1 and
        # tau spans almost (-pi/4, pi/4) in this normalization
        c = B.lift_graph(B.step_family(0.99), 4096)
        slope = np.diff(c.tau) / np.diff(c.theta)
        assert np.abs(slope).max() > 0.99
        assert np.abs(slope).max() <= 1 + 1e-9
        assert c.tau.max() > np.pi / 4 - 0.05
        assert c.tau.min() < -np.pi / 4 + 0.05

    def test_achronal_for_every_monotone_map(self):
        rng = np.random.default_rng(5)
        x = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        y = np.cumsum(rng.uniform(0.01, 1.0, 64))
        y = y / (y[-1] + 0.5) * 2 * np.pi
        c = B.lift_graph(B.CircleHomeo.from_knots(x, y), 512)
        dth = np.diff(np.concatenate([c.theta, [c.theta[0] + 2 * np.pi]]))
        dta = np.diff(np.concatenate([c.tau, [c.tau[0]]]))
        assert np.all(np.abs(dta) <= np.abs(dth) + 1e-9)

    def test_more_than_one_turn_rejected(self):
        th = np.linspace(0.0, 3 * np.pi, 12)  # increasing, but 1.5 turns
        with pytest.raises(ValueError):
            B.BoundaryCurve(th, np.zeros_like(th))

    def test_timelike_pair_rejected(self):
        th = np.array([0.0, 1.0, 2.0, 4.0])
        ta = np.array([0.0, 0.0, 1.5, 0.0])  # jump of 1.5 over dtheta 1.0
        with pytest.raises(ValueError):
            B.BoundaryCurve(th, ta)

    def test_equivariance_under_isometries(self):
        rng = np.random.default_rng(6)
        f = B.step_family(0.3)
        m1, m2 = L.random_mobius(rng, 0.4), L.random_mobius(rng, 0.4)
        comp = B.CircleHomeo(
            lambda x: m1.apply_angle_lift(f.lift(m2.apply_angle_lift(x))))
        c1 = B.lift_graph(comp, 800)
        c2 = B.lift_graph(f, 800).transform(L.Isometry3(m2.inverse(), m1))
        dev = np.angle(np.exp(1j * (c1.tau_of_theta(c2.theta) - c2.tau)))
        assert np.abs(dev).max() < 1e-4


class TestResample:
    def test_is_the_linear_rule_at_uniform_theta(self):
        c = B.lift_graph(B.step_family(0.5), 300)
        q = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        r = c.resample(128)
        assert np.array_equal(r.theta, q)
        assert np.array_equal(r.tau, c.tau_of_theta(q))

    def test_constant_tau_mobius_curve_stays_planar(self):
        # a rotation's graph has constant tau, which the linear rule keeps;
        # a generic Mobius graph bends between samples and leaves its plane
        # by the chord error (singular-value ratio ~1e-6 at 512 samples)
        c = B.lift_graph(B.mobius_boundary(L.MobiusMap.rotation(0.4)), 512)
        r = c.resample(100)
        assert c.is_planar() and r.is_planar()
        assert np.ptp(r.tau) < 1e-12


class TestTwoStep:
    def test_achronal_and_spans(self):
        c = B.two_step_curve(256)
        assert c.tau.max() == pytest.approx(np.pi / 2, abs=0.02)
        assert c.tau.min() == pytest.approx(0.0, abs=0.02)

    def test_lightlike_segments(self):
        c = B.two_step_curve(256)
        dth = np.diff(c.theta)
        dta = np.diff(c.tau)
        # all but the 4 corner cells are exactly lightlike
        ratio = np.abs(dta) / dth
        assert (np.abs(ratio - 1.0) < 1e-9).sum() >= len(ratio) - 4
