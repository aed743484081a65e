"""Circle homeomorphisms and their lifted graphs in the asymptotic boundary.

A monotone degree-1 circle map f acts on the doubled-angle coordinate of the
first ruling family; its graph {(xi, f(xi))} lifts to the achronal curve

    theta(s) = (s + F(s))/2,   tau(s) = (F(s) - s)/2,

where F is a lift of f.  The identity lifts to the equator tau = 0, the
boundary of the reference plane.  Quasi-symmetry is probed by the distortion
of cross-ratio-2 quadruples, transported around the circle by Mobius maps.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import ive

from . import lorentz as L
from .constants import (
    ACHRONAL_TOL,
    LIGHTLIKE_RUN_TOL,
    PLANAR_TOL,
    QS_ANGLES,
    QS_MAX_LOG_SCALE,
    QS_SCALES,
    STEP_COEFF_CUT,
)

TWO_PI = 2 * np.pi


def cross_ratio(a, b, c, d):
    """cr(a,b;c,d) = ((x_a-x_c)(x_b-x_d))/((x_b-x_c)(x_a-x_d)) of the RP^1
    points x = cot(beta/2) with doubled angles a, b, c, d; broadcasts.

    x_i - x_j = sin((b_j - b_i)/2) / (sin(b_i/2) sin(b_j/2)), and the sine
    factors cancel, so the angle form needs no special case at x = inf.
    inf where only the denominator vanishes; ValueError where both do.
    Points coincide when their angles are equal as given, so pass angles
    reduced mod 2pi.
    """
    num = np.sin((c - a) / 2) * np.sin((d - b) / 2)
    den = np.sin((c - b) / 2) * np.sin((d - a) / 2)
    if np.any((den == 0) & (num == 0)):
        raise ValueError("undefined coincidence pattern")
    with np.errstate(divide="ignore"):
        out = np.where(den == 0, np.inf, num / den)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class CircleHomeo:
    """Strictly increasing degree-1 circle map, given by a lift F with
    F(x + 2pi) = F(x) + 2pi.

    The closed-form families pass their formula; `from_knots` builds the
    piecewise-linear lift of sampled data.
    """

    F: Callable

    @staticmethod
    def identity() -> "CircleHomeo":
        return CircleHomeo(lambda v: np.asarray(v, float))

    @staticmethod
    def from_knots(x, y) -> "CircleHomeo":
        """Lift through knots x in [0, 2pi) with lifted values y, both
        strictly increasing with winding 1: linear between consecutive
        knots, the wrap interval included, as F(v) - v is interpolated
        with period 2pi.  Monotone, of degree one, not C^1 at the knots."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or len(x) < 4:
            raise ValueError("need at least 4 matching knots")
        if np.any(np.diff(x) <= 0) or x[0] < 0 or x[-1] >= TWO_PI:
            raise ValueError("knot angles must be strictly increasing in [0, 2pi)")
        wrap = np.diff(np.concatenate([y, [y[0] + TWO_PI]]))
        if np.any(wrap <= 0):
            raise ValueError("knot values must be strictly increasing with winding 1")
        return CircleHomeo(lambda v: v + np.interp(v, x, y - x, period=TWO_PI))

    def lift(self, x):
        """Monotone lift: F(x + 2pi) = F(x) + 2pi."""
        out = np.asarray(self.F(np.asarray(x, dtype=float)), dtype=float)
        return out if out.ndim else float(out)

    def __call__(self, x):
        out = np.mod(self.lift(x), TWO_PI)
        return out if np.ndim(out) else float(out)


def mobius_boundary(m: L.MobiusMap) -> CircleHomeo:
    """The circle map induced by a Mobius transformation on doubled angles."""
    return CircleHomeo(m.apply_angle_lift)


def step_family(kappa: float) -> CircleHomeo:
    """Deformation from the identity (kappa=0) to the standard 2-step graph.

    F(x) = x + kappa * sum_k c_k(a) sin(2kx)/k with c_k = I_k(a)/I_0(a),
    the cumulative of a two-spike von Mises density at x = 0 and pi; the
    sharpness a grows as kappa -> 1 and the graph limits onto four lightlike
    segments.  Strictly monotone for every kappa in [0, 1).
    """
    if not 0.0 <= kappa < 1.0:
        raise ValueError("kappa must be in [0, 1)")
    if kappa == 0.0:
        return CircleHomeo.identity()
    a = 2.0 * (kappa / (1.0 - kappa)) ** 2
    k_max = max(8, int(np.sqrt(a) * 12) + 8)
    k = np.arange(1, k_max + 1)
    coeff = ive(k, a) / ive(0, a)
    coeff = coeff[coeff > STEP_COEFF_CUT]
    k = k[: len(coeff)]

    def F(x):
        x = np.asarray(x, dtype=float)
        return x + kappa * (
            coeff / k * np.sin(2 * np.multiply.outer(x, k))
        ).sum(axis=-1)

    return CircleHomeo(F)


def bump_family(amplitude: float) -> CircleHomeo:
    """F(x) = x + A sin x, a smooth monotone bump for |A| < 1."""
    if not abs(amplitude) < 1.0:
        raise ValueError("|amplitude| must be < 1")
    return CircleHomeo(lambda v: np.asarray(v, float) + amplitude * np.sin(v))


# ---------------------------------------------------------------------------
# lifted graphs

@dataclass(frozen=True)
class BoundaryCurve:
    """Closed achronal graph in the asymptotic boundary, sampled.

    theta has winding 1; adjacent samples satisfy |dtau| <= |dtheta| + tol.
    quadric holds the null vectors (cos th, sin th, cos ta, sin ta); xi/eta
    are the doubled-angle ruling coordinates.
    """

    theta: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        ta = np.asarray(self.tau, dtype=float)
        if th.ndim != 1 or th.shape != ta.shape or len(th) < 4:
            raise ValueError("need at least 4 samples")
        dth = np.diff(np.concatenate([th, [th[0] + TWO_PI]]))
        if np.any(dth <= 0):  # the diffs telescope to 2 pi: one turn
            raise ValueError("theta must be strictly increasing with winding 1")
        dta = np.diff(np.concatenate([ta, [ta[0]]]))
        if np.any(np.abs(dta) > np.abs(dth) + ACHRONAL_TOL):
            raise ValueError("curve has a timelike pair of adjacent samples")
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "tau", ta)

    @property
    def quadric(self):
        return L.null_from_angles(self.theta, self.tau)

    @property
    def xi(self):
        return np.mod(self.theta - self.tau, TWO_PI)

    @property
    def eta(self):
        return np.mod(self.theta + self.tau, TWO_PI)

    def tau_of_theta(self, theta):
        """Linear interpolation of the graph tau(theta), periodic."""
        th = np.concatenate([self.theta, [self.theta[0] + TWO_PI]])
        ta = np.concatenate([self.tau, [self.tau[0]]])
        q = np.mod(np.asarray(theta, dtype=float) - th[0], TWO_PI) + th[0]
        out = np.interp(q, th, ta)
        return out if out.ndim else float(out)

    def resample(self, n: int) -> "BoundaryCurve":
        """The graph at n uniform theta, by `tau_of_theta`'s linear rule,
        which keeps the curve achronal."""
        q = np.linspace(0, TWO_PI, n, endpoint=False)
        return BoundaryCurve(q, self.tau_of_theta(q))

    def max_lightlike_run(self) -> int:
        """Longest run of cells with |dtau/dtheta| >= 1 - LIGHTLIKE_RUN_TOL.

        A run of two or more flags a genuine lightlike segment (a single
        cell can be an isolated touch of a smooth graph)."""
        dth = np.diff(np.concatenate([self.theta,
                                      [self.theta[0] + TWO_PI]]))
        dta = np.diff(np.concatenate([self.tau, [self.tau[0]]]))
        flag = np.abs(dta) >= (1.0 - LIGHTLIKE_RUN_TOL) * dth
        if flag.all():
            return len(flag)
        best = run = 0
        for f in np.concatenate([flag, flag]):  # cyclic runs
            run = run + 1 if f else 0
            best = max(best, run)
        return min(best, len(flag))

    def is_planar(self) -> bool:
        """True when all samples lie on a totally geodesic plane (Mobius data)."""
        q = self.quadric
        s = np.linalg.svd(q - q.mean(axis=0), compute_uv=False)
        return bool(s[-1] < PLANAR_TOL * max(1.0, s[0]))

    def transform(self, g: L.Isometry3) -> "BoundaryCurve":
        """Image curve under an isometry, resorted by theta."""
        v = L.apply_isometry(g, self.quadric)
        th = np.arctan2(v[:, 1], v[:, 0])
        ta = np.arctan2(v[:, 3], v[:, 2])
        # re-anchor tau continuously along the curve (samples stay achronal)
        order = np.argsort(np.mod(th, TWO_PI))
        th = np.mod(th[order], TWO_PI)
        ta = ta[order]
        jump = np.round(np.diff(ta) / TWO_PI)
        ta[1:] -= TWO_PI * np.cumsum(jump)
        return canonical_curve(th, ta)


def canonical_curve(theta, tau) -> BoundaryCurve:
    """Build a curve on the canonical lift: mean tau in (-pi/2, pi/2].

    The projection of the boundary to the two ruling families is 2-to-1, so
    graphs lift in antipodal pairs (theta, tau) <-> (theta + pi, tau + pi);
    this picks one lift deterministically.
    """
    theta = np.asarray(theta, dtype=float)
    tau = np.asarray(tau, dtype=float)
    tau = tau - TWO_PI * np.round(np.mean(tau) / TWO_PI)
    if abs(np.mean(tau)) > np.pi / 2:
        s = np.sign(np.mean(tau))
        theta = theta + np.pi
        tau = tau - s * np.pi
        k = theta >= TWO_PI
        order = np.concatenate([np.where(k)[0], np.where(~k)[0]])
        theta = np.where(k, theta - TWO_PI, theta)[order]
        tau = tau[order]
    return BoundaryCurve(theta, tau)


def lift_graph(f: CircleHomeo, n_samples: int = 512) -> BoundaryCurve:
    """Lift the graph of a monotone circle map to a nowhere-timelike curve."""
    s = np.linspace(0, TWO_PI, n_samples, endpoint=False)
    F = f.lift(s)
    return canonical_curve((s + F) / 2, (F - s) / 2)


def two_step_curve(n_samples: int = 512) -> BoundaryCurve:
    """The standard 2-step graph: four lightlike segments (sawtooth tau).

    Samples avoid the exact corners (cell midpoints), so projective-chart
    machinery stays finite.  This curve is the boundary of the flat maximal
    surface ("horosphere") and the kappa -> 1 limit of step_family.
    """
    th = (np.arange(n_samples) + 0.5) * TWO_PI / n_samples
    # tent: tau(theta) = dist(theta, pi Z), four lightlike segments joining
    # (0,0), (pi/2, pi/2), (pi, 0), (3pi/2, pi/2)
    tau = np.minimum(np.mod(th, np.pi), np.pi - np.mod(th, np.pi))
    return BoundaryCurve(th, tau)


# ---------------------------------------------------------------------------
# quasi-symmetry modulus

# doubled angles of (-1, 0, 1, inf) in cot-coordinates
BASE_QUADRUPLE_ANGLES = 2 * np.arctan2(1.0, np.array([-1.0, 0.0, 1.0, np.inf]))


def qs_modulus(f: CircleHomeo) -> float:
    """Sampled quasi-symmetry modulus: sup over cr=2 quadruples of the
    symmetrized log-distortion max(d, 1/d), d = log cr(f(quad)) / log 2.

    The quadruples are Mobius transports of (-1, 0, 1, inf): QS_ANGLES
    rotations of QS_SCALES boosts on a symmetric log ladder.  The boost
    diag(e^{s/2}, e^{-s/2}) sends the doubled angle beta to
    2 atan2(e^{-s/2} sin(beta/2), e^{s/2} cos(beta/2)), and the rotation by a
    adds 2a.  Equals 1 for the identity and any Mobius map; finite sampling
    gives a lower bound of the true modulus.
    """
    s = np.linspace(-QS_MAX_LOG_SCALE, QS_MAX_LOG_SCALE, QS_SCALES)[:, None, None]
    a = np.linspace(0, np.pi, QS_ANGLES, endpoint=False)[:, None]
    half = BASE_QUADRUPLE_ANGLES / 2
    quad = np.mod(2 * np.arctan2(np.exp(-s / 2) * np.sin(half),
                                 np.exp(s / 2) * np.cos(half)) + 2 * a, TWO_PI)
    cr = cross_ratio(*np.moveaxis(f(quad), -1, 0))
    if not np.all(np.isfinite(cr) & (cr > 0)):
        return np.inf
    d = np.abs(np.log(cr) / np.log(2.0))
    if np.any(d == 0.0):
        return np.inf
    return float(max(1.0, d.max(), (1.0 / d).max()))
