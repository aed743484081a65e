"""Closed-form anti-de Sitter geometry in the quadric model.

The ambient space is R^{2,2} with the form <x,y> = x1 y1 + x2 y2 - x3 y3 - x4 y4
and the quadric {<x,x> = -1}.  The cylinder chart covers it by

    (y, t)  ->  (h1, h2, h3 cos t, h3 sin t),

where h is the hyperboloid lift of the Poincare-disk point y and t is the
universal-cover time.  The lapse is phi(y) = h3(y) = (1+|y|^2)/(1-|y|^2).

Matrix model: a fixed linear map Vec22 -> 2x2 matrices with det M = -<x,x>.
Null rays factor as rank-1 matrices u w^T; the projective classes [u], [w] are
the two ruling coordinates of the asymptotic boundary, exposed as doubled
angles (xi, eta) = (theta - tau, theta + tau) mod 2pi.  An isometry pair (A, B)
acts by M -> A M B^T, hence on ruling coordinates by (xi, eta) -> (A xi, B eta).
With these conventions the graph of the identity circle map is the equator
tau = 0, the boundary of the reference plane (the horizontal slice t = 0).

Everything here is pure and allocation-only; array-valued helpers broadcast
over leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import (
    CAUSAL_CLASS_TOL, MOBIUS_DET_FLOOR, NULL_TOL, ORTHO_TOL, SEPARATION_CLASS_TOL,
    TINY)

SIGNATURE = np.array([1.0, 1.0, -1.0, -1.0])

# dual point of the reference plane, the horizontal slice t=0
E4 = np.array([0.0, 0.0, 0.0, 1.0])


def inner(a, b):
    """Signature (2,2) inner product, broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (a * b * SIGNATURE).sum(axis=-1)


def normalize_quadric(v):
    """Rescale v so that <v,v> = -1.  v must be timelike."""
    v = np.asarray(v, dtype=float)
    q = inner(v, v)
    if np.any(q >= 0):
        raise ValueError("cannot renormalize a non-timelike vector onto the quadric")
    return v / np.sqrt(-q)[..., None]


# ---------------------------------------------------------------------------
# charts

def poincare_to_hyperboloid(y):
    """Lift Poincare-disk points (...,2) to the hyperboloid (...,3)."""
    y = np.asarray(y, dtype=float)
    r2 = (y * y).sum(axis=-1)
    if np.any(r2 >= 1.0):
        raise ValueError("point outside the open unit disk")
    d = 1.0 - r2
    return np.stack([2 * y[..., 0] / d, 2 * y[..., 1] / d, (1 + r2) / d], axis=-1)


def cyl_to_quadric(y, t):
    """Cylinder chart (y, t) -> quadric point(s), shape (...,4)."""
    h = poincare_to_hyperboloid(y)
    t = np.asarray(t, dtype=float)
    return np.stack(
        [h[..., 0], h[..., 1], h[..., 2] * np.cos(t), h[..., 2] * np.sin(t)],
        axis=-1,
    )


def quadric_to_cyl(q, t_near=None):
    """Inverse chart.  t is the principal value in (-pi, pi] unless t_near
    pins the winding; x3^2 + x4^2 >= 1 always holds so the inverse is total."""
    q = np.asarray(q, dtype=float)
    h3 = np.hypot(q[..., 2], q[..., 3])
    t = np.arctan2(q[..., 3], q[..., 2])
    t = np.where(t == -np.pi, np.pi, t)
    if t_near is not None:
        k = np.round((np.asarray(t_near, dtype=float) - t) / (2 * np.pi))
        t = t + 2 * np.pi * k
    y = q[..., :2] / (1.0 + h3)[..., None]
    return y, t


def quadric_to_projective(q):
    """Affine chart z = (q1, q2, q4)/q3 of RP^3, valid for q3 > 0 (|t| < pi/2).

    Geodesics map to straight segments; the chart image is z1^2+z2^2 <= z3^2+1.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q[..., 2] <= 0):
        raise ValueError("projective chart requires x3 > 0 (|t| < pi/2)")
    return np.stack(
        [q[..., 0] / q[..., 2], q[..., 1] / q[..., 2], q[..., 3] / q[..., 2]],
        axis=-1,
    )


def projective_to_quadric(z):
    """Inverse of the affine chart for interior points (z1^2+z2^2 < z3^2+1)."""
    z = np.asarray(z, dtype=float)
    s = 1.0 + z[..., 2] ** 2 - z[..., 0] ** 2 - z[..., 1] ** 2
    s = np.maximum(s, TINY)
    lam = 1.0 / np.sqrt(s)
    return np.stack([z[..., 0] * lam, z[..., 1] * lam, lam, z[..., 2] * lam], axis=-1)


# ---------------------------------------------------------------------------
# geodesics and separation

def geodesic_exp(p, v, s):
    """Geodesic exponential on the quadric.

    p, v are 4-vectors with <p,p> = -1, <p,v> = 0 and v normalized to
    <v,v> in {-1, 0, +1}; the causal class picks the cos/affine/cosh branch.
    s may be an array.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if abs(inner(p, v)) > ORTHO_TOL:
        raise ValueError("v is not orthogonal to p")
    q = inner(v, v)
    s = np.asarray(s, dtype=float)
    if abs(q + 1.0) <= CAUSAL_CLASS_TOL:
        out = np.cos(s)[..., None] * p + np.sin(s)[..., None] * v
    elif abs(q) <= CAUSAL_CLASS_TOL:
        out = p + s[..., None] * v
    elif abs(q - 1.0) <= CAUSAL_CLASS_TOL:
        out = np.cosh(s)[..., None] * p + np.sinh(s)[..., None] * v
    else:
        raise ValueError("v must be normalized to <v,v> in {-1, 0, +1}")
    if abs(q) > 0.5:  # non-null branches stay on the quadric; enforce exactly
        out = normalize_quadric(out)
    return out if out.ndim > 1 else out.reshape(4)


def lorentz_separation(p, q):
    """Causal class and separation of two quadric points inside one period.

    Returns ("timelike", d in (0, pi)), ("lightlike", 0.0) or
    ("spacelike", arccosh(-<p,q>)): -<p,q> is the cos of the timelike and the
    cosh of the spacelike distance.  Raises if -<p,q> < -1 (beyond one
    period) or p = +-q.
    """
    c = float(-inner(p, q))
    if c < -1.0 - SEPARATION_CLASS_TOL:
        raise ValueError("separation exceeds one period (work inside U_p)")
    if c >= 1.0 + SEPARATION_CLASS_TOL:
        return "spacelike", float(np.arccosh(c))
    if c > 1.0 - SEPARATION_CLASS_TOL:
        return "lightlike", 0.0
    if c <= -1.0 + SEPARATION_CLASS_TOL:
        raise ValueError("antipodal pair: separation is a full half-period")
    return "timelike", float(np.arccos(c))


# ---------------------------------------------------------------------------
# matrix model and rulings

def to_matrix(x):
    """Linear identification Vec22 -> 2x2 matrices with det M = -<x,x>.

    M = [[x3+x1, x2+x4], [x2-x4, x3-x1]].  Broadcasts to (...,2,2).
    """
    x = np.asarray(x, dtype=float)
    m = np.empty(x.shape[:-1] + (2, 2))
    m[..., 0, 0] = x[..., 2] + x[..., 0]
    m[..., 0, 1] = x[..., 1] + x[..., 3]
    m[..., 1, 0] = x[..., 1] - x[..., 3]
    m[..., 1, 1] = x[..., 2] - x[..., 0]
    return m


def from_matrix(m):
    m = np.asarray(m, dtype=float)
    return np.stack(
        [
            (m[..., 0, 0] - m[..., 1, 1]) / 2,
            (m[..., 0, 1] + m[..., 1, 0]) / 2,
            (m[..., 0, 0] + m[..., 1, 1]) / 2,
            (m[..., 0, 1] - m[..., 1, 0]) / 2,
        ],
        axis=-1,
    )


def adj2(m):
    """Adjugate of a 2x2 matrix (inverse times det)."""
    m = np.asarray(m, dtype=float)
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    out[..., 1, 1] = m[..., 0, 0]
    return out


def null_from_angles(theta, tau):
    """Null boundary vector (cos th, sin th, cos ta, sin ta), shape (...,4)."""
    theta = np.asarray(theta, dtype=float)
    tau = np.asarray(tau, dtype=float)
    return np.stack(
        [np.cos(theta), np.sin(theta), np.cos(tau), np.sin(tau)], axis=-1
    )


def ruling_coords(v):
    """Doubled-angle ruling coordinates (xi, eta) of a null vector.

    The rank-1 factorization M(v) = u w^T gives xi = 2*angle(u),
    eta = 2*angle(w), both mod 2pi.  For v = (cos th, sin th, cos ta, sin ta)
    this evaluates to (th - ta, th + ta) mod 2pi.  Left leaves are
    {xi = const}, right leaves {eta = const}.
    """
    v = np.asarray(v, dtype=float)
    if np.any(np.abs(inner(v, v)) > NULL_TOL * (v * v).sum(axis=-1)):
        raise ValueError("ruling coordinates require a null vector")
    m = to_matrix(v)
    c0 = m[..., :, 0]
    c1 = m[..., :, 1]
    pick0 = (c0 * c0).sum(axis=-1) >= (c1 * c1).sum(axis=-1)
    u = np.where(pick0[..., None], c0, c1)
    # w solves M = u w^T given u:  w_j = u . M[:,j] / |u|^2
    nu = (u * u).sum(axis=-1)
    w = np.stack(
        [(u * c0).sum(axis=-1) / nu, (u * c1).sum(axis=-1) / nu], axis=-1
    )
    xi = np.mod(2 * np.arctan2(u[..., 1], u[..., 0]), 2 * np.pi)
    eta = np.mod(2 * np.arctan2(w[..., 1], w[..., 0]), 2 * np.pi)
    return xi, eta


# ---------------------------------------------------------------------------
# Mobius maps and isometries

@dataclass(frozen=True)
class MobiusMap:
    """2x2 real matrix up to positive scale; normalized to det 1."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float).reshape(2, 2)
        d = np.linalg.det(m)
        if d <= 0:
            raise ValueError("Mobius matrix must have positive determinant")
        object.__setattr__(self, "m", m / np.sqrt(d))

    @staticmethod
    def identity() -> "MobiusMap":
        return MobiusMap(np.eye(2))

    @staticmethod
    def rotation(psi: float) -> "MobiusMap":
        """Elliptic rotation; acts on doubled boundary angles by beta -> beta+2psi."""
        c, s = np.cos(psi), np.sin(psi)
        return MobiusMap(np.array([[c, -s], [s, c]]))

    def inverse(self) -> "MobiusMap":
        return MobiusMap(adj2(self.m))

    def apply_angle(self, beta):
        """Action on the doubled-angle coordinate of RP^1, valued in [0, 2pi)."""
        beta = np.asarray(beta, dtype=float)
        u = np.stack([np.cos(beta / 2), np.sin(beta / 2)], axis=-1)
        uu = u @ self.m.T
        out = np.mod(2 * np.arctan2(uu[..., 1], uu[..., 0]), 2 * np.pi)
        return out if out.ndim else float(out)

    def apply_angle_lift(self, beta):
        """Monotone lift of apply_angle: continuous, beta+2pi -> value+2pi."""
        beta = np.asarray(beta, dtype=float)
        raw = self.apply_angle(np.mod(beta, 2 * np.pi))
        base = self.apply_angle(0.0)
        lifted = np.mod(raw - base, 2 * np.pi) + base
        out = lifted + 2 * np.pi * np.floor(beta / (2 * np.pi))
        return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class Isometry3:
    """Orientation/time-orientation preserving isometry as a Mobius pair.

    Acts on the matrix model by M -> left M right^T, equivalently on the two
    ruling families by (xi, eta) -> (left xi, right eta).
    """

    left: MobiusMap = field(default_factory=MobiusMap.identity)
    right: MobiusMap = field(default_factory=MobiusMap.identity)


def apply_isometry(g: Isometry3, x):
    """Apply the isometry to vectors (...,4), quadric points or null; the
    action is linear and preserves <.,.> exactly."""
    return from_matrix(g.left.m @ to_matrix(x) @ g.right.m.T)


def time_translation(a: float) -> Isometry3:
    """(y, t) -> (y, t + a)."""
    return Isometry3(MobiusMap.rotation(-a / 2), MobiusMap.rotation(a / 2))


def disk_rotation(c: float) -> Isometry3:
    """Rotation of the disk by angle c; fixes the reference plane."""
    return Isometry3(MobiusMap.rotation(c / 2), MobiusMap.rotation(c / 2))


def random_mobius(rng, scale=1.0) -> MobiusMap:
    while True:
        m = np.eye(2) + scale * rng.standard_normal((2, 2))
        if np.linalg.det(m) > MOBIUS_DET_FLOOR:
            return MobiusMap(m)


def random_isometry(rng, scale=1.0) -> Isometry3:
    return Isometry3(random_mobius(rng, scale), random_mobius(rng, scale))


# ---------------------------------------------------------------------------
# planes and duality: a spacelike plane q^perp cap AdS is given by its dual
# point q, which is also the future unit normal at every point of the plane

def plane_graph_height(q, y, branch=-1):
    """Graph height t(y) of a lift of the plane dual to q over the disk.

    branch -1 gives the past lift through t = alpha - arccos(...), +1 the
    future one; the reference plane (q = e4) has past lift t = 0.
    """
    q = np.asarray(q, dtype=float)
    h = poincare_to_hyperboloid(y)
    R = np.hypot(q[2], q[3])
    alpha = np.arctan2(q[3], q[2])
    c = (h[..., 0] * q[0] + h[..., 1] * q[1]) / (h[..., 2] * R)
    return alpha + branch * np.arccos(np.clip(c, -1.0, 1.0))


def plane_mobius(q):
    """m_P whose graph {(xi, m_P xi)} is the boundary circle of the plane dual
    to q, for dual points (...,4); returns (...,2,2).

    In the matrix model m_P = J adj(M_q) up to sign, J the quarter rotation;
    the sign makes the trace positive.  Already unimodular, since
    det M_q = -<q,q> = 1.
    """
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    m = J @ adj2(to_matrix(q))
    m = np.where((np.trace(m, axis1=-2, axis2=-1) < 0)[..., None, None], -m, m)
    if np.any(np.linalg.det(m) <= 0):
        raise ValueError("degenerate (non-spacelike) plane")
    return m


def leftright_to_P0(q):
    """The two isometries fixing one ruling family and sending the plane dual
    to q to the reference plane: Phi_l = (id, m_P^{-1}), Phi_r = (m_P, id)."""
    m = MobiusMap(plane_mobius(q))
    return (
        Isometry3(MobiusMap.identity(), m.inverse()),
        Isometry3(m, MobiusMap.identity()),
    )
