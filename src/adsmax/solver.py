"""Maximal surfaces with prescribed asymptotic boundary.

Two routes share one residual assembly.  The damped Newton iteration is the
primary solver: the discrete problem maximizes the concave graph area, so
Newton directions with an area line search constrained by the spacelike
margin converge globally on well-posed data.  The mean curvature flow is the
parabolic route and the fallback: semi-implicit steps

    diag(m phi v) (u+ - u)/ds = -F(u) - K(u)(u+ - u)

with the divergence part linearized at the step start, accept/reject on the
margin and on non-inflation of the residual.

Dirichlet data is the curve's radial trace tau(theta) on the boundary ring;
this replaces the hull-restriction trace, which has the same asymptotic
limit.  Initial data is the midsurface of the exact hull heights, with no
smoothing pass, slope-limited into the spacelike cone.  Exhaustion solves
on growing disks with warm starts resampled in polar coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import boundary as BD
from . import hull as HU
from . import lorentz as L
from . import mesh as MS
from . import surface as SF
from .constants import (
    AREA_ROUNDOFF,
    FLOW_BUDGET,
    FLOW_DS_GROWTH,
    FLOW_FALLBACK_STEPS,
    FLOW_INFLATION,
    MAX_NEWTON,
    MEAN_CURV_TOL,
    SLOPE_LIMIT_ROUNDS,
    SPACELIKE_MARGIN,
    STEP_UNDERFLOW,
    WIDTH_REJECT_GAP,
)


class SolveRejected(RuntimeError):
    """Boundary data rejected; carries the width diagnostic."""

    def __init__(self, message, width_report=None):
        super().__init__(message)
        self.width_report = width_report


@dataclass
class SolveConfig:
    stages: tuple = ((1.4, 12, 40), (2.2, 20, 64), (3.0, 26, 84))
    tol_H: float = MEAN_CURV_TOL

    def __post_init__(self):
        radii = [s[0] for s in self.stages]
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("stage radii must be strictly increasing")


def slope_limit(mesh: MS.DiskMesh, u):
    """Pull interior values toward neighborhood averages until every
    triangle has spacelike margin >= SPACELIKE_MARGIN; boundary values stay
    fixed."""
    u = np.asarray(u, dtype=float).copy()
    interior = mesh.interior_mask
    for _ in range(SLOPE_LIMIT_ROUNDS):
        margins = SF.triangle_margins(mesh, u)
        if margins.min() >= SPACELIKE_MARGIN:
            return u
        bad = mesh.triangles[margins < SPACELIKE_MARGIN].ravel()
        touch = np.zeros(mesh.n_vertices, dtype=bool)
        touch[bad] = True
        touch &= interior
        if not touch.any():
            break  # only boundary-pinned cells violate: cannot fix here
        avg = MS.neighbor_average(mesh, u)
        u[touch] = 0.5 * (u[touch] + avg[touch])
    margins = SF.triangle_margins(mesh, u)
    if margins.min() < 0.0:
        raise SolveRejected(
            f"could not restore spacelike margin (min {margins.min():.2e}); "
            "boundary data too steep for this mesh radius"
        )
    return u


def boundary_trace(curve: BD.BoundaryCurve, mesh: MS.DiskMesh):
    """Dirichlet data: the curve's tau at the angular coordinate of each
    boundary vertex (radial projection)."""
    return curve.tau_of_theta(mesh.theta[mesh.boundary_mask])


def initial_graph(curve: BD.BoundaryCurve, mesh: MS.DiskMesh,
                  chull: HU.ConvexHull3 | None = None) -> SF.SpacelikeGraph:
    """Hull-midsurface start: u0 = (lower + upper hull heights)/2 with the
    radial boundary trace clamped into the hull interval, then slope
    limiting.  No smoothing pass: a neighbour average of the exact
    midsurface can lose more margin than slope limiting wins back.

    At a finite radius the raw radial trace can stick out of the hull by an
    amount that vanishes as the radius grows; clamping restores the
    containment hypotheses of the confinement results while keeping the
    asymptotic boundary data.
    """
    chull = chull if chull is not None else HU.convex_hull(curve)
    t_lo, t_hi = HU.hull_heights(chull, mesh)
    u0 = 0.5 * (t_lo + t_hi)
    bm = mesh.boundary_mask
    u0[bm] = np.clip(boundary_trace(curve, mesh), t_lo[bm], t_hi[bm])
    u0 = slope_limit(mesh, u0)
    return SF.SpacelikeGraph.certify(mesh, u0, floor=0.0)


def _interior_solve(K, rhs, interior):
    Kii = K[interior][:, interior].tocsc()
    out = np.zeros(len(rhs))
    out[interior] = spla.splu(Kii).solve(rhs[interior])
    return out


def residual_norms(mesh: MS.DiskMesh, u):
    """(sup |H| over interior, residual F, margins)."""
    F, margins = SF.residual(mesh, u)
    H = -F / mesh.fem["mass"]
    sup = float(np.abs(H[mesh.interior_mask]).max())
    return sup, F, margins


# ---------------------------------------------------------------------------
# mean curvature flow

@dataclass
class FlowState:
    surface: SF.SpacelikeGraph
    s: float
    ds: float
    u0: np.ndarray
    history: list = field(default_factory=list)
    converged: bool = False

    @property
    def mesh(self):
        return self.surface.mesh


def flow_init(curve: BD.BoundaryCurve, mesh: MS.DiskMesh,
              chull: HU.ConvexHull3 | None = None) -> FlowState:
    S = initial_graph(curve, mesh, chull)
    h_min = float(np.sqrt(2 * mesh.fem["area"].min()))
    return FlowState(surface=S, s=0.0, ds=h_min**2 / 4.0, u0=S.u.copy())


def flow_step(state: FlowState, cfg: SolveConfig | None = None,
              chull: HU.ConvexHull3 | None = None) -> FlowState:
    """One accepted semi-implicit step (rejected trials halve ds)."""
    cfg = cfg or SolveConfig()
    mesh = state.mesh
    u = state.surface.u
    interior = mesh.interior_mask
    supH, F, _ = residual_norms(mesh, u)
    m = mesh.fem["mass"]
    y = mesh.vertices
    r2 = (y**2).sum(axis=1)
    phi = (1 + r2) / (1 - r2)
    # v at vertices, frozen at step start
    w = (1 + r2) / 2
    du = SF.recovered_gradient(mesh, u)
    v = 1.0 / np.sqrt(np.maximum(1 - w**2 * (du**2).sum(axis=1), 1e-12))
    D = m * phi * v
    K = SF.tangent_stiffness(mesh, u)

    ds = state.ds
    while True:
        if ds < STEP_UNDERFLOW:
            raise SolveRejected(
                f"flow step underflow at s={state.s:.3e} "
                f"(|H|={supH:.3e}, margin={state.surface.margin:.3e})"
            )
        A = (sp.diags(D / ds) + K).tocsr()
        delta = _interior_solve(A, -F, interior)
        u_new = u + delta
        margins = SF.triangle_margins(mesh, u_new)
        if margins.min() <= 0:
            ds *= 0.5
            continue
        supH_new, _, _ = residual_norms(mesh, u_new)
        if supH_new > FLOW_INFLATION * max(supH, cfg.tol_H):
            ds *= 0.5
            continue
        break

    s_new = state.s + ds
    entry = {
        "s": s_new,
        "ds": ds,
        "sup_H": supH_new,
        "max_du": float(np.abs(u_new - state.u0).max()),
        "margin": float(margins.min()),
    }
    if chull is not None:
        entry["hull_margin"] = float(
            HU.graph_margins(chull, mesh, u_new).min()
        )
    state.history.append(entry)
    return FlowState(
        surface=SF.SpacelikeGraph(mesh, u_new, float(margins.min())),
        s=s_new,
        ds=min(ds * FLOW_DS_GROWTH, 1.0),
        u0=state.u0,
        history=state.history,
        converged=supH_new < cfg.tol_H,
    )


def flow_run(curve: BD.BoundaryCurve, mesh: MS.DiskMesh,
             cfg: SolveConfig | None = None) -> FlowState:
    """Run the flow until sup|H| < tol_H or the step budget is exhausted."""
    cfg = cfg or SolveConfig()
    chull = HU.convex_hull(curve)
    state = flow_init(curve, mesh, chull)
    supH, _, _ = residual_norms(mesh, state.surface.u)
    if supH < cfg.tol_H:
        state.converged = True
        state.history.append({"s": 0.0, "ds": 0.0, "sup_H": supH,
                              "max_du": 0.0,
                              "margin": state.surface.margin})
        return state
    for _ in range(FLOW_BUDGET):
        state = flow_step(state, cfg, chull)
        if state.converged:
            break
    return state


def flow_bound_checks(state: FlowState, skip_frac: float = 0.05,
                      slack: float = 0.1, du_slack: float = 0.01):
    """Appendix bounds along the flow: H^2 <= (1+slack)*(n/2)/s past the
    transient, and max|u_s - u_0| <= sqrt(n s) + du_slack throughout (n=2)."""
    hist = state.history
    n_skip = int(np.ceil(skip_frac * len(hist)))
    h_ok = all(
        h["sup_H"] ** 2 <= (1 + slack) / h["s"]
        for h in hist[n_skip:] if h["s"] > 0
    )
    du_ok = all(
        h["max_du"] <= np.sqrt(2 * h["s"]) + du_slack for h in hist
    )
    return {"mean_curvature_bound": h_ok, "displacement_bound": du_ok}


# ---------------------------------------------------------------------------
# damped Newton with exhaustion

def newton_solve(mesh: MS.DiskMesh, u0, cfg: SolveConfig,
                 chull: HU.ConvexHull3 | None = None):
    """Newton iteration on F(u) = 0 with an area line search kept inside
    the spacelike cone.  Returns (u, info)."""
    u = np.asarray(u0, dtype=float).copy()
    interior = mesh.interior_mask
    hist = []
    stagnant = 0
    for it in range(MAX_NEWTON):
        supH, F, margins = residual_norms(mesh, u)
        entry = {"iter": it, "sup_H": supH, "margin": float(margins.min())}
        if chull is not None:
            entry["hull_margin"] = float(
                HU.graph_margins(chull, mesh, u).min())
        hist.append(entry)
        if supH < cfg.tol_H:
            return u, {"converged": True, "iterations": it, "history": hist}
        K = SF.tangent_stiffness(mesh, u)
        delta = _interior_solve(K, -F, interior)
        area0 = SF.graph_area(mesh, u)
        alpha = 1.0
        accepted = False
        for _ in range(40):
            u_try = u + alpha * delta
            if SF.triangle_margins(mesh, u_try).min() > 0:
                if (SF.graph_area(mesh, u_try)
                        >= area0 - AREA_ROUNDOFF * abs(area0)):
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            return u, {"converged": False, "iterations": it,
                       "history": hist, "stagnated": True}
        u = u + alpha * delta
        stagnant = stagnant + 1 if alpha < 1e-3 else 0
        if stagnant >= 5:
            return u, {"converged": False, "iterations": it,
                       "history": hist, "stagnated": True}
    supH, _, _ = residual_norms(mesh, u)
    return u, {"converged": supH < cfg.tol_H, "iterations": MAX_NEWTON,
               "history": hist}


def warm_start(curve, mesh, prev_mesh, prev_u, chull):
    """Interpolate the previous stage in polar coordinates, fall back to
    the hull midsurface outside its radius, re-limit the slopes."""
    base = initial_graph(curve, mesh, chull).u
    inside = mesh.rho <= prev_mesh.radius * 0.98
    inside &= mesh.interior_mask
    vals = MS.interpolate_polar(prev_mesh, prev_u,
                                mesh.rho[inside], mesh.theta[inside])
    u0 = base.copy()
    u0[inside] = vals
    return slope_limit(mesh, u0)


def solve_maximal(curve: BD.BoundaryCurve, cfg: SolveConfig | None = None):
    """Exhaustion Newton solve; returns (SpacelikeGraph, report).

    Boundary data whose hull width reaches pi/2 (lightlike segments in the
    closure) is rejected with the width diagnostic.  Stages warm-start from
    each other; the report records the Cauchy differences of consecutive
    stages on the common interior, per-stage Newton histories, and hull
    containment.
    """
    cfg = cfg or SolveConfig()
    chull = HU.convex_hull(curve)
    wrep = HU.width(chull)
    if wrep.width >= np.pi / 2 - WIDTH_REJECT_GAP:
        raise SolveRejected(
            f"boundary width {wrep.width_raw:.6f} reaches pi/2: "
            "data contains (or limits on) lightlike segments",
            width_report=wrep,
        )
    if curve.max_lightlike_run() >= 2:
        raise SolveRejected(
            f"boundary contains a lightlike segment "
            f"(width diagnostic {wrep.width_raw:.6f}, bound pi/2)",
            width_report=wrep,
        )
    report = {"width": wrep.width, "stages": [], "cauchy_diffs": []}
    prev_mesh = None
    prev_u = None
    for radius, n_rings, n_angular in cfg.stages:
        mesh = MS.make_mesh(radius, n_rings, n_angular)
        try:
            if prev_mesh is None:
                u0 = initial_graph(curve, mesh, chull).u
            else:
                u0 = warm_start(curve, mesh, prev_mesh, prev_u, chull)
        except SolveRejected as exc:
            raise SolveRejected(str(exc), width_report=wrep) from exc
        u, info = newton_solve(mesh, u0, cfg, chull)
        if not info["converged"]:
            # parabolic fallback from the current iterate, then retry
            state = FlowState(
                surface=SF.SpacelikeGraph.certify(mesh, u, floor=0.0),
                s=0.0, ds=1e-4, u0=u.copy())
            for _ in range(FLOW_FALLBACK_STEPS):
                state = flow_step(state, cfg, chull)
                if state.converged:
                    break
            u, info = newton_solve(mesh, state.surface.u, cfg, chull)
            info["used_flow_fallback"] = True
        report["stages"].append({
            "radius": radius, "n_vertices": mesh.n_vertices, **info,
        })
        if prev_mesh is not None:
            common = prev_mesh.rho <= min(prev_mesh.radius,
                                          radius) * 0.9
            vals = MS.interpolate_polar(mesh, u, prev_mesh.rho[common],
                                        prev_mesh.theta[common])
            report["cauchy_diffs"].append(
                float(np.abs(vals - prev_u[common]).max()))
        prev_mesh, prev_u = mesh, u
    S = SF.SpacelikeGraph.certify(prev_mesh, prev_u, floor=0.0)
    report["final_sup_H"] = residual_norms(prev_mesh, prev_u)[0]
    report["hull_margin"] = float(
        HU.graph_margins(chull, prev_mesh, prev_u).min())
    report["converged"] = bool(report["stages"][-1]["converged"])
    return S, report
