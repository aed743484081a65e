"""Maximal surfaces with prescribed asymptotic boundary.

Two routes share one residual assembly.  The damped Newton iteration is the
solver: the discrete problem maximizes the concave graph area, so Newton
directions with an area line search constrained by the spacelike margin
converge globally on well-posed data.  The mean curvature flow is the
parabolic route, kept as the check of the paper's appendix bounds and not
used by `solve_maximal`: semi-implicit steps

    diag(m phi v) (u+ - u)/ds = -F(u) - K(u)(u+ - u)

with the divergence part linearized at the step start, accept/reject on the
margin and on non-inflation of the residual.

A Newton solve factors its tangent stiffness once: the first step solves
K(u) delta = -F directly by `splu`, and each later step runs conjugate
gradients on K(u_k) preconditioned by that factor, which lives only as long
as the solve.  A step whose CG run misses NEWTON_CG_MAXITER iterations
solves directly and its factor replaces the old one.  The solve reports how
many steps it factored and took by CG, and how many CG iterations it ran.
The flow, the start's fill and the analysis keep their direct solves.

Dirichlet data is the curve's radial trace tau(theta) on the boundary ring,
clamped into the hull interval; this replaces the hull-restriction trace,
which has the same asymptotic limit.  The Dirichlet problem needs only a
spacelike extension of the rim data (Bartnik-Simon), not the hull: the start
takes the hull midsurface on the rim strip, the vertices of the rim cells,
and extends it inward by the maximal equation linearised at the zero graph,
whose factored matrix the disk keeps.  Slope limiting then pulls it into the
spacelike cone.

One disk solves by default, and the hull certifies its cut-off.  The graph
over the whole plane and the graph over the disk are both maximal over the
disk, with rim values in the hull interval [t_lo, t_hi]; time translations
are isometries, so by comparison they differ by at most the rim gap
max (t_hi - t_lo), which the start already computes.  A multi-stage config
solves growing disks, each warm-started from the last in polar
coordinates; a stage whose start cannot be made spacelike is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

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
    CAUCHY_COMMON_FRAC,
    CONE_FLOOR,
    FLOW_BUDGET,
    FLOW_CHECK_DU_SLACK,
    FLOW_CHECK_SKIP_FRAC,
    FLOW_CHECK_SLACK,
    FLOW_DS_GROWTH,
    FLOW_INFLATION,
    LINE_SEARCH_HALVINGS,
    MAX_NEWTON,
    MEAN_CURV_TOL,
    NEWTON_CG_MAXITER,
    NEWTON_CG_RTOL,
    SLOPE_LIMIT_ROUNDS,
    SPACELIKE_MARGIN,
    STAGNATION_COUNT,
    STAGNATION_STEP,
    STEP_UNDERFLOW,
    WARM_START_FRAC,
    WIDTH_REJECT_GAP,
)


class SolveRejected(RuntimeError):
    """Boundary data rejected.  `reason` is a machine-readable code:
    "width", "lightlike_segment", "slope_limit" or "flow_underflow".
    `solve_maximal` attaches the width diagnostic.  A sampled width only
    nears pi/2: the two-step curve reads 1.5647 at 512 samples, under the
    "width" gate, and is rejected as "lightlike_segment" below 4,096."""

    def __init__(self, message, reason, width_report=None):
        super().__init__(message)
        self.reason = reason
        self.width_report = width_report


@dataclass(frozen=True)
class SolveConfig:
    """The disks a solve runs on, and its tolerance.

    A config owns the disks of its stages: `meshes` builds them on first
    use, and every solve with the config shares them and the mesh-only data
    they cache on first use (see `DiskMesh`): the P1 geometry and midpoint
    rule, the start's factored fill, and for the analysis the vertex
    gradient as one sparse map.  Solves leave no other state on it, so one
    config serves any number of curves.
    """

    # (radius, n_rings, n_angular) per disk; one disk by default, since its
    # truncation bound (the rim gap of the hull) is reported with the solve
    stages: tuple = ((3.0, 26, 84),)
    tol_H: ClassVar[float] = MEAN_CURV_TOL

    def __post_init__(self):
        if not self.stages:
            raise ValueError("need at least one stage")
        radii = [s[0] for s in self.stages]
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("stage radii must be strictly increasing")

    @cached_property
    def meshes(self) -> tuple:
        """One DiskMesh per stage, built once per config."""
        return tuple(MS.make_mesh(*stage) for stage in self.stages)


def slope_limit(mesh: MS.DiskMesh, u):
    """Pull interior values toward neighborhood averages until every
    triangle has spacelike margin >= SPACELIKE_MARGIN; boundary values stay
    fixed.  Stops early at a round that changes no value."""
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
        new = 0.5 * (u[touch] + avg[touch])
        if np.array_equal(new, u[touch]):
            break  # a fixed point: every later round would repeat this one
        u[touch] = new
    margins = SF.triangle_margins(mesh, u)
    if margins.min() < 0.0:
        raise SolveRejected(
            f"could not restore spacelike margin (min {margins.min():.2e}); "
            "boundary data too steep for this mesh radius",
            reason="slope_limit",
        )
    return u


def boundary_trace(curve: BD.BoundaryCurve, mesh: MS.DiskMesh):
    """Dirichlet data: the curve's tau at the angular coordinate of each
    boundary vertex (radial projection)."""
    return curve.tau_of_theta(mesh.theta[mesh.boundary_mask])


def _hull_midsurface(curve, chull, mesh, at):
    """(lower + upper hull heights)/2 at the vertices `at`, a mask that
    holds the whole rim, and the rim gap max (t_hi - t_lo) over the
    rim; rim vertices take the radial boundary trace clamped into the hull
    interval.

    At a finite radius the raw radial trace can stick out of the hull by an
    amount that vanishes as the radius grows; clamping restores the
    containment hypotheses of the confinement results while keeping the
    asymptotic boundary data.
    """
    t_lo, t_hi = HU.hull_heights(chull, mesh.vertices[at])
    u = 0.5 * (t_lo + t_hi)
    rim = mesh.boundary_mask[at]
    u[rim] = np.clip(boundary_trace(curve, mesh), t_lo[rim], t_hi[rim])
    return u, float((t_hi[rim] - t_lo[rim]).max())


def initial_graph(curve: BD.BoundaryCurve, mesh: MS.DiskMesh,
                  chull: HU.ConvexHull3 | None = None):
    """(u0, rim_gap): Newton's start and the rim gap of the hull.

    The hull midsurface (with the clamped rim trace) is taken only on
    `mesh.rim_strip`, the vertices of the rim cells; the other vertices
    take `mesh.strip_fill` of it, the solution of the maximal equation
    linearised at the zero graph.  Slope limiting then restores the
    spacelike margin.  The strip, not the rim ring alone, carries the hull:
    a fill from the rim ring alone changes which steep data can be made
    spacelike, both ways (at 512 samples it loses step 0.9 at R = 4.2 and
    wins step 0.7 at R = 1.4).
    """
    chull = chull if chull is not None else HU.convex_hull(curve)
    strip = mesh.rim_strip
    u0 = np.empty(mesh.n_vertices)
    u0[strip], rim_gap = _hull_midsurface(curve, chull, mesh, strip)
    u0[~strip] = mesh.strip_fill(u0[strip])
    return slope_limit(mesh, u0), rim_gap


def _factor(Kii):
    """splu factor of an interior block.  The block is symmetric, so the
    fill-reducing order is taken on its pattern A^T + A rather than COLAMD's
    A^T A, which roughly halves the LU fill."""
    return spla.splu(Kii.tocsc(), permc_spec="MMD_AT_PLUS_A")


def _interior_solve(K, rhs, interior):
    """Solve the interior rows of K x = rhs with x = 0 on the rim."""
    out = np.zeros(len(rhs))
    out[interior] = _factor(K[interior][:, interior]).solve(rhs[interior])
    return out


def residual_norms(mesh: MS.DiskMesh, u):
    """(sup |H| over interior, residual F, margins)."""
    F, margins = SF.residual(mesh, u)
    H = -F / mesh.quadrature["mass"]
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


def flow_step(state: FlowState, cfg: SolveConfig) -> FlowState:
    """One accepted semi-implicit step (rejected trials halve ds)."""
    mesh = state.mesh
    u = state.surface.u
    interior = mesh.interior_mask
    supH, F, _ = residual_norms(mesh, u)
    m = mesh.quadrature["mass"]
    y = mesh.vertices
    r2 = (y**2).sum(axis=1)
    phi = (1 + r2) / (1 - r2)
    # v at vertices, frozen at step start
    w = (1 + r2) / 2
    du = SF.recovered_gradient(mesh, u)
    v = 1.0 / np.sqrt(np.maximum(1 - w**2 * (du**2).sum(axis=1), CONE_FLOOR))
    D = m * phi * v
    K = SF.tangent_stiffness(mesh, u)

    ds = state.ds
    while True:
        if ds < STEP_UNDERFLOW:
            raise SolveRejected(
                f"flow step underflow at s={state.s:.3e} "
                f"(|H|={supH:.3e}, margin={state.surface.margin:.3e})",
                reason="flow_underflow",
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
    state.history.append({
        "s": s_new,
        "ds": ds,
        "sup_H": supH_new,
        "max_du": float(np.abs(u_new - state.u0).max()),
        "margin": float(margins.min()),
    })
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
    S = SF.SpacelikeGraph.certify(mesh, initial_graph(curve, mesh)[0],
                                  floor=0.0)
    h_min = float(np.sqrt(2 * mesh.fem["area"].min()))
    state = FlowState(surface=S, s=0.0, ds=h_min**2 / 4.0, u0=S.u.copy())
    supH, _, _ = residual_norms(mesh, state.surface.u)
    if supH < cfg.tol_H:
        state.converged = True
        state.history.append({"s": 0.0, "ds": 0.0, "sup_H": supH,
                              "max_du": 0.0,
                              "margin": state.surface.margin})
        return state
    for _ in range(FLOW_BUDGET):
        state = flow_step(state, cfg)
        if state.converged:
            break
    return state


def flow_bound_checks(state: FlowState):
    """Appendix bounds along the flow (n = 2): H^2 <= (1 + FLOW_CHECK_SLACK)
    (n/2)/s past the first FLOW_CHECK_SKIP_FRAC of the history, and
    max|u_s - u_0| <= sqrt(n s) + FLOW_CHECK_DU_SLACK throughout."""
    hist = state.history
    n_skip = int(np.ceil(FLOW_CHECK_SKIP_FRAC * len(hist)))
    h_ok = all(
        h["sup_H"] ** 2 <= (1 + FLOW_CHECK_SLACK) / h["s"]
        for h in hist[n_skip:] if h["s"] > 0
    )
    du_ok = all(
        h["max_du"] <= np.sqrt(2 * h["s"]) + FLOW_CHECK_DU_SLACK
        for h in hist
    )
    return {"mean_curvature_bound": h_ok, "displacement_bound": du_ok}


# ---------------------------------------------------------------------------
# damped Newton with exhaustion

def _cg_step(Kii, rhs, lu):
    """Kii x = rhs by conjugate gradients preconditioned by `lu`, the factor
    of an earlier tangent stiffness, from x = 0 to a residual of
    NEWTON_CG_RTOL |rhs| in at most NEWTON_CG_MAXITER iterations.  Returns
    (x, iterations); x is None when the cap is missed."""
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    M = spla.LinearOperator(Kii.shape, matvec=lu.solve, dtype=float)
    x, status = spla.cg(Kii, rhs, rtol=NEWTON_CG_RTOL, atol=0.0,
                        maxiter=NEWTON_CG_MAXITER, M=M, callback=count)
    return (x if status == 0 else None), iters


def newton_solve(mesh: MS.DiskMesh, u0, cfg: SolveConfig):
    """Newton iteration on F(u) = 0 with an area line search kept inside
    the spacelike cone.  Returns (u, info); info["sup_H"] is sup |H| at the
    returned u.

    The first step solves K(u) delta = -F directly and keeps the factor of
    K for this solve.  Each later step solves by conjugate gradients
    preconditioned by the kept factor (`_cg_step`); a step whose CG run
    misses its cap solves directly, and its factor is kept instead.  The
    factor lives in this frame only.  info counts the steps:
    "direct_solves" (factored), "cg_steps" (taken by CG) and
    "cg_iterations" (over every CG run, those that missed the cap too)."""
    u = np.asarray(u0, dtype=float).copy()
    interior = mesh.interior_mask
    hist = []
    stagnant = 0
    area0 = None  # area of u, carried over from the accepted trial
    lu = None     # factor of the last directly solved tangent stiffness
    solves = dict.fromkeys(("direct_solves", "cg_steps", "cg_iterations"), 0)
    for it in range(MAX_NEWTON):
        supH, F, margins = residual_norms(mesh, u)
        hist.append({"iter": it, "sup_H": supH,
                     "margin": float(margins.min())})
        if supH < cfg.tol_H:
            return u, {"converged": True, "iterations": it, "sup_H": supH,
                       "history": hist, **solves}
        Kii = SF.tangent_stiffness(mesh, u)[interior][:, interior]
        rhs = -F[interior]
        x = None
        if lu is not None:
            x, iters = _cg_step(Kii, rhs, lu)
            solves["cg_iterations"] += iters
        if x is None:
            lu = None  # drop the old factor before the new one is made
            lu = _factor(Kii)
            x = lu.solve(rhs)
            solves["direct_solves"] += 1
        else:
            solves["cg_steps"] += 1
        delta = np.zeros(mesh.n_vertices)
        delta[interior] = x
        if area0 is None:
            area0 = SF.graph_area(mesh, u)
        alpha = 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            u_try = u + alpha * delta
            if SF.triangle_margins(mesh, u_try).min() > 0:
                area = SF.graph_area(mesh, u_try)
                if area >= area0 - AREA_ROUNDOFF * abs(area0):
                    break
            alpha *= 0.5
        else:
            return u, {"converged": False, "iterations": it, "sup_H": supH,
                       "history": hist, "stagnated": True, **solves}
        u, area0 = u_try, area
        stagnant = stagnant + 1 if alpha < STAGNATION_STEP else 0
        if stagnant >= STAGNATION_COUNT:
            # the last history entry belongs to the previous u
            return u, {"converged": False, "iterations": it,
                       "sup_H": residual_norms(mesh, u)[0],
                       "history": hist, "stagnated": True, **solves}
    supH, _, _ = residual_norms(mesh, u)
    return u, {"converged": supH < cfg.tol_H, "iterations": MAX_NEWTON,
               "sup_H": supH, "history": hist, **solves}


def warm_start(curve, mesh, prev_mesh, prev_u, chull):
    """Interpolate the previous stage in polar coordinates inside
    WARM_START_FRAC of its radius, take the hull midsurface on the other
    vertices and the rim, and limit the slopes once.  Returns the start and
    the rim gap of the hull."""
    inside = mesh.rho <= prev_mesh.radius * WARM_START_FRAC
    inside &= mesh.interior_mask
    u0 = np.empty(mesh.n_vertices)
    u0[inside] = MS.interpolate_polar(prev_mesh, prev_u,
                                      mesh.rho[inside], mesh.theta[inside])
    u0[~inside], rim_gap = _hull_midsurface(curve, chull, mesh, ~inside)
    return slope_limit(mesh, u0), rim_gap


def solve_maximal(curve: BD.BoundaryCurve, cfg: SolveConfig | None = None):
    """Newton solve on the disks of `cfg.meshes`; returns
    (SpacelikeGraph, report).

    Boundary data whose hull width reaches pi/2 (lightlike segments in the
    closure) is rejected with the width diagnostic.  The default config has
    one disk, which starts from `initial_graph`.  In a multi-stage
    config each later disk starts from the last solved one.  Newton runs
    once per disk.  A stage whose start cannot be made spacelike is skipped,
    and its radius goes to `skipped`; if that stage is the last one, the
    data is rejected with the width diagnostic.  A stage whose Newton run
    stalls is reported with `converged` false; there is no fallback.

    The report records per-stage Newton histories and hull containment
    (`hull_margin`, once per stage; the top-level value is the last
    stage's), `final_sup_H` of the returned surface, the Cauchy differences
    of consecutive solved stages on their common interior, and
    `truncation_bound`: the last disk's rim gap max (t_hi - t_lo), which
    bounds how far cutting the data off at its radius moves the surface.
    """
    cfg = cfg or SolveConfig()
    chull = HU.convex_hull(curve)
    wrep = HU.width(chull)
    if wrep.width >= np.pi / 2 - WIDTH_REJECT_GAP:
        raise SolveRejected(
            f"boundary width {wrep.width_raw:.6f} reaches pi/2: "
            "data contains (or limits on) lightlike segments",
            reason="width", width_report=wrep,
        )
    if curve.max_lightlike_run() >= 2:
        raise SolveRejected(
            f"boundary contains a lightlike segment "
            f"(width diagnostic {wrep.width_raw:.6f}, bound pi/2)",
            reason="lightlike_segment", width_report=wrep,
        )
    report = {"width": wrep.width, "stages": [], "skipped": [],
              "cauchy_diffs": []}
    prev_mesh = None
    prev_u = None
    last = len(cfg.meshes) - 1
    for i, mesh in enumerate(cfg.meshes):
        radius = mesh.radius
        try:
            if prev_mesh is None:
                u0, rim_gap = initial_graph(curve, mesh, chull)
            else:
                u0, rim_gap = warm_start(curve, mesh, prev_mesh, prev_u,
                                         chull)
        except SolveRejected as exc:
            if i == last:
                raise SolveRejected(str(exc), reason=exc.reason,
                                    width_report=wrep) from exc
            report["skipped"].append(radius)
            continue
        u, info = newton_solve(mesh, u0, cfg)
        report["stages"].append({
            "radius": radius, "n_vertices": mesh.n_vertices,
            "hull_margin": float(HU.graph_margins(chull, mesh.vertices, u).min()),
            **info,
        })
        if prev_mesh is not None:
            common = prev_mesh.rho <= min(prev_mesh.radius,
                                          radius) * CAUCHY_COMMON_FRAC
            vals = MS.interpolate_polar(mesh, u, prev_mesh.rho[common],
                                        prev_mesh.theta[common])
            report["cauchy_diffs"].append(
                float(np.abs(vals - prev_u[common]).max()))
        prev_mesh, prev_u = mesh, u
    S = SF.SpacelikeGraph.certify(prev_mesh, prev_u, floor=0.0)
    report["final_sup_H"] = report["stages"][-1]["sup_H"]
    report["truncation_bound"] = rim_gap
    report["hull_margin"] = report["stages"][-1]["hull_margin"]
    report["converged"] = bool(report["stages"][-1]["converged"])
    return S, report
