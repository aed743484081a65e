"""Inputs, passes and correctness checks of the three workloads.

Each workload is a `build(seed, size)` that makes the inputs (the set-up
that `setup_s` times) and a `run_pass(inputs)` that pushes every case
through the public `adsmax` functions and returns one record per case.  A
case is ok when it ends the way the method says it should; every other
ending (rejected when a solution is expected, raised, not converged, a
failed check) is a failed case.  Tolerances are fixed from the method's
stated accuracy, not from which cases pass today.

Library functions are always reached through their module (``SV.solve_maximal``,
not a from-import), so the traced run sees every call.
"""

from __future__ import annotations

import time

import numpy as np

from adsmax import boundary as BD
from adsmax import hull as HU
from adsmax import lorentz as L
from adsmax import mesh as MS
from adsmax import solver as SV
from adsmax import surface as SF

# convex_hull resamples a curve whose largest theta step exceeds this many
# times its smallest; Möbius draws are stratified on it (see mobius_draws)
SPACING_RATIO = 3.0
MOBIUS_SCALE = 0.5
ISOMETRY_SCALE = 0.3

SIZES = {
    # the ROADMAP corpus: 512 boundary samples, default exhaustion stages
    "full": {
        "samples": 512,
        "stages": SV.SolveConfig().stages,
        "ladder": ((3.0, 26, 84), (3.0, 48, 160), (3.0, 96, 320)),
    },
    # smallest size, for the self-check only
    "smoke": {
        "samples": 128,
        "stages": ((1.4, 8, 24), (2.0, 10, 32)),
        "ladder": ((2.0, 8, 24), (2.0, 12, 36)),
    },
}


def spacing_ratio(curve):
    dth = np.diff(np.concatenate([curve.theta, [curve.theta[0] + 2 * np.pi]]))
    return float(dth.max() / dth.min())


def mobius_draws(seed, pattern, samples):
    """Möbius maps from default_rng(seed + i), i = 0, 1, ..., taken in order
    into the slots of `pattern` (True: uneven sample spacing, which makes
    convex_hull resample; False: even).  Every seed then has the same mix of
    both kinds, so the share of this input property does not vary with the
    seed; seed 0 gives the draws 0, 1 (and 2) unchanged."""
    out = []
    i = 0
    while len(out) < len(pattern):
        m = L.random_mobius(np.random.default_rng(seed + i), MOBIUS_SCALE)
        curve = BD.lift_graph(BD.mobius_boundary(m), samples)
        if (spacing_ratio(curve) > SPACING_RATIO) == pattern[len(out)]:
            out.append((f"mobius_r{seed + i}", m, curve))
        i += 1
    return out


def mobius_plane(m):
    """Dual point of the totally geodesic plane bounded by the graph of m."""
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    return L.normalize_quadric(L.from_matrix(L.adj2(np.linalg.inv(J) @ m.m)))


def _case(name, expect, **fields):
    return {"name": name, "expect": expect, **fields}


def _run(name, expect, body):
    """Time one case; `body(rec)` fills rec and returns (ok, outcome, reason).
    Any exception from the library ends the case as failed ("raised") and
    the pass goes on: one broken case must not hide the others."""
    rec = {"name": name, "expect": expect}
    t0 = time.perf_counter()
    try:
        ok, outcome, reason = body(rec)
    except Exception as exc:  # noqa: BLE001 - reported per case, not lost
        ok, outcome = False, "raised"
        reason = f"{type(exc).__name__}: {exc}"
    rec.update(ok=bool(ok), outcome=outcome, reason=reason,
               case_s=time.perf_counter() - t0)
    return rec


def _masked_k(sd):
    k = np.concatenate([sd.k1[sd.mask], sd.k2[sd.mask]])
    return k, bool(k.size) and bool(np.isfinite(k).all())


# ---------------------------------------------------------------------------
# solve-corpus

def build_solve_corpus(seed, size):
    n = SIZES[size]["samples"]
    cases = [_case("identity", "solution", plane=L.MobiusMap.identity(),
                   curve=BD.lift_graph(BD.CircleHomeo.identity(), n))]
    for name, m, curve in mobius_draws(seed, (False, True), n):
        cases.append(_case(name, "solution", plane=m, curve=curve))
    for a in (0.05, 0.3, 0.6):
        cases.append(_case(f"bump_{a}", "solution", plane=None,
                           curve=BD.lift_graph(BD.bump_family(a), n)))
    for k in (0.3, 0.5, 0.8):
        cases.append(_case(f"step_{k}", "solution", plane=None,
                           curve=BD.lift_graph(BD.step_family(k), n)))
    cases.append(_case("two_step", "rejected", plane=None,
                       curve=BD.two_step_curve(n)))
    return {"cases": cases, "cfg": SV.SolveConfig(stages=SIZES[size]["stages"])}


def _solve_body(case, cfg):
    def body(rec):
        try:
            S, rep = SV.solve_maximal(case["curve"], cfg)
        except SV.SolveRejected as exc:
            wr = exc.width_report
            rec["width_raw"] = None if wr is None else float(wr.width_raw)
            return case["expect"] == "rejected", "rejected", str(exc)
        rec.update(
            width_raw=float(rep["width"]),  # below the pi/2 clamp: unclamped
            final_sup_H=float(rep["final_sup_H"]),
            hull_margin=float(rep["hull_margin"]),
            cauchy_diffs=[float(d) for d in rep["cauchy_diffs"]],
            newton_iterations=[int(s["iterations"]) for s in rep["stages"]],
            used_flow_fallback=[bool(s.get("used_flow_fallback", False))
                                for s in rep["stages"]],
        )
        if case["expect"] != "solution":
            return False, "accepted", "solution returned, rejection expected"
        if not rep["converged"]:
            return False, "not_converged", ""
        sd = SF.shape_data(S)
        SF.chi_residual(sd)
        k, finite = _masked_k(sd)
        rec["max_abs_k"] = float(np.abs(k).max()) if finite else None
        fails = []
        if not rec["final_sup_H"] < cfg.tol_H:
            fails.append(f"sup|H| {rec['final_sup_H']:.2e} >= tol_H")
        if not (finite and rec["max_abs_k"] < 1.0):
            fails.append("principal curvatures leave (-1, 1)")
        if case["plane"] is not None:
            mesh = S.mesh
            q = mobius_plane(case["plane"])
            dev = min(
                float(np.abs(S.u - L.plane_graph_height(q, mesh.vertices, b))
                      [sd.mask].max())
                for b in (-1, 1))
            rec["plane_dev"] = dev
            # the last stage cuts the data off at radius R, which moves the
            # rim trace by O(exp(-2R)); time translations are isometries,
            # so by comparison the interior deviation stays below that
            tol = float(np.exp(-2.0 * mesh.radius))
            if not dev <= tol:
                fails.append(f"plane deviation {dev:.2e} > {tol:.2e}")
        if fails:
            return False, "check_failed", "; ".join(fails)
        return True, "solved", ""
    return body


def pass_solve_corpus(inputs):
    return [_run(c["name"], c["expect"], _solve_body(c, inputs["cfg"]))
            for c in inputs["cases"]]


# ---------------------------------------------------------------------------
# width-sweep

KAPPAS = (0.1, 0.3, 0.5, 0.7, 0.9)


def build_width_sweep(seed, size):
    n = SIZES[size]["samples"]
    cases = []
    for k in KAPPAS:
        cases.append(_case(f"step_{k}", "positive",
                           curve=BD.lift_graph(BD.step_family(k), n)))
    for a in (0.05, 0.3, 0.6, 0.9):
        cases.append(_case(f"bump_{a}", "positive",
                           curve=BD.lift_graph(BD.bump_family(a), n)))
    for name, _, curve in mobius_draws(seed, (False, True, False), n):
        cases.append(_case(name, "planar", curve=curve))
    base = BD.lift_graph(BD.step_family(0.5), n)
    for j in range(2):
        g = L.random_isometry(np.random.default_rng(seed + j), ISOMETRY_SCALE)
        cases.append(_case(f"step_0.5_iso_r{seed + j}", "positive",
                           curve=base.transform(g), isometry_of="step_0.5"))
    cases.append(_case("two_step", "last", curve=BD.two_step_curve(n)))
    return {"cases": cases}


def _width_body(case):
    def body(rec):
        hull = HU.convex_hull(case["curve"])
        w = HU.width(hull)
        rec.update(width_raw=float(w.width_raw), planar=bool(hull.planar))
        if "isometry_of" in case:
            rec["isometry_of"] = case["isometry_of"]
        return True, "ok", ""
    return body


def pass_width_sweep(inputs):
    recs = [_run(c["name"], c["expect"], _width_body(c))
            for c in inputs["cases"]]
    _check_widths(recs)
    return recs


def _fail(rec, reason):
    if rec["ok"]:
        rec.update(ok=False, outcome="check_failed", reason=reason)


def _check_widths(recs):
    done = [r for r in recs if r["outcome"] == "ok"]
    by_name = {r["name"]: r for r in done}
    for r in done:
        w = r["width_raw"]
        if r["expect"] == "planar":
            if not (r["planar"] and w == 0.0):
                _fail(r, f"Möbius data: hull planar={r['planar']}, "
                         f"width {w:.3e} (expected planar, 0)")
        elif not (np.isfinite(w) and 0.0 < w < np.pi / 2):
            _fail(r, f"width {w!r} outside (0, pi/2)")
        elif r["expect"] == "last":
            others = [o["width_raw"] for o in done if o is not r]
            if others and not w > max(others):
                _fail(r, f"width {w:.6f} is not the largest")
        if "isometry_of" in r and r["isometry_of"] in by_name:
            r["isometry_dev"] = abs(w - by_name[r["isometry_of"]]["width_raw"])
    prev = None
    for k in KAPPAS:
        r = by_name.get(f"step_{k}")
        if r is None:
            continue
        if prev is not None and not r["width_raw"] > prev["width_raw"]:
            _fail(r, f"width {r['width_raw']:.6f} does not rise along kappa")
        prev = r


# ---------------------------------------------------------------------------
# fine-mesh

UMBILIC_R = (0.3, 0.7)


def build_fine_mesh(seed, size):
    rng = np.random.default_rng(seed)
    return {
        "ladder": SIZES[size]["ladder"],
        "rotation": float(rng.uniform(0.0, 2 * np.pi)),
        "cfg": SV.SolveConfig(),
    }


def _newton_body(mesh, r, cfg):
    def body(rec):
        u0 = SF.umbilic_surface(mesh, r).u
        u, info = SV.newton_solve(mesh, u0, cfg)
        # the rim ring sits at one radius, so the maximal graph with this
        # data is the time-translated plane u = u(rim), an exact discrete
        # solution: Newton's stopping test bounds the error
        err = float(np.abs(u - u0[mesh.boundary_mask][0]).max())
        rec.update(iterations=int(info["iterations"]), plane_err=err)
        if not info["converged"]:
            return False, "not_converged", ""
        if not err <= cfg.tol_H:
            return False, "check_failed", f"error {err:.2e} to the plane"
        return True, "solved", ""
    return body


def _umbilic_shape_body(mesh, r):
    def body(rec):
        sd = SF.shape_data(SF.umbilic_surface(mesh, r))
        k, finite = _masked_k(sd)
        if not finite:
            return False, "check_failed", "non-finite principal curvatures"
        rec["median_k_err"] = float(np.median(np.abs(k + np.tan(r))))
        return True, "ok", ""
    return body


def _horosphere_body(mesh, rotation):
    def body(rec):
        S = SF.horosphere_surface(mesh, rotation=rotation)
        sd = SF.shape_data(S)
        res, valid = SF.chi_residual(sd)
        k, finite = _masked_k(sd)
        if not (finite and valid.any() and np.isfinite(res[valid]).all()):
            return False, "check_failed", "non-finite k or chi residual"
        rec.update(median_absk_err=float(np.median(np.abs(np.abs(k) - 1.0))),
                   median_chi_res=float(np.median(np.abs(res[valid]))),
                   clipped_radius=float(S.mesh.radius))
        return True, "ok", ""
    return body


def pass_fine_mesh(inputs):
    recs = []
    cfg = inputs["cfg"]
    for radius, n_rings, n_angular in inputs["ladder"]:
        mesh = MS.make_mesh(radius, n_rings, n_angular)
        n = mesh.n_vertices
        for r in UMBILIC_R:
            recs.append(_run(f"newton_r{r}_n{n}", "plane",
                             _newton_body(mesh, r, cfg)))
        recs.append(_run(f"shape_umbilic_r{UMBILIC_R[0]}_n{n}", "finite",
                         _umbilic_shape_body(mesh, UMBILIC_R[0])))
        recs.append(_run(f"horosphere_n{n}", "finite",
                         _horosphere_body(mesh, inputs["rotation"])))
    return recs


def warm_up_inputs(inputs):
    """A short version of `inputs` for one untimed pass before timing: the
    first case, or the smallest mesh of the ladder.  It keeps lazy set-up
    and the process's first touch of large arrays out of the timed passes."""
    if "cases" in inputs:
        return {**inputs, "cases": inputs["cases"][:1]}
    return {**inputs, "ladder": inputs["ladder"][:1]}


WORKLOADS = {
    "solve-corpus": (build_solve_corpus, pass_solve_corpus),
    "width-sweep": (build_width_sweep, pass_width_sweep),
    "fine-mesh": (build_fine_mesh, pass_fine_mesh),
}
