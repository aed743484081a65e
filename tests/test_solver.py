import numpy as np
import pytest
import scipy.sparse.linalg as spla

from adsmax import boundary as B
from adsmax import hull as HU
from adsmax import lorentz as L
from adsmax import mesh as MM
from adsmax import solver as SV
from adsmax import surface as SF

SMALL = SV.SolveConfig(stages=((1.4, 8, 24), (2.0, 10, 32)))
THREE_STAGES = ((1.4, 12, 40), (2.2, 20, 64), (3.0, 26, 84))


def mobius_plane(m):
    """Dual point of the totally geodesic plane bounded by the graph of m."""
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    return L.normalize_quadric(L.from_matrix(L.adj2(np.linalg.inv(J) @ m.m)))


class TestSolveConfig:
    # an empty config would fail only later, inside solve_maximal
    @pytest.mark.parametrize("stages, message", [
        ((), "at least one stage"),
        (((2.0, 10, 32), (1.4, 8, 24)), "strictly increasing"),
    ], ids=["empty", "decreasing"])
    def test_rejects_bad_stages(self, stages, message):
        with pytest.raises(ValueError, match=message):
            SV.SolveConfig(stages=stages)


class TestSolveMaximal:
    def test_identity_gives_reference_plane(self):
        S, rep = SV.solve_maximal(
            B.lift_graph(B.CircleHomeo.identity(), 128), SMALL)
        assert rep["converged"]
        assert np.all(S.u == 0.0)
        assert rep["final_sup_H"] < SMALL.tol_H

    # draw 1 has uneven sample spacing, which the hull takes as given
    @pytest.mark.parametrize("draw", [0, 1])
    def test_mobius_matches_plane(self, draw):
        m = L.random_mobius(np.random.default_rng(draw), 0.5)
        S, rep = SV.solve_maximal(B.lift_graph(B.mobius_boundary(m), 128),
                                  SMALL)
        assert rep["converged"]
        mesh = S.mesh
        mask = mesh.deep_interior_mask(2)
        q = mobius_plane(m)
        dev = min(
            np.abs(S.u - L.plane_graph_height(q, mesh.vertices, b))[mask].max()
            for b in (-1, 1))
        # cutting the data off at radius R moves the rim trace by O(e^{-2R})
        assert dev < np.exp(-2.0 * mesh.radius)
        # the hull is the plane, so the cut-off moves nothing
        assert rep["truncation_bound"] <= 1e-12

    @pytest.mark.parametrize("amplitude", [0.05, 0.3])
    def test_gentle_bump_keeps_its_data(self, amplitude):
        # a collapsed hull interval clamps the rim onto the wrong height
        c = B.lift_graph(B.bump_family(amplitude), 128)
        S, rep = SV.solve_maximal(c, SMALL)
        assert rep["converged"]
        tol = np.exp(-2.0 * S.mesh.radius)
        rim = S.u[S.mesh.boundary_mask] - SV.boundary_trace(c, S.mesh)
        assert np.abs(rim).max() < tol
        assert rep["hull_margin"] > -tol

    def test_newton_accepts_a_round_off_area_drop(self):
        # Newton reaches sup_H 1.8e-6 here; the full step then lowers the
        # area by one ulp, and an absolute slack rejected every halving
        cfg = SV.SolveConfig(stages=((3.0, 26, 84),))
        S, rep = SV.solve_maximal(B.lift_graph(B.step_family(0.8), 512), cfg)
        assert rep["converged"]

    # the slope-limited start is not spacelike on the smallest disks of the
    # steep steps; those stages are skipped and the larger ones solve
    @pytest.mark.parametrize("kappa, skipped",
                             [(0.7, [1.4]), (0.8, [1.4, 2.2])])
    def test_steep_step_skips_its_first_stages(self, kappa, skipped):
        S, rep = SV.solve_maximal(B.lift_graph(B.step_family(kappa), 128),
                                  SV.SolveConfig(stages=THREE_STAGES))
        assert rep["converged"]
        assert rep["skipped"] == skipped
        radii = [s[0] for s in THREE_STAGES]
        assert [s["radius"] for s in rep["stages"]] == [
            r for r in radii if r not in skipped]
        sd = SF.shape_data(S)
        k = np.concatenate([sd.k1[sd.mask], sd.k2[sd.mask]])
        assert np.isfinite(k).all() and np.abs(k).max() < 1.0

    @pytest.mark.parametrize("kappa", [0.7, 0.8])
    def test_default_solves_steep_steps_in_one_stage(self, kappa):
        S, rep = SV.solve_maximal(B.lift_graph(B.step_family(kappa), 128))
        assert rep["converged"]
        assert rep["skipped"] == []
        assert [s["radius"] for s in rep["stages"]] == [
            s[0] for s in SV.SolveConfig().stages] == [S.mesh.radius]
        sd = SF.shape_data(S)
        k = np.concatenate([sd.k1[sd.mask], sd.k2[sd.mask]])
        assert np.isfinite(k).all() and np.abs(k).max() < 1.0

    def test_last_stage_without_spacelike_start_rejects(self):
        with pytest.raises(SV.SolveRejected) as exc:
            SV.solve_maximal(B.lift_graph(B.step_family(0.9), 128))
        assert exc.value.width_report is not None

    def test_stalled_stage_is_not_converged(self, monkeypatch):
        # one Newton iteration cannot reach tol_H from the start; the stage
        # ends there, and no flow runs
        def no_flow(*args, **kwargs):
            raise AssertionError("solve_maximal ran a flow step")

        monkeypatch.setattr(SV, "MAX_NEWTON", 1)
        monkeypatch.setattr(SV, "flow_step", no_flow)
        cfg = SV.SolveConfig(stages=((1.4, 8, 24),))
        _, rep = SV.solve_maximal(B.lift_graph(B.step_family(0.3), 128), cfg)
        stage = rep["stages"][0]
        assert stage["iterations"] == 1
        assert len(stage["history"]) == 1
        assert stage["history"][0]["sup_H"] >= cfg.tol_H
        assert not stage["converged"]
        assert not rep["converged"]

    def test_final_sup_H_is_read_at_the_returned_surface(self, monkeypatch):
        # every accepted step counts as stagnant, so Newton stops after its
        # first step, whose residual its history does not hold
        monkeypatch.setattr(SV, "STAGNATION_STEP", 2.0)
        monkeypatch.setattr(SV, "STAGNATION_COUNT", 1)
        cfg = SV.SolveConfig(stages=((1.4, 8, 24),))
        S, rep = SV.solve_maximal(B.lift_graph(B.step_family(0.3), 128), cfg)
        stage = rep["stages"][0]
        assert stage["stagnated"] and len(stage["history"]) == 1
        assert rep["final_sup_H"] == SV.residual_norms(S.mesh, S.u)[0]
        assert rep["final_sup_H"] < stage["history"][0]["sup_H"]

    def test_shared_config_reuses_its_disk_and_keeps_no_state(self):
        # a config builds its disks once; solves on it match solves on
        # fresh equal configs bit for bit, whatever was solved before
        curves = [B.lift_graph(B.step_family(0.5), 128),
                  B.lift_graph(B.bump_family(0.3), 128)]
        cfg = SV.SolveConfig()
        shared = [SV.solve_maximal(c, cfg) for c in (*curves, curves[0])]
        assert all(S.mesh is cfg.meshes[0] for S, _ in shared)
        for c, (S, rep) in zip((*curves, curves[0]), shared):
            S_new, rep_new = SV.solve_maximal(c, SV.SolveConfig())
            assert S_new.mesh is not S.mesh
            assert np.array_equal(S_new.u, S.u)
            assert rep_new == rep

    def test_steepest_step_solves_at_radius_4_2(self):
        # the start carries the hull on the whole rim strip; filled inward
        # from the rim ring alone, this start cannot be made spacelike and
        # the data is rejected
        cfg = SV.SolveConfig(stages=((4.2, 38, 124),))
        _, rep = SV.solve_maximal(B.lift_graph(B.step_family(0.9), 512), cfg)
        assert rep["converged"] and rep["skipped"] == []
        assert rep["stages"][0]["iterations"] <= 4

    # the two-step curve's sampled width rises to pi/2 with the sample
    # count: 1.5700 at 4096 samples passes the width gate, while at 128
    # samples (1.546) its lightlike cells reject it
    @pytest.mark.parametrize("curve, reason", [
        (B.two_step_curve(4096), "width"),
        (B.two_step_curve(128), "lightlike_segment"),
        (B.lift_graph(B.step_family(0.9), 128), "slope_limit"),
    ])
    def test_rejection_carries_its_reason(self, curve, reason):
        with pytest.raises(SV.SolveRejected) as exc:
            SV.solve_maximal(curve)
        assert exc.value.reason == reason
        assert exc.value.width_report is not None


class TestExactSymmetries:
    """Isometries that the discrete pipeline keeps exactly, so that the
    solve commutes with them to round-off on the default disk: time
    translations, the time reversal (theta, -tau), which is the graph of
    f^-1, and rotations by whole angular steps, which the rings' half-step
    stagger keeps as mesh symmetries."""

    U_TOL = 1e-13
    K_TOL = 1e-10

    @pytest.fixture(scope="class", params=["step_0.5", "bump_0.6"])
    def base(self, request):
        f = {"step_0.5": B.step_family(0.5),
             "bump_0.6": B.bump_family(0.6)}[request.param]
        c = B.lift_graph(f, 512)
        S, rep = SV.solve_maximal(c)
        assert rep["converged"]
        return c, S, rep

    @pytest.mark.parametrize("a", [0.7, 2.0])
    def test_time_translation_adds_its_shift(self, base, a):
        c, S, _ = base
        S_a, rep = SV.solve_maximal(B.BoundaryCurve(c.theta, c.tau + a))
        assert rep["converged"]
        assert np.abs(S_a.u - (S.u + a)).max() <= self.U_TOL

    def test_time_reversal_negates_the_graph(self, base):
        c, S, rep = base
        S_r, rep_r = SV.solve_maximal(B.BoundaryCurve(c.theta, -c.tau))
        assert rep_r["converged"]
        assert np.abs(S_r.u + S.u).max() <= self.U_TOL
        assert np.float64(rep_r["width"]).tobytes() == np.float64(
            rep["width"]).tobytes()

    @pytest.mark.parametrize("j", [1, 5])
    def test_rotation_by_whole_angular_steps(self, base, j):
        c, S, _ = base
        mesh = S.mesh
        step = 2 * np.pi / mesh.n_angular
        theta = np.mod(c.theta + j * step, 2 * np.pi)
        order = np.argsort(theta)
        S_j, rep = SV.solve_maximal(B.BoundaryCurve(theta[order],
                                                    c.tau[order]))
        assert rep["converged"]
        # vertices by (ring_index, theta in half steps); the centre is fixed
        half = np.rint(2 * mesh.theta / step).astype(int)
        at = {(r, h): v for v, (r, h) in
              enumerate(zip(mesh.ring_index, half))}
        image = np.array([at[r, (h + 2 * j * (r > 0)) % (2 * mesh.n_angular)]
                          for r, h in zip(mesh.ring_index, half)])
        assert np.abs(S_j.u[image] - S.u).max() <= self.U_TOL
        k1, k1_j = SF.shape_data(S).k1, SF.shape_data(S_j).k1[image]
        assert np.array_equal(np.isnan(k1), np.isnan(k1_j))
        ok = ~np.isnan(k1)
        assert np.abs(k1_j[ok] - k1[ok]).max() <= self.K_TOL


class TestStartFill:
    def test_fill_solves_the_zero_graph_tangent_system(self):
        # the fill's matrix is the tangent stiffness at u = 0, bit for bit
        m = MM.make_mesh(3.0, 26, 84)
        strip = m.rim_strip
        u = np.zeros(m.n_vertices)
        u[strip] = np.cos(3 * m.theta[strip]) * m.rho[strip]
        K = SF.tangent_stiffness(m, np.zeros(m.n_vertices))
        off = ~strip
        ref = spla.splu(K[off][:, off].tocsc(),
                        permc_spec="MMD_AT_PLUS_A").solve(
            -(K[off][:, strip] @ u[strip]))
        assert np.array_equal(m.strip_fill(u[strip]), ref)


class TestTruncationBound:
    # P1 elements on obtuse cells have no discrete maximum principle, so the
    # comparison order is read with this slack (0.03 % of the rim gap here)
    ORDER_SLACK = 1e-6

    @pytest.fixture(scope="class")
    def step(self):
        c = B.lift_graph(B.step_family(0.5), 128)
        S, rep = SV.solve_maximal(c)
        lo, hi = HU.hull_heights(HU.convex_hull(c), S.mesh.vertices)
        return S, rep, lo, hi

    def test_bound_is_the_rim_gap(self, step):
        S, rep, lo, hi = step
        rim = S.mesh.boundary_mask
        assert rep["truncation_bound"] == (hi - lo)[rim].max()
        assert rep["truncation_bound"] > 0.0

    @pytest.mark.parametrize("kappa", [0.3, 0.5])
    def test_bound_falls_like_exp_minus_2R(self, kappa):
        # the rim sits at Euclidean distance 1 - tanh(R/2) = 2e^{-R}(1 +
        # O(e^{-R})) from the circle, and the hull closes quadratically onto
        # the curve, so the rim gap is C e^{-2R} (1 + O(e^{-R})).  Over a
        # step of 0.6 in R the gap falls by e^{-1.2}, up to a relative
        # error taken as e^{-R} at the smaller radius (5 % at R = 3.0)
        chull = HU.convex_hull(B.lift_graph(B.step_family(kappa), 512))
        stages = ((3.0, 26, 84), (3.6, 32, 104), (4.2, 38, 124))
        gaps = []
        for stage in stages:
            m = MM.make_mesh(*stage)
            lo, hi = HU.hull_heights(chull, m.vertices[m.boundary_mask])
            gaps.append((hi - lo).max())
        for (r0, _, _), (r1, _, _), g0, g1 in zip(stages, stages[1:], gaps,
                                                  gaps[1:]):
            assert abs(g1 / g0 / np.exp(-2.0 * (r1 - r0)) - 1) <= np.exp(-r0)

    def test_hull_rim_values_enclose_the_solution(self, step):
        # time translations are isometries: maximal graphs with rim values
        # t_lo and t_hi enclose the solution, whose rim lies between them
        S, rep, lo, hi = step
        mesh = S.mesh
        rim = mesh.boundary_mask
        sols = []
        for t in (lo, hi):
            u0 = S.u.copy()
            u0[rim] = t[rim]
            u, info = SV.newton_solve(mesh, SV.slope_limit(mesh, u0),
                                      SV.SolveConfig())
            assert info["converged"]
            sols.append(u)
        u_lo, u_hi = sols
        assert np.all(u_lo <= S.u + self.ORDER_SLACK)
        assert np.all(S.u <= u_hi + self.ORDER_SLACK)
        gap = (u_hi - u_lo)[mesh.interior_mask].max()
        assert gap <= rep["truncation_bound"] + self.ORDER_SLACK


class TestInteriorSolve:
    def test_matches_default_splu(self):
        m = MM.make_mesh(3.0, 48, 160)
        assert m.n_vertices == 7681
        u = SF.umbilic_surface(m, 0.7).u
        K = SF.tangent_stiffness(m, u)
        F, _ = SF.residual(m, u)
        inner = m.interior_mask
        ref = spla.splu(K[inner][:, inner].tocsc()).solve(-F[inner])
        got = SV._interior_solve(K, -F, inner)
        assert np.all(got[~inner] == 0.0)
        assert (np.abs(got[inner] - ref).max()
                <= 1e-10 * np.abs(ref).max())


@pytest.fixture(scope="module")
def umbilic_start():
    """A 7,681-vertex disk and the umbilic start r = 0.7 on it, whose
    maximal graph with the same rim is the plane u = u(rim)."""
    m = MM.make_mesh(3.0, 48, 160)
    return m, SF.umbilic_surface(m, 0.7).u


class TestNewtonSteps:
    def test_one_factor_then_cg_steps(self, umbilic_start):
        m, u0 = umbilic_start
        u, info = SV.newton_solve(m, u0, SV.SolveConfig())
        assert info["converged"] and info["iterations"] == 4
        assert info["direct_solves"] == 1 and info["cg_steps"] == 3
        assert 3 <= info["cg_iterations"] <= 3 * SV.NEWTON_CG_MAXITER
        assert np.abs(u - u0[m.boundary_mask][0]).max() <= SV.MEAN_CURV_TOL

    def test_cg_direction_matches_the_direct_solve(self, umbilic_start,
                                                   monkeypatch):
        # the second step's system, solved by CG on the first step's factor
        m, u0 = umbilic_start
        inner = m.interior_mask
        lu = SV._factor(SF.tangent_stiffness(m, u0)[inner][:, inner])
        monkeypatch.setattr(SV, "MAX_NEWTON", 1)
        u1, _ = SV.newton_solve(m, u0, SV.SolveConfig())
        K = SF.tangent_stiffness(m, u1)
        F, _ = SF.residual(m, u1)
        ref = SV._interior_solve(K, -F, inner)[inner]
        got, iters = SV._cg_step(K[inner][:, inner], -F[inner], lu)
        assert got is not None and 0 < iters <= SV.NEWTON_CG_MAXITER
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_missed_cap_solves_directly(self, umbilic_start, monkeypatch):
        # one CG iteration never reaches the tolerance: every later step
        # refactors, and the solve ends as the direct one does
        m, u0 = umbilic_start
        monkeypatch.setattr(SV, "NEWTON_CG_MAXITER", 1)
        u, info = SV.newton_solve(m, u0, SV.SolveConfig())
        assert info["converged"] and info["iterations"] == 4
        assert info["cg_steps"] == 0
        assert info["direct_solves"] == info["iterations"]
        assert info["cg_iterations"] == info["iterations"] - 1

    def test_repeated_solve_is_bit_equal(self, umbilic_start):
        m, u0 = umbilic_start
        u_a, info_a = SV.newton_solve(m, u0, SV.SolveConfig())
        u_b, info_b = SV.newton_solve(m, u0, SV.SolveConfig())
        assert np.array_equal(u_a, u_b)
        assert info_a == info_b


class TestFlow:
    def test_step_flow_converges_within_appendix_bounds(self):
        st = SV.flow_run(B.lift_graph(B.step_family(0.3), 256),
                         MM.make_mesh(1.4, 12, 40))
        assert st.converged
        assert st.history[-1]["sup_H"] < SV.SolveConfig().tol_H
        assert SV.flow_bound_checks(st) == {
            "mean_curvature_bound": True, "displacement_bound": True}
