import numpy as np
import pytest
import scipy.sparse.linalg as spla

from adsmax import boundary as B
from adsmax import lorentz as L
from adsmax import mesh as MM
from adsmax import solver as SV
from adsmax import surface as SF

SMALL = SV.SolveConfig(stages=((1.4, 8, 24), (2.0, 10, 32)))


def mobius_plane(m):
    """Dual point of the totally geodesic plane bounded by the graph of m."""
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    return L.normalize_quadric(L.from_matrix(L.adj2(np.linalg.inv(J) @ m.m)))


class TestSolveMaximal:
    def test_identity_gives_reference_plane(self):
        S, rep = SV.solve_maximal(
            B.lift_graph(B.CircleHomeo.identity(), 128), SMALL)
        assert rep["converged"]
        assert np.all(S.u == 0.0)
        assert rep["final_sup_H"] < SMALL.tol_H

    # draw 1 has uneven sample spacing; resampling would move it off its plane
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
        assert "used_flow_fallback" not in rep["stages"][0]

    def test_report_keeps_the_stalled_newton_run(self, monkeypatch):
        # one Newton iteration cannot reach tol_H from the start, so the
        # stage goes through the flow fallback and a second Newton run
        monkeypatch.setattr(SV, "MAX_NEWTON", 1)
        cfg = SV.SolveConfig(stages=((1.4, 8, 24),))
        _, rep = SV.solve_maximal(B.lift_graph(B.step_family(0.3), 128), cfg)
        stage = rep["stages"][0]
        assert stage["used_flow_fallback"]
        stalled = stage["stalled"]
        assert stalled["iterations"] == 1
        assert len(stalled["history"]) == 1
        assert stalled["history"][0]["sup_H"] >= cfg.tol_H
        assert stage["converged"]


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


class TestFlow:
    def test_step_flow_converges_within_appendix_bounds(self):
        st = SV.flow_run(B.lift_graph(B.step_family(0.3), 256),
                         MM.make_mesh(1.4, 12, 40))
        assert st.converged
        assert st.history[-1]["sup_H"] < SV.SolveConfig().tol_H
        assert SV.flow_bound_checks(st) == {
            "mean_curvature_bound": True, "displacement_bound": True}
