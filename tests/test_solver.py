import numpy as np
import pytest

from adsmax import boundary as B
from adsmax import lorentz as L
from adsmax import mesh as MM
from adsmax import solver as SV

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


class TestFlow:
    def test_step_flow_converges_within_appendix_bounds(self):
        st = SV.flow_run(B.lift_graph(B.step_family(0.3), 256),
                         MM.make_mesh(1.4, 12, 40))
        assert st.converged
        assert st.history[-1]["sup_H"] < SV.SolveConfig().tol_H
        assert SV.flow_bound_checks(st) == {
            "mean_curvature_bound": True, "displacement_bound": True}
