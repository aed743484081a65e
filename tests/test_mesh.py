import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from adsmax import mesh as MM
from adsmax import surface as SF


def loop_mesh(radius, n_rings, n_angular):
    """make_mesh's vertices and triangles, built ring by ring and cell by
    cell."""
    rhos = MM.ring_radii(radius, n_rings, n_angular)
    dtheta = 2 * np.pi / n_angular
    j = np.arange(n_angular)
    verts = [np.zeros((1, 2))]
    for i, rho in enumerate(rhos, start=1):
        ang = (j + 0.5 * (i % 2)) * dtheta
        e = np.tanh(rho / 2.0)
        verts.append(np.stack([e * np.cos(ang), e * np.sin(ang)], axis=-1))
    vertices = np.concatenate(verts)

    def vid(i, jj):
        return 1 + (i - 1) * n_angular + (jj % n_angular)

    tris = []
    for jj in range(n_angular):
        tris.append([0, vid(1, jj), vid(1, jj + 1)])
    for i in range(1, n_rings):
        up = i % 2 == 1
        for jj in range(n_angular):
            if up:
                tris.append([vid(i, jj), vid(i, jj + 1), vid(i + 1, jj)])
                tris.append([vid(i, jj + 1), vid(i + 1, jj + 1),
                             vid(i + 1, jj)])
            else:
                tris.append([vid(i, jj), vid(i, jj + 1), vid(i + 1, jj + 1)])
                tris.append([vid(i, jj), vid(i + 1, jj + 1), vid(i + 1, jj)])
    triangles = np.asarray(tris, dtype=np.int32)
    p = vertices[triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    flip = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return vertices, triangles


class TestMakeMesh:
    @pytest.mark.parametrize("n_rings", [7, 8])
    @pytest.mark.parametrize("n_angular", [6, 40])
    def test_matches_loop_builder(self, n_rings, n_angular):
        m = MM.make_mesh(1.8, n_rings, n_angular)
        vertices, triangles = loop_mesh(1.8, n_rings, n_angular)
        assert m.triangles.dtype == triangles.dtype
        assert np.array_equal(m.triangles, triangles)
        assert np.array_equal(m.vertices, vertices)

    def test_ring_points_give_the_vertex_bits(self):
        m = MM.make_mesh(2.5, 17, 53)
        ids = np.random.default_rng(1).choice(
            np.arange(1, m.n_vertices), 200, replace=False)
        y = MM.ring_points(m.ring_rhos, m.ring_index[ids], m.theta[ids])
        assert y.tobytes() == m.vertices[ids].tobytes()

    def test_vertex_count(self):
        m = MM.make_mesh(2.0, 16, 48)
        assert m.n_vertices == 769  # center + 16*48

    def test_boundary_on_circle(self):
        m = MM.make_mesh(2.0, 16, 48)
        e = np.tanh(2.0 / 2)
        r = np.linalg.norm(m.vertices[m.boundary_mask], axis=1)
        assert np.abs(r - e).max() < 1e-12
        assert np.abs(m.rho[m.boundary_mask] - 2.0).max() < 1e-12

    def test_quality_off_fan(self):
        # the central fan has apex angle 2pi/n_angular by construction; all
        # other cells must satisfy the 20-degree audit
        q = MM.quality_report(MM.make_mesh(2.0, 16, 48))
        assert q["min_angle_off_fan_deg"] > 20.0
        assert q["min_angle_deg"] == pytest.approx(360.0 / 48, abs=1e-6)

    def test_quality_various_sizes(self):
        for r, nr, na in [(1.5, 12, 36), (3.0, 40, 120), (2.5, 32, 96)]:
            q = MM.quality_report(MM.make_mesh(r, nr, na))
            assert q["min_angle_off_fan_deg"] > 20.0, (r, nr, na)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            MM.make_mesh(2.0, 1, 48)
        with pytest.raises(ValueError):
            MM.make_mesh(-1.0, 16, 48)

    def test_orientation(self):
        m = MM.make_mesh(2.0, 8, 24)
        p = m.vertices[m.triangles]
        e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        assert np.all(area2 > 0)

    def test_triangles_cover_disk(self):
        m = MM.make_mesh(2.0, 8, 24)
        p = m.vertices[m.triangles]
        e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]).sum()
        # the straight-edge polygon slightly undershoots the disk
        e = np.tanh(1.0)
        assert area == pytest.approx(np.pi * e**2, rel=0.02)

    def test_refinement_shrinks_cells_everywhere(self):
        m1 = MM.make_mesh(2.0, 16, 48)
        m2 = MM.make_mesh(2.0, 32, 96)
        assert m2.ring_rhos[0] < m1.ring_rhos[0]
        assert (np.diff(m2.ring_rhos).max()
                < np.diff(m1.ring_rhos).max())


class TestPolarInterp:
    def test_reproduces_smooth_function(self):
        m1 = MM.make_mesh(2.0, 24, 72)
        m2 = MM.make_mesh(2.0, 17, 53)
        f = lambda rho, th: np.tanh(rho) * np.cos(th) + 0.3 * rho
        vals = f(m1.rho, m1.theta)
        out = MM.interpolate_polar(m1, vals, m2.rho, m2.theta)
        assert np.abs(out - f(m2.rho, m2.theta)).max() < 5e-3

    def test_exact_at_vertices(self):
        m = MM.make_mesh(1.5, 10, 30)
        vals = np.sin(m.theta) + m.rho
        out = MM.interpolate_polar(m, vals, m.rho, m.theta)
        assert np.abs(out - vals).max() < 1e-12


class TestMeshCache:
    def test_cache_dies_with_mesh(self):
        m = MM.make_mesh(1.5, 8, 24)
        SF.residual(m, np.zeros(m.n_vertices))
        SF.vertex_gradient(SF.SpacelikeGraph(m, np.zeros(m.n_vertices)))
        assert {"fem", "quadrature", "gradient_map"} <= set(vars(m))
        ref = weakref.ref(m)
        del m
        gc.collect()
        assert ref() is None

    def test_cached_arrays_are_read_only(self):
        m = MM.make_mesh(1.5, 8, 24)
        arrays = [m.edges, *m.fem.values(), *m.quadrature.values(),
                  *m.gradient_map.values()]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0
        for cache in (m.fem, m.quadrature, m.gradient_map):
            with pytest.raises(TypeError):
                cache["area"] = None

    def test_vertex_neighbors_matches_unique(self):
        m = MM.make_mesh(1.5, 8, 24)
        t = m.triangles
        both_ways = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]],
                                    t[:, [1, 0]], t[:, [2, 1]], t[:, [0, 2]]])
        ref = np.unique(both_ways, axis=0)
        assert MM.vertex_neighbors(m).dtype == ref.dtype
        assert np.array_equal(MM.vertex_neighbors(m), ref)
        assert MM.vertex_neighbors(m) is MM.vertex_neighbors(m)

    def test_neighbor_average_matches_add_at(self):
        m = MM.make_mesh(1.5, 8, 24)
        u = np.random.default_rng(3).normal(size=m.n_vertices)
        e = m.edges
        acc = np.zeros(m.n_vertices)
        cnt = np.zeros(m.n_vertices)
        np.add.at(acc, e[:, 0], u[e[:, 1]])
        np.add.at(cnt, e[:, 0], 1.0)
        assert np.array_equal(MM.neighbor_average(m, u), acc / cnt)
        assert np.array_equal(m.neighbor_count, cnt)
        with pytest.raises(ValueError):
            m.neighbor_count[0] = 0


class TestP1Scatter:
    def test_corner_sum_matches_add_at(self):
        m = MM.make_mesh(1.5, 8, 24)
        vals = np.random.default_rng(4).normal(size=m.triangles.shape)
        ref = np.zeros(m.n_vertices)
        for k in range(3):
            np.add.at(ref, m.triangles[:, k], vals[:, k])
        got = MM.corner_sum(m, vals)
        assert got.tobytes() == ref.tobytes()

    def test_tangent_stiffness_matches_coo_loop(self):
        m = MM.make_mesh(1.5, 8, 24)
        u = SF.umbilic_surface(m, 0.4).u
        g, q = m.fem, m.quadrature
        gu = SF.triangle_gradients(m, u)
        vq = 1.0 / np.sqrt(np.maximum(
            1.0 - q["wq"] ** 2 * (gu**2).sum(axis=1)[:, None], 1e-14))
        c1 = (q["phiq"] ** 2 * vq).sum(axis=1) / 3.0
        c2 = (q["phiq"] ** 2 * vq**3 * q["wq"] ** 2).sum(axis=1) / 3.0
        rows, cols, vals = [], [], []
        for a in range(3):
            ga = g["grads"][:, a]
            for b in range(3):
                gb = g["grads"][:, b]
                vals.append(g["area"] * (
                    c1 * (ga * gb).sum(axis=1)
                    + c2 * (gu * ga).sum(axis=1) * (gu * gb).sum(axis=1)))
                rows.append(m.triangles[:, a])
                cols.append(m.triangles[:, b])
        ref = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(m.n_vertices, m.n_vertices)).tocsr()
        K = SF.tangent_stiffness(m, u)
        for name in ("indptr", "indices", "data"):
            assert getattr(K, name).tobytes() == getattr(ref, name).tobytes()

    def test_metric_operator_matches_coo_loop(self):
        # chi_residual's operator, against one einsum per corner pair
        S = SF.horosphere_surface(MM.make_mesh(1.5, 8, 24))
        m, metric = S.mesh, SF.shape_data(S).I
        g = m.fem
        M = metric[m.triangles].mean(axis=1)
        # the operator's closed-form 2x2 inverse and determinant, which
        # match LAPACK's to round-off
        det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
        Minv = np.stack([M[:, 1, 1], -M[:, 0, 1], -M[:, 1, 0], M[:, 0, 0]],
                        axis=-1).reshape(-1, 2, 2) / det[:, None, None]
        assert np.abs(Minv - np.linalg.inv(M)).max() <= 1e-14 * np.abs(Minv).max()
        assert np.abs(det - np.linalg.det(M)).max() <= 1e-14 * np.abs(det).max()
        sdet = np.sqrt(np.maximum(det, 1e-300))
        rows, cols, vals = [], [], []
        for a in range(3):
            for b in range(3):
                vals.append(np.einsum("md,mde,me->m", g["grads"][:, a], Minv,
                                      g["grads"][:, b]) * g["area"] * sdet)
                rows.append(m.triangles[:, a])
                cols.append(m.triangles[:, b])
        ref = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(m.n_vertices, m.n_vertices)).tocsr()
        K, mass = SF._metric_operator(m, metric)
        for name in ("indptr", "indices", "data"):
            assert getattr(K, name).tobytes() == getattr(ref, name).tobytes()
        ref_mass = np.zeros(m.n_vertices)
        for k in range(3):
            np.add.at(ref_mass, m.triangles[:, k], g["area"] * sdet / 3.0)
        assert mass.tobytes() == ref_mass.tobytes()
