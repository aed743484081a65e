import tracemalloc

import numpy as np
import pytest

from adsmax import lorentz as L
from adsmax import mesh as MM
from adsmax import solver as SV
from adsmax import surface as SF
from adsmax.constants import PAIR_BLOCK

RNG = np.random.default_rng(42)
TILT = L.apply_isometry(L.random_isometry(RNG, 0.4), L.E4)


def fixed_interior(mesh, frac=0.65):
    return mesh.rho <= frac * mesh.radius


class TestSpacelikeGraph:
    def test_zero_graph_certifies(self):
        m = MM.make_mesh(2.0, 12, 36)
        S = SF.SpacelikeGraph.certify(m, np.zeros(m.n_vertices))
        assert S.margin == pytest.approx(1.0)

    def test_steep_graph_rejected(self):
        m = MM.make_mesh(2.0, 12, 36)
        with pytest.raises(ValueError):
            SF.SpacelikeGraph.certify(m, 5.0 * m.vertices[:, 0])

    def test_residual_margins_are_triangle_margins(self):
        # residual takes its margins from the squared gradient norms of its
        # cone factor; on a steep graph they keep triangle_margins' bits
        S = SF.horosphere_surface(MM.make_mesh(3.0, 26, 84))
        assert S.margin < 0.05
        _, margins = SF.residual(S.mesh, S.u)
        assert margins.tobytes() == SF.triangle_margins(S.mesh, S.u).tobytes()

    def test_two_lipschitz(self):
        # spacelike certificate implies |grad u| <= 2 in disk coordinates
        m = MM.make_mesh(2.0, 16, 48)
        S = SF.umbilic_surface(m, 0.4)
        gu = SF.triangle_gradients(m, S.u)
        assert np.linalg.norm(gu, axis=1).max() <= 2.0 + 1e-12


class TestGradientFunction:
    def test_plane_is_one(self):
        m = MM.make_mesh(2.0, 12, 36)
        S = SF.SpacelikeGraph.certify(m, np.zeros(m.n_vertices))
        assert np.abs(SF.shape_data(S).v - 1).max() < 1e-14

    def test_tilted_plane_closed_form(self):
        # the dual point of a plane is its future unit normal
        m = MM.make_mesh(2.0, 24, 72)
        nu = SF.shape_data(SF.plane_surface(m, TILT)).nu
        sel = m.deep_interior_mask(1)
        assert np.abs(nu[sel] - TILT).max() < 2e-3

    def test_at_least_one(self):
        m = MM.make_mesh(2.0, 16, 48)
        S = SF.umbilic_surface(m, 0.3)
        assert SF.shape_data(S).v.min() >= 1.0


class TestChartFrame:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        r = 0.85 * np.sqrt(rng.uniform(0, 1, 200))
        a = rng.uniform(0, 2 * np.pi, 200)
        y = np.stack([r * np.cos(a), r * np.sin(a)], axis=-1)
        t = rng.uniform(-1.2, 1.2, 200)
        h, q = 1e-6, L.cyl_to_quadric
        fd = np.stack([(q(y + h * e, t) - q(y - h * e, t)) / (2 * h)
                       for e in np.eye(2)]
                      + [(q(y, t + h) - q(y, t - h)) / (2 * h)], axis=1)
        fr = SF.chart_frame(y, t)
        assert np.abs(fr - fd).max() < 1e-8 * np.abs(fr).max()


class TestNormalField:
    def test_unit_timelike_future(self):
        m = MM.make_mesh(2.0, 16, 48)
        S = SF.umbilic_surface(m, 0.25)
        nu = SF.shape_data(S).nu
        assert np.abs(L.inner(nu, nu) + 1).max() < 1e-10
        # future: positive pairing with the time Killing direction
        fr = SF.chart_frame(m.vertices, S.u)
        assert np.all(-L.inner(nu, fr[:, 2]) > 0)

    def test_orthogonal_to_tangents(self):
        m = MM.make_mesh(2.0, 16, 48)
        S = SF.umbilic_surface(m, 0.25)
        sd = SF.shape_data(S)
        nu, G = sd.nu, sd.G
        sel = m.deep_interior_mask(1)
        assert np.abs(L.inner(nu[:, None, :], G))[sel].max() < 1e-9


class TestMeanCurvature:
    def test_plane_zero(self):
        m = MM.make_mesh(2.0, 12, 36)
        S = SF.SpacelikeGraph.certify(m, np.zeros(m.n_vertices))
        assert SV.residual_norms(m, S.u)[0] < 1e-10
        assert np.nanmax(np.abs(SF.mean_curvature_pointwise(S))) < 1e-10

    def test_umbilic_value(self):
        m = MM.make_mesh(2.0, 24, 72)
        S = SF.umbilic_surface(m, 0.3)
        H = SF.mean_curvature_pointwise(S)
        sel = fixed_interior(m)
        assert np.nanmax(np.abs(H[sel] + 2 * np.tan(0.3))) < 5e-3

    def test_tilted_plane_refinement_order(self):
        errs = []
        for nr, na in [(12, 36), (24, 72), (48, 144)]:
            m = MM.make_mesh(2.0, nr, na)
            S = SF.plane_surface(m, TILT)
            H = SF.mean_curvature_pointwise(S)
            errs.append(np.nanmax(np.abs(H[fixed_interior(m)])))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert errs[-1] < errs[0]
        assert sum(orders) / 2 > 1.5  # order ~2 at a fixed subdomain

    def test_horosphere_small_and_decreasing(self):
        errs = []
        for nr, na in [(16, 48), (32, 96)]:
            m = MM.make_mesh(2.0, nr, na)
            S = SF.horosphere_surface(m)
            H = SF.mean_curvature_pointwise(S)
            errs.append(np.nanmax(np.abs(H[fixed_interior(S.mesh, 0.6)])))
        assert errs[1] < errs[0]
        assert errs[1] < 0.02


class TestShapeData:
    def test_plane_flat(self):
        m = MM.make_mesh(2.0, 16, 48)
        S = SF.SpacelikeGraph.certify(m, np.zeros(m.n_vertices))
        sd = SF.shape_data(S)
        sel = sd.mask
        assert np.nanmax(np.abs(sd.B[sel])) < 1e-10
        assert np.nanmedian(sd.K_int[sel]) == pytest.approx(-1.0, abs=0.01)
        assert np.nanmax(np.abs(sd.K_ext[sel] + 1)) < 1e-9

    def test_umbilic_curvatures(self):
        m = MM.make_mesh(2.0, 24, 72)
        S = SF.umbilic_surface(m, 0.3)
        sd = SF.shape_data(S)
        sel = sd.mask & fixed_interior(m)
        k = -np.tan(0.3)
        assert np.nanmedian(sd.k1[sel]) == pytest.approx(k, abs=5e-3)
        assert np.nanmedian(sd.k2[sel]) == pytest.approx(k, abs=5e-3)
        assert np.nanmedian(sd.K_ext[sel]) == pytest.approx(-1 - np.tan(0.3) ** 2,
                                                            abs=5e-3)

    def test_gauss_consistency(self):
        m = MM.make_mesh(2.0, 24, 72)
        S = SF.umbilic_surface(m, 0.3)
        sd = SF.shape_data(S)
        sel = sd.mask & fixed_interior(m)
        dev = np.abs(sd.K_int - sd.K_ext)[sel]
        assert np.nanmedian(dev) < 0.01

    def test_trace_matches_fem_H(self):
        # two-pipeline cross-check: tr B vs the assembled mean curvature
        m = MM.make_mesh(2.0, 24, 72)
        S = SF.umbilic_surface(m, 0.3)
        sd = SF.shape_data(S)
        Hp = SF.mean_curvature_pointwise(S)
        sel = sd.mask & fixed_interior(m)
        assert np.nanmedian(np.abs(sd.H - Hp)[sel]) < 0.01

    def test_closed_forms_match_lapack(self):
        # B from the closed-form 3x3 normal equations and 2x2 inverse,
        # against lstsq over each vertex's unit-scaled edges and
        # np.linalg.solve (measured 1.1e-14 relative); det B against
        # np.linalg.det
        m = MM.make_mesh(2.0, 16, 48)
        y = m.vertices
        S = SF.SpacelikeGraph.certify(
            m, 0.3 * np.sin(2 * y[:, 0]) * np.cos(y[:, 1]) + 0.2 * y[:, 1]**2)
        sd = SF.shape_data(S)
        e = MM.vertex_neighbors(m)
        for v in np.flatnonzero(sd.mask)[::5]:
            k = e[e[:, 0] == v, 1]
            dy = y[k] - y[v]
            Gm = 0.5 * (sd.G[v] + sd.G[k])
            mv = np.einsum("ed,d,ead->ea", sd.nu[k] - sd.nu[v], L.SIGNATURE, Gm)
            wgt = 1 / np.linalg.norm(dy, axis=1)
            a, b = (dy * wgt[:, None]).T
            z = np.zeros_like(a)
            A = np.concatenate([np.stack([a, b, z], -1), np.stack([z, a, b], -1)])
            c = np.linalg.lstsq(A, np.concatenate(mv.T * wgt), rcond=None)[0]
            B = np.linalg.solve(sd.I[v], [[c[0], c[1]], [c[1], c[2]]])
            assert np.abs(B - sd.B[v]).max() <= 1e-12 * np.abs(B).max()
        sel = sd.mask
        assert np.abs(np.linalg.det(sd.B[sel]) - sd.detB[sel]).max() <= 1e-15
        assert np.array_equal(np.trace(sd.B[sel], axis1=1, axis2=2), sd.H[sel])

    def test_intrinsic_curvature_is_computed_on_first_read(self):
        m = MM.make_mesh(2.0, 16, 48)
        sd = SF.shape_data(SF.umbilic_surface(m, 0.3))
        assert "K_int" not in vars(sd)
        K = SF.metric_gauss_curvature(m, sd.I)
        K[~sd.mask] = np.nan
        assert sd.K_int.tobytes() == K.tobytes()
        assert sd.K_int is sd.K_int

    def test_horosphere_principal_curvatures(self):
        m = MM.make_mesh(2.0, 24, 72)
        S = SF.horosphere_surface(m)
        sd = SF.shape_data(S)
        sel = sd.mask & fixed_interior(S.mesh, 0.6)
        assert np.nanmedian(sd.k1[sel]) == pytest.approx(1.0, abs=0.01)
        assert np.nanmedian(sd.k2[sel]) == pytest.approx(-1.0, abs=0.01)
        assert np.nanmedian(np.abs(sd.detB[sel] + 1)) < 0.01
        assert abs(np.nanmedian(sd.K_int[sel])) < 0.02

    def test_horosphere_curvature_foliations(self):
        # principal directions align with the flat (sigma, beta) coordinate
        # foliations of the horosphere
        m = MM.make_mesh(2.0, 24, 72)
        S = SF.horosphere_surface(m)
        sd = SF.shape_data(S)
        # grad beta is dh2/dy scaled by sqrt2 / sqrt(1 + 2 h2^2), which the
        # normalisation drops
        gb = SF.chart_frame(S.mesh.vertices, 0.0)[:, :2, 1]
        gb /= np.linalg.norm(gb, axis=1)[:, None]
        sel = np.where(sd.mask & fixed_interior(S.mesh, 0.6))[0]
        devs = []
        for i in sel:
            w, vecs = np.linalg.eigh(0.5 * (sd.B[i] + sd.B[i].T))
            # eigenvector of +1 should be along d(beta)-direction (graph coords)
            vplus = vecs[:, np.argmax(w)]
            vplus = vplus / np.linalg.norm(vplus)
            devs.append(min(np.linalg.norm(vplus - gb[i]),
                            np.linalg.norm(vplus + gb[i])))
        assert np.median(devs) < 0.05


CUBIC_EXP = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
             (3, 0), (2, 1), (1, 2), (0, 3)]


def two_ring_pairs(mesh):
    """(i, k) pairs with k in the 2-ring of i, k != i, in `two_ring` order."""
    ptr, cols = MM.two_ring(mesh)
    row = np.repeat(np.arange(mesh.n_vertices), np.diff(ptr))
    keep = row != cols
    return np.stack([row[keep], cols[keep]], axis=-1)


def lstsq_fit(mesh, u):
    """Reference for fit_derivatives: one weighted least-squares cubic fit
    per vertex, solved by lstsq instead of the normal equations."""
    pairs = two_ring_pairs(mesh)
    du = np.empty((mesh.n_vertices, 2))
    hess = np.empty((mesh.n_vertices, 3))
    for v in range(mesh.n_vertices):
        k = pairs[pairs[:, 0] == v, 1]
        d = mesh.vertices[k] - mesh.vertices[v]
        s = np.linalg.norm(d, axis=1).mean()
        x = d / s
        sw = np.sqrt(1.0 / (1.0 + (x**2).sum(axis=1)))
        P = np.stack([x[:, 0]**p * x[:, 1]**q for p, q in CUBIC_EXP], axis=-1)
        c = np.linalg.lstsq(P * sw[:, None], (u[k] - u[v]) * sw,
                            rcond=None)[0]
        du[v] = c[:2] / s
        hess[v] = [2 * c[2] / s**2, c[3] / s**2, 2 * c[4] / s**2]
    return du, hess


def moment_table_fit(mesh, u):
    """Reference for fit_derivatives: the fit as a call solved it before it
    became a map, in one pass over all pairs, with every weighted moment in
    an (n, 13, 13) table and one solve per vertex for the coefficients of
    the differences u_k - u_v."""
    exp = np.array(CUBIC_EXP)
    inner = mesh.deep_interior_mask(0)
    n = np.count_nonzero(inner)
    pairs = two_ring_pairs(mesh)
    keep = inner[pairs[:, 0]]
    i = (np.cumsum(inner) - 1)[pairs[keep, 0]]
    k = pairs[keep, 1]
    x = mesh.vertices[k] - mesh.vertices[inner][i]
    cnt = np.bincount(i, minlength=n)
    scale = np.bincount(i, np.linalg.norm(x, axis=1), minlength=n)
    scale = scale / np.maximum(cnt, 1.0)
    x /= scale[i, None]
    du = u[k] - u[inner][i]
    w = 1.0 / (1.0 + (x**2).sum(axis=1))
    top = 2 * exp.max()
    col = {(p, q): a for a, (p, q) in enumerate(CUBIC_EXP)}
    moments = np.zeros((n, top + 1, top + 1))
    ATB = np.empty((n, len(exp)))
    for p in range(top + 1):
        wp = wp * x[:, 0] if p else w
        wpq = wp
        for q in range(top + 1 - p):
            if q:
                x2q = x2q * x[:, 1] if q > 1 else x[:, 1]
                wpq = wp * x2q
            if p + q >= 2:
                moments[:, p, q] = np.bincount(i, wpq, minlength=n)
            if (p, q) in col:
                ATB[:, col[p, q]] = np.bincount(i, wpq * du, minlength=n)
    ep, eq = exp[:, 0], exp[:, 1]
    ATA = moments[:, ep[:, None] + ep, eq[:, None] + eq]
    ATA += 1e-12 * np.eye(len(exp))
    c = np.linalg.solve(ATA, ATB[..., None])[..., 0]
    s = scale
    du = np.full((mesh.n_vertices, 2), np.nan)
    hess = np.full((mesh.n_vertices, 3), np.nan)
    du[inner] = np.stack([c[:, 0] / s, c[:, 1] / s], axis=-1)
    hess[inner] = np.stack(
        [2 * c[:, 2] / s**2, c[:, 3] / s**2, 2 * c[:, 4] / s**2], axis=-1)
    return du, hess


def map_rows(vmap, rows):
    """(indices, data) of the entries of the rows `rows` (a mask) of a
    vertex map."""
    sel = np.repeat(rows, np.diff(vmap["indptr"]))
    return vmap["indices"][sel], vmap["data"][:, sel]


def same_map_bits(a, b):
    return all(a[key].tobytes() == b[key].tobytes() and
               a[key].dtype == b[key].dtype and a[key].shape == b[key].shape
               for key in ("indptr", "indices", "data"))


def cubic(y):
    """A cubic, its gradient and its (u11, u12, u22)."""
    y1, y2 = y.T
    u = 0.7 + 0.3 * y1 - 0.2 * y2 + 0.5 * y1**2 - 0.4 * y1 * y2**2 + 0.1 * y2**3
    du = np.stack([0.3 + y1 - 0.4 * y2**2, -0.2 - 0.8 * y1 * y2 + 0.3 * y2**2],
                  axis=-1)
    hess = np.stack([np.ones_like(y1), -0.8 * y2, -0.8 * y1 + 0.6 * y2],
                    axis=-1)
    return u, du, hess


def assert_near_moment_table(m):
    inner = m.deep_interior_mask(0)
    for u in (SF.umbilic_surface(m, 0.4).u,
              np.sin(3 * m.vertices[:, 0]) * m.vertices[:, 1]):
        fit = SF.fit_derivatives(m, u)
        for key, ref, bound in zip(("du", "hess"), moment_table_fit(m, u),
                                   (1e-12, 1e-10)):
            err = np.abs(fit[key] - ref)[inner].max()
            assert err <= bound * np.abs(ref[inner]).max()


class TestFitDerivatives:
    @pytest.mark.parametrize("field", ["umbilic", "trig"])
    def test_matches_per_vertex_lstsq(self, field):
        m = MM.make_mesh(1.4, 8, 24)
        if field == "umbilic":
            u = SF.umbilic_surface(m, 0.4).u
        else:
            u = np.sin(3 * m.vertices[:, 0]) * np.cos(2 * m.vertices[:, 1])
        fit = SF.fit_derivatives(m, u)
        du, hess = lstsq_fit(m, u)
        # the one-sided rim stencils are ill-conditioned (normal equations
        # and lstsq part there at ~1e-9), so the rim is left unfitted
        inner = m.deep_interior_mask(0)
        for got, ref in ((fit["du"], du), (fit["hess"], hess)):
            err = np.abs(got[inner] - ref[inner]).max()
            assert err <= 1e-10 * np.abs(ref[inner]).max()
            assert np.isnan(got[~inner]).all()

    def test_matches_moment_table(self):
        # the map sums u_k times coefficients where the table fit summed
        # u_k - u_v: measured 3.6e-14 (du) and 9.4e-12 (hess) relative here
        m = MM.make_mesh(3.0, 26, 84)
        assert_near_moment_table(m)

    @pytest.mark.parametrize("dims, several", [((1.4, 8, 24), False),
                                               ((2.5, 37, 41), True)],
                             ids=["one_block", "uneven_blocks"])
    def test_matches_moment_table_on_any_blocks(self, dims, several):
        m = MM.make_mesh(*dims)
        ptr = MM.two_ring(m)[0]
        assert (len(list(MM.vertex_blocks(ptr))) > 1) == several
        assert ptr[-1] % PAIR_BLOCK != 0
        assert_near_moment_table(m)

    def test_fit_derivatives_gradient_is_the_maps(self):
        # the five-row fit and the cached gradient map share their interior
        # rows bit for bit, entries and values
        m = MM.make_mesh(3.0, 26, 84)
        u = SF.umbilic_surface(m, 0.4).u
        inner = m.deep_interior_mask(0)
        gm = m.gradient_map
        fm = MM.fit_map(m, 5)
        (gi, gd), (fi, fd) = map_rows(gm, inner), map_rows(fm, inner)
        assert np.array_equal(gi, fi)
        assert gd.tobytes() == fd[:2].tobytes()
        du = SF.fit_derivatives(m, u)["du"]
        assert du[inner].tobytes() == MM.apply_map(gm, u)[inner].tobytes()

    def test_reproduces_cubics_inside_and_linear_functions_on_the_rim(self):
        m = MM.make_mesh(2.0, 16, 48)
        y = m.vertices
        inner = m.deep_interior_mask(0)
        u, du, hess = cubic(y)
        got = MM.apply_map(m.gradient_map, u)
        assert np.abs(got - du)[inner].max() <= 1e-10 * np.abs(du).max()
        fit = SF.fit_derivatives(m, u)
        assert np.abs(fit["hess"] - hess)[inner].max() <= 1e-8
        # vertex_gradient averages P1 gradients on the rim, exact on linear
        # functions
        S = SF.SpacelikeGraph(m, 0.7 + 0.3 * y[:, 0] - 0.2 * y[:, 1])
        got = SF.vertex_gradient(S)
        assert np.abs(got[~inner] - [0.3, -0.2]).max() <= 1e-12

    @pytest.mark.parametrize("dims", [(1.4, 8, 24), (2.5, 37, 41)])
    def test_blocks_do_not_move_bits(self, dims, monkeypatch):
        # the map built in one block equals the map built in uneven blocks,
        # for the cached gradient rows and the five-row fit
        maps = []
        for block in (10**9, 1000 + 7):
            monkeypatch.setattr(MM, "PAIR_BLOCK", block)
            m = MM.make_mesh(*dims)
            blocks = list(MM.vertex_blocks(MM.two_ring(m)[0]))
            maps.append((len(blocks), m.gradient_map, MM.fit_map(m, 5)))
        (n1, g1, f1), (n2, g2, f2) = maps
        assert n1 == 1 and n2 > 2
        assert same_map_bits(g1, g2) and same_map_bits(f1, f2)

    def test_fresh_disk_equals_cache_hit(self):
        m = MM.make_mesh(3.0, 26, 84)
        S = SF.umbilic_surface(m, 0.4)
        assert "gradient_map" not in vars(m)
        fresh = SF.vertex_gradient(S)
        assert "gradient_map" in vars(m)
        assert SF.vertex_gradient(S).tobytes() == fresh.tobytes()
        other = MM.make_mesh(3.0, 26, 84)
        assert same_map_bits(other.gradient_map, m.gradient_map)

    def test_solves_spell_out_the_batch_axis(self, monkeypatch):
        # numpy < 2 reads a right-hand side one dimension short of the
        # matrices as a stack of vectors; a stack of matrices reads alike
        # under every numpy
        ndims = []
        solve = np.linalg.solve

        def spy(a, b):
            ndims.append((np.ndim(a), np.ndim(b)))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        MM.fit_map(MM.make_mesh(1.4, 8, 24), 5)
        assert ndims == [(3, 3), (3, 3)]

    def test_blocks_cover_the_pairs_by_whole_vertices(self):
        m = MM.make_mesh(3.0, 26, 84)
        ptr = MM.two_ring(m)[0]
        v0, v1, lo, hi = np.array(list(MM.vertex_blocks(ptr))).T
        assert v0[0] == 0 and v1[-1] == m.n_vertices and lo[0] == 0
        assert np.array_equal(v0[1:], v1[:-1]) and np.array_equal(lo[1:], hi[:-1])
        assert hi[-1] == ptr[-1]
        # the central fan gives the first ring's vertices ~90 pairs each,
        # so blocks are cut by pairs, not by a vertex count
        assert (hi - lo).max() <= PAIR_BLOCK + np.diff(ptr).max()
        assert np.array_equal(ptr[v0], lo)

    def test_gradient_map_layout(self):
        # two float64 rows over one int32 index: the 2-ring and the vertex
        # on interior rows, nothing on rim rows; no moment table and no pair
        # list stay on the mesh
        m = MM.make_mesh(2.0, 12, 36)
        SF.vertex_gradient(SF.umbilic_surface(m, 0.4))
        gm = m.gradient_map
        assert sorted(gm) == ["data", "indices", "indptr"]
        nnz = gm["indptr"][-1]
        assert gm["indptr"].dtype == gm["indices"].dtype == np.int32
        assert gm["indptr"].shape == (m.n_vertices + 1,)
        assert gm["indices"].shape == (nnz,)
        assert gm["data"].dtype == np.float64 and gm["data"].shape == (2, nnz)
        inner = m.deep_interior_mask(0)
        lens = np.diff(gm["indptr"])
        assert np.array_equal(lens[inner], np.diff(MM.two_ring(m)[0])[inner])
        assert not lens[~inner].any()
        cached = {k for k, v in vars(m).items() if isinstance(v, np.ndarray)}
        assert cached <= {"vertices", "triangles", "rho", "theta", "ring_index",
                          "ring_rhos", "edges", "neighbor_count"}
        assert not hasattr(m, "fit_moments") and not hasattr(m, "two_ring_pairs")

    def test_peak_memory_is_a_few_pair_arrays(self):
        # a fresh mesh, so that the map is built under the trace: the map,
        # the 2-ring pattern (int32 index and bool), a few per-vertex arrays
        # and one block's arrays, among them its 28-row table of weighted
        # powers; no per-entry array over all entries besides the map's
        m = MM.make_mesh(3.0, 48, 160)
        m.fem
        ptr = MM.two_ring(m)[0]
        nnz = ptr[-1]
        block = max(hi - lo for _, _, lo, hi in MM.vertex_blocks(ptr))
        tracemalloc.start()
        try:
            gm = m.gradient_map
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        map_bytes = sum(a.nbytes for a in gm.values())
        assert peak < map_bytes + 5 * nnz + 8 * (16 * m.n_vertices + 48 * block)


class TestChiResidual:
    def test_horosphere_near_zero(self):
        m = MM.make_mesh(2.0, 24, 72)
        S = SF.horosphere_surface(m)
        res, valid = SF.chi_residual(SF.shape_data(S))
        sel = valid & fixed_interior(S.mesh, 0.6)
        assert np.nanmedian(np.abs(res[sel])) < 0.05

    def test_clipped_horosphere_keeps_the_fem_margin(self):
        # trial disks build no fem; the margin of the kept disk is the one
        # triangle_margins gives over its fem
        m = MM.make_mesh(3.0, 26, 84)
        S = SF.horosphere_surface(m, rotation=0.4)
        assert S.mesh.radius < m.radius
        assert "fem" not in vars(S.mesh)
        assert S.margin == SF.triangle_margins(S.mesh, S.u).min() > 0.0
        # the analysis pass reads the metric's P1 geometry, not the area
        # functional's midpoint rule
        SF.chi_residual(SF.shape_data(S))
        assert "quadrature" not in vars(S.mesh)

    def test_horosphere_refinement_decreasing(self):
        # the mollifier has one physical width on every mesh, so the
        # residual keeps halving under refinement
        meds = []
        for nr, na in [(16, 48), (32, 96), (64, 192)]:
            m = MM.make_mesh(2.0, nr, na)
            S = SF.horosphere_surface(m)
            res, valid = SF.chi_residual(SF.shape_data(S))
            sel = valid & fixed_interior(S.mesh, 0.6)
            meds.append(np.nanmedian(np.abs(res[sel])))
        assert meds[1] <= meds[0] / 2
        assert meds[2] <= meds[1] / 2

    def test_plane_masked_everywhere(self):
        m = MM.make_mesh(2.0, 12, 36)
        S = SF.SpacelikeGraph.certify(m, np.zeros(m.n_vertices))
        _, valid = SF.chi_residual(SF.shape_data(S))
        assert valid.sum() == 0


class TestEquidistant:
    def test_identity_at_zero(self):
        m = MM.make_mesh(2.0, 12, 36)
        S = SF.SpacelikeGraph.certify(m, np.zeros(m.n_vertices))
        assert SF.equidistant(S, 0.0) is S

    def test_plane_gives_umbilic(self):
        m = MM.make_mesh(2.0, 24, 72)
        S = SF.SpacelikeGraph.certify(m, np.zeros(m.n_vertices))
        Se = SF.equidistant(S, 0.25)
        ref = SF.umbilic_surface(m, 0.25)
        sel = fixed_interior(m)
        assert np.abs(Se.u - ref.u)[sel].max() < 5e-3

    def test_curvature_evolution(self):
        m = MM.make_mesh(2.0, 24, 72)
        S = SF.umbilic_surface(m, 0.2)
        sd = SF.shape_data(S)
        Se = SF.equidistant(S, 0.15, sd)
        sde = SF.shape_data(Se)
        sel = sde.mask & fixed_interior(m)
        pred = SF.equidistant_prediction(-np.tan(0.2), 0.15)
        assert np.nanmedian(sde.k1[sel]) == pytest.approx(pred, abs=5e-3)
        assert pred == pytest.approx(-np.tan(0.35), abs=1e-12)

    def test_out_of_range(self):
        m = MM.make_mesh(2.0, 12, 36)
        S = SF.SpacelikeGraph.certify(m, np.zeros(m.n_vertices))
        with pytest.raises(ValueError):
            SF.equidistant(S, 0.9)

    def test_focal_guard(self):
        # horosphere has principal curvatures +-1: any normal flow crosses
        # the focal set immediately
        m = MM.make_mesh(2.0, 16, 48)
        S = SF.horosphere_surface(m)
        with pytest.raises(ValueError):
            SF.equidistant(S, 0.2)


def clip_by_whole_disks(mesh, rotation):
    """Reference for horosphere_surface's clip: each 5 % shrink builds its
    whole disk and takes the margin of every cell."""
    rot = np.array([[np.cos(-rotation), -np.sin(-rotation)],
                    [np.sin(-rotation), np.cos(-rotation)]])
    radius, trials = mesh.radius, 1
    while True:
        y = mesh.vertices @ rot.T if rotation != 0.0 else mesh.vertices
        u = SF.horosphere_height(y)
        margin = float(SF.triangle_margins(mesh, u).min())
        if margin > 0.0:
            return SF.SpacelikeGraph(mesh, u, margin), trials
        radius *= 0.95
        trials += 1
        mesh = MM.make_mesh(radius, mesh.n_rings, mesh.n_angular)


class TestHorosphereSurface:
    @pytest.mark.parametrize("dims", [(1.5, 8, 24), (2.0, 16, 48),
                                      (3.0, 26, 84)])
    @pytest.mark.parametrize("rotation", [0.0, 0.4, 2.2])
    def test_rim_first_clip_keeps_the_bits(self, dims, rotation):
        # trial disks are tested on their rim cells first; the certified
        # radius, the mesh, the heights and the margin are those of the
        # clip that tests every cell of every trial disk
        m = MM.make_mesh(*dims)
        ref, trials = clip_by_whole_disks(m, rotation)
        S = SF.horosphere_surface(m, rotation=rotation)
        assert S.mesh.radius == ref.mesh.radius
        assert (trials > 1) == (dims[0] >= 2.0)
        for name in ("vertices", "triangles", "rho", "theta", "ring_rhos"):
            assert (getattr(S.mesh, name).tobytes()
                    == getattr(ref.mesh, name).tobytes())
        assert S.u.tobytes() == ref.u.tobytes() and S.margin == ref.margin


    def test_boundary_is_tent(self):
        # u extends continuously to the tent curve tau = dist(theta, pi Z)
        m = MM.make_mesh(3.5, 24, 72)
        S = SF.horosphere_surface(m)
        th = S.mesh.theta[S.mesh.boundary_mask]
        tent = np.minimum(np.mod(th, np.pi), np.pi - np.mod(th, np.pi))
        dev = np.abs(S.u[S.mesh.boundary_mask] - tent)
        # agreement improves with radius; corners converge slowest
        assert np.median(dev) < 0.05
        assert dev.max() < 0.3

    def test_maximal_and_flat(self):
        m = MM.make_mesh(2.0, 24, 72)
        S = SF.horosphere_surface(m)
        H = SF.mean_curvature_pointwise(S)
        assert np.nanmax(np.abs(H[fixed_interior(S.mesh, 0.6)])) < 0.03
