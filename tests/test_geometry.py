import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from beamstab import _fem, geometry
from beamstab.errors import InadmissiblePartitionError, InvalidArgumentError

from conftest import grid_cells


def _shifted(mesh, shift):
    """The mesh moved by a constant vector."""
    return geometry.Mesh(tuple(x + s for x, s in zip(mesh.axes, shift)))


class TestIntervalMesh:
    def test_three_nodes(self):
        mesh = geometry.build_interval_mesh(1.0, 3)
        assert np.allclose(mesh.nodes[:, 0], [0.0, 0.5, 1.0])
        assert len(mesh.faces) == 2

    def test_spacing_and_left_normal(self):
        mesh = geometry.build_interval_mesh(2.0, 5)
        assert np.allclose(np.diff(mesh.nodes[:, 0]), 0.5)
        assert mesh.faces.normal.tolist() == [[-1.0], [1.0]]
        assert mesh.faces.nodes.tolist() == [[0], [4]]
        assert mesh.faces.quad_points[:, :, 0].tolist() == [[0.0], [2.0]]

    def test_too_few_nodes(self):
        with pytest.raises(InvalidArgumentError):
            geometry.build_interval_mesh(1.0, 2)

    def test_bad_length(self):
        with pytest.raises(InvalidArgumentError):
            geometry.build_interval_mesh(-1.0, 5)


class TestRectMesh:
    def test_small_grid(self):
        mesh = geometry.build_rect_mesh(1.0, 1.0, 2, 2)
        assert mesh.dimension == 2 and len(mesh.nodes) == 9
        assert len(mesh.faces) == 8
        normals = {tuple(nu) for nu in mesh.faces.normal.tolist()}
        assert normals == {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}

    def test_perimeter(self):
        for (lx, ly, nx, ny), perimeter in (((1, 1, 2, 2), 4.0), ((1, 2, 2, 4), 6.0)):
            faces = geometry.build_rect_mesh(lx, ly, nx, ny).faces
            assert faces.quad_weights.sum() == pytest.approx(perimeter)

    def test_bad_cell_count(self):
        with pytest.raises(InvalidArgumentError):
            geometry.build_rect_mesh(1.0, 1.0, 1, 4)

    @pytest.mark.parametrize("lx, ly, nx, ny", [(1.0, 1.0, 6, 6), (1.3, 0.7, 5, 3),
                                                (0.6, 1.7, 2, 9)])
    def test_faces_equal_edge_loop(self, lx, ly, nx, ny):
        mesh = geometry.build_rect_mesh(lx, ly, nx, ny)
        loop, measures = _rect_faces_loop(mesh.nodes, nx, ny)
        assert len(mesh.faces) == len(loop) == 2 * (nx + ny)
        for name in ("nodes", "normal", "quad_points", "quad_weights"):
            got, want = getattr(mesh.faces, name), getattr(loop, name)
            assert got.shape == want.shape and np.array_equal(got, want), name
        # the weights carry the measure exactly
        assert np.array_equal(mesh.faces.quad_weights.sum(axis=1), measures)
        T, w, pts = _fem.trace_structure(mesh, mesh.faces)
        T0, w0, pts0 = _fem.trace_structure(mesh, loop)
        assert (T != T0).nnz == 0 and np.array_equal(T.data, T0.data)
        assert np.array_equal(w, w0) and np.array_equal(pts, pts0)


def _rect_faces_loop(nodes, nx, ny):
    """Oracle: the rect boundary faces built one edge at a time, and the
    edge lengths."""
    g, gw = _fem.gauss_rule(2)
    faces = []

    def add_edge(a, b, normal):
        pa, pb = nodes[a], nodes[b]
        h = float(np.linalg.norm(pb - pa))
        faces.append(((a, b), normal, pa[None, :] + g[:, None] * (pb - pa)[None, :],
                      gw * h, h))

    def nid(i, j):
        return i * (ny + 1) + j

    for i in range(nx):
        add_edge(nid(i, 0), nid(i + 1, 0), (0.0, -1.0))
    for j in range(ny):
        add_edge(nid(nx, j), nid(nx, j + 1), (1.0, 0.0))
    for i in range(nx):
        add_edge(nid(i, ny), nid(i + 1, ny), (0.0, 1.0))
    for j in range(ny):
        add_edge(nid(0, j), nid(0, j + 1), (-1.0, 0.0))
    ids, normals, points, weights, measures = zip(*faces)
    return (geometry.Faces(np.array(ids), np.array(normals), np.array(points),
                           np.array(weights)), np.array(measures))


class TestClassifyBoundary:
    def test_unit_interval_origin(self, interval3):
        part = geometry.classify_boundary(interval3, np.array([0.0]))
        assert part.gamma1.tolist() == [False, True]
        assert part.m_dot_nu[1] == pytest.approx([1.0])

    def test_x0_left_of_domain(self, interval3):
        part = geometry.classify_boundary(interval3, np.array([-0.5]))
        assert part.gamma1.tolist() == [False, True]
        assert part.m_dot_nu[0] == pytest.approx([-0.5])
        assert part.m_dot_nu[1] == pytest.approx([1.5])

    def test_rect_partition(self):
        mesh = geometry.build_rect_mesh(1.0, 1.0, 2, 2)
        part = geometry.classify_boundary(mesh, np.array([-0.1, -0.1]))
        for nu, gamma1 in zip(mesh.faces.normal, part.gamma1):
            # left / bottom faces are Gamma0
            assert gamma1 == (nu[0] >= 0 and nu[1] >= 0)

    def test_interior_x0_has_no_clamped_part(self, interval3):
        with pytest.raises(InadmissiblePartitionError):
            geometry.classify_boundary(interval3, np.array([0.5]))

    def test_x0_shape_validation(self, interval3):
        with pytest.raises(InvalidArgumentError):
            geometry.classify_boundary(interval3, np.array([0.0, 0.0]))

    @given(x0=st.floats(min_value=-5.0, max_value=0.0),
           xy=st.tuples(st.floats(min_value=-2.0, max_value=3.0),
                        st.floats(min_value=-2.0, max_value=3.0)))
    @settings(max_examples=30, deadline=None)
    def test_partition_exactness(self, x0, xy):
        lx, ly = 1.3, 0.7
        cases = ((geometry.build_interval_mesh(1.0, 5), np.array([x0])),
                 (geometry.build_rect_mesh(lx, ly, 5, 3), np.array(xy)))
        for mesh, point in cases:
            if mesh.dimension == 2 and 0 < xy[0] < lx and 0 < xy[1] < ly:
                # an interior reference point sees every face with m.nu > 0
                with pytest.raises(InadmissiblePartitionError):
                    geometry.classify_boundary(mesh, point)
                continue
            part = geometry.classify_boundary(mesh, point)
            mn = part.m_dot_nu
            assert mn.shape == mesh.faces.quad_weights.shape
            for ids, nu, m in zip(mesh.faces.nodes, mesh.faces.normal, mn):
                # m.nu is constant on each face and equals its value at a node
                assert np.all(m == np.dot(mesh.nodes[ids[0]] - point, nu))
            assert np.array_equal(part.gamma1, mn[:, 0] > 0)
            assert np.all(part.gamma1_m_dot_nu > 0)
            assert np.all(mn[~part.gamma1] <= 0)


class TestGeometricConstants:
    def test_unit_interval(self, interval3, interval3_partition):
        gc = geometry.geometric_constants(interval3, interval3_partition)
        assert gc["R"] == pytest.approx(1.0)
        assert gc["tau0"] == pytest.approx(1.0)

    def test_shifted_reference_point(self, interval3):
        part = geometry.classify_boundary(interval3, np.array([-0.5]))
        gc = geometry.geometric_constants(interval3, part)
        assert gc["R"] == pytest.approx(1.5)
        assert gc["tau0"] == pytest.approx(1.5)

    def test_rect_farthest_corner(self):
        mesh = geometry.build_rect_mesh(1.0, 1.0, 2, 2)
        part = geometry.classify_boundary(mesh, np.array([-0.1, -0.1]))
        gc = geometry.geometric_constants(mesh, part)
        assert gc["R"] == pytest.approx(1.1 * math.sqrt(2))

    def test_tau0_is_smallest_gamma1_value(self):
        # Gamma1: the right edge (m.nu = 1.3) and the bottom edge (m.nu = 2.5)
        mesh = geometry.build_rect_mesh(1.0, 2.0, 3, 5)
        part = geometry.classify_boundary(mesh, np.array([-0.3, 2.5]))
        assert np.allclose(np.unique(part.gamma1_m_dot_nu), [1.3, 2.5])
        assert geometry.geometric_constants(mesh, part)["tau0"] == pytest.approx(1.3)


def _element_loop_forms(mesh, x0):
    """Independent reference for _fem.domain_matrices: dense forms by a loop
    over the cells with a 3-point tensor Gauss rule and the products of 1D
    hat functions as the basis."""
    dim, n = mesh.dimension, len(mesh.nodes)
    g, gw = np.polynomial.legendre.leggauss(3)
    g, gw = 0.5 * (g + 1.0), 0.5 * gw
    out = {name: np.zeros((n, n)) for name in ("mass", "stiffness", "coupling", "multiplier")}
    for cell in grid_cells(mesh):
        corners = mesh.nodes[cell]
        lo = corners.min(axis=0)
        size = corners.max(axis=0) - lo
        upper = (corners - lo) / size == 1.0  # (nloc, dim): corner at the upper end
        ix = np.ix_(cell, cell)
        for q in itertools.product(range(3), repeat=dim):
            ref = g[list(q)]
            w = np.prod(gw[list(q)]) * np.prod(size)
            hat = np.where(upper, ref, 1.0 - ref)
            dhat = np.where(upper, 1.0, -1.0) / size
            phi = np.prod(hat, axis=1)
            grad = np.stack([dhat[:, d] * np.prod(np.delete(hat, d, axis=1), axis=1)
                             for d in range(dim)], axis=1)  # (nloc, dim)
            m = lo + ref * size - x0
            out["mass"][ix] += w * np.outer(phi, phi)
            out["stiffness"][ix] += w * grad @ grad.T
            # rows: test function phi_k; columns: trial function phi_j
            out["coupling"][ix] += w * np.outer(phi, grad.sum(axis=1))
            out["multiplier"][ix] += w * np.outer(phi, grad @ m)
    return out


def _face_mass_oracle(mesh, faces, density=None):
    """Boundary mass over faces from the closed-form P1 mass of each face,
    |face| / 6 [[2, 1], [1, 2]] on an edge and 1 at a point, times the
    per-face density."""
    n = len(mesh.nodes)
    ids = faces.nodes  # (F, nloc)
    scale = np.ones(len(ids)) if density is None else np.asarray(density, dtype=float)
    ref, den = ([[1.0]], 1.0) if mesh.dimension == 1 else ([[2.0, 1.0], [1.0, 2.0]], 6.0)
    local = (scale * faces.quad_weights.sum(axis=1) / den)[:, None, None] * np.array(ref)
    nloc = ids.shape[1]
    rows = np.repeat(ids, nloc, axis=1)
    cols = np.tile(ids, (1, nloc))
    return sp.csr_matrix((local.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))


def _dense_embedding_oracle(mesh, partition):
    """Independent dense generalized eigensolves for M and N."""
    mats = _element_loop_forms(mesh, partition.x0)
    fixed = partition.gamma0_nodes()
    free = np.setdiff1d(np.arange(len(mesh.nodes)), fixed)
    K = mats["stiffness"][np.ix_(free, free)]
    Mm = mats["mass"][np.ix_(free, free)]
    B = _face_mass_oracle(mesh, partition.gamma1_faces)[np.ix_(free, free)].toarray()
    lam = scipy.linalg.eigh(K, Mm, eigvals_only=True)
    mu = scipy.linalg.eigh(B, K, eigvals_only=True)
    return {"M": 1.0 / math.sqrt(lam[0]), "N": math.sqrt(mu[-1])}


def _generalized_mode_N(mesh, partition):
    """N from ARPACK on the pencil (B, K) itself: the assembled free-dof
    stiffness K, its inverse by a sparse LU, and the Gamma1 boundary mass B."""
    fixed = partition.gamma0_nodes()
    free = np.setdiff1d(np.arange(len(mesh.nodes)), fixed)
    K = _fem.domain_matrices(mesh)["stiffness"][np.ix_(free, free)].tocsc()
    B = _face_mass_oracle(mesh, partition.gamma1_faces)[np.ix_(free, free)].tocsr()
    Kinv = spla.LinearOperator(K.shape, matvec=spla.splu(K).solve, dtype=float)
    mu = spla.eigsh(B, M=K, Minv=Kinv, which="LA", k=1, v0=np.ones(len(free)),
                    return_eigenvectors=False)[0]
    return math.sqrt(mu)


class TestDomainForms:
    @pytest.mark.parametrize("mesh, x0", [
        (geometry.build_rect_mesh(1.3, 0.7, 5, 3), np.array([-0.2, 0.31])),
        (geometry.build_rect_mesh(0.6, 1.7, 2, 4), np.array([0.9, -0.45])),
        (geometry.build_interval_mesh(1.7, 6), np.array([-0.35])),
    ])
    def test_match_element_loop(self, mesh, x0):
        mats = _fem.domain_matrices(mesh, x0=x0)
        oracle = _element_loop_forms(mesh, x0)
        for name, ref in oracle.items():
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(mats[name].toarray() - ref)) <= 1e-14 * scale, name


def _trace_loop_oracle(mesh, faces):
    """trace_structure as a loop over faces and quadrature points."""
    rows, cols, vals, weights, points = [], [], [], [], []
    for ids, face_points, face_weights in zip(faces.nodes, faces.quad_points,
                                              faces.quad_weights):
        for p, wq in zip(face_points, face_weights):
            q = len(weights)
            if mesh.dimension == 1:
                rows.append(q)
                cols.append(ids[0])
                vals.append(1.0)
            else:
                a, b = mesh.nodes[ids[0]], mesh.nodes[ids[1]]
                s = np.linalg.norm(p - a) / np.linalg.norm(b - a)
                rows.extend([q, q])
                cols.extend([ids[0], ids[1]])
                vals.extend([1.0 - s, s])
            weights.append(wq)
            points.append(p)
    T = sp.csr_matrix((vals, (rows, cols)), shape=(len(weights), len(mesh.nodes)))
    return T, np.asarray(weights), np.asarray(points)


class TestTraceStructure:
    @pytest.mark.parametrize("mesh, x0", [
        (geometry.build_interval_mesh(1.0, 9), np.array([0.0])),
        (geometry.build_rect_mesh(1.0, 1.0, 6, 6), np.array([-0.1, -0.1])),
        (geometry.build_rect_mesh(1.3, 0.7, 6, 6), np.array([1.6, -0.3])),
    ])
    def test_equals_loop_form(self, mesh, x0):
        part = geometry.classify_boundary(mesh, x0)
        for faces in (mesh.faces, part.gamma1_faces):
            T, w, pts = _fem.trace_structure(mesh, faces)
            T0, w0, pts0 = _trace_loop_oracle(mesh, faces)
            assert T.shape == T0.shape and T.nnz == T0.nnz
            assert np.array_equal(T.indptr, T0.indptr)
            assert np.array_equal(T.indices, T0.indices)
            assert np.array_equal(T.data, T0.data)
            assert np.array_equal(w, w0) and np.array_equal(pts, pts0)


class TestTraceForm:
    @pytest.mark.parametrize("mesh, x0", [
        (geometry.build_interval_mesh(1.7, 6), np.array([-0.35])),
        (geometry.build_rect_mesh(1.3, 0.7, 5, 3), np.array([-0.2, 0.31])),
        (geometry.build_rect_mesh(0.6, 1.7, 2, 4), np.array([0.9, -0.45])),
    ])
    def test_equals_face_mass_formula(self, mesh, x0):
        part = geometry.classify_boundary(mesh, x0)
        faces = mesh.faces
        q = faces.quad_weights.shape[1]
        sum_nu = faces.normal.sum(axis=1)
        # the Gamma1 boundary mass, and the sum-nu form over every face
        for sub, density, point_weight in (
                (part.gamma1_faces, None, 1.0),
                (faces, sum_nu, np.repeat(sum_nu, q))):
            T, w, _ = _fem.trace_structure(mesh, sub)
            got = _fem.trace_form(T, w * point_weight).toarray()
            want = _face_mass_oracle(mesh, sub, density).toarray()
            assert np.max(np.abs(got - want)) <= 1e-15


class TestBandStorage:
    def test_band_lu_solves_like_a_dense_solve(self):
        rng = np.random.default_rng(2)
        n, kl, ku = 11, 3, 2
        offsets = range(-kl, ku + 1)
        a = sp.diags([rng.standard_normal(n - abs(k)) for k in offsets], offsets) + 4 * sp.eye(n)
        b = rng.standard_normal(n)
        got = _fem.band_solve(_fem.band_lu(_fem.band_storage(a, kl, ku), kl, ku), kl, ku, b)
        want = np.linalg.solve(a.toarray(), b)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_entry_outside_the_band_is_refused(self):
        a = sp.eye(5, format="lil")
        a[4, 0] = 1.0
        with pytest.raises(InvalidArgumentError, match="outside the band"):
            _fem.band_storage(a, 3, 3)

    def test_singular_matrix_raises(self):
        with pytest.raises(scipy.linalg.LinAlgError):
            _fem.band_lu(_fem.band_storage(sp.diags([1.0, 0.0, 1.0]), 1, 1), 1, 1)


class TestTensorGrid:
    def test_axes(self):
        mesh = geometry.build_rect_mesh(1.3, 0.7, 5, 3)
        assert np.allclose(mesh.axes[0], np.linspace(0.0, 1.3, 6))
        assert np.allclose(mesh.axes[1], np.linspace(0.0, 0.7, 4))
        assert np.allclose(geometry.build_interval_mesh(2.0, 5).axes[0], [0, 0.5, 1, 1.5, 2])

    def test_nodes_from_axes(self):
        mesh = geometry.build_rect_mesh(1.3, 0.7, 5, 3)
        i, j = 4, 2  # node i*(ny+1)+j sits at (x_i, y_j)
        assert mesh.nodes.shape == (24, 2)
        assert mesh.nodes[i * 4 + j].tolist() == [mesh.axes[0][i], mesh.axes[1][j]]

    def test_equality_is_identity(self):
        # records of arrays compare by identity: == never reaches an array
        a, b = (geometry.build_rect_mesh(1.0, 1.0, 2, 2) for _ in range(2))
        pa, pb = (geometry.classify_boundary(m, np.array([-0.1, -0.1])) for m in (a, b))
        assert a == a and a != b
        assert a.faces == a.faces and a.faces != b.faces
        assert pa == pa and pa != pb
        assert len({a, b, pa, pb, a.faces}) == 5

    def test_nonuniform_spacing_is_refused(self):
        with pytest.raises(InvalidArgumentError, match="uniformly spaced"):
            geometry.Mesh((np.array([0.0, 0.4, 1.0]),))


class TestEmbeddingConstants:
    def test_continuum_limits(self):
        mesh = geometry.build_interval_mesh(1.0, 101)
        part = geometry.classify_boundary(mesh, np.array([0.0]))
        emb = geometry.embedding_constants(mesh, part)
        assert emb["M"] == pytest.approx(2.0 / math.pi, abs=1e-3)
        assert emb["N"] == pytest.approx(1.0, abs=1e-3)

    def test_small_meshes_match_dense_solve(self):
        cases = [  # mesh shape, x0, outward normals of the Gamma0 faces
            ((1.0, 3), (0.0,), {(-1.0,)}),
            ((1.0, 3), (1.0,), {(1.0,)}),  # Gamma0 at the far end, x0 = L
            ((2.0, 7), (2.5,), {(1.0,)}),  # Gamma0 at the far end, x0 > L
            # asymmetric Gamma1: the right edge (length 2) and the bottom edge (length 1)
            ((1.0, 2.0, 3, 5), (-0.3, 2.5), {(-1.0, 0.0), (0.0, 1.0)}),
            ((1.0, 2.0, 3, 5), (-0.1, 0.5), {(-1.0, 0.0)}),  # one clamped edge
            ((1.0, 2.0, 3, 5), (1.4, 0.5), {(1.0, 0.0)}),  # one edge, the far one
            ((1.0, 2.0, 4, 3), (0.3, 2.2), {(0.0, 1.0)}),  # one edge across y
            ((1.0, 2.0, 3, 5), (1.4, 2.3), {(1.0, 0.0), (0.0, 1.0)}),  # far corner
        ]
        for shape, x0, gamma0 in cases:
            mesh = (geometry.build_interval_mesh(*shape) if len(shape) == 2
                    else geometry.build_rect_mesh(*shape))
            part = geometry.classify_boundary(mesh, np.array(x0))
            assert {tuple(nu) for nu in part.gamma0_faces.normal.tolist()} == gamma0
            emb = geometry.embedding_constants(mesh, part)
            oracle = _dense_embedding_oracle(mesh, part)
            assert emb["M"] == pytest.approx(oracle["M"], rel=1e-10), (shape, x0)
            assert emb["N"] == pytest.approx(oracle["N"], rel=1e-10), (shape, x0)

    @pytest.mark.parametrize("x0", [(-0.1, -0.1), (-0.1, 0.5), (1.4, 0.5)],
                             ids=["corner", "one-edge", "far-edge"])
    def test_standard_mode_matches_generalized_mode(self, x0):
        mesh = geometry.build_rect_mesh(1.0, 1.0, 32, 32)
        part = geometry.classify_boundary(mesh, np.array(x0))
        N = geometry.embedding_constants(mesh, part)["N"]
        assert N == pytest.approx(_generalized_mode_N(mesh, part), rel=1e-12)

    def test_refinement_monotone(self):
        prev_M, prev_N = 0.0, 0.0
        for nodes in (11, 21, 41):
            mesh = geometry.build_interval_mesh(1.0, nodes)
            part = geometry.classify_boundary(mesh, np.array([0.0]))
            emb = geometry.embedding_constants(mesh, part)
            # tolerance matches the eigen-iteration residual target
            assert emb["M"] >= prev_M - 1e-10
            assert emb["N"] >= prev_N - 1e-10
            prev_M, prev_N = emb["M"], emb["N"]

    def test_scaling_with_length(self):
        vals = {}
        for L in (1.0, 2.0):
            mesh = geometry.build_interval_mesh(L, 41)
            part = geometry.classify_boundary(mesh, np.array([0.0]))
            gc = geometry.geometric_constants(mesh, part)
            emb = geometry.embedding_constants(mesh, part)
            vals[L] = (gc["R"], gc["tau0"], emb["M"])
        assert vals[2.0][0] == pytest.approx(2 * vals[1.0][0], rel=1e-12)
        assert vals[2.0][1] == pytest.approx(2 * vals[1.0][1], rel=1e-12)
        assert vals[2.0][2] == pytest.approx(2 * vals[1.0][2], rel=1e-9)

    @given(shift=st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=10, deadline=None)
    def test_translation_covariance(self, shift):
        mesh = geometry.build_interval_mesh(1.0, 11)
        part = geometry.classify_boundary(mesh, np.array([-0.25]))
        moved = _shifted(mesh, np.array([shift]))
        part2 = geometry.classify_boundary(moved, np.array([-0.25 + shift]))
        assert np.array_equal(part.gamma1, part2.gamma1)
        gc1 = geometry.geometric_constants(mesh, part)
        gc2 = geometry.geometric_constants(moved, part2)
        assert gc1["R"] == pytest.approx(gc2["R"], abs=1e-12)
        assert gc1["tau0"] == pytest.approx(gc2["tau0"], abs=1e-12)
        emb1 = geometry.embedding_constants(mesh, part)
        emb2 = geometry.embedding_constants(moved, part2)
        assert emb1["M"] == pytest.approx(emb2["M"], abs=1e-10)
        assert emb1["N"] == pytest.approx(emb2["N"], abs=1e-10)
