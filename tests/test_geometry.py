import functools
import gc
import itertools
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from beamstab import _fem, geometry
from beamstab.errors import InadmissiblePartitionError, InvalidArgumentError

from conftest import (Faces, boundary_faces, gamma1_faces, gamma1_point_data, grid_cells,
                      rect_faces_loop, trace_loop_oracle, traced_bytes)


def _shifted(mesh, shift):
    """The mesh moved by a constant vector."""
    return geometry.Mesh(tuple(x + s for x, s in zip(mesh.axes, shift)))


def _every_node(mesh):
    return (slice(None),) * mesh.dimension


def _side_rules(mesh, sides, slices):
    """side_rule of each (axis, end, ...) of sides, stacked: (T, w, points)."""
    T, w, points = zip(*(_fem.side_rule(mesh.axes, d, end, slices) for d, end, *_ in sides))
    return sp.vstack(T, format="csr"), np.concatenate(w), np.concatenate(points)


class TestIntervalMesh:
    def test_three_nodes(self):
        mesh = geometry.build_interval_mesh(1.0, 3)
        assert np.allclose(mesh.nodes[:, 0], [0.0, 0.5, 1.0])
        assert len(mesh.sides) == 2

    def test_spacing_and_left_normal(self):
        mesh = geometry.build_interval_mesh(2.0, 5)
        assert np.allclose(np.diff(mesh.nodes[:, 0]), 0.5)
        assert [sign for _, _, sign in mesh.sides] == [-1.0, 1.0]
        rules = [_fem.side_rule(mesh.axes, d, end, _every_node(mesh))
                 for d, end, _ in mesh.sides]
        assert [T.indices.tolist() for T, _, _ in rules] == [[0], [4]]
        assert [points[:, 0].tolist() for _, _, points in rules] == [[0.0], [2.0]]

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
        # two Gauss points on each of the 8 boundary edges
        assert len(_side_rules(mesh, mesh.sides, _every_node(mesh))[1]) == 2 * 8
        normals = {tuple(np.where(np.arange(2) == d, sign, 0.0)) for d, _, sign in mesh.sides}
        assert normals == {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}

    def test_perimeter(self):
        for (lx, ly, nx, ny), perimeter in (((1, 1, 2, 2), 4.0), ((1, 2, 2, 4), 6.0)):
            mesh = geometry.build_rect_mesh(lx, ly, nx, ny)
            w = _side_rules(mesh, mesh.sides, _every_node(mesh))[1]
            assert w.sum() == pytest.approx(perimeter)

    def test_bad_cell_count(self):
        with pytest.raises(InvalidArgumentError):
            geometry.build_rect_mesh(1.0, 1.0, 1, 4)

    @pytest.mark.parametrize("lx, ly, nx, ny", [(1.0, 1.0, 6, 6), (1.3, 0.7, 5, 3),
                                                (0.6, 1.7, 2, 9)])
    def test_sides_equal_edge_loop(self, lx, ly, nx, ny):
        mesh = geometry.build_rect_mesh(lx, ly, nx, ny)
        loop, measures = rect_faces_loop(mesh.nodes, nx, ny)
        assert len(loop.nodes) == 2 * (nx + ny)
        covered = np.zeros(len(loop.nodes), dtype=int)
        for d, end, sign in mesh.sides:
            on_side = loop.normal[:, d] == sign
            covered += on_side
            T, w, pts = _fem.side_rule(mesh.axes, d, end, _every_node(mesh))
            want = loop.quad_points[on_side]
            assert pts.shape == (want.shape[0] * want.shape[1], 2)
            assert np.array_equal(pts, want.reshape(-1, 2))
            assert np.array_equal(w, loop.quad_weights[on_side].ravel())
            # the weights carry the measure exactly
            assert np.array_equal(w.reshape(-1, 2).sum(axis=1), measures[on_side])
            T0, w0, pts0 = trace_loop_oracle(mesh, Faces(*(a[on_side] for a in loop)))
            assert (T != T0).nnz == 0 and np.array_equal(T.data, T0.data)
            assert np.array_equal(w, w0) and np.array_equal(pts, pts0)
        assert np.all(covered == 1)
        w = _side_rules(mesh, mesh.sides, _every_node(mesh))[1]
        assert w.sum() == pytest.approx(2.0 * (lx + ly), rel=1e-15)


class TestClassifyBoundary:
    def test_unit_interval_origin(self, interval3):
        part = geometry.classify_boundary(interval3, np.array([0.0]))
        assert part.gamma1_sides == ((0, 2, 1.0, 1.0),)
        assert part.free_slices == (slice(1, 3),)

    def test_x0_left_of_domain(self, interval3):
        # the left side has m.nu = -0.5 <= 0 and stays in Gamma0
        part = geometry.classify_boundary(interval3, np.array([-0.5]))
        assert [(d, end, m) for d, end, _, m in part.gamma1_sides] == [(0, 2, 1.5)]
        assert gamma1_point_data(part)["m_dot_nu"].tolist() == [1.5]
        assert part.free_slices == (slice(1, 3),)

    def test_rect_partition(self):
        mesh = geometry.build_rect_mesh(1.0, 1.0, 2, 2)
        part = geometry.classify_boundary(mesh, np.array([-0.1, -0.1]))
        gamma1 = {(d, sign) for d, _, sign, _ in part.gamma1_sides}
        for nu in boundary_faces(mesh).normal:
            # left / bottom faces are Gamma0
            assert any(nu[d] == sign for d, sign in gamma1) == (nu[0] >= 0 and nu[1] >= 0)

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
            faces = boundary_faces(mesh)
            in_side = np.zeros(len(faces.nodes), dtype=int)
            for d, end, sign, m in part.gamma1_sides:
                mask = faces.normal[:, d] == sign
                in_side += mask
                assert m > 0
                for ids, nu in zip(faces.nodes[mask], faces.normal[mask]):
                    # each face of the side lies on it, and m.nu there is the side's
                    assert np.all(mesh.nodes[ids, d] == mesh.axes[d][end])
                    assert nu[d] == sign and np.dot(mesh.nodes[ids[0]] - point, nu) == m
            assert in_side.max() == 1
            assert np.all(gamma1_point_data(part)["m_dot_nu"] > 0)
            gamma0 = in_side == 0
            for ids, nu in zip(faces.nodes[gamma0], faces.normal[gamma0]):
                assert np.dot(mesh.nodes[ids[0]] - point, nu) <= 0


def _face_partition_oracle(mesh, x0):
    """The partition decided face by face: m.nu at every face quadrature
    point by one einsum, a face in Gamma1 when its mean m.nu is > 0, the
    Gamma1 sides from the face normals and their points side after side,
    and the Gamma0 nodes and free slices from the node ids of the Gamma0
    faces."""
    faces = boundary_faces(mesh)
    m_dot_nu = np.einsum("fqd,fd->fq", faces.quad_points - x0, faces.normal)
    gamma1 = m_dot_nu.mean(axis=1) > 0
    sides = [(d, end, sign, side)
             for d, x in enumerate(mesh.axes) for end, sign in ((0, -1.0), (len(x) - 1, 1.0))
             for side in [gamma1 & (faces.normal[:, d] == sign)] if side.any()]
    counts = tuple(len(x) for x in mesh.axes)
    clamped = np.zeros(counts, dtype=bool)
    clamped.flat[faces.nodes[~gamma1].ravel()] = True
    slices = tuple(slice(int(np.take(clamped, 0, axis=d).all()),
                         n - int(np.take(clamped, n - 1, axis=d).all()))
                   for d, n in enumerate(counts))
    order = np.concatenate([np.flatnonzero(side) for *_, side in sides])
    normals = np.repeat(faces.normal[order], m_dot_nu.shape[1], axis=0)
    return {"gamma1": gamma1, "m_dot_nu": m_dot_nu[order].ravel(),
            "normals": normals, "sum_nu": normals.sum(axis=1),
            "free_slices": slices, "gamma0_nodes": np.unique(faces.nodes[~gamma1]),
            "gamma1_sides": [(d, end, sign, m_dot_nu[side].flat[0])
                             for d, end, sign, side in sides]}


def _bits(a):
    a = np.asarray(a)
    return a.view(np.int64) if a.dtype == float else a


class TestPartitionBySides:
    """The partition decided per grid side equals the one decided per face."""

    @pytest.mark.parametrize("mesh", [
        geometry.build_interval_mesh(1.0, 9), geometry.build_interval_mesh(2.3, 201),
        geometry.build_rect_mesh(1.3, 0.7, 7, 5), geometry.build_rect_mesh(2.0, 1.1, 12, 6),
        geometry.build_rect_mesh(1.0, 1.0, 64, 64), geometry.build_rect_mesh(1.0, 1.0, 192, 192),
    ], ids=["interval9", "interval201", "rect7x5", "rect12x6", "rect64", "rect192"])
    def test_matches_face_oracle(self, mesh):
        # per axis: outside, on and inside the domain
        candidates = [(x[0] - 1.3, x[0] - 0.01, x[0], x[0] + 0.37 * (x[-1] - x[0]), x[-1],
                       x[-1] + 1e-3, x[-1] + 2.1) for x in mesh.axes]
        checked = 0
        for point in itertools.product(*candidates):
            x0 = np.array(point)
            want = _face_partition_oracle(mesh, x0)
            if want["gamma1"].all():
                with pytest.raises(InadmissiblePartitionError):
                    geometry.BoundaryPartition(mesh, x0)
                continue
            part = geometry.BoundaryPartition(mesh, x0)
            per_point = gamma1_point_data(part)
            for name in ("m_dot_nu", "normals", "sum_nu"):
                got = per_point[name]
                assert got.dtype == want[name].dtype and got.shape == want[name].shape
                assert np.array_equal(_bits(got), _bits(want[name])), (name, point)
            assert part.free_slices == want["free_slices"], point
            assert len(part.gamma1_sides) == len(want["gamma1_sides"])
            for got, side in zip(part.gamma1_sides, want["gamma1_sides"]):
                assert got[:3] == side[:3] and _bits(got[3]) == _bits(side[3]), point
            counts = tuple(len(x) for x in mesh.axes)
            free = np.arange(len(mesh.nodes)).reshape(counts)[part.free_slices].ravel()
            assert np.array_equal(
                free, np.setdiff1d(np.arange(len(mesh.nodes)), part.gamma0_nodes()))
            gamma0 = part.gamma0_nodes()
            assert gamma0.dtype == want["gamma0_nodes"].dtype
            assert np.array_equal(gamma0, want["gamma0_nodes"]), point
            checked += 1
        assert checked == len(candidates[0]) ** mesh.dimension - 1  # one interior x0

    @pytest.mark.parametrize("x0", [[0.0, 0.0], [np.nan], [np.inf]])
    def test_direct_build_validates_x0(self, interval3, x0):
        with pytest.raises(InvalidArgumentError, match="finite point"):
            geometry.BoundaryPartition(interval3, np.array(x0))


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

    @pytest.mark.parametrize("mesh, x0", [
        (geometry.build_interval_mesh(1.3, 14), (-0.37,)),  # left of the domain
        (geometry.build_interval_mesh(1.3, 14), (0.41,)),  # inside
        (geometry.build_interval_mesh(1.3, 14), (0.65,)),  # at the midpoint: a tie
        (geometry.build_interval_mesh(1.3, 14), (1.9,)),  # right of the domain
        (geometry.build_rect_mesh(1.3, 0.7, 13, 7), (0.41, 0.23)),  # inside
        (geometry.build_rect_mesh(1.3, 0.7, 13, 7), (-0.37, -0.11)),  # the outer quadrants
        (geometry.build_rect_mesh(1.3, 0.7, 13, 7), (1.71, -0.11)),
        (geometry.build_rect_mesh(1.3, 0.7, 13, 7), (-0.37, 0.93)),
        (geometry.build_rect_mesh(1.3, 0.7, 13, 7), (1.71, 0.93)),
        (geometry.build_rect_mesh(1.3, 0.7, 13, 7), (1.3, 0.0)),  # on a corner
    ])
    def test_R_from_the_far_corner_is_the_all_node_maximum(self, mesh, x0):
        # geometric_constants reads x0 and the Gamma1 sides alone; an x0
        # inside the domain leaves no Gamma0, so a stand-in partition holds it
        x0 = np.array(x0)
        part = SimpleNamespace(x0=x0, gamma1_sides=((0, 0, -1.0, 1.0),))
        want = float(np.max(np.linalg.norm(mesh.nodes - x0, axis=1)))
        assert geometry.geometric_constants(mesh, part)["R"].hex() == want.hex()

    @given(x0=st.tuples(*[st.floats(min_value=-3.0, max_value=3.0)] * 2))
    @settings(max_examples=50, deadline=None)
    def test_R_from_the_far_corner_for_any_x0(self, x0):
        mesh = geometry.build_rect_mesh(1.3, 0.7, 13, 7)
        part = SimpleNamespace(x0=np.array(x0), gamma1_sides=((0, 0, -1.0, 1.0),))
        want = float(np.max(np.linalg.norm(mesh.nodes - part.x0, axis=1)))
        assert geometry.geometric_constants(mesh, part)["R"].hex() == want.hex()

    def test_tau0_is_smallest_gamma1_value(self):
        # Gamma1: the right edge (m.nu = 1.3) and the bottom edge (m.nu = 2.5)
        mesh = geometry.build_rect_mesh(1.0, 2.0, 3, 5)
        part = geometry.classify_boundary(mesh, np.array([-0.3, 2.5]))
        assert np.allclose(np.unique(gamma1_point_data(part)["m_dot_nu"]), [1.3, 2.5])
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
    B = _face_mass_oracle(mesh, gamma1_faces(mesh, partition))[np.ix_(free, free)].toarray()
    lam = scipy.linalg.eigh(K, Mm, eigvals_only=True)
    mu = scipy.linalg.eigh(B, K, eigvals_only=True)
    return {"M": 1.0 / math.sqrt(lam[0]), "N": math.sqrt(mu[-1])}


def _generalized_mode_N(mesh, partition):
    """N from ARPACK on the pencil (B, K) itself: the assembled free-dof
    stiffness K, its inverse by a sparse LU, and the Gamma1 boundary mass B."""
    fixed = partition.gamma0_nodes()
    free = np.setdiff1d(np.arange(len(mesh.nodes)), fixed)
    K = _fem.domain_matrices(mesh)["stiffness"][np.ix_(free, free)].tocsc()
    B = _face_mass_oracle(mesh, gamma1_faces(mesh, partition))[np.ix_(free, free)].tocsr()
    Kinv = spla.LinearOperator(K.shape, matvec=spla.splu(K).solve, dtype=float)
    mu = spla.eigsh(B, M=K, Minv=Kinv, which="LA", k=1, v0=np.ones(len(free)),
                    return_eigenvectors=False)[0]
    return math.sqrt(mu)


def _standard_mode_N(mesh, partition):
    """N from ARPACK in standard mode on the n-dof pencil L' B L, with
    L = (V_1 x V_2) diag(lam^-1/2), (V_1 x V_2) y applied as V_1 Y V_2' on
    y reshaped to the grid, and the Gamma1 boundary mass B = T' diag(w) T
    over the free dofs."""
    fixed = partition.gamma0_nodes()
    free = np.setdiff1d(np.arange(len(mesh.nodes)), fixed)
    slices = partition.free_slices
    factors = _fem.free_factors(mesh.axes, slices)
    pairs = [_fem.axis_eigenpairs(x, sl, f["mass"])
             for x, sl, f in zip(mesh.axes, slices, factors)]
    counts = tuple(len(lam) for lam, _ in pairs)
    V1, V2 = (V for _, V in pairs)
    scale = 1.0 / np.sqrt(functools.reduce(np.add.outer, [lam for lam, _ in pairs]).ravel())
    T, w, _ = trace_loop_oracle(mesh, gamma1_faces(mesh, partition))
    B = _fem.trace_form(T[:, free], w)

    def pencil(y):
        x = (V1 @ (scale * y).reshape(counts) @ V2.T).ravel()
        return scale * (V1.T @ (B @ x).reshape(counts) @ V2).ravel()

    op = spla.LinearOperator((len(free), len(free)), matvec=pencil, dtype=float)
    mu = spla.eigsh(op, which="LA", k=1, v0=np.ones(len(free)),
                    ncv=min(len(free), geometry.EIGEN_NCV), return_eigenvectors=False)[0]
    return math.sqrt(mu)


def _refuse(*args, **kwargs):
    raise AssertionError("called")


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

    @pytest.mark.parametrize("mesh, x0", [
        (geometry.build_interval_mesh(1.7, 7), np.array([-0.35])),
        (geometry.build_rect_mesh(1.3, 0.7, 5, 3), np.array([-0.2, 0.31])),
        (geometry.build_rect_mesh(1.0, 1.0, 64, 64), np.array([-0.1, -0.1])),
        (geometry.build_rect_mesh(1.0, 1.0, 64, 64), np.array([0.5, -0.1])),
    ], ids=["interval", "rect5x3", "rect64_corner", "rect64_free_free"])
    @pytest.mark.parametrize("with_x0", [False, True])
    def test_bit_identical_to_kron_sums(self, mesh, x0, with_x0):
        x0 = x0 if with_x0 else None
        mats = _fem.domain_matrices(mesh, x0=x0)
        oracle = _kron_sum_forms(mesh, x0)
        assert mats.keys() == oracle.keys()
        for name, want in oracle.items():
            got = mats[name]
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, part), getattr(want, part)), (name, part)
            assert np.shares_memory(got.indices, mats["mass"].indices)
            assert np.shares_memory(got.indptr, mats["mass"].indptr)
        if mesh.dimension == 2 and len(mesh.nodes) == 65 ** 2:
            assert mats["stiffness"].nnz == 37249


def _kron_sum_forms(mesh, x0):
    """Oracle for _fem.domain_matrices: the 1D factors assembled cell by
    cell into csr, and each form the sum over the axes d of the sp.kron
    products with the factor on axis d and the mass factor on every other
    one, their COO data added in axis order; the mass form is the plain
    product.  sp.kron is asked for COO, because for a small dense factor it
    picks BSR by default, whose blocks store the zeros off the stencil."""
    factors = []
    for d, x in enumerate(mesh.axes):
        h = np.diff(x)[:, None, None]
        e = np.arange(len(h))
        rows = np.stack([e, e, e + 1, e + 1], axis=1).ravel()
        cols = np.stack([e, e + 1, e, e + 1], axis=1).ravel()
        local = {"mass": h * np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0,
                 "stiffness": np.array([[1.0, -1.0], [-1.0, 1.0]]) / h,
                 "coupling": np.broadcast_to([[-0.5, 0.5], [-0.5, 0.5]], (len(h), 2, 2))}
        if x0 is not None:
            a, b = x[:-1] - x0[d], x[1:] - x0[d]
            moment = np.stack([a / 3.0 + b / 6.0, a / 6.0 + b / 3.0], axis=1)
            local["multiplier"] = moment[:, :, None] * np.array([-1.0, 1.0])
        factors.append({name: sp.csr_matrix((m.ravel(), (rows, cols)), shape=(len(x), len(x)))
                        for name, m in local.items()})

    def kron(A, B):
        return sp.kron(A, B, format="coo")

    out = {"mass": functools.reduce(kron, [f["mass"] for f in factors]).tocsr()}
    for name in factors[0].keys() - {"mass"}:
        terms = [functools.reduce(kron, [f[name] if k == d else f["mass"]
                                         for k, f in enumerate(factors)]).tocoo()
                 for d in range(len(factors))]
        out[name] = sp.csr_matrix((sum(t.data for t in terms), (terms[0].row, terms[0].col)),
                                  shape=terms[0].shape)
    return out


class TestSideRule:
    @pytest.mark.parametrize("mesh, x0", [
        (geometry.build_interval_mesh(1.0, 9), np.array([0.0])),
        (geometry.build_interval_mesh(2.3, 201), np.array([2.5])),
        (geometry.build_rect_mesh(1.0, 1.0, 6, 6), np.array([-0.1, -0.1])),
        (geometry.build_rect_mesh(1.3, 0.7, 6, 6), np.array([1.6, -0.3])),
        (geometry.build_rect_mesh(1.3, 0.7, 5, 3), np.array([0.5, -0.1])),
        (geometry.build_rect_mesh(0.6, 1.7, 2, 9), np.array([-0.2, 0.8])),
    ])
    def test_equals_loop_form(self, mesh, x0):
        part = geometry.classify_boundary(mesh, x0)
        counts = tuple(len(x) for x in mesh.axes)
        free = np.arange(len(mesh.nodes)).reshape(counts)[part.free_slices].ravel()
        # every side over every node, and the Gamma1 sides over the free dofs
        faces = boundary_faces(mesh)
        cases = [((d, end), _every_node(mesh),
                  Faces(*(a[faces.normal[:, d] == sign] for a in faces)), None)
                 for d, end, sign in mesh.sides]
        cases.append((None, part.free_slices, gamma1_faces(mesh, part), free))
        for side, slices, sub, columns in cases:
            if side is None:
                T, w, pts = _side_rules(mesh, part.gamma1_sides, slices)
            else:
                T, w, pts = _fem.side_rule(mesh.axes, *side, slices)
            T0, w0, pts0 = trace_loop_oracle(mesh, sub)
            if columns is not None:
                T0 = T0[:, columns]
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
        faces = boundary_faces(mesh)
        sum_nu = faces.normal.sum(axis=1)
        # nu = sign e_d on side (d, end, sign): sum_i nu_i = sign at its points
        rules = [(*_fem.side_rule(mesh.axes, d, end, _every_node(mesh)), sign)
                 for d, end, sign in mesh.sides]
        every = (sp.vstack([T for T, *_ in rules], format="csr"),
                 np.concatenate([sign * w for _, w, _, sign in rules]))
        # the Gamma1 boundary mass, and the sum-nu form over every face
        for (T, weights), sub, density in (
                (_side_rules(mesh, part.gamma1_sides, _every_node(mesh))[:2],
                 gamma1_faces(mesh, part), None),
                (every, faces, sum_nu)):
            got = _fem.trace_form(T, weights).toarray()
            want = _face_mass_oracle(mesh, sub, density).toarray()
            assert np.max(np.abs(got - want)) <= 1e-15


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

    @pytest.mark.parametrize("mesh", [geometry.build_interval_mesh(1.3, 7),
                                      geometry.build_rect_mesh(1.3, 0.7, 5, 3)])
    def test_nodes_equal_the_meshgrid_stack(self, mesh):
        want = np.stack([g.ravel() for g in np.meshgrid(*mesh.axes, indexing="ij")], axis=1)
        assert mesh.nodes.flags.c_contiguous and np.array_equal(mesh.nodes, want)

    def test_equality_is_identity(self):
        # records of arrays compare by identity: == never reaches an array
        a, b = (geometry.build_rect_mesh(1.0, 1.0, 2, 2) for _ in range(2))
        pa, pb = (geometry.classify_boundary(m, np.array([-0.1, -0.1])) for m in (a, b))
        assert a == a and a != b
        assert pa == pa and pa != pb
        assert len({a, b, pa, pb}) == 4

    def test_nonuniform_spacing_is_refused(self):
        with pytest.raises(InvalidArgumentError, match="uniformly spaced"):
            geometry.Mesh((np.array([0.0, 0.4, 1.0]),))

    @pytest.mark.parametrize("build, args", [
        pytest.param(geometry.build_interval_mesh, (math.nan, 5), id="interval-nan"),
        pytest.param(geometry.build_interval_mesh, (math.inf, 5), id="interval-inf"),
        pytest.param(geometry.build_rect_mesh, (math.nan, 1.0, 3, 3), id="rect-nan"),
        pytest.param(geometry.Mesh, ((np.array([0.0, math.nan, 2.0]),),), id="axis-nan"),
    ])
    def test_non_finite_coordinates_are_refused(self, build, args):
        with pytest.raises(InvalidArgumentError, match="finite"):
            build(*args)


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
            gamma1 = [(d, sign) for d, _, sign, _ in part.gamma1_sides]
            assert {tuple(nu) for nu in boundary_faces(mesh).normal.tolist()
                    if not any(nu[d] == sign for d, sign in gamma1)} == gamma0
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
        assert [s[:3] for s in part.gamma1_sides] == [s[:3] for s in part2.gamma1_sides]
        gc1 = geometry.geometric_constants(mesh, part)
        gc2 = geometry.geometric_constants(moved, part2)
        assert gc1["R"] == pytest.approx(gc2["R"], abs=1e-12)
        assert gc1["tau0"] == pytest.approx(gc2["tau0"], abs=1e-12)
        emb1 = geometry.embedding_constants(mesh, part)
        emb2 = geometry.embedding_constants(moved, part2)
        assert emb1["M"] == pytest.approx(emb2["M"], abs=1e-10)
        assert emb1["N"] == pytest.approx(emb2["N"], abs=1e-10)


# the partitions of the unit square, by their clamped Gamma0 sides
UNIT_SQUARE_PARTITIONS = {
    "corner": (-0.1, -0.1), "one-edge": (-0.1, 0.5), "far-edge": (1.4, 0.5),
    "y-edge": (0.5, 1.4), "far-corner": (1.4, 1.3),
}


class TestGamma1Operator:
    """N from the eigenproblem on the Gamma1 quadrature points."""

    @pytest.mark.parametrize("name", UNIT_SQUARE_PARTITIONS)
    def test_matches_standard_mode_pencil(self, name):
        mesh = geometry.build_rect_mesh(1.0, 1.0, 32, 32)
        part = geometry.classify_boundary(mesh, np.array(UNIT_SQUARE_PARTITIONS[name]))
        N = geometry.embedding_constants(mesh, part)["N"]
        assert N == pytest.approx(_standard_mode_N(mesh, part), rel=1e-12)

    def test_operator_lives_on_the_gamma1_points(self, monkeypatch):
        mesh = geometry.build_rect_mesh(1.0, 2.0, 6, 9)
        part = geometry.classify_boundary(mesh, np.array([-0.1, 0.5]))
        shapes = []
        eigsh = geometry.eigsh
        monkeypatch.setattr(geometry, "eigsh", lambda op, **kw: shapes.append(op.shape)
                            or eigsh(op, **kw))
        monkeypatch.setattr(_fem, "trace_form", _refuse)
        N = geometry.embedding_constants(mesh, part)["N"]
        Q = gamma1_point_data(part)["m_dot_nu"].size
        assert shapes == [(Q, Q)] and Q == 2 * (6 + 9 + 6)
        assert N == pytest.approx(_dense_embedding_oracle(mesh, part)["N"], rel=1e-10)

    @staticmethod
    def _operator(mesh, part):
        factors = _fem.free_factors(mesh.axes, part.free_slices)
        pairs = [_fem.axis_eigenpairs(x, sl, f["mass"])
                 for x, sl, f in zip(mesh.axes, part.free_slices, factors)]
        return geometry._gamma1_operator(mesh, part, pairs), pairs

    def test_product_allocates_less_than_a_grid(self):
        # the operator holds lam_1i + lam_2j and its work grid: a product
        # allocates vectors only, once BLAS has set up on a first product
        mesh = geometry.build_rect_mesh(1.0, 1.0, 96, 96)
        part = geometry.classify_boundary(mesh, np.array([-0.1, -0.1]))
        H, pairs = self._operator(mesh, part)
        grid = math.prod(len(lam) for lam, _ in pairs) * 8
        z = np.linspace(-1.0, 1.0, H.shape[0])
        first = H.matvec(z)
        again, _, peak = traced_bytes(lambda: H.matvec(z))
        assert grid == 96 * 96 * 8 and peak < grid
        assert np.array_equal(again, first) and not np.shares_memory(again, first)

    def test_operator_frees_the_eigenvectors(self):
        # H copies the rows V_d[e] it reads, so embedding_constants can free
        # the grid-sized V_d before the eigen-solve
        mesh = geometry.build_rect_mesh(1.0, 2.0, 6, 9)
        part = geometry.classify_boundary(mesh, np.array([-0.1, -0.1]))
        H, pairs = self._operator(mesh, part)
        z = np.linspace(-1.0, 1.0, H.shape[0])
        want = H.matvec(z)
        refs = [weakref.ref(V) for _, V in pairs]
        del pairs
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert np.array_equal(H.matvec(z), want)

    def test_dense_form_stacks_the_matvecs(self):
        mesh = geometry.build_rect_mesh(1.0, 2.0, 6, 9)
        part = geometry.classify_boundary(mesh, np.array([-0.1, 0.5]))
        H, _ = self._operator(mesh, part)
        eye = np.eye(H.shape[0])
        columns = [H.matvec(e) for e in eye]
        assert np.array_equal(H @ eye, np.column_stack(columns))

    def test_repeats_bit_for_bit(self):
        mesh = geometry.build_rect_mesh(1.0, 1.0, 24, 24)
        part = geometry.classify_boundary(mesh, np.array([1.4, 0.5]))
        first = geometry.embedding_constants(mesh, part)
        assert all(geometry.embedding_constants(mesh, part) == first for _ in range(3))

    @pytest.mark.parametrize("mesh, x0, ncv", [
        (geometry.build_interval_mesh(1.0, 9), (0.0,), None),  # Q = 1
        (geometry.build_interval_mesh(2.0, 7), (2.5,), None),  # Q = 1, Gamma1 at 0
        # a rect has a Gamma1 side on every axis, so Q >= 8: raise the threshold
        (geometry.build_rect_mesh(1.0, 1.0, 2, 2), (-0.1, -0.1), 8),
    ], ids=["interval", "interval-far", "rect-2x2"])
    def test_small_Q_is_solved_densely(self, monkeypatch, mesh, x0, ncv):
        if ncv is not None:
            monkeypatch.setattr(geometry, "EIGEN_NCV", ncv)
        part = geometry.classify_boundary(mesh, np.array(x0))
        assert gamma1_point_data(part)["m_dot_nu"].size <= geometry.EIGEN_NCV
        monkeypatch.setattr(geometry, "eigsh", _refuse)
        N = geometry.embedding_constants(mesh, part)["N"]
        assert N == pytest.approx(_dense_embedding_oracle(mesh, part)["N"], rel=1e-12)

    def test_rect_refinement_is_monotone(self):
        # conforming Ritz: N_h <= N, and N_h grows with the level
        for name in ("corner", "one-edge", "far-edge"):
            prev = 0.0
            for n in (8, 16, 32, 64, 128, 256):
                mesh = geometry.build_rect_mesh(1.0, 1.0, n, n)
                part = geometry.classify_boundary(mesh, np.array(UNIT_SQUARE_PARTITIONS[name]))
                N = geometry.embedding_constants(mesh, part)["N"]
                assert N >= prev - 1e-12, (name, n)
                if name == "corner":  # u = xy attains the ratio 1 at every level
                    assert N == pytest.approx(1.0, abs=1e-12), n
                prev = N


def _out_of_place_eigenpairs(x, sl, mass):
    """_fem.axis_eigenpairs as new arrays for every operation: the
    reference for its in-place V and its one work array for M V."""
    n = len(x) - 1
    h = (x[-1] - x[0]) / n
    i = np.arange(n + 1)[sl]
    if sl.start == 0 and sl.stop == n + 1:
        theta = np.arange(n + 1) * np.pi / n
        V = np.cos(np.outer(i, theta))
    else:
        theta = (2.0 * np.arange(1, n + 1) - 1.0) * np.pi / (2 * n)
        V = np.sin(np.outer(i if sl.start == 1 else n - i, theta))
    lam = (12.0 / h ** 2) * np.sin(0.5 * theta) ** 2 / (2.0 + np.cos(theta))
    MV = mass[1, :, None] * V
    MV[1:] += mass[0, 1:, None] * V[:-1]
    MV[:-1] += mass[2, :-1, None] * V[1:]
    V /= np.sqrt(np.einsum("ik,ik->k", V, MV))
    return lam, V


class TestAxisEigenpairs:
    @pytest.mark.parametrize("sl", [slice(1, 42), slice(0, 41), slice(0, 42)],
                             ids=["clamped-at-0", "clamped-at-end", "free-free"])
    def test_bit_identical_to_out_of_place(self, sl):
        x = np.linspace(0.3, 1.7, 42)
        mass = _fem.free_factors((x,), (sl,))[0]["mass"]
        lam, V = _fem.axis_eigenpairs(x, sl, mass)
        want_lam, want_V = _out_of_place_eigenpairs(x, sl, mass)
        assert V.shape == (sl.stop - sl.start, len(want_lam))
        assert np.array_equal(lam, want_lam) and np.array_equal(V, want_V)
        assert np.array_equal(np.signbit(V), np.signbit(want_V))
