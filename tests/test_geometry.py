import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from beamstab import _fem, geometry
from beamstab.errors import InadmissiblePartitionError, InvalidArgumentError
from beamstab.geometry import GAMMA0, GAMMA1


def _shifted(mesh, shift):
    """The mesh moved by a constant vector."""
    faces = tuple(
        geometry.BoundaryFace(f.face_id, f.nodes, f.normal, f.centroid + shift, f.measure,
                              f.quad_points + shift[None, :], f.quad_weights)
        for f in mesh.faces)
    return geometry.Mesh(mesh.dimension, mesh.nodes + shift[None, :], mesh.elements, faces)


class TestIntervalMesh:
    def test_three_nodes(self):
        mesh = geometry.build_interval_mesh(1.0, 3)
        assert np.allclose(mesh.nodes[:, 0], [0.0, 0.5, 1.0])
        assert len(mesh.faces) == 2

    def test_spacing_and_left_normal(self):
        mesh = geometry.build_interval_mesh(2.0, 5)
        assert np.allclose(np.diff(mesh.nodes[:, 0]), 0.5)
        assert mesh.faces[0].normal[0] == -1.0
        assert mesh.faces[1].normal[0] == 1.0

    def test_too_few_nodes(self):
        with pytest.raises(InvalidArgumentError):
            geometry.build_interval_mesh(1.0, 2)

    def test_bad_length(self):
        with pytest.raises(InvalidArgumentError):
            geometry.build_interval_mesh(-1.0, 5)


class TestRectMesh:
    def test_small_grid(self):
        mesh = geometry.build_rect_mesh(1.0, 1.0, 2, 2)
        assert len(mesh.elements) == 4
        assert len(mesh.faces) == 8
        normals = {tuple(f.normal) for f in mesh.faces}
        assert normals == {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}

    def test_perimeter(self):
        for (lx, ly, nx, ny), perimeter in (((1, 1, 2, 2), 4.0), ((1, 2, 2, 4), 6.0)):
            faces = geometry.build_rect_mesh(lx, ly, nx, ny).faces
            assert sum(f.measure for f in faces) == pytest.approx(perimeter)

    def test_bad_cell_count(self):
        with pytest.raises(InvalidArgumentError):
            geometry.build_rect_mesh(1.0, 1.0, 1, 4)


class TestClassifyBoundary:
    def test_unit_interval_origin(self, interval3):
        part = geometry.classify_boundary(interval3, np.array([0.0]))
        assert part.tags == (GAMMA0, GAMMA1)
        assert part.m_dot_nu[1] == pytest.approx([1.0])

    def test_x0_left_of_domain(self, interval3):
        part = geometry.classify_boundary(interval3, np.array([-0.5]))
        assert part.tags == (GAMMA0, GAMMA1)
        assert part.m_dot_nu[0] == pytest.approx([-0.5])
        assert part.m_dot_nu[1] == pytest.approx([1.5])

    def test_rect_partition(self):
        mesh = geometry.build_rect_mesh(1.0, 1.0, 2, 2)
        part = geometry.classify_boundary(mesh, np.array([-0.1, -0.1]))
        for f, tag in zip(mesh.faces, part.tags):
            if f.normal[0] < 0 or f.normal[1] < 0:  # left / bottom
                assert tag == GAMMA0
            else:
                assert tag == GAMMA1

    def test_interior_x0_has_no_clamped_part(self, interval3):
        with pytest.raises(InadmissiblePartitionError):
            geometry.classify_boundary(interval3, np.array([0.5]))

    def test_x0_shape_validation(self, interval3):
        with pytest.raises(InvalidArgumentError):
            geometry.classify_boundary(interval3, np.array([0.0, 0.0]))

    @given(x0=st.floats(min_value=-5.0, max_value=0.0))
    @settings(max_examples=30, deadline=None)
    def test_partition_exactness(self, x0):
        mesh = geometry.build_interval_mesh(1.0, 5)
        part = geometry.classify_boundary(mesh, np.array([x0]))
        for tag, mn in zip(part.tags, part.m_dot_nu):
            if tag == GAMMA1:
                assert np.all(mn > 0)
            else:
                assert np.all(mn <= 0)


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
    for cell in mesh.elements:
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


def _dense_embedding_oracle(mesh, partition):
    """Independent dense generalized eigensolves for M and N."""
    mats = _element_loop_forms(mesh, partition.x0)
    fixed = partition.gamma0_nodes()
    free = np.setdiff1d(np.arange(len(mesh.nodes)), fixed)
    K = mats["stiffness"][np.ix_(free, free)]
    Mm = mats["mass"][np.ix_(free, free)]
    B = _fem.boundary_mass(mesh, partition.gamma1_faces)[np.ix_(free, free)].toarray()
    lam = scipy.linalg.eigh(K, Mm, eigvals_only=True)
    mu = scipy.linalg.eigh(B, K, eigvals_only=True)
    return {"M": 1.0 / math.sqrt(lam[0]), "N": math.sqrt(mu[-1])}


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


def _rect_parts():
    mesh = geometry.build_rect_mesh(1.0, 1.0, 2, 2)
    return mesh.nodes.copy(), mesh.elements.copy(), mesh.faces


class TestTensorGrid:
    def test_axes(self):
        mesh = geometry.build_rect_mesh(1.3, 0.7, 5, 3)
        assert np.allclose(mesh.axes[0], np.linspace(0.0, 1.3, 6))
        assert np.allclose(mesh.axes[1], np.linspace(0.0, 0.7, 4))
        assert np.allclose(geometry.build_interval_mesh(2.0, 5).axes[0], [0, 0.5, 1, 1.5, 2])

    def test_moved_node_is_refused(self):
        nodes, elems, faces = _rect_parts()
        nodes[4] += [0.01, 0.0]
        with pytest.raises(InvalidArgumentError, match="tensor grid"):
            geometry.Mesh(2, nodes, elems, faces)

    def test_other_numbering_is_refused(self):
        nodes, elems, faces = _rect_parts()
        order = np.arange(9).reshape(3, 3).T.ravel()  # j*(nx+1)+i numbering
        with pytest.raises(InvalidArgumentError, match="tensor grid"):
            geometry.Mesh(2, nodes[order], elems, faces)

    def test_nonuniform_spacing_is_refused(self):
        nodes = np.array([[0.0], [0.4], [1.0]])
        mesh = geometry.build_interval_mesh(1.0, 3)
        with pytest.raises(InvalidArgumentError, match="uniformly spaced"):
            geometry.Mesh(1, nodes, mesh.elements, mesh.faces)

    def test_foreign_elements_are_refused(self):
        nodes, elems, faces = _rect_parts()
        with pytest.raises(InvalidArgumentError, match="elements"):
            geometry.Mesh(2, nodes, elems[::-1], faces)


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
            assert {tuple(f.normal) for f in part.gamma0_faces} == gamma0
            emb = geometry.embedding_constants(mesh, part)
            oracle = _dense_embedding_oracle(mesh, part)
            assert emb["M"] == pytest.approx(oracle["M"], rel=1e-10), (shape, x0)
            assert emb["N"] == pytest.approx(oracle["N"], rel=1e-10), (shape, x0)

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
        assert part.tags == part2.tags
        gc1 = geometry.geometric_constants(mesh, part)
        gc2 = geometry.geometric_constants(moved, part2)
        assert gc1["R"] == pytest.approx(gc2["R"], abs=1e-12)
        assert gc1["tau0"] == pytest.approx(gc2["tau0"], abs=1e-12)
        emb1 = geometry.embedding_constants(mesh, part)
        emb2 = geometry.embedding_constants(moved, part2)
        assert emb1["M"] == pytest.approx(emb2["M"], abs=1e-10)
        assert emb1["N"] == pytest.approx(emb2["N"], abs=1e-10)
