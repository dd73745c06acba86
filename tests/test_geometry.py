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
        assert part.m_dot_nu_centroid[1] == pytest.approx(1.0)

    def test_x0_left_of_domain(self, interval3):
        part = geometry.classify_boundary(interval3, np.array([-0.5]))
        assert part.tags == (GAMMA0, GAMMA1)
        assert part.m_dot_nu_centroid[0] == pytest.approx(-0.5)
        assert part.m_dot_nu_centroid[1] == pytest.approx(1.5)

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


def _dense_embedding_oracle(mesh, partition):
    """Independent dense generalized eigensolves for M and N."""
    mats = _fem.domain_matrices(mesh)
    fixed = partition.gamma0_nodes()
    free = np.setdiff1d(np.arange(len(mesh.nodes)), fixed)
    K = mats["stiffness"][np.ix_(free, free)].toarray()
    Mm = mats["mass"][np.ix_(free, free)].toarray()
    B = _fem.boundary_mass(mesh, partition.gamma1_faces)[np.ix_(free, free)].toarray()
    lam = scipy.linalg.eigh(K, Mm, eigvals_only=True)
    mu = scipy.linalg.eigh(B, K, eigvals_only=True)
    return {"M": 1.0 / math.sqrt(lam[0]), "N": math.sqrt(mu[-1])}


class TestEmbeddingConstants:
    def test_continuum_limits(self):
        mesh = geometry.build_interval_mesh(1.0, 101)
        part = geometry.classify_boundary(mesh, np.array([0.0]))
        emb = geometry.embedding_constants(mesh, part)
        assert emb["M"] == pytest.approx(2.0 / math.pi, abs=1e-3)
        assert emb["N"] == pytest.approx(1.0, abs=1e-3)

    def test_small_meshes_match_dense_solve(self, interval3, interval3_partition):
        rect = geometry.build_rect_mesh(1.0, 2.0, 3, 5)
        rect_partition = geometry.classify_boundary(rect, np.array([-0.3, 2.5]))
        # asymmetric Gamma1: the right edge (length 2) and the bottom edge (length 1)
        assert {tuple(f.normal) for f in rect_partition.gamma1_faces} == {(1.0, 0.0), (0.0, -1.0)}
        for mesh, part in ((interval3, interval3_partition), (rect, rect_partition)):
            emb = geometry.embedding_constants(mesh, part)
            oracle = _dense_embedding_oracle(mesh, part)
            assert emb["M"] == pytest.approx(oracle["M"], rel=1e-10)
            assert emb["N"] == pytest.approx(oracle["N"], rel=1e-10)

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
