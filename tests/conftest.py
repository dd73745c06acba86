import gc
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
import scipy.sparse as sp

from beamstab import _fem, geometry
from beamstab.admissibility import constant_schedule
from beamstab.discretization import assemble
from beamstab.feedback import identity_law, zero_law


@pytest.fixture(scope="session")
def interval3():
    return geometry.build_interval_mesh(1.0, 3)


@pytest.fixture(scope="session")
def interval3_partition(interval3):
    return geometry.classify_boundary(interval3, np.array([0.0]))


def make_system(mesh=None, nodes=11, alpha1=0.1, alpha2=0.1, law1=None, law2=None,
                schedule=None, x0=0.0):
    """Small assembled system for unit tests."""
    if mesh is None:
        mesh = geometry.build_interval_mesh(1.0, nodes)
    partition = geometry.classify_boundary(mesh, np.atleast_1d(x0))
    return assemble(mesh, partition, alpha1, alpha2,
                    schedule or constant_schedule(1.0),
                    law1 or identity_law(), law2 or identity_law())


def traced_bytes(build):
    """(result, retained, peak) of result = build() under tracemalloc, in
    bytes over what was held before it: retained is what is still held
    once build has returned, the result included, and peak the most held
    at once on the way.  gc.collect() runs before and after, so neither
    counts garbage."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = build()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current - start, peak - start


def sigma_form(system):
    """The system's sigma form T' diag(w sigma) T on the free dofs, csr on
    its nonzero stencil slots: the Sg of its state operator."""
    forms, cols = _fem.stencil(system.factors)
    slots = forms["sigma"]
    return _fem.stencil_csr([slots], cols, slots != 0)[0]


def layout_blocks(system, layout):
    """(S_mu, M2) csr on the pattern of layout, a state_operator() layout:
    blockdiag(K, 0) and blockdiag(M, M) of the system's stiffness and mass,
    looked up at the layout's (row, column) pairs, 0 where they hold none."""
    rows = np.repeat(np.arange(layout.shape[0]), np.diff(layout.indptr))
    K, M = system.stiffness, system.mass
    return [sp.csr_matrix((np.asarray(A.tocsr()[rows, layout.indices]).ravel(),
                           layout.indices, layout.indptr), shape=layout.shape)
            for A in (sp.block_diag((K, sp.csr_matrix(K.shape))), sp.block_diag((M, M)))]


def grid_cells(mesh):
    """Node ids of the cells of a tensor-grid mesh, for the element-loop
    oracles. Interval: node pairs (i, i+1).  Rectangle: corners (i,j),
    (i+1,j), (i+1,j+1), (i,j+1) of node ids i*(ny+1)+j, ordered by i, then j."""
    counts = [len(x) for x in mesh.axes]
    if len(counts) == 1:
        e = np.arange(counts[0] - 1)
        return np.stack([e, e + 1], axis=1)
    ny1 = counts[1]
    i, j = np.meshgrid(np.arange(counts[0] - 1), np.arange(ny1 - 1), indexing="ij")
    base = (i * ny1 + j).ravel()
    return np.stack([base, base + ny1, base + ny1 + 1, base + 1], axis=1)


def make_conservative_system(nodes=11):
    """Decoupled undamped configuration: zero laws, no coupling, sigma = 0
    (sigma = alpha2 * sum_i nu_i vanishes with alpha2)."""
    return make_system(nodes=nodes, alpha1=0.0, alpha2=0.0,
                       law1=zero_law(), law2=zero_law())


# boundary faces as arrays, one row per face: node ids (F, k), outer normal
# (F, dim), quadrature points (F, q, dim) and weights (F, q) that carry the
# face measure
Faces = namedtuple("Faces", "nodes normal quad_points quad_weights")


def rect_faces_loop(nodes, nx, ny):
    """Oracle: the rect boundary faces built one edge at a time, from lower
    to upper node, bottom, right, top, left, each with the 2-point Gauss
    rule; and the edge lengths."""
    g, gw = np.polynomial.legendre.leggauss(2)
    g, gw = 0.5 * (g + 1.0), 0.5 * gw
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
    return (Faces(np.array(ids), np.array(normals), np.array(points), np.array(weights)),
            np.array(measures))


def boundary_faces(mesh):
    """Oracle boundary faces of a tensor-grid mesh: the two end points of
    the interval, left then right, with weight 1, or rect_faces_loop."""
    if mesh.dimension == 2:
        return rect_faces_loop(mesh.nodes, len(mesh.axes[0]) - 1, len(mesh.axes[1]) - 1)[0]
    ids = np.array([[0], [len(mesh.nodes) - 1]])
    return Faces(ids, np.array([[-1.0], [1.0]]), mesh.nodes[ids], np.ones((2, 1)))


def gamma1_point_data(partition):
    """Oracle per-point Gamma1 data: each Gamma1 side's constants repeated
    over its _fem.side_rule points, side after side as the system's trace
    stacks them: m.nu (Q,), the normals (Q, dim), nu = sign e_d, and
    sum_i nu_i (Q,)."""
    mesh, sides = partition.mesh, partition.gamma1_sides
    q = [len(_fem.side_rule(mesh.axes, d, end, partition.free_slices)[1])
         for d, end, *_ in sides]
    normals = np.repeat([np.where(np.arange(mesh.dimension) == d, sign, 0.0)
                         for d, _, sign, _ in sides], q, axis=0)
    return {"m_dot_nu": np.repeat([m for *_, m in sides], q), "normals": normals,
            "sum_nu": normals.sum(axis=1)}


def gamma1_faces(mesh, partition):
    """The boundary_faces on the partition's Gamma1 sides, side after side:
    side (d, end, sign) holds the faces with outer normal sign e_d."""
    faces = boundary_faces(mesh)
    order = np.concatenate([np.flatnonzero(faces.normal[:, d] == sign)
                            for d, _, sign, _ in partition.gamma1_sides])
    return Faces(*(a[order] for a in faces))


def trace_loop_oracle(mesh, faces):
    """The trace onto the quadrature points of the faces, as a loop over
    faces and points: (T, weights, points), T[q, j] = phi_j(x_q) over every
    node, with the hat values 1 - s and s at the ends a and b of an edge,
    s = |x_q - a| / |b - a|."""
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
