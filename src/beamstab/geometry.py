"""Meshes, boundary classification and the geometric/embedding constants.

The boundary is split into a clamped part Gamma0 and a feedback part Gamma1
by the sign of m(x).nu(x) with m(x) = x - x0.  The constants computed here
(R, tau0, Poincare constant M, trace constant N) feed the admissibility
check of the certified decay rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from . import _fem
from .errors import InadmissiblePartitionError, InvalidArgumentError, NumericalFailureError

GAMMA0 = "Gamma0"
GAMMA1 = "Gamma1"

# Lanczos basis size of the eigen-solve for N.  N is an extreme,
# well-separated eigenvalue, and a small basis needs fewer stiffness solves
# than ARPACK's default of 20.
EIGEN_NCV = 5


@dataclass(frozen=True)
class BoundaryFace:
    face_id: int
    nodes: tuple
    normal: np.ndarray
    centroid: np.ndarray
    measure: float
    quad_points: np.ndarray   # (q, dim)
    quad_weights: np.ndarray  # (q,)


@dataclass(frozen=True)
class Mesh:
    """Discretized domain: nodes, elements and boundary faces.

    1D: elements are index pairs; boundary faces are the two endpoints.
    2D: axis-aligned bilinear rectangles; boundary faces are edges.
    Either way the mesh is a uniform tensor grid (see _fem.grid_axes);
    axes holds its per-axis node coordinates.
    """

    dimension: int
    nodes: np.ndarray     # (N, dim)
    elements: np.ndarray  # (E, 2) or (E, 4)
    faces: tuple
    axes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for f in self.faces:
            if abs(np.linalg.norm(f.normal) - 1.0) > 1e-12:
                raise InvalidArgumentError(f"face {f.face_id} normal is not unit")
        object.__setattr__(self, "axes", _fem.grid_axes(self.nodes, self.elements))
        if len(self.axes) != self.dimension:
            raise InvalidArgumentError("mesh nodes do not match its dimension")
        keys = {tuple(sorted(f.nodes)) for f in self.faces}
        if len(keys) != len(self.faces):
            raise InvalidArgumentError("boundary faces do not tile the boundary exactly once")


@dataclass(frozen=True)
class BoundaryPartition:
    """Per-face Gamma0/Gamma1 tags and m.nu, and the Gamma1 data per point.

    The gamma1_* arrays hold one entry (row) per Gamma1 quadrature point,
    concatenated over the Gamma1 faces in face order; they are built once,
    with the partition, and every Gamma1 term reads them.
    """

    mesh: Mesh
    x0: np.ndarray
    tags: tuple                 # per face, GAMMA0 or GAMMA1
    m_dot_nu: tuple             # per face, array over its quadrature points
    gamma1_m_dot_nu: np.ndarray = field(init=False, repr=False)  # (Q,)
    gamma1_normals: np.ndarray = field(init=False, repr=False)   # (Q, dim)
    gamma1_sum_nu: np.ndarray = field(init=False, repr=False)    # (Q,) sum_i nu_i

    def __post_init__(self):
        g1 = [(f, mn) for f, t, mn in zip(self.mesh.faces, self.tags, self.m_dot_nu)
              if t == GAMMA1]
        normals = [np.repeat(f.normal[None, :], len(f.quad_weights), axis=0) for f, _ in g1]
        # the empty leading blocks keep a partition without Gamma1 constructible
        normals = np.concatenate([np.empty((0, self.mesh.dimension))] + normals)
        object.__setattr__(self, "gamma1_m_dot_nu",
                           np.concatenate([np.empty(0)] + [mn for _, mn in g1]))
        object.__setattr__(self, "gamma1_normals", normals)
        object.__setattr__(self, "gamma1_sum_nu", normals.sum(axis=1))

    def faces_with_tag(self, tag):
        return [f for f, t in zip(self.mesh.faces, self.tags) if t == tag]

    @property
    def gamma0_faces(self):
        return self.faces_with_tag(GAMMA0)

    @property
    def gamma1_faces(self):
        return self.faces_with_tag(GAMMA1)

    def gamma0_nodes(self):
        ids = sorted({i for f in self.gamma0_faces for i in f.nodes})
        return np.asarray(ids, dtype=int)

    def sum_nu_bound(self):
        """max over Gamma1 quadrature points of |sum_i nu_i|."""
        return float(np.max(np.abs(self.gamma1_sum_nu)))

    def sigma(self, alpha2):
        """sigma = alpha2 * (sum of normal components) per Gamma1 quadrature point."""
        return alpha2 * self.gamma1_sum_nu


def build_interval_mesh(length, node_count):
    """Uniform 1D mesh on [0, length] with nu = -1 at 0 and +1 at length."""
    if length <= 0:
        raise InvalidArgumentError("length must be positive")
    if node_count < 3:
        raise InvalidArgumentError("node_count must be at least 3")
    xs = np.linspace(0.0, float(length), node_count)[:, None]
    elems = _fem.grid_elements((node_count,))
    faces = []
    for fid, (node, nrm) in enumerate(((0, -1.0), (node_count - 1, 1.0))):
        p = xs[node]
        faces.append(
            BoundaryFace(
                face_id=fid,
                nodes=(node,),
                normal=np.array([nrm]),
                centroid=p.copy(),
                measure=1.0,
                quad_points=p[None, :].copy(),
                quad_weights=np.array([1.0]),
            )
        )
    return Mesh(1, xs, elems, tuple(faces))


def build_rect_mesh(lx, ly, nx, ny):
    """Structured bilinear grid on [0, lx] x [0, ly] with nx x ny cells."""
    if lx <= 0 or ly <= 0:
        raise InvalidArgumentError("side lengths must be positive")
    if nx < 2 or ny < 2:
        raise InvalidArgumentError("cell counts must be at least 2")
    xs = np.linspace(0.0, float(lx), nx + 1)
    ys = np.linspace(0.0, float(ly), ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.stack([X.ravel(), Y.ravel()], axis=1)

    def nid(i, j):
        return i * (ny + 1) + j

    elems = _fem.grid_elements((nx + 1, ny + 1))

    g, gw = _fem.gauss_rule(2)
    faces = []
    fid = 0

    def add_edge(a, b, normal):
        nonlocal fid
        pa, pb = nodes[a], nodes[b]
        h = float(np.linalg.norm(pb - pa))
        qp = pa[None, :] + g[:, None] * (pb - pa)[None, :]
        faces.append(
            BoundaryFace(
                face_id=fid,
                nodes=(a, b),
                normal=np.asarray(normal, dtype=float),
                centroid=0.5 * (pa + pb),
                measure=h,
                quad_points=qp,
                quad_weights=gw * h,
            )
        )
        fid += 1

    for i in range(nx):  # bottom, top
        add_edge(nid(i, 0), nid(i + 1, 0), (0.0, -1.0))
    for j in range(ny):  # right
        add_edge(nid(nx, j), nid(nx, j + 1), (1.0, 0.0))
    for i in range(nx):  # top
        add_edge(nid(i, ny), nid(i + 1, ny), (0.0, 1.0))
    for j in range(ny):  # left
        add_edge(nid(0, j), nid(0, j + 1), (-1.0, 0.0))
    return Mesh(2, nodes, elems, tuple(faces))


def classify_boundary(mesh, x0):
    """Tag every face Gamma0/Gamma1 by the sign of m.nu at its centroid.

    m.nu <= 0 goes to Gamma0.  Faces of the meshes built here carry a
    constant m.nu (axis-aligned geometry), so no face straddles the sign
    change.  Raises if either part ends up empty.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (mesh.dimension,) or not np.all(np.isfinite(x0)):
        raise InvalidArgumentError("x0 must be a finite point of the ambient space")
    tags, per_face = [], []
    for f in mesh.faces:
        tags.append(GAMMA1 if np.dot(f.centroid - x0, f.normal) > 0 else GAMMA0)
        per_face.append((f.quad_points - x0[None, :]) @ f.normal)
    tags = tuple(tags)
    if GAMMA0 not in tags or GAMMA1 not in tags:
        raise InadmissiblePartitionError(
            "boundary partition needs both a clamped and a feedback part; "
            f"got only {tags[0]} for x0={x0.tolist()}"
        )
    return BoundaryPartition(mesh, x0, tags, tuple(per_face))


def geometric_constants(mesh, partition):
    """R = max_nodes |x - x0|, tau0 = min over Gamma1 quad points of m.nu."""
    R = float(np.max(np.linalg.norm(mesh.nodes - partition.x0[None, :], axis=1)))
    tau0 = float(np.min(partition.gamma1_m_dot_nu))
    return {"R": R, "tau0": tau0}


def embedding_constants(mesh, partition):
    """Discrete Poincare constant M and Gamma1 trace constant N.

    M = 1/sqrt(lambda_min) of the stiffness form against the domain mass
    form on the subspace vanishing on Gamma0; N = sqrt(mu_max) of the
    Gamma1 boundary mass form against the stiffness form.  Both come from
    the closed-form eigenpairs (lam_d, V_d) of the free 1D factor pairs
    (_fem.axis_eigenpairs).  lambda_min is the sum over the axes of the
    smallest lam_d, 0 on an unclamped axis.  mu_max comes from ARPACK in
    generalized mode with the stiffness inverse applied as
    (V_1 x V_2) diag(1/(lam_1i + lam_2j)) (V_1 x V_2)'.  The fixed start
    vector keeps N identical from run to run.
    """
    fixed = partition.gamma0_nodes()
    free = np.setdiff1d(np.arange(len(mesh.nodes)), fixed)
    slices = _fem.free_slices(mesh.axes, fixed)
    factors = _fem.free_factors(mesh.axes, slices)
    pairs = [_fem.axis_eigenpairs(x, sl, f["mass"])
             for x, sl, f in zip(mesh.axes, slices, factors)]
    lams = [lam for lam, _ in pairs]
    lam_min = sum(float(lam[0]) for lam in lams)  # lam[0] = 0 on a free-free axis
    counts = tuple(len(lam) for lam in lams)
    inv_lam = 1.0 / reduce(np.add.outer, lams).ravel()

    def k_inverse(b):
        coef = _fem.along_axes(b.ravel(), counts, [lambda z, V=V: V.T @ z for _, V in pairs])
        return _fem.along_axes(inv_lam * coef, counts, [lambda z, V=V: V @ z for _, V in pairs])

    K = _fem.kron_sum(factors, "stiffness")
    B = _fem.boundary_mass(mesh, partition.gamma1_faces)[np.ix_(free, free)].tocsr()
    Kinv = LinearOperator(K.shape, matvec=k_inverse, dtype=float)
    try:
        mu = eigsh(B, M=K, Minv=Kinv, which="LA", k=1, v0=np.ones(len(free)),
                   ncv=min(len(free), EIGEN_NCV), return_eigenvectors=False)[0]
    except ArpackNoConvergence as exc:
        raise NumericalFailureError(f"eigen-solve did not converge: {exc}") from exc
    return {"M": 1.0 / math.sqrt(lam_min), "N": math.sqrt(mu)}
