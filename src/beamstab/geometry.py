"""Meshes, boundary classification and the geometric/embedding constants.

The boundary is split into a clamped part Gamma0 and a feedback part Gamma1
by the sign of m(x).nu(x) with m(x) = x - x0.  The constants computed here
(R, tau0, Poincare constant M, trace constant N) feed the admissibility
check of the certified decay rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from . import _fem
from .errors import InadmissiblePartitionError, InvalidArgumentError, NumericalFailureError

# relative spread of the cell widths below which an axis counts as uniform
UNIFORM_RTOL = 1e-12

# Lanczos basis size of the eigen-solve for N on the Q Gamma1 points.  N is
# an extreme, well-separated eigenvalue, and a small basis needs fewer
# operator applications than ARPACK's default of 20; H of Q <= EIGEN_NCV
# points is formed and solved densely.
EIGEN_NCV = 5


@dataclass(frozen=True, eq=False)
class Faces:
    """Boundary faces as arrays, one row per face; equality is identity.

    nodes (F, k), normal (F, dim), quad_points (F, q, dim) and
    quad_weights (F, q); the weights carry the face measure, so a face's
    measure is quad_weights.sum(1).
    """

    nodes: np.ndarray
    normal: np.ndarray
    quad_points: np.ndarray
    quad_weights: np.ndarray

    def __len__(self):
        return len(self.nodes)

    def select(self, mask):
        """The faces where the bool mask is true, in face order."""
        return Faces(self.nodes[mask], self.normal[mask],
                     self.quad_points[mask], self.quad_weights[mask])


def _grid_faces(nodes, counts):
    """Boundary faces of the tensor grid with counts[d] nodes on axis d.

    Interval: the two end points, left then right.  Rectangle: the edges
    (a, b) from lower to upper node, bottom, right, top, left, each with
    the 2-point Gauss rule.
    """
    if len(counts) == 1:
        ids = np.array([[0], [counts[0] - 1]])
        return Faces(ids, np.array([[-1.0], [1.0]]), nodes[ids], np.ones((2, 1)))
    nx, ny = counts[0] - 1, counts[1] - 1
    # node id i (ny + 1) + j
    i, j = np.arange(nx), np.arange(ny)
    a = np.concatenate([i * (ny + 1), nx * (ny + 1) + j, i * (ny + 1) + ny, j])
    b = a + np.concatenate([np.full(nx, ny + 1), np.ones(ny, int),
                            np.full(nx, ny + 1), np.ones(ny, int)])
    normals = np.repeat([(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)],
                        (nx, ny, nx, ny), axis=0)
    pa = nodes[a]
    d = nodes[b] - pa
    h = np.hypot(d[:, 0], d[:, 1])  # exact: every edge is axis-aligned
    g, gw = _fem.gauss_rule(2)
    return Faces(np.stack([a, b], axis=1), normals,
                 pa[:, None, :] + g[None, :, None] * d[:, None, :], gw[None, :] * h[:, None])


@dataclass(frozen=True, eq=False)
class Mesh:
    """Discretized domain: a uniform tensor grid built from its axes.

    axes holds the node coordinates of each axis, increasing and uniformly
    spaced: one axis for an interval, two for a rectangle of bilinear
    cells.  nodes (N, dim) derives from them, numbered i*(ny+1)+j on the
    rectangle, and so do dimension and the boundary faces: the two end
    points of the interval, or the edges of the rectangle.  Equality is
    identity, as for every record of arrays here.
    """

    axes: tuple
    nodes: np.ndarray = field(init=False, repr=False)  # (N, dim)
    faces: Faces = field(init=False, repr=False)

    def __post_init__(self):
        axes = tuple(np.asarray(x, dtype=float) for x in self.axes)
        if len(axes) not in (1, 2):
            raise InvalidArgumentError("a mesh has one or two axes")
        for x in axes:
            h = np.diff(x)
            if (x.ndim != 1 or len(h) < 1 or np.any(h <= 0)
                    or np.ptp(h) > UNIFORM_RTOL * h.mean()):
                raise InvalidArgumentError("mesh nodes are not uniformly spaced, "
                                           "increasing coordinates on every axis")
        nodes = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "faces", _grid_faces(nodes, tuple(len(x) for x in axes)))

    @property
    def dimension(self):
        return len(self.axes)


@dataclass(frozen=True, eq=False)
class BoundaryPartition:
    """Gamma1 mask and m.nu per face, and the Gamma1 data per point.

    gamma1 (F,) marks the feedback faces, m_dot_nu (F, q) holds m.nu at
    every face quadrature point.  The gamma1_* arrays hold one entry (row)
    per Gamma1 quadrature point, in face order; they are built once, with
    the partition, and every Gamma1 term reads them.
    """

    mesh: Mesh
    x0: np.ndarray
    gamma1: np.ndarray          # (F,) bool
    m_dot_nu: np.ndarray        # (F, q)
    gamma1_m_dot_nu: np.ndarray = field(init=False, repr=False)  # (Q,)
    gamma1_normals: np.ndarray = field(init=False, repr=False)   # (Q, dim)
    gamma1_sum_nu: np.ndarray = field(init=False, repr=False)    # (Q,) sum_i nu_i

    def __post_init__(self):
        mn = self.m_dot_nu[self.gamma1]
        normals = np.repeat(self.mesh.faces.normal[self.gamma1], mn.shape[1], axis=0)
        object.__setattr__(self, "gamma1_m_dot_nu", mn.ravel())
        object.__setattr__(self, "gamma1_normals", normals)
        object.__setattr__(self, "gamma1_sum_nu", normals.sum(axis=1))

    @property
    def gamma0_faces(self):
        return self.mesh.faces.select(~self.gamma1)

    @property
    def gamma1_faces(self):
        return self.mesh.faces.select(self.gamma1)

    def gamma0_nodes(self):
        return np.unique(self.gamma0_faces.nodes)

    def gamma1_sides(self):
        """The Gamma1 sides of the grid as (axis, end, faces, m_dot_nu).

        The boundary of a tensor grid is its sides: on each axis, the faces
        with outer normal -e_axis at node end = 0 and those with +e_axis at
        the last node.  A side has one constant m.nu, so it lies wholly in
        Gamma0 or in Gamma1; faces is the bool mask of its faces.
        """
        normal = self.mesh.faces.normal
        out = []
        for d, x in enumerate(self.mesh.axes):
            for end, sign in ((0, -1.0), (len(x) - 1, 1.0)):
                side = self.gamma1 & (normal[:, d] == sign)
                if side.any():
                    out.append((d, end, side, self.m_dot_nu[side].flat[0]))
        return out

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
    return Mesh((np.linspace(0.0, float(length), node_count),))


def build_rect_mesh(lx, ly, nx, ny):
    """Structured bilinear grid on [0, lx] x [0, ly] with nx x ny cells."""
    if lx <= 0 or ly <= 0:
        raise InvalidArgumentError("side lengths must be positive")
    if nx < 2 or ny < 2:
        raise InvalidArgumentError("cell counts must be at least 2")
    return Mesh((np.linspace(0.0, float(lx), nx + 1), np.linspace(0.0, float(ly), ny + 1)))


def classify_boundary(mesh, x0):
    """Split the faces into Gamma0/Gamma1 by the sign of m.nu at their centroid.

    m.nu <= 0 goes to Gamma0.  Every face of a tensor grid is axis-aligned
    and carries a constant m.nu, so no face straddles the sign change and
    the mean over its (symmetric) quadrature points is the centroid value.
    Raises if either part ends up empty.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (mesh.dimension,) or not np.all(np.isfinite(x0)):
        raise InvalidArgumentError("x0 must be a finite point of the ambient space")
    faces = mesh.faces
    m_dot_nu = np.einsum("fqd,fd->fq", faces.quad_points - x0, faces.normal)
    gamma1 = m_dot_nu.mean(axis=1) > 0
    if gamma1.all() or not gamma1.any():
        raise InadmissiblePartitionError(
            "boundary partition needs both a clamped and a feedback part; "
            f"got only {'Gamma1' if gamma1[0] else 'Gamma0'} for x0={x0.tolist()}"
        )
    return BoundaryPartition(mesh, x0, gamma1, m_dot_nu)


def geometric_constants(mesh, partition):
    """R = max_nodes |x - x0|, tau0 = min over Gamma1 quad points of m.nu."""
    R = float(np.max(np.linalg.norm(mesh.nodes - partition.x0[None, :], axis=1)))
    tau0 = float(np.min(partition.gamma1_m_dot_nu))
    return {"R": R, "tau0": tau0}


def _gamma1_operator(mesh, partition, slices, pairs):
    """H = W^1/2 T K^-1 T' W^1/2 on the Q Gamma1 quadrature points.

    T is the trace onto the Gamma1 points over the free dofs, W their
    quadrature weights and K^-1 = (V_1 x V_2) diag(1/lam) (V_1 x V_2)' from
    the 1D eigenpairs.  On a Gamma1 side at node e of axis d,
    T (V_1 x V_2) = V_d[e] x U with U = T_side V_other, so H z sums one
    outer product per side into an n_1 x n_2 array, divides it by
    lam_1i + lam_2j and contracts it back with V_d[e] and U: O(n_1 n_2) per
    product.  The interval is the case of a one-node second axis.
    """
    lams = [lam for lam, _ in pairs]
    Vs = [V for _, V in pairs]
    if mesh.dimension == 1:
        lams.append(np.zeros(1))
        Vs.append(np.ones((1, 1)))
    sides = []
    for d, end, mask, _ in partition.gamma1_sides():
        S, w = _fem.side_trace(mesh, mesh.faces.select(mask), d, end, slices)
        sides.append((d, Vs[d][end - slices[d].start], np.sqrt(w)[:, None] * (S @ Vs[1 - d])))
    bounds = np.cumsum([0] + [len(U) for _, _, U in sides])

    def apply(z):
        # one outer product x y' per side, summed as the product of the stacks
        xy = [(r, U.T @ z[a:b]) if d == 0 else (U.T @ z[a:b], r)
              for (d, r, U), a, b in zip(sides, bounds, bounds[1:])]
        X = np.column_stack([x for x, _ in xy]) @ np.column_stack([y for _, y in xy]).T
        X /= np.add.outer(*lams)
        return np.concatenate([U @ (r @ X if d == 0 else X @ r) for d, r, U in sides])

    return LinearOperator((bounds[-1], bounds[-1]), matvec=apply, dtype=float)


def embedding_constants(mesh, partition):
    """Discrete Poincare constant M and Gamma1 trace constant N.

    M = 1/sqrt(lambda_min) of the stiffness form K against the domain mass
    form on the subspace vanishing on Gamma0; N = sqrt(mu_max) of the
    Gamma1 boundary mass form B = T' W T against K.  Both come from the
    closed-form eigenpairs (lam_d, V_d) of the free 1D factor pairs
    (_fem.axis_eigenpairs), which diagonalize K.  lambda_min is the sum
    over the axes of the smallest lam_d, 0 on an unclamped axis.  mu_max
    is also the largest eigenvalue of H = W^1/2 T K^-1 T' W^1/2 on the Q
    Gamma1 quadrature points (_gamma1_operator), which costs O(n_1 n_2) per
    product: from ARPACK, with a fixed start vector so that N repeats bit
    for bit, or from a dense eigvalsh of H when Q <= EIGEN_NCV (the
    interval has Q = 1).
    """
    slices = _fem.free_slices(mesh.axes, partition.gamma0_nodes())
    factors = _fem.free_factors(mesh.axes, slices, names=("mass",))
    pairs = [_fem.axis_eigenpairs(x, sl, f["mass"])
             for x, sl, f in zip(mesh.axes, slices, factors)]
    lam_min = sum(float(lam[0]) for lam, _ in pairs)  # lam[0] = 0 on a free-free axis
    H = _gamma1_operator(mesh, partition, slices, pairs)
    Q = H.shape[0]
    if Q <= EIGEN_NCV:
        mu = np.linalg.eigvalsh(H @ np.eye(Q))[-1]
    else:
        try:
            mu = eigsh(H, which="LA", k=1, v0=np.ones(Q), ncv=EIGEN_NCV,
                       return_eigenvectors=False)[0]
        except ArpackNoConvergence as exc:
            raise NumericalFailureError(f"eigen-solve did not converge: {exc}") from exc
    return {"M": 1.0 / math.sqrt(lam_min), "N": math.sqrt(mu)}
