"""Meshes, boundary classification and the geometric/embedding constants.

The boundary of a tensor grid is its grid sides (Mesh.sides), each with
one normal; _fem.side_rule gives the trace onto a side.  The boundary is
split into a clamped part Gamma0 and a feedback part Gamma1 by the sign of
m(x).nu(x) with m(x) = x - x0, which is constant on each side, so the
partition is a list of Gamma1 sides with their constants; only
_fem.side_rule knows a side's quadrature points.  The constants computed
here (R, tau0, Poincare constant M, trace constant N) feed the
admissibility check of the certified decay rate.
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
class Mesh:
    """Discretized domain: a uniform tensor grid built from its axes.

    axes holds the node coordinates of each axis, finite, increasing and
    uniformly spaced: one axis for an interval, two for a rectangle of bilinear
    cells.  nodes (N, dim) derives from them, numbered i*(ny+1)+j on the
    rectangle, and so do the dimension and the 2 dim grid sides that make
    up the boundary (sides).  Equality is identity, as for every record of
    arrays here.
    """

    axes: tuple
    nodes: np.ndarray = field(init=False, repr=False)  # (N, dim)

    def __post_init__(self):
        axes = tuple(np.asarray(x, dtype=float) for x in self.axes)
        if len(axes) not in (1, 2):
            raise InvalidArgumentError("a mesh has one or two axes")
        for x in axes:
            h = np.diff(x)
            if (x.ndim != 1 or len(h) < 1 or not np.all(np.isfinite(x)) or np.any(h <= 0)
                    or np.ptp(h) > UNIFORM_RTOL * h.mean()):
                raise InvalidArgumentError("mesh nodes are not finite, uniformly spaced, "
                                           "increasing coordinates on every axis")
        nodes = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "nodes", nodes)

    @property
    def dimension(self):
        return len(self.axes)

    @property
    def sides(self):
        """The grid sides as (axis, end, sign), in (axis, end) order: the
        nodes at index end of the axis, with outer normal sign e_axis
        (-1 at node 0, +1 at the last node).  _fem.side_rule builds the
        trace onto a side."""
        return tuple((d, end, sign) for d, x in enumerate(self.axes)
                     for end, sign in ((0, -1.0), (len(x) - 1, 1.0)))


@dataclass(frozen=True, eq=False)
class BoundaryPartition:
    """Gamma0 and Gamma1, decided once per grid side from (mesh, x0).

    Side (d, end, sign) of mesh.sides has the one value
    m.nu = sign (x_end - x0_d) and is in Gamma1 when that is > 0.
    gamma1_sides lists the Gamma1 sides in side order as
    (axis, end, sign, m.nu), and the rest derives from it: free_slices,
    whose tensor product is the node set off Gamma0, and every constant of
    a Gamma1 side (nu = sign e_d, sum_i nu_i = sign, sigma = alpha2 sign).
    Its quadrature points are _fem.side_rule's.  The two ends of an axis
    have m.nu summing to its length, so Gamma1 is never empty and no axis
    is clamped at both ends; an empty Gamma0 raises
    InadmissiblePartitionError.
    """

    mesh: Mesh
    x0: np.ndarray
    gamma1_sides: tuple = field(init=False, repr=False)
    free_slices: tuple = field(init=False, repr=False)

    def __post_init__(self):
        mesh = self.mesh
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if x0.shape != (mesh.dimension,) or not np.all(np.isfinite(x0)):
            raise InvalidArgumentError("x0 must be a finite point of the ambient space")
        sides = [(d, end, sign, sign * (mesh.axes[d][end] - x0[d]))
                 for d, end, sign in mesh.sides]
        gamma1_sides = tuple(side for side in sides if side[3] > 0)
        if len(gamma1_sides) == len(sides):
            raise InadmissiblePartitionError(
                "boundary partition needs both a clamped and a feedback part; "
                f"got only Gamma1 for x0={x0.tolist()}")
        free_slices = tuple(slice(int(lo[3] <= 0), len(x) - int(hi[3] <= 0))
                            for x, lo, hi in zip(mesh.axes, sides[::2], sides[1::2]))
        for name, value in (("x0", x0), ("gamma1_sides", gamma1_sides),
                            ("free_slices", free_slices)):
            object.__setattr__(self, name, value)

    def gamma0_nodes(self):
        """The nodes off the grid of free_slices, ascending."""
        clamped = np.ones([len(x) for x in self.mesh.axes], dtype=bool)
        clamped[self.free_slices] = False
        return np.flatnonzero(clamped)

    def sum_nu_bound(self):
        """max over Gamma1 of |sum_i nu_i|: |sign| on each side, nu = sign e_d."""
        return max(abs(sign) for _, _, sign, _ in self.gamma1_sides)


def build_interval_mesh(length, node_count):
    """Uniform 1D mesh on [0, length] with nu = -1 at 0 and +1 at length."""
    if not 0 < length < math.inf:  # NaN fails too
        raise InvalidArgumentError(f"length must be finite and positive, got {length!r}")
    if node_count < 3:
        raise InvalidArgumentError("node_count must be at least 3")
    return Mesh((np.linspace(0.0, float(length), node_count),))


def build_rect_mesh(lx, ly, nx, ny):
    """Structured bilinear grid on [0, lx] x [0, ly] with nx x ny cells."""
    if not (0 < lx < math.inf and 0 < ly < math.inf):  # NaN fails too
        raise InvalidArgumentError(f"side lengths must be finite and positive, got {lx!r}, {ly!r}")
    if nx < 2 or ny < 2:
        raise InvalidArgumentError("cell counts must be at least 2")
    return Mesh((np.linspace(0.0, float(lx), nx + 1), np.linspace(0.0, float(ly), ny + 1)))


def classify_boundary(mesh, x0):
    """The BoundaryPartition of the mesh's boundary by the sign of m.nu."""
    return BoundaryPartition(mesh, x0)


def geometric_constants(mesh, partition):
    """R = max_nodes |x - x0|, tau0 = min over the Gamma1 sides of m.nu."""
    R = float(np.max(np.linalg.norm(mesh.nodes - partition.x0[None, :], axis=1)))
    tau0 = float(min(m for *_, m in partition.gamma1_sides))
    return {"R": R, "tau0": tau0}


def _gamma1_operator(mesh, partition, pairs):
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
    sides, slices = [], partition.free_slices
    for d, end, _, _ in partition.gamma1_sides:  # the rule on the side's own free nodes
        S, w, _ = _fem.side_rule(mesh.axes, d, end,
                                 slices[:d] + (slice(end, end + 1),) + slices[d + 1:])
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
    slices = partition.free_slices
    factors = _fem.free_factors(mesh.axes, slices)
    pairs = [_fem.axis_eigenpairs(x, sl, f["mass"])
             for x, sl, f in zip(mesh.axes, slices, factors)]
    lam_min = sum(float(lam[0]) for lam, _ in pairs)  # lam[0] = 0 on a free-free axis
    H = _gamma1_operator(mesh, partition, pairs)
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
