"""Low-level finite element operators shared by geometry and discretization.

Every mesh is a uniform tensor grid built from its axes (geometry.Mesh):
an interval, or a rectangle whose nodes are numbered i*(ny+1)+j.  The
basis is continuous piecewise-linear (P1) on each axis and its tensor
product (bilinear) on the rectangle, so each domain form is a Kronecker
sum of 1D P1 factors with the x factor first: the fast-diagonalization
setting of Lynch, Rice & Thomas, Numer. Math. 6 (1964).  The interval is
the one-factor case of the same code.  Every boundary form is
T' diag(d) T for the trace map T of trace_structure (trace_form).
Small systems that are not Kronecker sums are solved in LAPACK band
storage (band_storage, band_lu, band_solve).
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, eigh
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpttrf, dpttrs

from .errors import InvalidArgumentError


def gauss_rule(npts):
    """Gauss-Legendre points/weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


# ---------------------------------------------------------------------------
# tensor grids and their 1D factors

def _tridiagonal(local):
    """Assemble per-cell 2x2 matrices (E, 2, 2) of a 1D chain into csr."""
    e = np.arange(len(local))
    rows = np.stack([e, e, e + 1, e + 1], axis=1).ravel()
    cols = np.stack([e, e + 1, e, e + 1], axis=1).ravel()
    n = len(local) + 1
    return sp.csr_matrix((local.reshape(-1), (rows, cols)), shape=(n, n))


# the 1D factors of every axis; a multiplier factor needs its x0
AXIS_FACTORS = ("mass", "stiffness", "derivative")


def axis_factors(x, x0=None, names=AXIS_FACTORS):
    """1D P1 forms on the nodes x, as csr matrices over all nodes, for each
    of `names`:

      mass        (phi_k, phi_j)
      stiffness   (phi_k', phi_j')
      derivative  D[k, j] = (phi_j', phi_k)
      multiplier  X[k, j] = (phi_k, (x - x0) phi_j'), only when x0 is given
    """
    h = np.diff(x)[:, None, None]
    local = {
        "mass": h * np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0,
        "stiffness": np.array([[1.0, -1.0], [-1.0, 1.0]]) / h,
        "derivative": np.broadcast_to([[-0.5, 0.5], [-0.5, 0.5]], (len(h), 2, 2)),
    }
    out = {name: _tridiagonal(local[name]) for name in names}
    if x0 is not None:
        a, b = x[:-1] - x0, x[1:] - x0
        # (phi_k, x - x0) over the cell times the slope -1/h or 1/h of phi_j
        moment = np.stack([a / 3.0 + b / 6.0, a / 6.0 + b / 3.0], axis=1)
        out["multiplier"] = _tridiagonal(moment[:, :, None] * np.array([-1.0, 1.0]))
    return out


def kron_sum(factors, name):
    """sum_d M_1 x ... x F_d x ... x M_n: the factor `name` on one axis, the
    mass factor on every other one.  "mass" gives the plain Kronecker product.

    Every 1D factor stores the full tridiagonal pattern, so all the terms
    share one stencil, and their COO data add entry by entry; the csr keeps
    every stencil entry, also where the terms cancel to 0."""
    if name == "mass":
        return reduce(sp.kron, [f["mass"] for f in factors]).tocsr()
    terms = [reduce(sp.kron, [f[name] if k == d else f["mass"]
                              for k, f in enumerate(factors)]).tocoo()
             for d in range(len(factors))]
    first = terms[0]
    return sp.csr_matrix((sum(t.data for t in terms), (first.row, first.col)),
                         shape=first.shape)


def domain_matrices(mesh, x0=None):
    """Assemble the domain bilinear forms from the 1D factors of mesh.axes.

    Returns a dict with csr matrices over all nodes:
      mass       (phi_i, phi_j)
      stiffness  ((phi_i, phi_j)) = sum_k (d phi_i/dx_k, d phi_j/dx_k)
      coupling   C[k, j] = (sum_i d phi_j/dx_i, phi_k)
      multiplier X[k, j] = (phi_k, m . grad phi_j), only when x0 is given
    """
    x0s = [None] * mesh.dimension if x0 is None else np.asarray(x0, dtype=float)
    factors = [axis_factors(x, c) for x, c in zip(mesh.axes, x0s)]
    out = {name: kron_sum(factors, name) for name in ("mass", "stiffness")}
    out["coupling"] = kron_sum(factors, "derivative")
    if x0 is not None:
        out["multiplier"] = kron_sum(factors, "multiplier")
    return out


def free_slices(axes, fixed):
    """Per-axis slices whose tensor product is the free node set.

    The fixed nodes must be the whole grid faces at one end of some axes
    (at most one end per axis), as every Gamma0 of a tensor grid is;
    raises InvalidArgumentError otherwise.
    """
    counts = tuple(len(x) for x in axes)
    clamped = np.zeros(counts, dtype=bool)
    clamped.flat[np.asarray(fixed, dtype=int)] = True
    slices = []
    for d, n in enumerate(counts):
        lo, hi = (bool(np.take(clamped, end, axis=d).all()) for end in (0, n - 1))
        if lo and hi:
            raise InvalidArgumentError(f"Gamma0 clamps both ends of axis {d}")
        slices.append(slice(int(lo), n - int(hi)))
    free = np.zeros(counts, dtype=bool)
    free[tuple(slices)] = True
    if np.any(free == clamped):
        raise InvalidArgumentError("Gamma0 is not a union of whole faces of the grid")
    return tuple(slices)


def free_factors(axes, slices, names=AXIS_FACTORS):
    """axis_factors `names` of every axis restricted to its free slice."""
    return [{name: f[sl, sl].tocsr() for name, f in axis_factors(x, names=names).items()}
            for x, sl in zip(axes, slices)]


def axis_eigenpairs(x, sl, mass):
    """Closed-form eigenpairs of the free 1D P1 pair on the uniform axis x.

    sl: the free slice (one clamped end or none); mass: the free mass
    factor.  Returns (lam, V) with K V = M V diag(lam) and V' M V = I:
    sin((2k-1) pi i / (2n)) with i counted from the clamped end, or
    cos(k pi i / n) on a free-free axis, and
    lam = (6/h^2)(1 - cos theta)/(2 + cos theta), evaluated through
    1 - cos theta = 2 sin^2(theta/2) against cancellation.
    """
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
    V /= np.sqrt(np.einsum("ik,ik->k", V, mass @ V))
    return lam, V


def pencil_eigenpairs(a, mass):
    """Eigenpairs (lam, V) of the symmetric 1D pair (a, mass), mass positive
    definite: a V = mass V diag(lam) and V' mass V = I, by a dense eigh."""
    return eigh(a.toarray(), mass.toarray())


def along_axes(x, counts, ops):
    """(op_1 x ... x op_d) x for x of shape (prod(counts),) or (prod(counts), B).

    op_d maps an (counts[d], m) array to one of the same shape: the action
    of the axis-d factor on every fibre along that axis.
    """
    y = x.reshape(*counts, -1)
    for d, op in enumerate(ops):
        y = y.swapaxes(0, d)
        shape = y.shape
        y = op(y.reshape(shape[0], -1)).reshape(shape).swapaxes(0, d)
    return y.reshape(x.shape)


def tridiagonal_ldl(m):
    """L D L' factors (d, e) of a symmetric positive definite tridiagonal
    csr matrix, by LAPACK's dpttrf."""
    d, e, info = dpttrf(m.diagonal(), m.diagonal(1))
    if info != 0:
        raise LinAlgError(f"tridiagonal matrix is not positive definite (dpttrf info {info})")
    return d, e


def kron_solve(ldls, b):
    """Solve (A_1 x ... x A_d) a = b from the tridiagonal_ldl factors of the
    A_d: one dpttrs solve per axis for all columns of b at once."""
    return along_axes(b, [len(d) for d, _ in ldls], [
        lambda z, f=f: dpttrs(*f, z)[0] for f in ldls])


def band_storage(a, kl, ku):
    """The sparse square matrix a in LAPACK's band storage for dgbtrf: an
    (2 kl + ku + 1, n) array with a[i, j] in row kl + ku + i - j and kl
    rows of room above for the fill of the row pivoting.  Raises
    InvalidArgumentError for an entry outside the band."""
    a = a.tocoo()
    offset = a.row - a.col
    if np.any(offset > kl) or np.any(-offset > ku):
        raise InvalidArgumentError(f"matrix has entries outside the band ({kl}, {ku})")
    ab = np.zeros((2 * kl + ku + 1, a.shape[1]))
    np.add.at(ab, (kl + ku + offset, a.col), a.data)
    return ab


def band_lu(ab, kl, ku):
    """LU factors (lu, piv) of a band_storage array, by LAPACK's dgbtrf."""
    lu, piv, info = dgbtrf(ab, kl, ku)
    if info != 0:
        raise LinAlgError(f"band matrix is singular (dgbtrf info {info})")
    return lu, piv


def band_solve(factors, kl, ku, b):
    """Solve with the band_lu factors for b of shape (n,), by dgbtrs."""
    lu, piv = factors
    return dgbtrs(lu, kl, ku, b, piv)[0]


def trace_structure(mesh, faces):
    """Trace map onto the quadrature points of the given faces.

    Returns (T, weights, points) where T is csr of shape (Q, n_nodes) with
    T[q, j] = phi_j(x_q), the points in face order, and the weights carry
    the surface measure.  On an edge (a, b) the point x_q has the hat
    values 1 - s and s at a and b, s = |x_q - a| / |b - a|.
    """
    n = len(mesh.nodes)
    points = faces.quad_points.reshape(-1, mesh.dimension)
    weights = faces.quad_weights.ravel()
    ids = np.repeat(faces.nodes, faces.quad_weights.shape[1], axis=0)  # (Q, nloc)
    q = np.arange(len(weights))
    if mesh.dimension == 1:
        vals = np.ones((len(q), 1))
    else:
        a, b = mesh.nodes[ids[:, 0]], mesh.nodes[ids[:, 1]]
        s = np.linalg.norm(points - a, axis=1) / np.linalg.norm(b - a, axis=1)
        vals = np.stack([1.0 - s, s], axis=1)
    rows = np.repeat(q, ids.shape[1])
    T = sp.csr_matrix((vals.ravel(), (rows, ids.ravel())), shape=(len(q), n))
    return T, weights, points


def side_trace(mesh, faces, axis, end, slices):
    """trace_structure of faces that make up the whole grid side at node
    `end` of `axis`, restricted to the side's free nodes.

    slices are the free slices of the axes (free_slices).  Returns
    (S, weights): S is csr of shape (Q_s, n_s) with the free nodes of the
    side as columns, in the order of the remaining axis (one node on the
    interval).
    """
    T, weights, _ = trace_structure(mesh, faces)
    counts = tuple(len(x) for x in mesh.axes)
    grid = [np.arange(n)[sl] for n, sl in zip(counts, slices)]
    grid[axis] = np.array([end])
    ids = np.ravel_multi_index(np.meshgrid(*grid, indexing="ij"), counts).ravel()  # ascending
    T = T.tocoo()
    col = np.minimum(np.searchsorted(ids, T.col), len(ids) - 1)
    keep = ids[col] == T.col  # drops a clamped corner node
    S = sp.csr_matrix((T.data[keep], (T.row[keep], col[keep])), shape=(T.shape[0], len(ids)))
    return S, weights


def trace_form(T, d):
    """T' diag(d) T, csr, for a trace T from trace_structure (or its
    restriction to some columns) and per-point weights d that include the
    quadrature weights."""
    return (T.T @ sp.diags(d) @ T).tocsr()
