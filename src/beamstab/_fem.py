"""Low-level finite element operators shared by geometry and discretization.

Every mesh is a uniform tensor grid built from its axes (geometry.Mesh):
an interval, or a rectangle whose nodes are numbered i*(ny+1)+j.  The
basis is continuous piecewise-linear (P1) on each axis and its tensor
product (bilinear) on the rectangle, so each domain form is a Kronecker
sum of 1D P1 factors with the x factor first: the fast-diagonalization
setting of Lynch, Rice & Thomas, Numer. Math. 6 (1964).  The 1D factors
are tridiagonal bands; stencil builds every form from them as the slots
of the grid's 3^d-point stencil, over all nodes or (free_factors) the free
ones, and stencil_csr is the one compression of slots to csr (domain
forms, system forms, the time stepper's block layout).  The interval is
the one-factor case of the same code.  Gamma0 is a union of whole grid
sides, so the free nodes are the product of one slice per axis
(geometry.BoundaryPartition.free_slices).  trace_form is T' diag(d) T
for a trace map T of trace_structure.  Small systems that are not Kronecker
sums are solved in LAPACK band storage (band_storage, band_lu, band_solve).
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpttrf, dpttrs

from .errors import InvalidArgumentError


def gauss_rule(npts):
    """Gauss-Legendre points/weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


# ---------------------------------------------------------------------------
# tensor grids and their 1D factors

def _band(local):
    """The tridiagonal band (3, n) of per-cell 2x2 matrices (E, 2, 2) of a
    1D chain, summed over the cells."""
    b = np.zeros((3, len(local) + 1))
    b[0, 1:], b[2, :-1], b[1, :-1] = local[:, 1, 0], local[:, 0, 1], local[:, 0, 0]
    b[1, 1:] += local[:, 1, 1]
    return b


def axis_factors(x, x0=None):
    """1D P1 forms F on the nodes x as tridiagonal bands (3, n), row i
    holding F[i, i-1], F[i, i] and F[i, i+1] and 0 off the matrix:

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
    out = {name: _band(m) for name, m in local.items()}
    if x0 is not None:
        a, b = x[:-1] - x0, x[1:] - x0
        # (phi_k, x - x0) over the cell times the slope -1/h or 1/h of phi_j
        moment = np.stack([a / 3.0 + b / 6.0, a / 6.0 + b / 3.0], axis=1)
        out["multiplier"] = _band(moment[:, :, None] * np.array([-1.0, 1.0]))
    return out


def stencil(bands):
    """Each factor F of the axes' 1D bands (axis_factors, x first) as the
    Kronecker sum sum_d M_1 x .. x F_d x .. x M_n on the 3^d-point stencil,
    its terms added in axis order ("mass" is the plain product).

    Returns ({name: (n, 3^d) slots}, cols): slot s of node k holds the
    entry in column cols[k, s] = k + offset_s, a product of one band entry
    per axis as in sp.kron, and 0 off the grid; the offsets ascend, so
    each row's columns do."""
    def slots(factors):  # the products of one band row per axis, slot by slot
        return reduce(lambda X, b: (X[:, None, :, None] * b[None, :, None, :])
                      .reshape(3 * len(X), -1), factors[1:], factors[0])

    def kron_sum(name):  # term d: the factor on axis d, mass on every other one
        terms = (slots([b[name] if k == d else b["mass"] for k, b in enumerate(bands)])
                 for d in range(len(bands) if name != "mass" else 1))
        out = next(terms)
        for term in terms:
            out += term
        return np.ascontiguousarray(out.T)  # one copy beats node-major products

    step = np.arange(-1, 2, dtype=np.int32)
    offsets = reduce(lambda o, b: (o[:, None] * b["mass"].shape[1] + step).ravel(),
                     bands[1:], step)
    forms = {name: kron_sum(name) for name in bands[0]}
    return forms, np.arange(len(forms["mass"]), dtype=np.int32)[:, None] + offsets


def stencil_csr(forms, cols, keep):
    """Each (rows, width) slot array of forms (stencil, or stencil blocks
    side by side), slot s of row k in column cols[k, s], as a square csr
    matrix of the slots where keep holds, all on one indices and indptr.
    forms is read one array at a time: an iterator may refill one buffer."""
    rows, width = keep.shape
    at = np.flatnonzero(keep)
    indices = cols.take(at)
    indptr = np.searchsorted(at, np.arange(rows + 1) * width).astype(indices.dtype)
    return [sp.csr_matrix((X.take(at), indices, indptr), shape=(rows, rows)) for X in forms]


def domain_matrices(mesh, x0=None):
    """Assemble the domain bilinear forms from the 1D factors of mesh.axes.

    Returns a dict with csr matrices over all nodes on one stencil pattern:
      mass       (phi_i, phi_j)
      stiffness  ((phi_i, phi_j)) = sum_k (d phi_i/dx_k, d phi_j/dx_k)
      coupling   C[k, j] = (sum_i d phi_j/dx_i, phi_k)
      multiplier X[k, j] = (phi_k, m . grad phi_j), only when x0 is given
    """
    x0s = [None] * mesh.dimension if x0 is None else np.asarray(x0, dtype=float)
    forms, cols = stencil([axis_factors(x, c) for x, c in zip(mesh.axes, x0s)])
    mats = stencil_csr(forms.values(), cols, forms["mass"] != 0)  # mass > 0 on the grid
    return {"coupling" if name == "derivative" else name: A for name, A in zip(forms, mats)}


def free_factors(axes, slices, x0=None):
    """axis_factors of every axis on its free slice: the band columns of the
    free nodes, with their couplings to clamped nodes zeroed."""
    x0s = [None] * len(axes) if x0 is None else x0
    out = [{name: b[:, sl] for name, b in axis_factors(x, c).items()}
           for x, c, sl in zip(axes, x0s, slices)]
    for b in (b for f in out for b in f.values()):
        b[0, 0] = b[2, -1] = 0.0
    return out


def axis_eigenpairs(x, sl, mass):
    """Closed-form eigenpairs of the free 1D P1 pair on the uniform axis x.

    sl: the free slice (one clamped end or none); mass: the free mass
    band (free_factors).  Returns (lam, V) with K V = M V diag(lam) and
    V' M V = I: sin((2k-1) pi i / (2n)) with i counted from the clamped end, or
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
    MV = mass[1, :, None] * V  # M V, each row summed in column order as by csr
    MV[1:] += mass[0, 1:, None] * V[:-1]
    MV[:-1] += mass[2, :-1, None] * V[1:]
    V /= np.sqrt(np.einsum("ik,ik->k", V, MV))
    return lam, V


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


def tridiagonal_ldl(band):
    """L D L' factors (d, e) of a symmetric positive definite tridiagonal
    factor band (axis_factors), by LAPACK's dpttrf."""
    d, e, info = dpttrf(band[1], band[2, :-1])
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

    slices are the free slices of the axes (BoundaryPartition.free_slices).
    Returns (S, weights): S is csr of shape (Q_s, n_s) with the free nodes
    of the side as columns, in the order of the remaining axis (one node
    on the interval).
    """
    T, weights, _ = trace_structure(mesh, faces)
    counts = tuple(len(x) for x in mesh.axes)
    grid = [np.arange(n)[sl] for n, sl in zip(counts, slices)]
    grid[axis] = np.array([end])
    ids = np.ravel_multi_index(np.meshgrid(*grid, indexing="ij"), counts).ravel()
    return T[:, ids], weights  # the columns leave out a clamped corner node


def trace_form(T, d):
    """T' diag(d) T, csr, for a trace T from trace_structure (or its
    restriction to some columns) and per-point weights d that include the
    quadrature weights."""
    return (T.T @ sp.diags(d) @ T).tocsr()
