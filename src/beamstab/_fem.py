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
(geometry.BoundaryPartition.free_slices), and side_rule builds the trace
onto a grid side over such slices: the product of the side's end node
with the two-point Gauss rule of the other axis (edge_rule).  trace_form
is T' diag(d) T for such a trace.  Small systems that are not Kronecker
sums are solved in LAPACK band storage (band_storage, band_lu, band_solve):
without row interchanges by two triangular band solves, else by dgbtrs.
csr_product writes A @ x into an array the caller owns, through the compiled
kernel behind SciPy's own A @ x: the time step applies every operator of its
loop through it, and the trace recorder every product with a state field.
This is the one module that imports SciPy's private kernels.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpttrf, dpttrs
from scipy.sparse import _sparsetools  # the csr kernels behind A @ x

from .errors import InvalidArgumentError


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
    """LU factors (lu, piv, triangles) of a band_storage array, by LAPACK's
    dgbtrf.  When it made no row interchange, triangles holds the bands of
    L, unit-lower of bandwidth kl, and U, upper of bandwidth kl + ku, each
    cut from lu here, once, in the storage of BLAS's dtbsv; else None."""
    lu, piv, info = dgbtrf(ab, kl, ku)
    if info != 0:
        raise LinAlgError(f"band matrix is singular (dgbtrf info {info})")
    if np.any(piv != np.arange(len(piv))):
        return lu, piv, None
    return lu, piv, (np.asfortranarray(lu[kl + ku:]), np.asfortranarray(lu[:kl + ku + 1]))


def band_solve(factors, kl, ku, b, overwrite_b=False):
    """Solve with the band_lu factors for b of shape (n,).  Unpivoted
    factors take two triangular band solves (dtbsv), L then U; dgbtrs does
    the same arithmetic but applies L one BLAS dger call per column, and it
    stays the solve of pivoted factors.  With overwrite_b a float64 b is
    solved in place and returned."""
    lu, piv, triangles = factors
    if triangles is None:
        return dgbtrs(lu, kl, ku, b, piv, overwrite_b=overwrite_b)[0]
    L, U = triangles
    x = dtbsv(kl, L, b, lower=1, diag=1, overwrite_x=overwrite_b)
    return dtbsv(kl + ku, U, x, overwrite_x=1)


def edge_rule(x):
    """The 2-point Gauss rule on every cell of the axis x, cell by cell.

    Returns (T, weights, points): the points x_i + g (x_{i+1} - x_i) of cell
    i, g = (1 -+ 1/sqrt 3)/2, the weights half the cell width, and T csr of
    shape (2E, n) with the hat values 1 - s and s of nodes i and i + 1 at
    each point, s = |t - x_i| / |x_{i+1} - x_i|.
    """
    g = 0.5 * (math.sqrt(1.0 / 3.0) * np.array([-1.0, 1.0]) + 1.0)
    h = np.diff(x)
    points = (x[:-1, None] + g * h[:, None]).ravel()
    cells = np.repeat(np.arange(len(h)), 2)
    s = np.abs(points - x[cells]) / np.abs(h[cells])
    T = sp.csr_matrix((np.stack([1.0 - s, s], axis=1).ravel(),
                       np.stack([cells, cells + 1], axis=1).ravel(),
                       np.arange(0, 2 * len(s) + 1, 2)), shape=(len(s), len(x)))
    return T, 0.5 * h[cells], points


def side_rule(axes, axis, end, slices):
    """The trace onto the Gauss points of the grid side at node `end` of
    `axis`: the Kronecker product of the end node with the edge_rule of the
    other axis, or the end point alone, of weight 1, on the interval.

    slices holds one slice per axis; T's columns are the nodes of their
    grid in node order, every node for full slices and the free dofs for
    free_slices.  Returns (T, weights, points (Q, dim)), T csr.
    """
    if len(axes) == 1:
        T1, weights, t = sp.csr_matrix(np.ones((1, 1))), np.ones(1), np.empty(0)
    else:
        T1, weights, t = edge_rule(axes[1 - axis])
        T1 = T1[:, slices[1 - axis]]
    # the product with the end node: columns are flat indices in the slices' grid
    grid = [range(len(x))[sl] for x, sl in zip(axes, slices)]
    index = [T1.indices] * len(axes)
    index[axis] = np.full_like(T1.indices, end - grid[axis].start)
    T = sp.csr_matrix((T1.data, np.ravel_multi_index(index, [len(r) for r in grid]),
                       T1.indptr), shape=(len(weights), math.prod(len(r) for r in grid)))
    return T, weights, np.insert(t.reshape(len(weights), -1), axis, axes[axis][end], axis=1)


def trace_form(T, d):
    """T' diag(d) T, csr, for a trace T of side_rule sides and per-point
    weights d that include the quadrature weights."""
    return (T.T @ sp.diags(d) @ T).tocsr()


# ---------------------------------------------------------------------------
# sparse products into the caller's arrays

_FLOAT = np.dtype(np.float64)


def csr_product(A, x, out):
    """A @ x for a csr matrix A, written into out and returned.

    x is a vector (n,) or a block (n, B); out has A's row count and the
    rest of x's shape, and must not overlap x.  The product is the one
    A @ x gives, bit for bit: SciPy zeroes a new result and calls the same
    compiled csr_matvec (x of shape (n,) or (n, 1)) or csr_matvecs kernel,
    so only its Python-level dispatch and the allocation are saved.  The
    kernel checks no sizes, so this does: A must be csr, x and out
    C-contiguous float64 of matching shapes, else InvalidArgumentError.
    """
    M, N = A.shape
    if (A.format != "csr" or x.dtype is not _FLOAT or out.dtype is not _FLOAT
            or not (x.flags.c_contiguous and out.flags.c_contiguous)
            or x.ndim > 2 or x.shape[0] != N or out.shape[0] != M
            or out.shape[1:] != x.shape[1:]):
        raise InvalidArgumentError(
            f"csr_product needs a csr matrix and C-contiguous float64 x and out of "
            f"matching shapes: got {A.format} {A.shape}, x {x.dtype} {x.shape}, "
            f"out {out.dtype} {out.shape}")
    out.fill(0.0)
    if x.ndim == 1 or x.shape[1] == 1:
        _sparsetools.csr_matvec(M, N, A.indptr, A.indices, A.data, x, out)
    else:
        _sparsetools.csr_matvecs(M, N, x.shape[1], A.indptr, A.indices, A.data, x, out)
    return out
