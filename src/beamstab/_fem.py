"""Low-level finite element operators shared by geometry and discretization.

Every mesh is a uniform tensor grid: an interval, or a rectangle whose
nodes are numbered i*(ny+1)+j.  The basis is continuous piecewise-linear
(P1) on each axis and its tensor product (bilinear) on the rectangle, so
each domain form is a Kronecker sum of 1D P1 factors with the x factor
first: the fast-diagonalization setting of Lynch, Rice & Thomas, Numer.
Math. 6 (1964).  The interval is the one-factor case of the same code.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded

from .errors import InvalidArgumentError

# relative spread of the cell widths below which an axis counts as uniform
UNIFORM_RTOL = 1e-12


def gauss_rule(npts):
    """Gauss-Legendre points/weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


def reference_basis(dim, pts):
    """Basis values and reference gradients at reference points.

    pts: (q, dim) in the unit interval/square.  Returns (phi, dphi) with
    phi (q, nloc) and dphi (q, nloc, dim).
    """
    if dim == 1:
        xi = pts[:, 0]
        phi = np.stack([1.0 - xi, xi], axis=1)
        dphi = np.tile(np.array([[-1.0], [1.0]]), (len(xi), 1, 1))
        return phi, dphi
    xi, et = pts[:, 0], pts[:, 1]
    # corner order: (0,0), (1,0), (1,1), (0,1)
    phi = np.stack([(1 - xi) * (1 - et), xi * (1 - et), xi * et, (1 - xi) * et], axis=1)
    dphi = np.empty((len(xi), 4, 2))
    dphi[:, 0, 0] = -(1 - et)
    dphi[:, 0, 1] = -(1 - xi)
    dphi[:, 1, 0] = 1 - et
    dphi[:, 1, 1] = -xi
    dphi[:, 2, 0] = et
    dphi[:, 2, 1] = xi
    dphi[:, 3, 0] = -et
    dphi[:, 3, 1] = 1 - xi
    return phi, dphi


def element_quadrature(mesh, npts=2):
    """Tensor Gauss rule on every element.

    Returns (points, weights, phi, grad) with points (E, q, dim),
    weights (E, q), phi (q, nloc), grad (E, q, nloc, dim).  Elements are
    axis-aligned, so the map to the reference cell is affine.
    """
    g, gw = gauss_rule(npts)
    dim = mesh.dimension
    corners = mesh.nodes[mesh.elements]
    lo = corners.min(axis=1)
    size = corners.max(axis=1) - lo  # (E, dim)
    if dim == 1:
        ref = g[:, None]
        wref = gw
    else:
        xi, et = np.meshgrid(g, g, indexing="ij")
        ref = np.stack([xi.ravel(), et.ravel()], axis=1)
        wref = np.outer(gw, gw).ravel()
    phi, dphi = reference_basis(dim, ref)
    pts = lo[:, None, :] + ref[None, :, :] * size[:, None, :]
    jac = np.prod(size, axis=1)  # (E,)
    weights = jac[:, None] * wref[None, :]
    grad = dphi[None, :, :, :] / size[:, None, None, :]
    return pts, weights, phi, grad


# ---------------------------------------------------------------------------
# tensor grids and their 1D factors

def grid_elements(counts):
    """Cells of the tensor grid with counts[d] nodes on axis d.

    Interval: node pairs (i, i+1).  Rectangle: corners (i,j), (i+1,j),
    (i+1,j+1), (i,j+1) of node ids i*(ny+1)+j, cells ordered by i, then j.
    """
    if len(counts) == 1:
        e = np.arange(counts[0] - 1)
        return np.stack([e, e + 1], axis=1)
    ny1 = counts[1]
    i, j = np.meshgrid(np.arange(counts[0] - 1), np.arange(ny1 - 1), indexing="ij")
    base = (i * ny1 + j).ravel()
    return np.stack([base, base + ny1, base + ny1 + 1, base + 1], axis=1)


def grid_axes(nodes, elements):
    """Per-axis node coordinates of a uniform tensor-grid mesh.

    The nodes must be the grid in i*(ny+1)+j numbering and the elements
    its grid_elements; raises InvalidArgumentError for any other mesh.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] not in (1, 2):
        raise InvalidArgumentError("mesh nodes must be an (N, 1) or (N, 2) array")
    if nodes.shape[1] == 1:
        axes = (nodes[:, 0].copy(),)
    else:
        moved = np.flatnonzero(nodes[:, 0] != nodes[0, 0])
        inner = moved[0] if len(moved) else len(nodes)
        axes = (nodes[::inner, 0].copy(), nodes[:inner, 1].copy())
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    if grid.shape != nodes.shape or not np.array_equal(grid, nodes):
        raise InvalidArgumentError("mesh nodes are not a tensor grid numbered i*(ny+1)+j")
    for x in axes:
        h = np.diff(x)
        if len(h) < 1 or np.any(h <= 0) or np.ptp(h) > UNIFORM_RTOL * h.mean():
            raise InvalidArgumentError("mesh nodes are not uniformly spaced, "
                                       "increasing coordinates on every axis")
    counts = tuple(len(x) for x in axes)
    elements = np.asarray(elements)
    expected = grid_elements(counts)
    if elements.shape != expected.shape or not np.array_equal(elements, expected):
        raise InvalidArgumentError("mesh elements are not the cells of its node grid")
    return axes


def _tridiagonal(local):
    """Assemble per-cell 2x2 matrices (E, 2, 2) of a 1D chain into csr."""
    e = np.arange(len(local))
    rows = np.stack([e, e, e + 1, e + 1], axis=1).ravel()
    cols = np.stack([e, e + 1, e, e + 1], axis=1).ravel()
    n = len(local) + 1
    return sp.csr_matrix((local.reshape(-1), (rows, cols)), shape=(n, n))


def axis_factors(x, x0=None):
    """1D P1 forms on the nodes x, as csr matrices over all nodes:

      mass        (phi_k, phi_j)
      stiffness   (phi_k', phi_j')
      derivative  D[k, j] = (phi_j', phi_k)
      multiplier  X[k, j] = (phi_k, (x - x0) phi_j'), only when x0 is given
    """
    h = np.diff(x)[:, None, None]
    out = {
        "mass": _tridiagonal(h * np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0),
        "stiffness": _tridiagonal(np.array([[1.0, -1.0], [-1.0, 1.0]]) / h),
        "derivative": _tridiagonal(np.broadcast_to([[-0.5, 0.5], [-0.5, 0.5]],
                                                   (len(h), 2, 2))),
    }
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


def free_factors(axes, slices):
    """axis_factors of every axis restricted to its free slice."""
    return [{name: f[sl, sl].tocsr() for name, f in axis_factors(x).items()}
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


def along_axes(x, counts, ops):
    """(op_1 x ... x op_d) x for x of shape (prod(counts),) or (prod(counts), B).

    op_d maps an (counts[d], m) array to one of the same shape: the action
    of the axis-d factor on every fibre along that axis.
    """
    y = x.reshape(*counts, -1)
    for d, op in enumerate(ops):
        y = np.moveaxis(y, d, 0)
        shape = y.shape
        y = np.moveaxis(op(y.reshape(shape[0], -1)).reshape(shape), 0, d)
    return y.reshape(x.shape)


def banded_cholesky(m):
    """Upper banded Cholesky factor of a symmetric tridiagonal csr matrix."""
    ab = np.zeros((2, m.shape[0]))
    ab[0, 1:] = m.diagonal(1)
    ab[1] = m.diagonal()
    return cholesky_banded(ab)


def kron_solve(chols, b):
    """Solve (A_1 x ... x A_d) a = b from the banded Cholesky factors of the
    A_d: one banded solve per axis for all columns of b at once."""
    return along_axes(b, [c.shape[1] for c in chols], [
        lambda z, c=c: cho_solve_banded((c, False), z, check_finite=False) for c in chols])


def boundary_mass(mesh, faces, density=None):
    """Boundary mass matrix over the given faces.

    density: optional per-face constant multiplying the integrand (one
    value per face).
    """
    n = len(mesh.nodes)
    if not faces:
        return sp.csr_matrix((n, n))
    ids = np.array([f.nodes for f in faces])  # (F, nloc)
    scale = np.ones(len(faces)) if density is None else np.asarray(density, dtype=float)
    if mesh.dimension == 1:
        local = scale[:, None, None] * np.ones((1, 1, 1))
    else:
        h = np.array([f.measure for f in faces])
        local = (scale * h / 6.0)[:, None, None] * np.array([[2.0, 1.0], [1.0, 2.0]])
    nloc = ids.shape[1]
    rows = np.repeat(ids, nloc, axis=1)
    cols = np.tile(ids, (1, nloc))
    return sp.csr_matrix((local.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))


def trace_structure(mesh, faces):
    """Trace map onto the quadrature points of the given faces.

    Returns (T, weights, points) where T is csr of shape (Q, n_nodes) with
    T[q, j] = phi_j(x_q) and the weights carry the surface measure.  On an
    edge (a, b) the point x_q has the hat values 1 - s and s at a and b,
    s = |x_q - a| / |b - a|.
    """
    n = len(mesh.nodes)
    points = np.concatenate([f.quad_points for f in faces])
    weights = np.concatenate([f.quad_weights for f in faces])
    ids = np.array([f.nodes for f in faces])[
        np.repeat(np.arange(len(faces)), [len(f.quad_weights) for f in faces])]  # (Q, nloc)
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
