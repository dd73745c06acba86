"""Low-level finite element assembly shared by geometry and discretization.

Continuous piecewise-linear basis on intervals, bilinear on axis-aligned
rectangles.  All quadrature rules below are exact for every bilinear form
assembled here (integrands are polynomial of Gauss-exact degree).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def gauss_rule(npts):
    """Gauss-Legendre points/weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


def element_geometry(mesh):
    """Per-element corner coordinates, shape (E, nloc, dim)."""
    return mesh.nodes[mesh.elements]


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
    corners = element_geometry(mesh)
    lo = corners.min(axis=1)
    hi = corners.max(axis=1)
    size = hi - lo  # (E, dim)
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


def _accumulate(rows, cols, vals, conn, local):
    """Append a stack of local matrices (E, nloc, nloc) to COO lists."""
    nloc = conn.shape[1]
    r = np.repeat(conn, nloc, axis=1)  # (E, nloc*nloc) row-major rows
    c = np.tile(conn, (1, nloc))
    rows.append(r.ravel())
    cols.append(c.ravel())
    vals.append(local.reshape(len(conn), -1).ravel())


def domain_matrices(mesh, x0=None):
    """Assemble the domain bilinear forms.

    Returns a dict with csr matrices over all nodes:
      mass       (phi_i, phi_j)
      stiffness  ((phi_i, phi_j)) = sum_k (d phi_i/dx_k, d phi_j/dx_k)
      coupling   C[k, j] = (sum_i d phi_j/dx_i, phi_k)
      multiplier X[k, j] = (phi_k, m . grad phi_j), only when x0 is given
    """
    n = len(mesh.nodes)
    pts, w, phi, grad = element_quadrature(mesh, npts=2)
    conn = mesh.elements
    out = {}

    # mass: sum_q w_q phi_a phi_b
    mloc = np.einsum("eq,qa,qb->eab", w, phi, phi)
    # stiffness: sum_q w_q grad_a . grad_b
    kloc = np.einsum("eq,eqad,eqbd->eab", w, grad, grad)
    # coupling: rows k (test), cols j (trial): sum_q w_q (sum_d grad_jd) phi_k
    gsum = grad.sum(axis=3)  # (E, q, nloc)
    cloc = np.einsum("eq,eqj,qk->ekj", w, gsum, phi)

    for name, loc in (("mass", mloc), ("stiffness", kloc), ("coupling", cloc)):
        rows, cols, vals = [], [], []
        _accumulate(rows, cols, vals, conn, loc)
        out[name] = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
        )

    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        m = pts - x0[None, None, :]  # (E, q, dim)
        mgrad = np.einsum("eqd,eqjd->eqj", m, grad)
        xloc = np.einsum("eq,eqj,qk->ekj", w, mgrad, phi)
        rows, cols, vals = [], [], []
        _accumulate(rows, cols, vals, conn, xloc)
        out["multiplier"] = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
        )
    return out


def boundary_mass(mesh, faces, density=None):
    """Boundary mass matrix over the given faces.

    density: optional per-face callable-free constant array multiplying the
    integrand (one value per face).
    """
    n = len(mesh.nodes)
    rows, cols, vals = [], [], []
    for k, face in enumerate(faces):
        scale = 1.0 if density is None else density[k]
        ids = np.asarray(face.nodes)
        if mesh.dimension == 1:
            loc = np.array([[1.0]]) * scale
        else:
            h = face.measure
            loc = scale * (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
        nloc = len(ids)
        rows.append(np.repeat(ids, nloc))
        cols.append(np.tile(ids, nloc))
        vals.append(loc.ravel())
    if not rows:
        return sp.csr_matrix((n, n))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )


def trace_structure(mesh, faces):
    """Trace map onto the quadrature points of the given faces.

    Returns (T, weights, points) where T is csr of shape (Q, n_nodes) with
    T[q, j] = phi_j(x_q) and the weights carry the surface measure.
    """
    n = len(mesh.nodes)
    rows, cols, vals = [], [], []
    weights, points = [], []
    q = 0
    for face in faces:
        ids = np.asarray(face.nodes)
        for p, wq in zip(face.quad_points, face.quad_weights):
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
            q += 1
    T = sp.csr_matrix((vals, (rows, cols)), shape=(q, n))
    return T, np.asarray(weights), np.asarray(points)
