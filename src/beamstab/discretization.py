"""Galerkin semi-discretization of the coupled boundary-damped system.

Weak form on the subspace vanishing on Gamma0:

  (u'', phi) + mu(t) ((u, phi)) + mu(t) int_G1 (m.nu) p1(u') phi
            + alpha1 (sum_i dv/dx_i, phi) = 0
  (v'', psi) + ((v, psi)) + int_G1 (m.nu) p2(v') psi + int_G1 sigma u psi
            - alpha2 (sum_i du/dx_i, psi) = 0

The boundary nonlinearity is collocated at the Gamma1 quadrature points of
the velocity trace, which preserves the sign structure
(m.nu) p(s) s >= b (m.nu) s^2 exactly at quadrature level.  Those points
are the 2-point Gauss points of the Gamma1 grid sides, side after side
(_fem.side_rule).  The unknowns are the nodal values at the free nodes,
those off Gamma0: every form, the state and the trace samples live on
them alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import _fem
from .errors import InvalidArgumentError

log = logging.getLogger(__name__)


@dataclass
class SemiDiscreteSystem:
    """The semi-discrete system on the free dofs, the nodes off Gamma0 in
    ascending order (free, the grid of the partition's free_slices): the
    only coordinates of a SimState.

    The factors are the free 1D factor bands of the axes (_fem.free_factors,
    the multiplier about x0) and two Gamma1 bands, 0 but on the diagonal
    at the end of the free axis of each of the partition's gamma1_sides:
    sigma, alpha2 nu_d there, and gamma1, m.nu, which the preconditioners
    read as bands alone.  The partition decides Gamma0 and Gamma1 per grid
    side, each with one m.nu and one normal, and the 2-point rule is exact
    on P1 x P1, so T' diag(w c) T = sum_d M_1 x .. x diag(c_d) x .. x M_n
    for c constant on each side and c_d its values at the Gamma1 ends of
    axis d (the sigma and gamma1 bands).  mass, stiffness, coupling and
    multiplier are csr on the pattern of the free grid neighbours, from
    one _fem.stencil of their bands whose slots are freed once compressed;
    state_operator() makes its own stencil of the bands it reads.

    It also owns the Gamma1 boundary operator: the quadrature-point trace T,
    the _fem.side_rule of each of the partition's gamma1_sides over the free
    slices stacked in side order, so its columns are the free dofs, each
    side's points, the weights w and w (m.nu), each side's weights times
    its m.nu, the laws' slopes at 0 and the boundary integral built on
    them.  These points and weights are the only per-point Gamma1 data; the
    side constants (m.nu, normal sign) live on the partition's gamma1_sides.

    Treat as immutable after assembly; all fields are plain data safe to
    share between runs.
    """

    mesh: object
    partition: object
    alpha1: float
    alpha2: float
    schedule: object
    law1: object
    law2: object
    free: np.ndarray = field(init=False)  # Gamma0-free node indices, ascending
    factors: tuple = field(init=False, repr=False)   # free 1D factor bands per axis
    mass: sp.csr_matrix = field(init=False, repr=False)
    stiffness: sp.csr_matrix = field(init=False, repr=False)
    coupling: sp.csr_matrix = field(init=False, repr=False)    # C[k, j] = (sum_i dphi_j/dx_i, phi_k)
    multiplier: sp.csr_matrix = field(init=False, repr=False)  # X[k, j] = (phi_k, m . grad phi_j)
    trace: sp.csr_matrix = field(init=False, repr=False)       # Gamma1 quadrature-point traces
    trace_points: tuple = field(init=False, repr=False)        # (Q_side, dim) per Gamma1 side
    trace_weights: np.ndarray = field(init=False, repr=False)
    trace_wmn: np.ndarray = field(init=False, repr=False)      # w_q (m.nu)_q
    slopes0: tuple = field(init=False, repr=False)   # (p1'(0), p2'(0))

    def __post_init__(self):
        mesh, part = self.mesh, self.partition
        counts = tuple(len(x) for x in mesh.axes)
        self.free = np.arange(len(mesh.nodes)).reshape(counts)[part.free_slices].ravel()
        self.factors = tuple({**f, **g} for f, g in zip(_fem.free_factors(
            mesh.axes, part.free_slices, part.x0), _gamma1_bands(part, self.alpha2)))
        forms, cols = self._stencil("mass", "stiffness", "derivative", "multiplier")
        self.mass, self.stiffness, self.coupling, self.multiplier = _fem.stencil_csr(
            forms, cols, forms[0] != 0)  # the free grid neighbours: mass is positive
        T, w, self.trace_points = zip(*(_fem.side_rule(mesh.axes, d, end, part.free_slices)
                                        for d, end, *_ in part.gamma1_sides))
        self.trace = sp.vstack(T, format="csr")  # its columns are the free dofs
        self.trace_weights = np.concatenate(w)
        self.trace_wmn = np.concatenate([ws * m for ws, (*_, m) in zip(w, part.gamma1_sides)])
        self.slopes0 = tuple(float(law.slope(0.0)) for law in (self.law1, self.law2))

    @property
    def alpha_ratio(self):
        """alpha1/alpha2 energy weight; 0 for the fully decoupled case."""
        return self.alpha1 / self.alpha2 if self.alpha2 != 0.0 else 0.0

    def _stencil(self, *names):
        """The _fem.stencil of the named free factor bands, its forms listed."""
        forms, cols = _fem.stencil([{name: f[name] for name in names} for f in self.factors])
        return list(forms.values()), cols

    def state_operator(self):
        """S_base = [[0, a1 C], [Sg - a2 C, K]] csr, stacked (u block, v
        block), the mu-free part of the force S = S_base + mu blockdiag(K, 0).
        Its layout is the (2 nf, 2 3^d) slot rows of the free stencil's 2x2
        blocks (stacked row, then block column and slot), kept where M is
        nonzero on the diagonal blocks and where the block is nonzero off
        them, compressed by _fem.stencil_csr.  So its u-u and v-v blocks hold,
        in layout order, the entries of stiffness and mass, compressed on the
        same mask.  Its stencil of mass, stiffness, derivative and sigma is
        freed on return."""
        (M, K, C, Sg), cols = self._stencil("mass", "stiffness", "derivative", "sigma")
        nf = len(self.free)
        shape = (2 * nf, 2 * M.shape[1])

        def on_grid(parts, out):  # out as block row, node, block column, slot
            for (r, c), X in zip(np.ndindex(2, 2), parts):
                out.reshape(2, nf, 2, -1)[r, :, c] = X
            return out

        grid = on_grid((0.0, 0.0, 0.0, K), np.empty(shape))
        _, uv, vu, _ = (grid.reshape(2, nf, 2, -1)[r, :, c] for r, c in np.ndindex(2, 2))
        np.multiply(self.alpha1, C, out=uv)
        np.subtract(Sg, np.multiply(self.alpha2, C, out=vu), out=vu)
        on_M = M != 0
        keep = on_grid((on_M, uv != 0, vu != 0, on_M), np.empty(shape, dtype=bool))
        columns = on_grid((cols, cols + nf) * 2, np.empty(shape, np.int32))
        return _fem.stencil_csr([grid], columns, keep)[0]

    def boundary_integral(self, values):
        """sum_q w_q (m.nu)_q values_q over the Gamma1 quadrature points."""
        return values.T @ self.trace_wmn


def _gamma1_bands(partition, alpha2):
    """Per axis, on the free slice, the diagonal bands that are 0 but at
    each Gamma1 end of the axis: sigma, alpha2 nu_d there, and gamma1, m.nu."""
    bands = [{name: np.zeros((3, len(x))) for name in ("sigma", "gamma1")}
             for x in partition.mesh.axes]
    for d, end, sign, m_dot_nu in partition.gamma1_sides:
        bands[d]["sigma"][1, end] = alpha2 * sign
        bands[d]["gamma1"][1, end] = m_dot_nu
    return [{name: b[:, sl] for name, b in f.items()}
            for f, sl in zip(bands, partition.free_slices)]


@dataclass
class SimState:
    """State on the free dofs (SemiDiscreteSystem.free); Gamma0 holds 0.

    rhs and the diagnostics functionals also take a StateBlock and then
    return one value per column.
    """

    t: float
    u: np.ndarray
    v: np.ndarray
    du: np.ndarray
    dv: np.ndarray

    def copy(self):
        return SimState(self.t, self.u.copy(), self.v.copy(), self.du.copy(), self.dv.copy())

    def product(self, A, name):
        """A @ getattr(self, name); a StateBlock computes each one once."""
        return A @ getattr(self, name)


class StateBlock(SimState):
    """B states stacked as (nf, B) field columns with (B,) times.

    Treat as immutable: each operator product with a field is computed once
    and shared by every function evaluated on the block.  The products are
    written by _fem.csr_product into the arrays of the caller's dict
    `work`, one per operator, field and block width, allocated at their
    first use, so blocks that share the dict allocate no product array
    after the first block of a width.  A product stays valid until the
    next block of its width is evaluated with that dict.  The operators
    are csr and the fields C-contiguous.
    """

    def __init__(self, t, u, v, du, dv, work):
        super().__init__(t, u, v, du, dv)
        self._work = work
        self._computed = set()

    def product(self, A, name):
        x = getattr(self, name)
        key = (id(A), name, x.shape[1:])
        if key not in self._work:  # A kept alive: ids stay unique
            self._work[key] = (A, np.empty((A.shape[0], *x.shape[1:])))
        out = self._work[key][1]
        if key not in self._computed:
            _fem.csr_product(A, x, out)
            self._computed.add(key)
        return out


def column_dot(a, b):
    """(a, b) of two vectors, or of each column pair of two (n, B) blocks."""
    return np.einsum("i...,i...->...", a, b)


def assemble(mesh, partition, alpha1, alpha2, schedule, law1, law2):
    """Build every operator of the semi-discrete system.

    sigma is the canonical alpha2 * (sum of normal components), alpha2 sign
    on each Gamma1 side.
    """
    return SemiDiscreteSystem(mesh, partition, float(alpha1), float(alpha2),
                              schedule, law1, law2)


def interpolate(system, fld):
    """Nodal interpolation of an analytic field on the free dofs."""
    return np.asarray(fld.value(system.mesh.nodes[system.free]), dtype=float)


def compatibility_residuals(system, u0, v0, u1, v1):
    """Residuals of the initial normal-derivative relations on Gamma1.

    r_u(q) = du0/dnu + (m.nu) p1(u1),  r_v(q) = dv0/dnu + (m.nu) p2(v1) + sigma u0
    evaluated from the analytic fields at every Gamma1 quadrature point, in
    the trace's order: side after side of the partition's gamma1_sides,
    each at its points (trace_points) with nu = sign e_d, its m.nu and
    sigma = alpha2 sign.
    """
    for fld in (u0, v0):
        if fld.grad is None:
            raise InvalidArgumentError(f"field '{fld.name}' has no gradient callable")
    r_u, r_v = [], []
    for (d, _, sign, mn), pts in zip(system.partition.gamma1_sides, system.trace_points):
        du0, dv0 = (sign * np.asarray(f.grad(pts), dtype=float)[:, d] for f in (u0, v0))
        r_u.append(du0 + mn * np.asarray(system.law1(np.asarray(u1.value(pts)))))
        r_v.append(dv0 + mn * np.asarray(system.law2(np.asarray(v1.value(pts))))
                   + system.alpha2 * sign * np.asarray(u0.value(pts)))
    return np.concatenate(r_u), np.concatenate(r_v)


# logged compatibility residual, relative to the data's Gamma1 trace: a round-off
# one, as the sine's du0/dnu = cos(pi/2), is 1e-16 of it at any amplitude
COMPAT_RTOL = 1e-10


def project_initial_data(system, u0, v0, u1, v1):
    """Interpolate the four analytic fields and report compatibility residuals.

    Nodal interpolation puts the discrete data in the discrete space by
    construction; the residuals quantify how far the data are from the
    initial normal-derivative relations.  Nonzero residuals are logged,
    never raised: a weighted residual norm above COMPAT_RTOL of the
    weighted norm of the data's Gamma1 trace (the values of the four fields
    and the gradients of u0 and v0) is logged, with that relative figure.
    """
    state = SimState(
        0.0,
        interpolate(system, u0), interpolate(system, v0),
        interpolate(system, u1), interpolate(system, v1),
    )
    r_u, r_v = compatibility_residuals(system, u0, v0, u1, v1)
    w = system.trace_weights
    norm = float(np.sqrt(np.sum(w * (r_u ** 2 + r_v ** 2))))
    pts = np.concatenate(system.trace_points)
    trace_sq = (sum(np.asarray(f.value(pts), dtype=float) ** 2 for f in (u0, v0, u1, v1))
                + sum(np.sum(np.asarray(f.grad(pts), dtype=float) ** 2, axis=1)
                      for f in (u0, v0)))
    scale = float(np.sqrt(np.sum(w * trace_sq)))
    relative = norm / scale if scale else 0.0  # a zero Gamma1 trace leaves r = 0, as p(0) = 0
    if relative > COMPAT_RTOL:
        log.warning("initial data violate the compatibility relations (weighted residual "
                    "norm %.3e, %.3e of the data's Gamma1 trace); run proceeds", norm, relative)
    return state, {"residual_u": r_u, "residual_v": r_v, "norm": norm, "relative": relative}


def rhs(system, state):
    """Accelerations (d2u, d2v) of the semi-discrete system at the given
    state: M2 (d2u, d2v) = -(S x + T2' (W p(T2 x'))) with x = (u, v),
    S = S_base + mu blockdiag(K, 0) from state_operator, M2 =
    blockdiag(M, M), and the Gamma1 load formed here from the laws at the
    velocity traces, weighted by W = (mu w m.nu, w m.nu).  One sparse LU of
    M2 (splu) solves both fields, and on a StateBlock every column; mu
    then holds one value per column.  The plain statement of the Galerkin
    system: no run calls it."""
    mu = system.schedule.mu(state.t)
    T, wmn, nf = system.trace, system.trace_wmn, len(system.free)
    load = -(system.state_operator() @ np.concatenate([state.u, state.v]))
    load[:nf] -= mu * state.product(system.stiffness, "u")
    load[:nf] -= mu * (T.T @ (wmn * np.asarray(system.law1(state.product(T, "du"))).T).T)
    load[nf:] -= T.T @ (wmn * np.asarray(system.law2(state.product(T, "dv"))).T).T
    accel = splu(sp.block_diag((system.mass, system.mass), format="csc")).solve(load)
    return accel[:nf], accel[nf:]
