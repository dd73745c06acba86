"""Galerkin semi-discretization of the coupled boundary-damped system.

Weak form on the subspace vanishing on Gamma0:

  (u'', phi) + mu(t) ((u, phi)) + mu(t) int_G1 (m.nu) p1(u') phi
            + alpha1 (sum_i dv/dx_i, phi) = 0
  (v'', psi) + ((v, psi)) + int_G1 (m.nu) p2(v') psi + int_G1 sigma u psi
            - alpha2 (sum_i du/dx_i, psi) = 0

The boundary nonlinearity is collocated at the Gamma1 quadrature points of
the velocity trace, which preserves the sign structure
(m.nu) p(s) s >= b (m.nu) s^2 exactly at quadrature level.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import _fem
from .errors import InvalidArgumentError

log = logging.getLogger(__name__)


@dataclass
class SemiDiscreteSystem:
    """Assembled operators over all nodes plus the free-dof bookkeeping.

    It also owns the Gamma1 boundary operator: the quadrature-point trace T
    over all nodes and restricted to the free dofs, the transpose, the
    weights w (m.nu), the laws' slopes at 0, and the forcing load, the
    sigma form T' diag(w sigma) T (_fem.trace_form) and the boundary
    integral built on them.
    The time stepper stacks the free-dof trace into its own residual.
    The geometric Gamma1 data (m.nu, sum nu, normals) live on the partition.

    The free 1D factor bands of each axis (_fem.free_factors) and the axis
    Gamma1 weights g_d (m.nu at each Gamma1 end of the free axis, 0
    elsewhere) give every free-dof form as a Kronecker sum: each side of a
    tensor grid is one face of constant m.nu, wholly in Gamma0 or in
    Gamma1, and the 2-point rule is exact on P1 x P1, so
    T' diag(w m.nu c) T = sum_d M_1 x .. x c diag(g_d) x .. x M_n for a
    constant c.

    Treat as immutable after assembly; all fields are plain data safe to
    share between runs.
    """

    mesh: object
    partition: object
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    coupling: sp.csr_matrix      # C[k, j] = (sum_i d phi_j / dx_i, phi_k)
    multiplier: sp.csr_matrix    # X[k, j] = (phi_k, m . grad phi_j)
    trace: sp.csr_matrix         # Gamma1 quadrature-point traces
    trace_weights: np.ndarray
    trace_points: np.ndarray
    sigma_values: np.ndarray     # per Gamma1 quadrature point
    alpha1: float
    alpha2: float
    schedule: object
    law1: object
    law2: object
    fixed: np.ndarray
    free: np.ndarray = field(init=False)  # unconstrained node indices, ascending
    trace_t: sp.csc_matrix = field(init=False, repr=False)       # trace.T
    trace_free: sp.csr_matrix = field(init=False, repr=False)    # trace[:, free]
    trace_wmn: np.ndarray = field(init=False, repr=False)        # w_q (m.nu)_q
    slopes0: tuple = field(init=False, repr=False)   # (p1'(0), p2'(0))
    sigma_op: sp.csr_matrix = field(init=False, repr=False)      # T' diag(w sigma) T
    factors: tuple = field(init=False, repr=False)   # free 1D factor bands per axis
    axis_gamma1: tuple = field(init=False, repr=False)  # g_d per axis
    mass_ldl: tuple = field(init=False, repr=False)  # free 1D mass factors, tridiagonal L D L'

    def __post_init__(self):
        slices = _fem.free_slices(self.mesh.axes, self.fixed)
        counts = tuple(len(x) for x in self.mesh.axes)
        self.free = np.arange(self.n_nodes).reshape(counts)[slices].ravel()
        self.factors = tuple(_fem.free_factors(self.mesh.axes, slices))
        self.axis_gamma1 = _axis_gamma1(self.partition, slices)
        self.mass_ldl = tuple(_fem.tridiagonal_ldl(f["mass"]) for f in self.factors)
        self.trace_t = self.trace.T
        self.trace_free = self.trace[:, self.free].tocsr()
        self.trace_wmn = self.trace_weights * self.partition.gamma1_m_dot_nu
        self.slopes0 = tuple(float(law.slope(0.0)) for law in (self.law1, self.law2))
        self.sigma_op = _fem.trace_form(self.trace, self.trace_weights * self.sigma_values)

    @property
    def n_nodes(self):
        return len(self.mesh.nodes)

    @property
    def alpha_ratio(self):
        """alpha1/alpha2 energy weight; 0 for the fully decoupled case."""
        return self.alpha1 / self.alpha2 if self.alpha2 != 0.0 else 0.0

    def solve_mass(self, load_full):
        """Solve mass * a = load on the free dofs, scatter to full length.

        The free mass matrix is the Kronecker product of the free 1D mass
        factors, so a load of shape (n,) or (n, B) takes one tridiagonal
        L D L' solve per axis.
        """
        a = np.zeros(load_full.shape)
        a[self.free] = _fem.kron_solve(self.mass_ldl, load_full[self.free])
        return a

    def boundary_load(self, law, s):
        """T' diag(w m.nu) p(s): a load over all nodes for Gamma1 trace values s."""
        return self.trace_t @ (self.trace_wmn * np.asarray(law(s)).T).T

    def boundary_integral(self, values):
        """sum_q w_q (m.nu)_q values_q over the Gamma1 quadrature points."""
        return values.T @ self.trace_wmn


def _axis_gamma1(partition, slices):
    """Per axis d, m.nu at each Gamma1 end of the free slice and 0 elsewhere."""
    g = [np.zeros(len(x)) for x in partition.mesh.axes]
    for d, end, _, m_dot_nu in partition.gamma1_sides():
        g[d][end] = m_dot_nu
    return tuple(gd[sl] for gd, sl in zip(g, slices))


@dataclass
class SimState:
    """Nodal state (full-length vectors; Gamma0 entries are pinned to 0).

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
    """B states stacked as (n, B) field columns with (B,) times.

    Treat as immutable: each operator product with a field is computed once
    and shared by every function evaluated on the block.
    """

    def __init__(self, t, u, v, du, dv):
        super().__init__(t, u, v, du, dv)
        self._products = {}

    def product(self, A, name):
        key = (id(A), name)
        if key not in self._products:
            self._products[key] = (A, A @ getattr(self, name))  # A kept alive: ids stay unique
        return self._products[key][1]


def column_dot(a, b):
    """(a, b) of two vectors, or of each column pair of two (n, B) blocks."""
    return np.einsum("i...,i...->...", a, b)


def assemble(mesh, partition, alpha1, alpha2, schedule, law1, law2):
    """Build every operator of the semi-discrete system.

    sigma is the canonical alpha2 * (sum of normal components) at every
    Gamma1 quadrature point.
    """
    mats = _fem.domain_matrices(mesh, x0=partition.x0)
    g1 = partition.gamma1_faces
    if not g1:
        raise InvalidArgumentError("partition has no feedback boundary")
    T, w, pts = _fem.trace_structure(mesh, g1)

    return SemiDiscreteSystem(
        mesh=mesh, partition=partition,
        mass=mats["mass"], stiffness=mats["stiffness"], coupling=mats["coupling"],
        multiplier=mats["multiplier"],
        trace=T, trace_weights=w, trace_points=pts, sigma_values=partition.sigma(alpha2),
        alpha1=float(alpha1), alpha2=float(alpha2),
        schedule=schedule, law1=law1, law2=law2,
        fixed=partition.gamma0_nodes(),
    )


def interpolate(system, fld):
    """Nodal interpolation of an analytic field, zeroed on Gamma0."""
    vals = np.asarray(fld.value(system.mesh.nodes), dtype=float)
    out = vals.copy()
    out[system.fixed] = 0.0
    return out


def compatibility_residuals(system, u0, v0, u1, v1):
    """Residuals of the initial normal-derivative relations on Gamma1.

    r_u(q) = du0/dnu + (m.nu) p1(u1),  r_v(q) = dv0/dnu + (m.nu) p2(v1) + sigma u0
    evaluated at every Gamma1 quadrature point from the analytic fields.
    """
    pts = system.trace_points
    normals = system.partition.gamma1_normals
    mn = system.partition.gamma1_m_dot_nu

    def normal_derivative(fld):
        if fld.grad is None:
            raise InvalidArgumentError(f"field '{fld.name}' has no gradient callable")
        return np.einsum("qd,qd->q", np.asarray(fld.grad(pts), dtype=float), normals)

    r_u = normal_derivative(u0) + mn * np.asarray(system.law1(np.asarray(u1.value(pts))))
    r_v = (normal_derivative(v0) + mn * np.asarray(system.law2(np.asarray(v1.value(pts))))
           + system.sigma_values * np.asarray(u0.value(pts)))
    return r_u, r_v


def project_initial_data(system, u0, v0, u1, v1):
    """Interpolate the four analytic fields and report compatibility residuals.

    Nodal interpolation puts the discrete data in the discrete space by
    construction; the residuals quantify how far the data are from the
    initial normal-derivative relations.  Nonzero residuals are logged,
    never raised.
    """
    state = SimState(
        0.0,
        interpolate(system, u0), interpolate(system, v0),
        interpolate(system, u1), interpolate(system, v1),
    )
    r_u, r_v = compatibility_residuals(system, u0, v0, u1, v1)
    norm = float(np.sqrt(np.sum(system.trace_weights * (r_u ** 2 + r_v ** 2))))
    if norm > 1e-10:
        log.warning("initial data violate the compatibility relations "
                    "(weighted residual norm %.3e); run proceeds", norm)
    return state, {"residual_u": r_u, "residual_v": r_v, "norm": norm}


def loads(system, state):
    """Loads (load_u, load_v) over all nodes at the given state: the free
    entries are M (u'', v'') of the semi-discrete system."""
    mu = system.schedule.mu(state.t)
    a1, a2 = system.alpha1, system.alpha2
    K, C, T = system.stiffness, system.coupling, system.trace
    load_u = -(mu * state.product(K, "u")
               + a1 * state.product(C, "v")
               + mu * system.boundary_load(system.law1, state.product(T, "du")))
    load_v = -(state.product(K, "v")
               - a2 * state.product(C, "u")
               + system.boundary_load(system.law2, state.product(T, "dv"))
               + state.product(system.sigma_op, "u"))
    return load_u, load_v


def rhs(system, state):
    """Accelerations (d2u, d2v) of the semi-discrete system at the given state."""
    return tuple(system.solve_mass(load) for load in loads(system, state))
