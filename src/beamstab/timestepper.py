"""Implicit midpoint time integration with a damped Newton corrector.

The step unknowns are the midpoint velocities w = (w_u, w_v) on the free
dofs; positions and end velocities are affine in them, so the conservative
core is the classical midpoint rule and the monotone boundary terms enter
through the velocity traces only.

One solver path serves every law and every mu schedule, and a run builds
it once, for its one step size dt.  Apart from the laws the residual is
affine in w.  For a step's mu_mid the solver holds the free-dof state
operator S = [[mu_mid K, a1 C], [Sg - a2 C, K]] and the Jacobian without
the Gamma1 term J_lin = (2/dt) blockdiag(M, M) + (dt/2) S.  Both live on
one csr layout of the 2x2 blocks of the free stencil, built once from the
1D factors of the grid and holding the entries that are nonzero for some
mu: S = S_base + mu_mid S_mu and J_lin = J_base + mu_mid J_mu with
J_base = (2/dt) blockdiag(M, M) + (dt/2) S_base and J_mu = (dt/2) S_mu,
four data vectors on that layout, so a new mu_mid costs one update of
each of the two.
W = (mu_mid w m.nu, w m.nu) weighs the stacked Gamma1 trace
T2 = blockdiag(T, T).  Each step computes c = S (x + (dt/2) w0) once, with
x the start positions and w0 = (u', v') the first iterate, and each
residual is

  r(w) = J_lin (w - w0) + c + T2' (W p(T2 w)).

Taking J_lin on the increment w - w0 keeps the large (2/dt) M terms from
cancelling in floating point, and the first residual of a step, at w0
itself, is c + T2' (W p(T2 w0)) with no J_lin product.

The Newton direction solves J(w) delta = r by restarted GMRES (Saad &
Schultz 1986), right-preconditioned by a structured solve P of the
reference Jacobian J_ref = J_lin + T2' diag(W p'(0)) T2.  GMRES applies
J - P as sparse products, starts from delta0 = P^-1 r (so its start
residual is -(J - P) delta0) and keeps the preconditioned basis
Z = P^-1 V, so the direction delta0 + Z y needs no final solve: a
direction with k iterations costs k + 1 solves.  Givens rotations keep
its small least-squares problem triangular, so each iteration reads the
residual norm off the rotated right-hand side and a cycle ends with one
back-substitution.

- Rectangle: each field's diagonal block of J_ref is the Kronecker sum
  A_1 x M_2 + M_1 x A_2 with A_d = (1/dt) M_d + mu B_d,
  B_d = (dt/2) K_d + p'(0) diag(g_d) (the axis Gamma1 weights of the
  system) and mu = 1 on the v block.  P is that block diagonal, inverted
  by fast diagonalization (Lynch, Rice & Thomas 1964) from the dense 1D
  eigenpairs of (B_d, M_d), one set per distinct slope p'(0): mu_mid only
  changes the divisor
  2/dt + mu (lam_1i + lam_2j), and a solve is four matrix products,
  batched over the two fields.  J - P is the u-v coupling, the sigma
  term and the Gamma1 slope differences T2' diag(W p'(T2 w) - W p'(0)) T2;
  its mu-free part, the off-diagonal blocks, is cut from the layout.
- Interval: P = J_ref, a banded LU (LAPACK dgbtrf) of the unknowns
  interleaved as (u_i, v_i), bandwidth 3, refactored for each mu_mid as
  ab_0 + mu_mid ab_1, the band storage of J_base and J_mu with their
  Gamma1 terms.  For linear laws J = P and each Newton iteration is
  one solve.
"""

from __future__ import annotations

import hashlib
import logging
import math

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.linalg.lapack import dtrtrs

from . import _fem
from .discretization import SimState
from .errors import InvalidArgumentError, StepFailureError

log = logging.getLogger(__name__)

CHECKPOINT_HEADER = "# beamstab checkpoint v1"

# GMRES for the Newton direction: basis size, restart cycles, relative tolerance
GMRES_RESTART = 30
GMRES_CYCLES = 4
GMRES_RTOL = 1e-12

# damped Newton: max-norm residual tolerance, relative to max(1, first residual),
# and iteration cap per step
NEWTON_TOL = 1e-12
NEWTON_MAX = 50

# lower and upper bandwidth of the interleaved (u_i, v_i) interval Jacobian
BANDS = 3


@dataclass
class StepControl:
    dt: float

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise InvalidArgumentError(f"dt must be finite and positive, got {self.dt!r}")


class _FastDiagonalization:
    """P^-1 on the rectangle: the fields' diagonal blocks of J_ref, each the
    Kronecker sum A_1 x M_2 + M_1 x A_2 with A_d = (1/dt) M_d + mu B_d.

    V[d] stacks both fields' eigenvectors of axis d against M_d, the dense
    eigh of (B_d, M_d), (2, n_d, n_d), and lam[f] holds the sums
    lam_1i + lam_2j of field f as an (n_1, n_2) array.  A field enters B_d
    only through its slope p'(0), so fields of one slope share their pairs.
    """

    def __init__(self, system, dt):
        self.dt = dt
        pairs = {}
        for p0 in system.slopes0:
            if p0 not in pairs:
                pairs[p0] = [eigh(((dt / 2.0) * f["stiffness"] + p0 * sp.diags(g)).toarray(),
                                  f["mass"].toarray())
                             for f, g in zip(system.factors, system.axis_gamma1)]
        self.lam = [np.add.outer(*[lam for lam, _ in pairs[p0]]) for p0 in system.slopes0]
        self.V = [np.stack([pairs[p0][d][1] for p0 in system.slopes0])
                  for d in range(len(system.factors))]

    def at(self, mu):
        """The solve b -> P^-1 b for mu on the u block: per field
        V_1 ((V_1' B V_2) / div) V_2', both fields in one batched matmul."""
        div = np.stack([2.0 / self.dt + m * lam for m, lam in zip((mu, 1.0), self.lam)])
        V1, V2 = self.V
        V1t, V2t = (V.transpose(0, 2, 1) for V in self.V)

        def solve(b):
            y = V1t @ b.reshape(div.shape) @ V2
            return (V1 @ (y / div) @ V2t).ravel()

        return solve


class _BandedLU:
    """P^-1 = J_ref^-1 on the interval: J_ref(mu) = J_0 + mu J_1 with the
    unknowns interleaved as (u_i, v_i), in band storage ab_0 and ab_1."""

    def __init__(self, J0, J1):
        n = J0.shape[0] // 2
        perm = np.arange(2 * n).reshape(2, n).T.ravel()  # (u_0, v_0, u_1, v_1, ...)
        self.ab = [_fem.band_storage(J[perm][:, perm], BANDS, BANDS) for J in (J0, J1)]

    def at(self, mu):
        """The solve b -> J_ref(mu)^-1 b."""
        factors = _fem.band_lu(self.ab[0] + mu * self.ab[1], BANDS, BANDS)

        def solve(b):
            x = _fem.band_solve(factors, BANDS, BANDS, b.reshape(2, -1).T.ravel())
            return x.reshape(-1, 2).T.ravel()

        return solve


def _free_stencil(system):
    """The free-dof forms M, K, C and Sg on the free stencil, and the free
    column of each of its slots, each (3^d, nf).

    Slot s of free node k is its neighbour k + offset_s, the offsets in
    column order, and holds 0 where that neighbour is not a free node.
    M, K and C are the Kronecker sums of the free 1D factors, formed from
    their tridiagonal bands with the products and sums of _fem.kron_sum, so
    they equal the restricted domain forms entry for entry.  Sg, a boundary
    form on part of the stencil, goes to the slots of its free entries.
    """
    def band(F):  # F[i, i - 1], F[i, i] and F[i, i + 1] of each row i, 0 off the matrix
        B = np.zeros((3, F.shape[0]))
        B[0, 1:], B[1], B[2, :-1] = F.diagonal(-1), F.diagonal(), F.diagonal(1)
        return B

    def outer(X, Y):  # the slots of X by those of Y
        return (X[:, None, :, None] * Y[None, :, None, :]).reshape(len(X) * len(Y), -1)

    bands = [{name: band(F) for name, F in f.items()} for f in system.factors]

    def kron_sum(name):  # the terms of _fem.kron_sum, added in axis order
        terms = [reduce(outer, [b[name] if k == d else b["mass"] for k, b in enumerate(bands)])
                 for d in range(len(bands))]
        for term in terms[1:]:
            terms[0] += term
        return terms[0]

    M = reduce(outer, [b["mass"] for b in bands])
    K, C = kron_sum("stiffness"), kron_sum("derivative")

    free = system.free
    offsets = np.arange(-1, 2)
    for b in bands[1:]:
        offsets = (offsets[:, None] * b["mass"].shape[1] + np.arange(-1, 2)).ravel()
    Sg = np.zeros_like(M)
    G = system.sigma_op.tocoo()
    on = np.isin(G.row, free) & np.isin(G.col, free)
    row, col = np.searchsorted(free, G.row[on]), np.searchsorted(free, G.col[on])
    Sg[np.searchsorted(offsets, col - row), row] = G.data[on]
    cols = offsets.astype(np.int32)[:, None] + np.arange(len(free), dtype=np.int32)
    return (M, K, C, Sg), cols


class _StepOperators(NamedTuple):
    """The operators of a step's mu_mid."""

    mu: float                # mu_mid of the step
    J_lin: sp.csr_matrix     # Jacobian without the Gamma1 term
    S: sp.csr_matrix         # [[mu_mid K, a1 C], [Sg - a2 C, K]] on the free dofs
    W: np.ndarray            # (mu_mid w m.nu, w m.nu) per stacked Gamma1 point
    d_ref: np.ndarray        # W p'(0): the Gamma1 weights of J_ref
    solve: object            # b -> P^-1 b


class _MidpointSolver:
    """Per-run workspace for the step size dt: the block layout and its
    operator data, the preconditioner and the solver counters.

    The layout is one csr pattern (indices, indptr) of the 2x2 blocks of
    the free stencil, holding the entries that are nonzero in S or J_lin
    for some mu.  S_data and J_data are the (base, mu part) data vectors
    on it, so S(mu) = S_base + mu S_mu and J_lin(mu) = J_base + mu J_mu
    share one pattern.  rest is J_ref - P, mu-free: the rect's off-diagonal
    blocks of J_lin, or None on the interval, where P = J_ref.  The stacked
    trace T2 and its weights come from the system's boundary operator on the
    free dofs.  The counters add up over every solve: preconditioner
    solves, residual evaluations, Newton and GMRES iterations, line-search
    halvings, and the largest final residual of a step.
    """

    def __init__(self, system, dt):
        self.system = system
        self.dt = dt
        T = system.trace_free
        self.T2 = sp.block_diag((T, T), format="csr")
        self.T2t = self.T2.T
        self.q = T.shape[0]  # Gamma1 points per field
        self.nf = nf = len(system.free)
        self.p0 = np.repeat(system.slopes0, self.q)

        (M, K, C, Sg), cols = _free_stencil(system)
        a1, a2, half = system.alpha1, system.alpha2, dt / 2.0
        S_uv, S_vu = a1 * C, Sg - a2 * C
        m, hK = (2.0 / dt) * M, half * K
        # S_base, S_mu, J_base and J_mu by block uu, uv, vu, vv; None is a zero
        # block, and J_base = (2/dt) blockdiag(M, M) + (dt/2) S_base leaves out
        # its terms on zero blocks, which change no nonzero entry
        S_base, S_mu = (None, S_uv, S_vu, K), (K, None, None, None)
        J_base, J_mu = (m, half * S_uv, half * S_vu, m + hK), (hK, None, None, None)

        # the layout's slots in csr order: stacked row, block column, stencil slot
        grid = np.empty((2, nf, 2, len(cols)))

        def on_grid(blocks, out=grid):
            for (r, c), X in zip(np.ndindex(2, 2), blocks):
                out[r, :, c] = 0.0 if X is None else X.T
            return out

        keep = on_grid([np.logical_or.reduce([X != 0 for X in parts if X is not None])
                        for parts in zip(S_base, S_mu, J_base, J_mu)],
                       np.empty(grid.shape, dtype=bool))
        columns = np.empty(grid.shape, dtype=cols.dtype)
        columns[...] = cols.T[:, None]
        columns[:, :, 1] += nf
        rows = np.arange(2 * nf + 1) * (2 * len(cols))  # the first slot of each row

        def pattern(at):  # csr indices and indptr of the slots at
            return columns.take(at), np.searchsorted(at, rows).astype(columns.dtype)

        at = np.flatnonzero(keep)
        self.indices, self.indptr = pattern(at)
        self.S_data = tuple(on_grid(X).take(at) for X in (S_base, S_mu))
        J_part = on_grid(J_mu).take(at)
        self.J_data = (on_grid(J_base).take(at), J_part)  # J_base stays on the grid for rest
        if system.mesh.dimension == 1:
            self.rest = None
            W0 = self._weights(0.0)
            W_mu = self._weights(1.0) - W0
            self.precond = _BandedLU(*(self._on_layout(data) + _fem.trace_form(self.T2, W * self.p0)
                                       for data, W in zip(self.J_data, (W0, W_mu))))
        else:
            keep[0, :, 0] = keep[1, :, 1] = False  # the off-diagonal blocks of J_base
            at = np.flatnonzero(keep)
            self.rest = sp.csr_matrix((grid.take(at), *pattern(at)), shape=(2 * nf, 2 * nf))
            self.precond = _FastDiagonalization(system, dt)

        self._ops = None
        self.solves = self.residuals = 0
        self.newton = self.gmres = self.halvings = 0
        self.worst_residual = 0.0

    def _on_layout(self, data):
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(2 * self.nf,) * 2)

    def _weights(self, mu):
        return np.concatenate([mu * self.system.trace_wmn, self.system.trace_wmn])

    def operators(self, mu_mid):
        """The _StepOperators of mu_mid, cached for the last mu_mid."""
        if self._ops is None or self._ops.mu != mu_mid:
            W = self._weights(mu_mid)
            (J_base, J_mu), (S_base, S_mu) = self.J_data, self.S_data
            self._ops = _StepOperators(mu_mid, self._on_layout(J_base + mu_mid * J_mu),
                                       self._on_layout(S_base + mu_mid * S_mu), W,
                                       W * self.p0, self.precond.at(mu_mid))
        return self._ops

    def _solve(self, ops, b):
        self.solves += 1
        return ops.solve(b)

    def residual(self, ops, c, w0, w):
        """Midpoint residual at the stacked iterate w, stacked (u block,
        v block), and the Gamma1 trace values T2 w it used; (c, w0) come
        from start().  At w = w0 itself the J_lin term vanishes and is not
        formed."""
        self.residuals += 1
        sys_, q = self.system, self.q
        s = self.T2 @ w
        p = np.concatenate([sys_.law1(s[:q]), sys_.law2(s[q:])])
        load = self.T2t @ (ops.W * p)
        if w is w0:
            return c + load, s
        return ops.J_lin @ (w - w0) + c + load, s

    def _newton_direction(self, ops, s, r):
        """Solve J(w) delta = r at the iterate with Gamma1 traces s; returns
        (delta, GMRES iterations).

        J(w) = P + D with D = rest + T2' diag(d) T2 and
        d = W p'(s) - W p'(0).  Where D vanishes the solve is exact;
        elsewhere restarted GMRES, right-preconditioned by P, corrects it
        until ||r - J delta|| <= GMRES_RTOL ||r||."""
        sys_, q = self.system, self.q
        slopes = np.concatenate([np.asarray(sys_.law1.slope(s[:q]), dtype=float),
                                 np.asarray(sys_.law2.slope(s[q:]), dtype=float)])
        d = ops.W * slopes - ops.d_ref
        delta = self._solve(ops, r)
        boundary = d.any()
        if self.rest is None and not boundary:
            return delta, 0

        def apply_d(x):  # (J - P) x
            y = self.rest @ x if self.rest is not None else np.zeros_like(x)
            if boundary:
                y += self.T2t @ (d * (self.T2 @ x))
            return y

        res = -apply_d(delta)  # r - J delta, as P delta = r
        beta, target = np.linalg.norm(res), GMRES_RTOL * np.linalg.norm(r)
        its = 0
        for _ in range(GMRES_CYCLES):
            if beta <= target:
                break
            step, res, k = self._gmres_cycle(ops, apply_d, res, beta, target)
            delta += step
            its += k
            beta = np.linalg.norm(res)
        if beta > target:
            log.warning("GMRES stopped short of rtol %g after %d iterations in %d cycles: "
                        "Newton-system residual ||r - J delta|| / ||r|| = %.3e",
                        GMRES_RTOL, its, GMRES_CYCLES, beta / np.linalg.norm(r))
        return delta, its

    def _gmres_cycle(self, ops, apply_d, res, beta, target):
        """One GMRES cycle from the residual res = r - J delta, beta = ||res||;
        returns (step, new residual, iterations), the step Z y to add to delta.

        The least-squares problem min ||beta e_1 - H y|| is kept triangular
        by Givens rotations (Saad & Schultz 1986), so |g_{j+1}| is the
        residual norm after iteration j; the new residual is V Q' (g_k e_k)."""
        V, Z = [res / beta], []  # Arnoldi basis and its preconditioned images
        H = np.zeros((GMRES_RESTART + 1, GMRES_RESTART))
        cs, sn = np.zeros(GMRES_RESTART), np.zeros(GMRES_RESTART)
        g = np.zeros(GMRES_RESTART + 1)
        g[0] = beta
        for j in range(GMRES_RESTART):
            Z.append(self._solve(ops, V[j]))
            v = V[j] + apply_d(Z[j])  # J Z[j]
            for i in range(j + 1):  # modified Gram-Schmidt
                H[i, j] = V[i] @ v
                v -= H[i, j] * V[i]
            h = np.linalg.norm(v)
            V.append(v / h if h > 0.0 else v)
            for i in range(j):  # the earlier rotations, on the new column
                H[i, j], H[i + 1, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                        cs[i] * H[i + 1, j] - sn[i] * H[i, j])
            rho = math.hypot(H[j, j], h)
            cs[j], sn[j] = H[j, j] / rho, h / rho
            H[j, j] = rho
            g[j + 1] = -sn[j] * g[j]
            g[j] *= cs[j]
            if abs(g[j + 1]) <= target or h == 0.0:
                break
        k = j + 1
        y = dtrtrs(H[:k, :k], g[:k])[0]  # back-substitution
        coef = np.zeros(k + 1)
        coef[k] = g[k]
        for i in reversed(range(k)):  # Q' (g_k e_k): the rotations undone, last first
            coef[i] = -sn[i] * coef[i + 1]  # coef[i] is still 0 here
            coef[i + 1] *= cs[i]
        return y @ np.array(Z), coef @ np.array(V), k

    def start(self, state):
        """(ops, c, w0) of the step from state: the operators, the
        residual's constant part c = S (x + (dt/2) w0) and the first
        iterate w0 = (u', v')."""
        sys_, dt = self.system, self.dt
        ops = self.operators(float(sys_.schedule.mu(state.t + dt / 2.0)))
        f = sys_.free
        w0 = np.concatenate([state.du[f], state.dv[f]])
        y = np.concatenate([state.u[f], state.v[f]]) + (dt / 2.0) * w0
        return ops, ops.S @ y, w0

    def solve(self, state):
        ops, c, w0 = self.start(state)
        w = w0
        newton = krylov = halvings = 0

        r, s = self.residual(ops, c, w0, w)
        rnorm = float(np.max(np.abs(r)))
        tol = NEWTON_TOL * max(1.0, rnorm)
        for _ in range(NEWTON_MAX):
            if rnorm <= tol:
                break
            newton += 1
            delta, its = self._newton_direction(ops, s, r)
            krylov += its
            lam = 1.0
            for _ in range(30):
                cw = w - lam * delta
                rc, sc = self.residual(ops, c, w0, cw)
                cnorm = float(np.max(np.abs(rc)))
                if cnorm < rnorm or cnorm <= tol:
                    w, r, s, rnorm = cw, rc, sc, cnorm
                    break
                lam *= 0.5
                halvings += 1
            else:
                break  # no damping factor reduced the residual
        log.debug("step t=%.6g: newton %d, gmres %d, halvings %d, residual %.3e",
                  state.t, newton, krylov, halvings, rnorm)
        self.newton += newton
        self.gmres += krylov
        self.halvings += halvings
        self.worst_residual = max(self.worst_residual, rnorm)
        if rnorm > tol:
            raise StepFailureError(state.t, rnorm)
        nf = len(w) // 2
        return w[:nf], w[nf:]


def _advance(system, solver, state):
    wu, wv = solver.solve(state)
    dt = solver.dt
    f = system.free
    new = state.copy()
    new.t = state.t + dt
    new.u[f] += dt * wu
    new.v[f] += dt * wv
    new.du[f] = 2.0 * wu - state.du[f]
    new.dv[f] = 2.0 * wv - state.dv[f]
    return new


def integrate(system, state0, T, control, observers=()):
    """March from state0.t to T in uniform steps, notifying observers.

    Observers are called on the initial state and after every accepted
    step.  The number of steps is round((T - t0)/dt); T - t0 must be an
    (approximate) multiple of dt.
    """
    if not math.isfinite(T):
        raise InvalidArgumentError(f"final time must be finite, got {T!r}")
    if T < state0.t:
        raise InvalidArgumentError("final time precedes initial time")
    span = T - state0.t
    n_steps = int(round(span / control.dt))
    if abs(n_steps * control.dt - span) > 1e-9 * max(1.0, abs(span)):
        raise InvalidArgumentError("T - t0 must be a multiple of dt")

    solver = _MidpointSolver(system, control.dt)
    state = state0.copy()
    for obs in observers:
        obs(system, state)
    for _ in range(n_steps):
        state = _advance(system, solver, state)
        for obs in observers:
            obs(system, state)
    log.info("integrate: %d steps, %d solves, %d residuals, "
             "newton %d, gmres %d, halvings %d, worst residual %.3e",
             n_steps, solver.solves, solver.residuals,
             solver.newton, solver.gmres, solver.halvings, solver.worst_residual)
    return state


# ---------------------------------------------------------------------------
# checkpoint persistence

def _fmt_vector(v):
    return " ".join(["%.17g"] * len(v)) % tuple(v.tolist())


def save_checkpoint(path, state, config_hash=""):
    with open(path, "w") as fh:
        fh.write(CHECKPOINT_HEADER + "\n")
        fh.write(f"config {config_hash}\n")
        fh.write(f"t {state.t:.17g}\n")
        fh.write(f"nodes {len(state.u)}\n")
        for name in ("u", "v", "du", "dv"):
            fh.write(f"{name} {_fmt_vector(getattr(state, name))}\n")


def load_checkpoint(path):
    """Returns (SimState, config_hash)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise InvalidArgumentError(f"not a checkpoint file: {path}")
    kv = {}
    for line in lines[1:]:
        name, _, rest = line.partition(" ")
        kv[name] = rest
    try:
        t = float(kv["t"])
        n = int(kv["nodes"])
        vecs = {name: np.array(kv[name].split(), dtype=float)
                for name in ("u", "v", "du", "dv")}
    except KeyError as exc:
        raise InvalidArgumentError(f"checkpoint missing field {exc}") from exc
    for name, v in vecs.items():
        if len(v) != n:
            raise InvalidArgumentError(f"checkpoint field {name} has wrong length")
    return SimState(t, vecs["u"], vecs["v"], vecs["du"], vecs["dv"]), kv.get("config", "")


def config_hash(text):
    """Stable hash of a config file body, recorded in traces and checkpoints."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]
