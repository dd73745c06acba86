"""Implicit midpoint time integration with a damped Newton corrector.

The step unknowns are the midpoint velocities w = (w_u, w_v) on the free
dofs; positions and end velocities are affine in them, so the conservative
core is the classical midpoint rule and the monotone boundary terms enter
through the velocity traces only.

One solver path serves every law.  Apart from the laws the residual is
affine in w.  The solver keeps the operators of the last factored key
(dt, mu_ref): the free-dof state operator S = [[mu_ref K, a1 C],
[Sg - a2 C, K]], the Jacobian without the Gamma1 term
J_lin = (2/dt) blockdiag(M, M) + (dt/2) S, and the LU of the reference
Jacobian J_ref = J_lin + T2' diag(W_ref p'(0)) T2, where
W = (mu w m.nu, w m.nu) weighs the stacked Gamma1 trace T2 = blockdiag(T, T).
The LU is factored with a minimum-degree ordering on A' + A (the FE
stencil is structurally symmetric).  A step's mu_mid enters as the scalar
shift = mu_mid - mu_ref on the u block and through its own W, so a new mu
rebuilds no matrix.  Each step computes c = S(mu_mid) (x + (dt/2) w0) once,
with x the start positions and w0 = (u', v') the first iterate, and each
residual is

  r(w) = J_lin (w - w0) + shift (dt/2) K (w_u - w0_u) + c + T2' (W p(T2 w)).

Taking J_lin on the increment w - w0 keeps the large (2/dt) M terms from
cancelling in floating point.

The true Jacobian differs from J_ref by

  J(w) - J_ref = shift (dt/2) blockdiag(K, 0) + T2' diag(W p'(T2 w) - W_ref p'(0)) T2,

which no matrix holds: restarted GMRES (Saad & Schultz 1986), right-
preconditioned by the LU, applies it as sparse products.  GMRES starts
from delta0 = J_ref^-1 r, so its start residual is -(J - J_ref) delta0,
and it keeps the preconditioned basis Z = J_ref^-1 V, so the direction
delta0 + Z y needs no final solve: a direction with k iterations costs
k + 1 LU solves.  For linear laws at constant mu the difference vanishes
and each Newton iteration is one back-substitution.  The LU is a lagged
preconditioner (Knoll & Keyes 2004): it is refactored at the next step's
key only when a direction on a stale LU (shift != 0) needs more than
REFACTOR_GMRES iterations, or when dt changes.
"""

from __future__ import annotations

import hashlib
import logging

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .discretization import SimState
from .errors import InvalidArgumentError, StepFailureError

log = logging.getLogger(__name__)

CHECKPOINT_HEADER = "# beamstab checkpoint v1"

# GMRES for the Newton direction: basis size, restart cycles, relative tolerance
GMRES_RESTART = 30
GMRES_CYCLES = 4
GMRES_RTOL = 1e-12
# a direction on a stale LU that needs more GMRES iterations than this
# refactors the LU at the next step's (dt, mu_mid)
REFACTOR_GMRES = 3


@dataclass
class StepControl:
    dt: float
    newton_tol: float = 1e-12
    newton_max: int = 50

    def __post_init__(self):
        if self.dt <= 0:
            raise InvalidArgumentError("dt must be positive")
        if self.newton_tol <= 0:
            raise InvalidArgumentError("newton_tol must be positive")
        if self.newton_max < 1:
            raise InvalidArgumentError("newton_max must be >= 1")


class _StepOperators(NamedTuple):
    """The operators of a step (dt, mu_mid).

    lu, J_lin, S and d_ref belong to the last factored key (dt, mu_ref);
    the step's mu_mid enters through shift and W only.
    """

    dt: float
    mu: float                # mu_mid of the step
    shift: float             # mu_mid - mu_ref
    lu: object               # splu of the reference Jacobian
    J_lin: sp.csr_matrix     # Jacobian without the Gamma1 term, at mu_ref
    S: sp.csr_matrix         # [[mu_ref K, a1 C], [Sg - a2 C, K]] on the free dofs
    W: np.ndarray            # (mu_mid w m.nu, w m.nu) per stacked Gamma1 point
    d_ref: np.ndarray        # W_ref p'(0): the Gamma1 weights inside the LU


class _MidpointSolver:
    """Per-run workspace: restricted operators, the lagged LU and the solver
    counters.

    The stacked trace T2 and its weights come from the system's boundary
    operator on the free dofs.  The counters add up over every solve:
    LU factorizations and solves, step keys served by a stale LU (lagged),
    residual evaluations, Newton and GMRES iterations, line-search
    halvings, and the largest final residual of a step.
    """

    def __init__(self, system):
        self.system = system
        f = system.free
        ix = np.ix_(f, f)
        self.M = system.mass[ix].tocsr()
        self.K = system.stiffness[ix].tocsr()
        self.C = system.coupling[ix].tocsr()
        self.Sg = system.sigma_op[ix].tocsr()
        T = system.trace_free
        self.T2 = sp.block_diag((T, T), format="csr")
        self.T2t = self.T2.T
        self.q = T.shape[0]  # Gamma1 points per field
        self.nf = len(f)
        self.slopes0 = np.concatenate(system.slopes0)
        self._ref = self._ops = None
        self._refactor = False
        self.factorizations = self.lu_solves = self.residuals = self.lagged = 0
        self.newton = self.gmres = self.halvings = 0
        self.worst_residual = 0.0

    def stacked_form(self, d):
        """T2' diag(d) T2 for per-point weights d on the stacked Gamma1 points."""
        return (self.T2t @ sp.diags(d) @ self.T2).tocsr()

    def _weights(self, mu):
        return np.concatenate([mu * self.system.trace_wmn, self.system.trace_wmn])

    def _factor(self, dt, mu):
        """The _StepOperators of (dt, mu) with a fresh LU."""
        sys_ = self.system
        a1, a2 = sys_.alpha1, sys_.alpha2
        S = sp.bmat([[mu * self.K, a1 * self.C],
                     [self.Sg - a2 * self.C, self.K]], format="csr")
        m = (2.0 / dt) * self.M
        J_lin = (sp.block_diag((m, m)) + (dt / 2.0) * S).tocsr()
        W = self._weights(mu)
        d_ref = W * self.slopes0
        J_ref = (J_lin + self.stacked_form(d_ref)).tocsc()
        self._ref = self._ops = None  # release the old LU before factoring the new one
        lu = splu(J_ref, permc_spec="MMD_AT_PLUS_A")
        self.factorizations += 1
        self._refactor = False
        return _StepOperators(dt, mu, 0.0, lu, J_lin, S, W, d_ref)

    def operators(self, dt, mu_mid):
        """The _StepOperators of (dt, mu_mid), cached for the last key.

        The LU is refactored when dt changes or a direction asked for it;
        otherwise mu_mid reuses the last LU as a lagged preconditioner."""
        if self._ref is None or self._ref.dt != dt or self._refactor:
            self._ref = self._ops = self._factor(dt, mu_mid)
        elif self._ops.mu != mu_mid:
            ref = self._ref
            if ref.mu == mu_mid:
                self._ops = ref
            else:
                self._ops = ref._replace(mu=mu_mid, shift=mu_mid - ref.mu,
                                         W=self._weights(mu_mid))
                self.lagged += 1
        return self._ops

    def _lu_solve(self, ops, b):
        self.lu_solves += 1
        return ops.lu.solve(b)

    def residual(self, ops, c, w0, w):
        """Midpoint residual at the stacked iterate w, stacked (u block,
        v block), and the Gamma1 trace values T2 w it used; (c, w0) come
        from start()."""
        self.residuals += 1
        sys_, q = self.system, self.q
        s = self.T2 @ w
        p = np.concatenate([sys_.law1(s[:q]), sys_.law2(s[q:])])
        z = w - w0
        r = ops.J_lin @ z + c + self.T2t @ (ops.W * p)
        if ops.shift:
            r[:self.nf] += (ops.shift * ops.dt / 2.0) * (self.K @ z[:self.nf])
        return r, s

    def _newton_direction(self, ops, s, r):
        """Solve J(w) delta = r at the iterate with Gamma1 traces s; returns
        (delta, GMRES iterations).

        J(w) = J_ref + D with D = shift (dt/2) blockdiag(K, 0) + T2' diag(d) T2
        and d = W p'(s) - W_ref p'(0).  Where D vanishes the LU solve is
        exact; elsewhere restarted GMRES, right-preconditioned by the LU,
        corrects it until ||r - J delta|| <= GMRES_RTOL ||r||."""
        sys_, q, nf = self.system, self.q, self.nf
        slopes = np.concatenate([np.asarray(sys_.law1.slope(s[:q]), dtype=float),
                                 np.asarray(sys_.law2.slope(s[q:]), dtype=float)])
        d = ops.W * slopes - ops.d_ref
        delta = self._lu_solve(ops, r)
        if not (ops.shift or d.any()):
            return delta, 0
        kshift = ops.shift * ops.dt / 2.0

        def apply_d(x):  # (J - J_ref) x
            y = self.T2t @ (d * (self.T2 @ x))
            if kshift:
                y[:nf] += kshift * (self.K @ x[:nf])
            return y

        res = -apply_d(delta)  # r - J delta, as J_ref delta = r
        beta, target = np.linalg.norm(res), GMRES_RTOL * np.linalg.norm(r)
        its = 0
        for _ in range(GMRES_CYCLES):
            if beta <= target:
                break
            V, Z = [res / beta], []  # Arnoldi basis and its preconditioned images
            H = np.zeros((GMRES_RESTART + 1, GMRES_RESTART))
            g = np.zeros(GMRES_RESTART + 1)
            g[0] = beta
            for j in range(GMRES_RESTART):
                its += 1
                Z.append(self._lu_solve(ops, V[j]))
                v = V[j] + apply_d(Z[j])  # J Z[j]
                for i in range(j + 1):  # modified Gram-Schmidt
                    H[i, j] = V[i] @ v
                    v -= H[i, j] * V[i]
                H[j + 1, j] = np.linalg.norm(v)
                V.append(v / H[j + 1, j] if H[j + 1, j] > 0.0 else v)
                Hj, gj = H[:j + 2, :j + 1], g[:j + 2]
                y = np.linalg.lstsq(Hj, gj, rcond=None)[0]
                coef = gj - Hj @ y  # r - J delta = V coef after the update
                if np.linalg.norm(coef) <= target or H[j + 1, j] == 0.0:
                    break
            delta += y @ np.array(Z)
            res = coef @ np.array(V)
            beta = np.linalg.norm(res)
        if beta > target:
            log.warning("GMRES stopped short of rtol %g after %d iterations in %d cycles: "
                        "Newton-system residual ||r - J delta|| / ||r|| = %.3e",
                        GMRES_RTOL, its, GMRES_CYCLES, beta / np.linalg.norm(r))
        return delta, its

    def start(self, state, dt):
        """(ops, c, w0) of the step from state: the operators, the
        residual's constant part c = S(mu_mid) (x + (dt/2) w0) and the first
        iterate w0 = (u', v')."""
        sys_ = self.system
        ops = self.operators(dt, float(sys_.schedule.mu(state.t + dt / 2.0)))
        f = sys_.free
        w0 = np.concatenate([state.du[f], state.dv[f]])
        y = np.concatenate([state.u[f], state.v[f]]) + (dt / 2.0) * w0
        c = ops.S @ y
        if ops.shift:
            c[:self.nf] += ops.shift * (self.K @ y[:self.nf])
        return ops, c, w0

    def solve(self, state, control):
        ops, c, w0 = self.start(state, control.dt)
        w = w0
        newton = krylov = halvings = 0

        r, s = self.residual(ops, c, w0, w)
        rnorm = float(np.max(np.abs(r)))
        tol = control.newton_tol * max(1.0, rnorm)
        for _ in range(control.newton_max):
            if rnorm <= tol:
                break
            newton += 1
            delta, its = self._newton_direction(ops, s, r)
            krylov += its
            if ops.shift and its > REFACTOR_GMRES:
                self._refactor = True
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


def _advance(system, solver, state, control):
    wu, wv = solver.solve(state, control)
    dt = control.dt
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
    if T < state0.t:
        raise InvalidArgumentError("final time precedes initial time")
    span = T - state0.t
    n_steps = int(round(span / control.dt))
    if abs(n_steps * control.dt - span) > 1e-9 * max(1.0, abs(span)):
        raise InvalidArgumentError("T - t0 must be a multiple of dt")

    solver = _MidpointSolver(system)
    state = state0.copy()
    for obs in observers:
        obs(system, state)
    for _ in range(n_steps):
        state = _advance(system, solver, state, control)
        for obs in observers:
            obs(system, state)
    log.info("integrate: %d steps, %d LU factorizations, %d LU solves, %d residuals, "
             "newton %d, gmres %d, halvings %d, worst residual %.3e, %d lagged keys",
             n_steps, solver.factorizations, solver.lu_solves, solver.residuals,
             solver.newton, solver.gmres, solver.halvings, solver.worst_residual,
             solver.lagged)
    return state


# ---------------------------------------------------------------------------
# checkpoint persistence

def _fmt_vector(v):
    return " ".join(f"{x:.17g}" for x in v)


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
