"""Implicit midpoint time integration with a damped Newton corrector.

The step unknowns are the midpoint velocities w = (w_u, w_v) on the free
dofs; positions and end velocities are affine in them, so the conservative
core is the classical midpoint rule and the monotone boundary terms enter
through the velocity traces only.

One solver path serves every law.  Apart from the laws the residual is
affine in w, so one cache per (dt, mu) holds everything else: the free-dof
state operator S = [[mu K, a1 C], [Sg - a2 C, K]], the Jacobian without
the Gamma1 term J_lin = (2/dt) blockdiag(M, M) + (dt/2) S, the weights
W = (mu w m.nu, w m.nu) of the stacked Gamma1 trace T2 = blockdiag(T, T),
and the LU of the reference Jacobian J_lin + T2' diag(W p'(0)) T2,
factored with a minimum-degree ordering on A' + A (the FE stencil is
structurally symmetric).  For constant mu that is once per run.  Each step
computes c = S (x + (dt/2) w0) once, with x the start positions and
w0 = (u', v') the first iterate, and each residual is then three sparse
products:

  r(w) = J_lin (w - w0) + c + T2' (W p(T2 w)).

Taking J_lin on the increment w - w0 keeps the large (2/dt) M terms from
cancelling in floating point.  The true Jacobian differs from the
reference only by a boundary term on the Gamma1 trace, so wherever the
trace slopes differ from p'(0), GMRES on the LU-preconditioned operator
turns the LU solve into the exact Newton direction.  For linear laws the
slopes never differ and each Newton iteration is one back-substitution.
"""

from __future__ import annotations

import hashlib
import logging

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .discretization import SimState
from .errors import InvalidArgumentError, StepFailureError

log = logging.getLogger(__name__)

CHECKPOINT_HEADER = "# beamstab checkpoint v1"

# GMRES for the Newton direction: basis size, restart cycles, relative tolerance
GMRES_RESTART = 30
GMRES_CYCLES = 4
GMRES_RTOL = 1e-12


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
    """Everything of a step that depends on (dt, mu_mid) only."""

    dt: float
    mu: float
    lu: object               # splu of the reference Jacobian
    J_lin: sp.csr_matrix     # Jacobian without the Gamma1 term
    S: sp.csr_matrix         # [[mu K, a1 C], [Sg - a2 C, K]] on the free dofs
    W: np.ndarray            # (mu w m.nu, w m.nu) per stacked Gamma1 point


class _MidpointSolver:
    """Per-run workspace: restricted operators, the per-(dt, mu) cache and
    the solver counters.

    The stacked trace T2 and its weights come from the system's boundary
    operator on the free dofs.  The counters add up over every solve:
    LU factorizations and solves, residual evaluations, Newton and GMRES
    iterations, line-search halvings, and the largest final residual of a
    step.
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
        self.slopes0 = np.concatenate(system.slopes0)
        self._ops = None
        self.factorizations = self.lu_solves = self.residuals = 0
        self.newton = self.gmres = self.halvings = 0
        self.worst_residual = 0.0

    def stacked_form(self, d):
        """T2' diag(d) T2 for per-point weights d on the stacked Gamma1 points."""
        return (self.T2t @ sp.diags(d) @ self.T2).tocsr()

    def operators(self, dt, mu_mid):
        """The _StepOperators of (dt, mu_mid), cached for the last key."""
        if self._ops is None or (self._ops.dt, self._ops.mu) != (dt, mu_mid):
            sys_ = self.system
            a1, a2 = sys_.alpha1, sys_.alpha2
            S = sp.bmat([[mu_mid * self.K, a1 * self.C],
                         [self.Sg - a2 * self.C, self.K]], format="csr")
            m = (2.0 / dt) * self.M
            J_lin = (sp.block_diag((m, m)) + (dt / 2.0) * S).tocsr()
            W = np.concatenate([mu_mid * sys_.trace_wmn, sys_.trace_wmn])
            J_ref = (J_lin + self.stacked_form(W * self.slopes0)).tocsc()
            self._ops = None  # release the old LU before factoring the new one
            lu = splu(J_ref, permc_spec="MMD_AT_PLUS_A")
            self.factorizations += 1
            self._ops = _StepOperators(dt, mu_mid, lu, J_lin, S, W)
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
        return ops.J_lin @ (w - w0) + c + self.T2t @ (ops.W * p), s

    def _newton_direction(self, ops, s, r):
        """Solve J(w) delta = r at the iterate with Gamma1 traces s; returns
        (delta, GMRES iterations).

        J(w) = J_ref + T2' diag(d) T2, with d = W (p'(s) - p'(0)).
        Where d vanishes the reference-LU solve is exact; elsewhere GMRES on
        I + J_ref^-1 [boundary term] starts from that solve."""
        sys_, q = self.system, self.q
        slopes = np.concatenate([np.asarray(sys_.law1.slope(s[:q]), dtype=float),
                                 np.asarray(sys_.law2.slope(s[q:]), dtype=float)])
        d = ops.W * (slopes - self.slopes0)
        delta = self._lu_solve(ops, r)
        if not d.any():
            return delta, 0
        D = self.stacked_form(d)

        def matvec(x):
            return x + self._lu_solve(ops, D @ x)

        residuals = []  # one entry per GMRES iteration
        op = LinearOperator((len(r), len(r)), matvec=matvec, dtype=float)
        delta, info = gmres(op, delta, x0=delta, rtol=GMRES_RTOL, restart=GMRES_RESTART,
                            maxiter=GMRES_CYCLES, callback=residuals.append,
                            callback_type="pr_norm")
        if info != 0:
            log.warning("GMRES stopped short of rtol %g after %d iterations (info %d)",
                        GMRES_RTOL, len(residuals), info)
        return delta, len(residuals)

    def start(self, state, dt):
        """(ops, c, w0) of the step from state: the cached operators, the
        residual's constant part c = S (x + (dt/2) w0) and the first
        iterate w0 = (u', v')."""
        sys_ = self.system
        ops = self.operators(dt, float(sys_.schedule.mu(state.t + dt / 2.0)))
        f = sys_.free
        w0 = np.concatenate([state.du[f], state.dv[f]])
        x = np.concatenate([state.u[f], state.v[f]])
        return ops, ops.S @ (x + (dt / 2.0) * w0), w0

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
             "newton %d, gmres %d, halvings %d, worst residual %.3e",
             n_steps, solver.factorizations, solver.lu_solves, solver.residuals,
             solver.newton, solver.gmres, solver.halvings, solver.worst_residual)
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
