"""Implicit midpoint time integration with a damped Newton corrector.

The step unknowns are the midpoint velocities (w_u, w_v) on the free dofs;
positions and end velocities are affine in them, so the conservative core
is the classical midpoint rule and the monotone boundary terms enter
through the velocity traces only.

One solver path serves every law.  The Jacobian with each law's slope
frozen at p'(0) is factored once per (dt, mu): once per run for constant
mu.  The true Jacobian differs from it only by a boundary term on the
Gamma1 trace, so wherever the trace slopes differ from p'(0), GMRES on the
LU-preconditioned operator turns the LU solve into the exact Newton
direction.  For linear laws the slopes never differ and each Newton
iteration is one back-substitution.
"""

from __future__ import annotations

import hashlib
import logging

from dataclasses import dataclass

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


class _MidpointSolver:
    """Per-run workspace: restricted operators and the reference Jacobian LU.

    Every Gamma1 term comes from the system's boundary operator on the free
    dofs; B1 and B2 are its forms with each law's slope at 0.
    """

    def __init__(self, system):
        self.system = system
        f = system.free
        ix = np.ix_(f, f)
        self.M = system.mass[ix].tocsr()
        self.K = system.stiffness[ix].tocsr()
        self.C = system.coupling[ix].tocsr()
        self.Sg = system.sigma_op[ix].tocsr()
        self.B1, self.B2 = (system.boundary_form(system.trace_wmn * slopes, free=True)
                            for slopes in system.slopes0)
        self._ref_key = None
        self._ref_lu = None

    def _reference(self, dt, mu_mid):
        """LU of the Jacobian with each law's slope frozen at 0, cached per
        (dt, mu_mid)."""
        key = (dt, mu_mid)
        if self._ref_key != key:
            a1, a2 = self.system.alpha1, self.system.alpha2
            Juu = (2.0 / dt) * self.M + (dt / 2.0) * mu_mid * self.K + mu_mid * self.B1
            Juv = (dt / 2.0) * a1 * self.C
            Jvu = (dt / 2.0) * (self.Sg - a2 * self.C)
            Jvv = (2.0 / dt) * self.M + (dt / 2.0) * self.K + self.B2
            self._ref_lu = splu(sp.bmat([[Juu, Juv], [Jvu, Jvv]], format="csc"))
            self._ref_key = key
        return self._ref_lu

    def residual(self, dt, mu_mid, state, wu, wv):
        """Midpoint residual on the free dofs, stacked (u block, v block)."""
        sys_ = self.system
        a1, a2 = sys_.alpha1, sys_.alpha2
        f = sys_.free
        u_mid = state.u[f] + (dt / 2.0) * wu
        v_mid = state.v[f] + (dt / 2.0) * wv
        su = sys_.trace_free @ wu
        sv = sys_.trace_free @ wv
        ru = ((2.0 / dt) * (self.M @ (wu - state.du[f]))
              + mu_mid * (self.K @ u_mid) + a1 * (self.C @ v_mid)
              + mu_mid * sys_.boundary_load(sys_.law1, su, free=True))
        rv = ((2.0 / dt) * (self.M @ (wv - state.dv[f]))
              + self.K @ v_mid - a2 * (self.C @ u_mid) + self.Sg @ u_mid
              + sys_.boundary_load(sys_.law2, sv, free=True))
        return np.concatenate([ru, rv])

    def _newton_direction(self, dt, mu_mid, wu, wv, r):
        """Solve J(w) delta = r; returns (delta, GMRES iterations).

        J(w) = J0 + blockdiag(T' diag(d1) T, T' diag(d2) T), with d the
        trace weights times the slope change from the slopes at 0.
        Where d vanishes the reference-LU solve is exact; elsewhere GMRES on
        I + J0^-1 [boundary term] starts from that solve."""
        lu = self._reference(dt, mu_mid)
        sys_ = self.system
        T, (ref1, ref2) = sys_.trace_free, sys_.slopes0
        d1 = mu_mid * sys_.trace_wmn * (np.asarray(sys_.law1.slope(T @ wu), dtype=float) - ref1)
        d2 = sys_.trace_wmn * (np.asarray(sys_.law2.slope(T @ wv), dtype=float) - ref2)
        delta = lu.solve(r)
        if not (d1.any() or d2.any()):
            return delta, 0
        nf = len(wu)
        D1, D2 = sys_.boundary_form(d1, free=True), sys_.boundary_form(d2, free=True)

        def matvec(x):
            return x + lu.solve(np.concatenate([D1 @ x[:nf], D2 @ x[nf:]]))

        residuals = []  # one entry per GMRES iteration
        op = LinearOperator((2 * nf, 2 * nf), matvec=matvec, dtype=float)
        delta, info = gmres(op, delta, x0=delta, rtol=GMRES_RTOL, restart=GMRES_RESTART,
                            maxiter=GMRES_CYCLES, callback=residuals.append,
                            callback_type="pr_norm")
        if info != 0:
            log.warning("GMRES stopped short of rtol %g after %d iterations (info %d)",
                        GMRES_RTOL, len(residuals), info)
        return delta, len(residuals)

    def solve(self, state, control):
        sys_ = self.system
        dt = control.dt
        t_mid = state.t + dt / 2.0
        mu_mid = float(sys_.schedule.mu(t_mid))
        f = sys_.free
        nf = len(f)
        wu = state.du[f].copy()
        wv = state.dv[f].copy()
        newton = krylov = halvings = 0

        r = self.residual(dt, mu_mid, state, wu, wv)
        scale = max(1.0, float(np.max(np.abs(r))))
        tol = control.newton_tol * scale
        rnorm = float(np.max(np.abs(r)))
        for _ in range(control.newton_max):
            if rnorm <= tol:
                break
            newton += 1
            delta, its = self._newton_direction(dt, mu_mid, wu, wv, r)
            krylov += its
            lam = 1.0
            for _ in range(30):
                cu = wu - lam * delta[:nf]
                cv = wv - lam * delta[nf:]
                rc = self.residual(dt, mu_mid, state, cu, cv)
                cnorm = float(np.max(np.abs(rc)))
                if cnorm < rnorm or cnorm <= tol:
                    wu, wv, r, rnorm = cu, cv, rc, cnorm
                    break
                lam *= 0.5
                halvings += 1
            else:
                break  # no damping factor reduced the residual
        log.debug("step t=%.6g: newton %d, gmres %d, halvings %d, residual %.3e",
                  state.t, newton, krylov, halvings, rnorm)
        if rnorm > tol:
            raise StepFailureError(state.t, rnorm)
        return wu, wv


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
