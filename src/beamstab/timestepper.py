"""Implicit midpoint time integration with a damped Newton corrector.

The step unknowns are the midpoint velocities w = (w_u, w_v) on the free
dofs; positions and end velocities are affine in them, so the conservative
core is the classical midpoint rule and the monotone boundary terms enter
through the velocity traces only.

One solver path serves every law and every mu schedule, and a run builds
it once, for its one step size dt.  Apart from the laws the residual is
affine in w.  For a step's mu_mid the solver holds the free-dof state
operator S = [[mu_mid K, a1 C], [Sg - a2 C, K]] and the Jacobian without
the Gamma1 term J_lin = (2/dt) M2 + (dt/2) S, M2 = blockdiag(M, M).  Both
live on the one csr layout of the mu-free part S_base of S that the
system's state_operator() returns, which the solver reads once, as one
data vector each; the layout's u-u and v-v blocks hold the entries of the
system's K and M in order.  mu_mid enters only the u-u block, where S_base
is 0: off it S and J_lin hold S_base and J_base = (2/dt) M2 + (dt/2) S_base
for every mu_mid, and on it S = mu_mid K and J_lin = ((dt/2) K) mu_mid +
(2/dt) M.  So the solver keeps the block's layout positions, K and
(2/dt) M there, and a new mu_mid rewrites the block's entries of the two
vectors in place.
W = (mu_mid w m.nu, w m.nu) weighs the stacked Gamma1 trace
T2 = blockdiag(T, T).  Each step computes c = S (x + (dt/2) w0) once, with
x the start positions and w0 = (u', v') the first iterate, and each
residual is

  r(w) = J_lin (w - w0) + c + T2' (W p(T2 w)).

Taking J_lin on the increment w - w0 keeps the large (2/dt) M terms from
cancelling in floating point, and the first residual of a step, at w0
itself, is c + T2' (W p(T2 w0)) with no J_lin product.

The Newton direction solves J(w) delta = r by one GMRES cycle of at most
GMRES_MAXITER iterations (Saad & Schultz 1986), right-preconditioned by a
structured solve P of the reference Jacobian
J_ref = J_lin + T2' diag(W p'(0)) T2.  GMRES applies J - P as sparse
products, starts from delta0 = P^-1 r (so its start residual is
-(J - P) delta0) and keeps the preconditioned basis Z = P^-1 V, so the
direction delta0 + Z y needs no final solve: a direction with k
iterations costs k + 1 solves.  Givens rotations keep its small
least-squares problem triangular, so each iteration reads the residual
norm off the rotated right-hand side and the cycle ends with one
back-substitution.  V and Z are rows of two arrays the solver allocates
once per run, (GMRES_MAXITER + 1, 2 nf) and (GMRES_MAXITER, 2 nf), and
P^-1 writes each Z[j] in place; a direction writes only the rows its
iterations reach.  The least-squares arrays and the step's other
2 nf-sized vectors (w0, c, the residual, the direction, the iterates, a
scratch vector) are solver arrays too.  Every sparse product of a step
is written into one of them by _fem.csr_product, SciPy's own csr kernel
without its dispatch, and so are |r|, the GMRES step and the interval's
interleaved band solve.  So solve() allocates only vectors of the Gamma1
trace size, and a step allocates the new state besides.

- Rectangle: each field's diagonal block of J_ref is the Kronecker sum
  A_1 x M_2 + M_1 x A_2 with A_d = (1/dt) M_d + mu B_d,
  B_d = (dt/2) K_d + p'(0) G_d (G_d the system's gamma1 band of axis d,
  m.nu at each Gamma1 end) and mu = 1 on the v block.  P is that block diagonal, inverted
  by fast diagonalization (Lynch, Rice & Thomas 1964) from the dense 1D
  eigenpairs of (B_d, M_d), one set per distinct slope p'(0): mu_mid only
  changes the divisor
  2/dt + mu (lam_1i + lam_2j), and a solve is four matrix products,
  batched over the two fields.  J - P is the u-v coupling, the sigma
  term and the Gamma1 slope differences T2' diag(W p'(T2 w) - W p'(0)) T2;
  its mu-free part, J_base off the diagonal blocks, is taken from the
  layout once.
- Interval: P = J_ref, a banded LU (LAPACK dgbtrf) of the unknowns
  interleaved as (u_i, v_i), bandwidth 3, refactored for each mu_mid as
  ab_0 + mu_mid ab_1.  These are the band storage of J_ref's base part
  J_base + blockdiag(0, p2'(0) G) and mu part
  blockdiag((dt/2) K + p1'(0) G, 0),
  with G = T' diag(w m.nu) T the gamma1 band, written straight from the
  system's factor bands, as the rect's B_d are.  When dgbtrf makes no row
  interchange, as on the reference run's J_ref, a solve is two triangular
  band solves (BLAS dtbsv, L then U) on bands cut from the factors once
  per factorisation, else dgbtrs.
  For laws of constant slope J = P and each Newton iteration is one solve.

A law has a constant slope when it is a FeedbackLaw with b = L or a
LipschitzLaw with one segment slope.  When both laws do, d = 0 in every
direction, so no slope is evaluated and no correction is applied.
"""

from __future__ import annotations

import hashlib
import logging
import math
import mmap

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, eigh
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs, dtrtrs

from . import _fem
from .discretization import SimState
from .errors import InvalidArgumentError, StepFailureError

log = logging.getLogger(__name__)

CHECKPOINT_HEADER = "# beamstab checkpoint v2"

# GMRES for the Newton direction: iteration cap of its one cycle, relative tolerance
GMRES_MAXITER = 120
GMRES_RTOL = 1e-12

# damped Newton: max-norm residual tolerance, relative to max(1, first residual),
# and iteration cap per step.  Small data can start below this tolerance, so a
# step takes one iteration at least, unless its first residual is exactly 0
NEWTON_TOL = 1e-12
NEWTON_MAX = 50
# line search: trial damping factors 1, 1/2, 1/4, ... per Newton iteration
LINE_SEARCH_MAX = 30

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
    The two (2, n_1, n_2) scratch arrays of a solve are allocated here,
    once per run, since a decaying mu calls at() on every step.
    """

    def __init__(self, system, dt):
        self.dt = dt
        pairs = {}
        for p0 in system.slopes0:
            if p0 not in pairs:
                pairs[p0] = [eigh(_dense((dt / 2.0) * f["stiffness"] + p0 * f["gamma1"]),
                                  _dense(f["mass"])) for f in system.factors]
        self.lam = [np.add.outer(*[lam for lam, _ in pairs[p0]]) for p0 in system.slopes0]
        self.V = [np.stack([pairs[p0][d][1] for p0 in system.slopes0])
                  for d in range(len(system.factors))]
        self._scratch = np.empty((2, 2, *self.lam[0].shape))

    def at(self, mu):
        """The solve (b, out) -> P^-1 b for mu on the u block: per field
        V_1 ((V_1' B V_2) / div) V_2', both fields in one batched matmul,
        written into out."""
        div = np.stack([2.0 / self.dt + m * lam for m, lam in zip((mu, 1.0), self.lam)])
        V1, V2 = self.V
        V1t, V2t = (V.transpose(0, 2, 1) for V in self.V)
        a, y = self._scratch

        def solve(b, out):
            np.matmul(np.matmul(V1t, b.reshape(div.shape), out=a), V2, out=y)
            np.divide(y, div, out=y)
            np.matmul(np.matmul(V1, y, out=a), V2t, out=out.reshape(div.shape))
            return out

        return solve


def _dense(band):
    """The tridiagonal matrix of a factor band."""
    return np.diag(band[1]) + np.diag(band[0, 1:], -1) + np.diag(band[2, :-1], 1)


class _BandedLU:
    """P^-1 = J_ref^-1 on the interval: J_ref(mu) = J_0 + mu J_1 with the
    unknowns interleaved as (u_i, v_i), in LAPACK band storage ab_0 and ab_1
    written from the interval's factor bands, each entry added into zeros.
    A solve interleaves b into one buffer allocated here, once per run, and
    solves in it in place: by two triangular band solves (BLAS dtbsv, L then
    U) when dgbtrf made no row interchange, else by dgbtrs."""

    def __init__(self, system, dt):
        (f,), (p1, p2), half = system.factors, system.slopes0, dt / 2.0
        m, hK, C, G = (2.0 / dt) * f["mass"], half * f["stiffness"], f["derivative"], f["gamma1"]
        # J_0 and J_1 by block uu, uv, vu, vv, None a zero block
        blocks = [(m, half * (system.alpha1 * C), half * (f["sigma"] - system.alpha2 * C),
                   (m + hK) + p2 * G), (hK + p1 * G, None, None, None)]
        n = len(system.free)
        self.ab = [np.zeros((3 * BANDS + 1, 2 * n)) for _ in blocks]
        for ab, parts in zip(self.ab, blocks):
            # ab[2 BANDS + i - j, j] = J[i, j] with i = 2 k + r, j = 2 l + c for
            # the fields r, c of the nodes k, l; band row s of block (r, c)
            # holds its entries l = k + s - 1
            ab = ab.reshape(-1, n, 2)
            for (r, c), X in zip(np.ndindex(2, 2), parts):
                if X is not None:
                    ab[2 * BANDS + 2 + r - c, :-1, c] += X[0, 1:]
                    ab[2 * BANDS + r - c, :, c] += X[1]
                    ab[2 * BANDS - 2 + r - c, 1:, c] += X[2, :-1]
        self._interleaved = np.empty(2 * n)

    def at(self, mu):
        """The solve (b, out) -> J_ref(mu)^-1 b, written into out; raises
        LinAlgError when J_ref(mu) is singular."""
        lu, piv, info = dgbtrf(self.ab[0] + mu * self.ab[1], BANDS, BANDS)
        if info != 0:
            raise LinAlgError(f"J_ref is singular (dgbtrf info {info})")
        # the kernels and band widths as closure locals: a solve looks up no global
        x, kl, kU = self._interleaved, BANDS, 2 * BANDS  # U's bandwidth kU is kl + ku
        if np.any(piv != np.arange(len(piv))):
            trs = dgbtrs

            def band_solve():
                return trs(lu, kl, kl, x, piv, overwrite_b=1)[0]
        else:  # L's unit-lower band and U's upper band, cut once per factorisation
            tbsv, L, U = dtbsv, np.asfortranarray(lu[kU:]), np.asfortranarray(lu[:kU + 1])

            def band_solve():
                return tbsv(kU, U, tbsv(kl, L, x, lower=1, diag=1, overwrite_x=1),
                            overwrite_x=1)

        def solve(b, out):
            x.reshape(-1, 2)[...] = b.reshape(2, -1).T
            out.reshape(2, -1).T[...] = band_solve().reshape(-1, 2)
            return out

        return solve


def _live_operators(system, dt):
    """(S, J, at, M, rest) for the step size dt, on the layout of the
    system's state_operator().  mu enters only the u-u block, which opens
    each u row and where S_base is 0; it and the v-v block, which closes
    each v row, hold the entries of the system's stiffness and mass in
    order.  S is S_base and J is J_base = (dt/2) S_base + (2/dt) M2 on S's
    indices and indptr, which off the u-u block they keep for every mu; at
    holds that block's int32 layout positions and M the values of J_base
    there, (2/dt) M.  rest = J_ref - P is J_base off the diagonal blocks on
    the rect, None on the interval."""
    S = system.state_operator()
    nf, M = len(system.free), (2.0 / dt) * system.mass.data
    J = sp.csr_matrix(((dt / 2.0) * S.data, S.indices, S.indptr), shape=S.shape)
    m = S.indptr[nf]  # the u rows' entries
    lower = S.indices < nf  # the entries in u columns
    at = np.flatnonzero(lower[:m])
    J.data[at] += M
    J.data[m + np.flatnonzero(~lower[m:])] += M  # the v-v block
    rest = None
    if system.mesh.dimension > 1:  # the u rows' v columns and the v rows' u columns
        off = np.empty_like(lower)
        np.logical_not(lower[:m], out=off[:m])
        off[m:] = lower[m:]
        at_off = np.flatnonzero(off)
        rest = sp.csr_matrix((J.data.take(at_off), S.indices.take(at_off),
                              np.searchsorted(at_off, S.indptr).astype(S.indptr.dtype)),
                             shape=J.shape)
    return S, J, at.astype(np.int32), M, rest


class _StepOperators(NamedTuple):
    """The operators of a step's mu_mid, valid until the solver's next one."""

    mu: float                # mu_mid of the step
    J_lin: sp.csr_matrix     # Jacobian without the Gamma1 term
    S: sp.csr_matrix         # [[mu_mid K, a1 C], [Sg - a2 C, K]] on the free dofs
    W: np.ndarray            # (mu_mid w m.nu, w m.nu) per stacked Gamma1 point
    d_ref: np.ndarray        # W p'(0): the Gamma1 weights of J_ref
    solve: object            # (b, out) -> P^-1 b, written into out


class _MidpointSolver:
    """Per-run workspace for the step size dt: the operators on the layout
    of the system's state_operator(), the preconditioner and the solver
    counters.

    The layout is the csr pattern of S_base, the entries that are nonzero
    in S or J_lin for some mu; S and J_lin share it and are held as one
    data vector each (_live_operators).  For mu the solver keeps the u-u
    block's int32 layout positions, K there (the system's stiffness data)
    and (2/dt) M, and one scratch vector of their size.  rest is
    J_ref - P, mu-free: the rect's J_base entries off the diagonal blocks,
    or None on the interval, where P = J_ref.  The stacked trace T2 and its
    weights come from the system's boundary operator.  The counters add up
    over every solve: preconditioner solves, residual evaluations, Newton
    and GMRES iterations, line-search halvings, and the largest final
    residual of a step.

    The 2 nf-sized vectors of a step live in work arrays allocated here,
    once per run: the GMRES basis V, (GMRES_MAXITER + 1, 2 nf), and its
    preconditioned images Z, (GMRES_MAXITER, 2 nf), and the step's w0, c,
    residual, Newton direction, two iterates and a scratch vector; two
    2 q-sized ones hold the Gamma1 traces of an iterate and of a vector
    J - P is applied to, and H, cs, sn and g the GMRES least-squares
    problem.  The products with S, J_lin, rest, T2 and T2' (T2t, csr) are
    written into them by _fem.csr_product.  So start(), residual() and
    _newton_direction() return arrays that stay valid until their next
    call, and solve() views of one that stays valid until the next solve.
    Their rows, V's and Z's in mappings of their own, take memory only
    when a step first writes them.
    """

    def __init__(self, system, dt):
        self.system = system
        self.dt = dt
        T = system.trace
        self.T2 = sp.block_diag((T, T), format="csr")
        self.T2t = self.T2.T.tocsr()
        self.q = T.shape[0]  # Gamma1 points per field
        self.nf = nf = len(system.free)
        self.p0 = np.repeat(system.slopes0, self.q)
        self.constant_slopes = system.law1.constant_slope and system.law2.constant_slope

        self._S, self._J, self._mu_at, self._M, self.rest = _live_operators(system, dt)
        self._K = system.stiffness.data  # the u-u block's K, in layout order
        self._on_block = np.empty(len(self._mu_at))
        self.precond = (_BandedLU if system.mesh.dimension == 1 else _FastDiagonalization)(
            system, dt)

        m = GMRES_MAXITER
        # V and Z in anonymous mappings of their own: NumPy advises huge pages
        # for arrays of 4 MiB or more, where one written row makes 2 MiB resident
        self._V, self._Z = (np.frombuffer(mmap.mmap(-1, rows * 2 * nf * 8)).reshape(rows, -1)
                            for rows in (m + 1, m))
        self._H, self._g = np.empty((m + 1, m)), np.empty(m + 1)
        self._cs, self._sn = np.empty((2, m))
        self._w0, self._c, self._r, self._delta, self._scratch, *self._iterates = np.empty(
            (7, 2 * nf))
        self._s, self._ds = np.empty((2, 2 * self.q))  # trace values of an iterate, of J - P
        self._ops = None
        self.solves = self.residuals = 0
        self.newton = self.gmres = self.halvings = 0
        self.worst_residual = 0.0

    def _weights(self, mu):
        return np.concatenate([mu * self.system.trace_wmn, self.system.trace_wmn])

    def operators(self, mu_mid):
        """The _StepOperators of mu_mid, cached; a new mu_mid rewrites S and
        J_lin on the u-u block in place: S = mu_mid K and
        J_lin = ((dt/2) K) mu_mid + (2/dt) M there."""
        if self._ops is None or self._ops.mu != mu_mid:
            at, K, v = self._mu_at, self._K, self._on_block
            self._S.data[at] = np.multiply(K, mu_mid, out=v)
            np.multiply(K, self.dt / 2.0, out=v)
            v *= mu_mid
            self._J.data[at] = np.add(v, self._M, out=v)
            W = self._weights(mu_mid)
            self._ops = _StepOperators(mu_mid, self._J, self._S, W, W * self.p0,
                                       self.precond.at(mu_mid))
        return self._ops

    def _solve(self, ops, b, out):
        self.solves += 1
        return ops.solve(b, out)

    def residual(self, ops, c, w0, w):
        """Midpoint residual at the stacked iterate w, stacked (u block,
        v block), and the Gamma1 trace values T2 w it used, both in solver
        arrays; (c, w0) come from start().  At w = w0 itself the J_lin term
        vanishes and is not formed.  The residual is summed as
        (J_lin (w - w0) + c) + T2' (W p), the scratch vector holding
        w - w0 and then the load."""
        self.residuals += 1
        sys_, q, r, s, tmp = self.system, self.q, self._r, self._s, self._scratch
        _fem.csr_product(self.T2, w, s)
        p = np.concatenate([sys_.law1(s[:q]), sys_.law2(s[q:])])
        if w is w0:
            _fem.csr_product(self.T2t, np.multiply(ops.W, p, out=p), r)
            r += c
        else:
            _fem.csr_product(ops.J_lin, np.subtract(w, w0, out=tmp), r)
            r += c
            r += _fem.csr_product(self.T2t, np.multiply(ops.W, p, out=p), tmp)
        return r, s

    def _newton_direction(self, ops, s, r):
        """Solve J(w) delta = r at the iterate with Gamma1 traces s; returns
        (delta, GMRES iterations).

        J(w) = P + D with D = rest + T2' diag(d) T2 and
        d = W p'(s) - W p'(0).  When both laws have a constant slope d is 0
        and no slope is evaluated.  Where D vanishes the solve is exact;
        elsewhere one GMRES cycle, right-preconditioned by P, corrects it
        until ||r - J delta|| <= GMRES_RTOL ||r||."""
        if self.constant_slopes:  # p'(s) = p'(0), so d is 0 with no slope to take
            boundary = False
        else:
            sys_, q = self.system, self.q
            slopes = np.concatenate([np.asarray(sys_.law1.slope(s[:q]), dtype=float),
                                     np.asarray(sys_.law2.slope(s[q:]), dtype=float)])
            d = ops.W * slopes - ops.d_ref
            boundary = d.any()
        delta = self._solve(ops, r, self._delta)
        if self.rest is None and not boundary:
            return delta, 0

        def apply_d(x, out):  # (J - P) x, written into out
            ds = self._ds
            if boundary:  # T2' (d T2 x) goes to out on the interval, else to the scratch
                np.multiply(d, _fem.csr_product(self.T2, x, ds), out=ds)
            if self.rest is None:  # and so boundary holds
                return _fem.csr_product(self.T2t, ds, out)
            _fem.csr_product(self.rest, x, out)
            if boundary:
                out += _fem.csr_product(self.T2t, ds, self._scratch)
            return out

        # r - J delta, as P delta = r, in V[0], which the cycle scales in place
        res = np.negative(apply_d(delta, self._V[0]), out=self._V[0])
        beta, target = np.linalg.norm(res), GMRES_RTOL * np.linalg.norm(r)
        if beta <= target:
            return delta, 0
        step, residual, its = self._gmres_cycle(ops, apply_d, beta, target)
        delta += step
        if residual > target:
            log.warning("GMRES stopped short of rtol %g after %d iterations: "
                        "Newton-system residual ||r - J delta|| / ||r|| = %.3e",
                        GMRES_RTOL, its, residual / np.linalg.norm(r))
        return delta, its

    def _gmres_cycle(self, ops, apply_d, beta, target):
        """The GMRES cycle from the residual r - J delta in V[0],
        beta = ||r - J delta||; returns (step, residual norm, iterations),
        the step Z y to add to delta in the scratch vector.

        The least-squares problem min ||beta e_1 - H y|| is kept triangular
        by Givens rotations (Saad & Schultz 1986), so |g_{j+1}| is the
        residual norm after iteration j.  V and Z, the Arnoldi basis and
        its preconditioned images, and H, cs, sn and g are the solver's
        arrays; iteration j writes H[:j+1, j] before any read, the
        back-substitution reads H's upper triangle only, and P^-1 writes
        straight into Z[j]."""
        V, Z, H, cs, sn, g, tmp = (self._V, self._Z, self._H, self._cs, self._sn, self._g,
                                   self._scratch)
        V[0] /= beta
        g[0] = beta
        for j in range(len(Z)):
            self._solve(ops, V[j], Z[j])
            v = np.add(V[j], apply_d(Z[j], V[j + 1]), out=V[j + 1])  # J Z[j]
            for i in range(j + 1):  # modified Gram-Schmidt
                H[i, j] = V[i] @ v
                v -= np.multiply(V[i], H[i, j], out=tmp)
            h = np.linalg.norm(v)
            if h > 0.0:
                v /= h
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
        return np.matmul(y, Z[:k], out=tmp), abs(g[k]), k

    def start(self, state):
        """(ops, c, w0) of the step from state: the operators, the
        residual's constant part c = S (x + (dt/2) w0) and the first
        iterate w0 = (u', v'), both in solver arrays."""
        sys_, dt = self.system, self.dt
        ops = self.operators(float(sys_.schedule.mu(state.t + dt / 2.0)))
        nf, w0, c = self.nf, self._w0, self._c
        np.concatenate([state.du, state.dv], out=w0)
        y = np.multiply(w0, dt / 2.0, out=self._scratch)  # y = x + (dt/2) w0
        y[:nf] += state.u
        y[nf:] += state.v
        _fem.csr_product(ops.S, y, c)
        return ops, c, w0

    def _max_abs(self, r):
        """max |r_i|, the residual norm of Newton, with |r| in the scratch vector."""
        return float(np.abs(r, out=self._scratch).max())

    def solve(self, state):
        """The midpoint velocities (w_u, w_v) of the step from state, by
        damped Newton, one iteration at least unless the first residual is
        0: views of a solver array, valid until the next solve.  Each
        iteration's line search tries w - lam delta at lam = 1, 1/2, ...,
        LINE_SEARCH_MAX values at most, and takes the first that lowers the
        residual; when none does, Newton stops.  Raises StepFailureError
        unless the last residual is finite and within the tolerance."""
        ops, c, w0 = self.start(state)
        w = w0
        newton = krylov = halvings = 0

        r, s = self.residual(ops, c, w0, w)
        rnorm = self._max_abs(r)
        tol = NEWTON_TOL * max(1.0, rnorm)
        for _ in range(NEWTON_MAX):
            if not math.isfinite(rnorm) or rnorm <= tol and (newton or rnorm == 0.0):
                break
            newton += 1
            delta, its = self._newton_direction(ops, s, r)
            krylov += its
            lam = 1.0
            for _ in range(LINE_SEARCH_MAX):
                # the trial goes to the iterate array that w is not; its
                # residual and traces overwrite r and s, of which only
                # rnorm is still needed
                step = delta if lam == 1.0 else np.multiply(delta, lam, out=self._scratch)
                cw = np.subtract(w, step, out=self._iterates[w is self._iterates[0]])
                rc, sc = self.residual(ops, c, w0, cw)
                cnorm = self._max_abs(rc)
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
        if not (rnorm <= tol and math.isfinite(rnorm)):  # NaN compares False; inf makes tol inf
            raise StepFailureError(state.t, rnorm)
        nf = len(w) // 2
        return w[:nf], w[nf:]


def _advance(solver, state):
    wu, wv = solver.solve(state)
    dt = solver.dt
    return SimState(state.t + dt, state.u + dt * wu, state.v + dt * wv,
                    2.0 * wu - state.du, 2.0 * wv - state.dv)


def integrate(system, state0, T, control, observers=()):
    """March from state0.t to T in uniform steps, notifying observers.

    Observers are called on the initial state and after every accepted
    step.  The number of steps is round((T - t0)/dt); T - t0 must be an
    (approximate) multiple of dt; state0 holds one entry per free dof.
    """
    for name, value in (("final time", T), ("initial time t", state0.t)):
        if not math.isfinite(value):
            raise InvalidArgumentError(f"{name} must be finite, got {value!r}")
    if T < state0.t:
        raise InvalidArgumentError("final time precedes initial time")
    span = T - state0.t
    n_steps = int(round(span / control.dt))
    if abs(n_steps * control.dt - span) > 1e-9 * max(1.0, abs(span)):
        raise InvalidArgumentError("T - t0 must be a multiple of dt")
    for name in ("u", "v", "du", "dv"):
        values = getattr(state0, name)
        if np.shape(values) != system.free.shape:
            raise InvalidArgumentError(f"state field {name} has shape {np.shape(values)}; the "
                                       f"system has {len(system.free)} free dofs")
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            raise InvalidArgumentError(f"state field {name} must be finite, got "
                                       f"{values[bad[0]]!r} at entry {bad[0]}")

    solver = _MidpointSolver(system, control.dt)
    state = state0.copy()
    for obs in observers:
        obs(system, state)
    for _ in range(n_steps):
        state = _advance(solver, state)
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
    """Returns (SimState, config_hash); raises InvalidArgumentError for a
    file that is not a complete, well-formed checkpoint."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise InvalidArgumentError(f"not a checkpoint file: {path}")
    kv = {}
    for line in lines[1:]:
        name, _, rest = line.partition(" ")
        kv[name] = rest

    def parsed(name, parse):
        if name not in kv:
            raise InvalidArgumentError(f"checkpoint missing field '{name}'")
        try:
            return parse(kv[name])
        except ValueError as exc:
            raise InvalidArgumentError(f"checkpoint field {name} is malformed: {exc}") from exc

    t, n = parsed("t", float), parsed("nodes", int)
    vecs = [parsed(name, lambda text: np.array(text.split(), dtype=float))
            for name in ("u", "v", "du", "dv")]
    if not math.isfinite(t):
        raise InvalidArgumentError(f"checkpoint t must be finite, got {t!r}")
    for name, v in zip(("u", "v", "du", "dv"), vecs):
        if len(v) != n:
            raise InvalidArgumentError(f"checkpoint field {name} has wrong length")
    return SimState(t, *vecs), kv.get("config", "")


def config_hash(text):
    """Stable hash of a config file body, recorded in traces and checkpoints."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]
