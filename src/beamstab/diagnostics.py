"""Energy functionals, identity monitors and decay-rate fitting.

Everything here is a pure function of (system, state) or of a recorded
trace.  The trace recorder is the single observer the integrator installs;
it evaluates every functional at every sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import _fem
from .admissibility import decay_envelope
from .discretization import StateBlock, column_dot
from .errors import ConfigError, FitUndefinedError, InvalidArgumentError


def energy(system, state):
    """E = 1/2 [ |u'|^2 + (a1/a2)|v'|^2 + mu ||u||^2 + (a1/a2)||v||^2 ]."""
    mu = system.schedule.mu(state.t)
    ratio = system.alpha_ratio
    Mm, K = system.mass, system.stiffness
    return 0.5 * (
        column_dot(state.du, state.product(Mm, "du"))
        + ratio * column_dot(state.dv, state.product(Mm, "dv"))
        + mu * column_dot(state.u, state.product(K, "u"))
        + ratio * column_dot(state.v, state.product(K, "v"))
    )


def functional_F(system, state):
    """F = alpha1 (sum_i dv/dx_i, u)."""
    return system.alpha1 * column_dot(state.u, state.product(system.coupling, "v"))


def functional_G(system, state):
    """G = (n-1)(u',u) + (n-1)(v',v) + 2(u', m.grad u) + 2(v', m.grad v)."""
    X = system.multiplier
    n = system.mesh.dimension
    Mm = system.mass
    # (u', u) = (u, M u') by the symmetry of M: shares M u' with the energy
    first = (n - 1) * (column_dot(state.u, state.product(Mm, "du"))
                       + column_dot(state.v, state.product(Mm, "dv")))
    second = 2.0 * (column_dot(state.du, state.product(X, "u"))
                    + column_dot(state.dv, state.product(X, "v")))
    return first + second


def boundary_dissipation(system, state):
    """D_u = mu int_G1 (m.nu) p1(u')u', D_v = (a1/a2) int_G1 (m.nu) p2(v')v'."""
    mu = system.schedule.mu(state.t)
    su = state.product(system.trace, "du")
    sv = state.product(system.trace, "dv")
    return {
        "D_u": mu * system.boundary_integral(np.asarray(system.law1(su)) * su),
        "D_v": system.alpha_ratio * system.boundary_integral(np.asarray(system.law2(sv)) * sv),
    }


def rellich_check(mesh, fld, x0):
    """Multiplier identity on a manufactured field.

    The interior terms come from the assembled domain forms
    (_fem.domain_matrices) on the nodal values u of the field and lap of
    its Laplacian: the pairing (lap_h, m . grad u_h) = lap' X u and
    |grad u_h|^2 = u' K u, both exact for the interpolants; the boundary
    traces use the analytic gradient.  Reports both the printed
    single-pairing form and the standard form with the factor 2, plus their
    defects; the defects vanish at second order under refinement when the
    identity holds.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = mesh.dimension
    u = np.asarray(fld.value(mesh.nodes), dtype=float)
    lap = np.asarray(fld.laplacian(mesh.nodes), dtype=float)
    mats = _fem.domain_matrices(mesh, x0)
    pair = float(lap @ (mats["multiplier"] @ u))
    grad_sq = float(u @ (mats["stiffness"] @ u))

    bdry_mn_gradsq = bdry_flux = 0.0
    for d, end, sign in mesh.sides:  # nu = sign e_d
        _, w, points = _fem.side_rule(mesh.axes, d, end, (slice(None),) * n)
        g = np.asarray(fld.grad(points), dtype=float)
        m = points - x0
        bdry_mn_gradsq += float(np.sum(w * sign * m[:, d] * np.einsum("qd,qd->q", g, g)))
        bdry_flux += float(np.sum(w * sign * g[:, d] * np.einsum("qd,qd->q", m, g)))

    right = (n - 2) * grad_sq - bdry_mn_gradsq + 2.0 * bdry_flux
    return {
        "lhs_printed": pair,
        "lhs_standard": 2.0 * pair,
        "rhs": right,
        "mismatch_printed": pair - right,
        "mismatch_standard": 2.0 * pair - right,
    }


# ---------------------------------------------------------------------------
# trace recording

# rounding allowance below 0 of a recorded energy, relative to E0
ENERGY_RTOL = 1e-14

# trace rows converted to Python floats at a time by write_csv
CSV_BLOCK_ROWS = 256

# the trace CSV's columns, in file order: the recorded fields the CSV stores
# (every EnergyTrace array but mu_prime_term) and the derived lyapunov,
# envelope and slacks
TRACE_COLUMNS = (
    "t", "E", "F", "G", "lyapunov", "D_u", "D_v", "envelope",
    "slack_sandwich_lo", "slack_sandwich_hi", "slack_G", "slack_F",
)


@dataclass
class EnergyTrace:
    """The recorded diagnostics of a run, one entry per sample.  The lyapunov,
    the envelope and the slacks read certificate, the admissible
    HypothesisReport the run was recorded under; without one they are NaN and
    bound_violations is 0.  metadata holds what the caller puts in."""

    t: np.ndarray
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    D_u: np.ndarray
    D_v: np.ndarray
    mu_prime_term: np.ndarray   # mu'(t)/2 <u, K u>
    metadata: dict = field(default_factory=dict)
    certificate: object = None

    def __post_init__(self):
        # a NaN time passes a test for diff(t) <= 0, and a fit window drops it unseen
        if len(self.t) and not (np.all(np.isfinite(self.t)) and np.all(np.diff(self.t) > 0)):
            raise InvalidArgumentError("trace times must be finite and strictly increasing")
        if len(self.E) and np.any(self.E < -ENERGY_RTOL * abs(self.E[0])):
            raise InvalidArgumentError("trace contains negative energy")

    def __len__(self):
        return len(self.t)

    @property
    def E0(self):
        return float(self.E[0])

    def envelope(self):
        if self.certificate is None:
            return np.full_like(self.t, np.nan)
        return decay_envelope(self.E0, self.certificate.eta, self.t)

    def lyapunov(self, eps=None):
        """L = E + F + eps G, by default at the certificate's eps1; NaN without it."""
        if eps is None and self.certificate is None:
            return np.full_like(self.t, np.nan)
        eps = self.certificate.eps1_max if eps is None else eps
        return self.E + self.F + eps * self.G

    def slacks(self):
        c = self.certificate
        if c is None:
            return dict.fromkeys(("slack_sandwich_lo", "slack_sandwich_hi", "slack_G",
                                  "slack_F"), np.full_like(self.t, np.nan))
        L = self.lyapunov()
        # |F| <= 2 sqrt(alpha1 alpha2 n / mu0) M E
        coef = 2.0 * math.sqrt(c.alpha1 * c.alpha2 * c.n / c.mu0) * c.M
        return {
            "slack_sandwich_lo": L - 0.5 * self.E,
            "slack_sandwich_hi": 1.5 * self.E - L,
            "slack_G": c.A * self.E - np.abs(self.G),
            "slack_F": coef * self.E - np.abs(self.F),
        }

    def bound_violations(self):
        """Samples that break the certificate, NaN included: E above the
        envelope by more than 1e-9 of it, plus, per slack, the samples below
        -1e-12 E0 (the slack rule scales with the data, as ENERGY_RTOL does).
        A trace without a certificate counts none."""
        if self.certificate is None:
            return 0
        count = int(np.sum(~(self.E <= self.envelope() * (1.0 + 1e-9))))
        for sl in self.slacks().values():
            count += int(np.sum(~(sl >= -1e-12 * self.E0)))
        return count

    def write_csv(self, path):
        named = {f.name: getattr(self, f.name) for f in fields(self)}
        named.update(lyapunov=self.lyapunov(), envelope=self.envelope(), **self.slacks())
        cols = [named[name] for name in TRACE_COLUMNS]
        with open(path, "w") as fh:
            h = self.metadata.get("config_hash")
            if h:
                fh.write(f"# config {h}\n")
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            row_format = ",".join(["%.17g"] * len(cols)) + "\n"
            for i in range(0, len(self.t), CSV_BLOCK_ROWS):
                for row in zip(*(c[i:i + CSV_BLOCK_ROWS].tolist() for c in cols)):
                    fh.write(row_format % row)

    def write_svg(self, path):
        """Line plot of log10 E and log10 envelope against t."""
        width, height, pad = 720, 420, 50
        t = self.t
        env = self.envelope()
        floor = 1e-300
        series = [("E", np.log10(np.maximum(self.E, floor)), "#1f77b4")]
        if np.all(np.isfinite(env)):
            series.append(("envelope", np.log10(np.maximum(env, floor)), "#d62728"))
        ys = np.concatenate([s[1] for s in series])
        ymin, ymax = float(ys.min()), float(ys.max())
        if ymax - ymin < 1e-12:
            ymax = ymin + 1.0
        tmin, tmax = float(t[0]), float(t[-1]) if t[-1] > t[0] else float(t[0]) + 1.0

        def sx(x):
            return pad + (x - tmin) / (tmax - tmin) * (width - 2 * pad)

        def sy(y):
            return height - pad - (y - ymin) / (ymax - ymin) * (height - 2 * pad)

        parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
                 f'<rect width="{width}" height="{height}" fill="white"/>',
                 f'<text x="{width // 2}" y="20" text-anchor="middle">log10 energy vs t</text>']
        for name, yv, color in series:
            pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(t, yv))
            parts.append(f'<polyline fill="none" stroke="{color}" points="{pts}"/>')
            parts.append(f'<text x="{width - pad}" y="{sy(yv[-1]):.2f}" fill="{color}" '
                         f'text-anchor="end">{name}</text>')
        parts.append("</svg>")
        with open(path, "w") as fh:
            fh.write("\n".join(parts) + "\n")


# the TRACE_COLUMNS that are EnergyTrace arrays
_RECORDED = tuple(name for name in TRACE_COLUMNS
                  if name in {f.name for f in fields(EnergyTrace)})


def read_trace_csv(path):
    """Rebuild an EnergyTrace, without metadata or certificate, from a trace CSV.

    The recorded columns of TRACE_COLUMNS are read back by header name; the
    others are not read.  The CSV does not store mu_prime_term: it is loaded
    as NaN, and the post-processing that needs it refuses the trace.  A
    ConfigError names the file, a missing column, or the line of a bad row.
    """
    try:
        with open(path) as fh:
            lines = [(k, ln) for k, ln in enumerate(fh.read().splitlines(), 1)
                     if ln and not ln.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read trace: {exc}") from exc
    header = lines[0][1].split(",") if lines else []
    missing = [name for name in _RECORDED if name not in header]
    if missing:
        raise ConfigError(f"not a trace CSV: {path} has no column '{missing[0]}'")
    rows = []
    for k, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"bad trace row in {path}, line {k}: "
                              f"{len(cells)} cells where the header has {len(header)}")
        try:
            rows.append([float(v) for v in cells])
        except ValueError as exc:
            raise ConfigError(f"bad trace row in {path}, line {k}: {exc}") from exc
    if not rows:
        raise ConfigError(f"trace has no samples: {path}")
    data = np.array(rows)
    return EnergyTrace(**{name: data[:, header.index(name)] for name in _RECORDED},
                       mu_prime_term=np.full(len(data), np.nan))


# cap on the bytes of buffered states, 4 float64 fields per free dof per sample:
# one 64x64 state fills it.  Where 2 states fit, a chunk holds 1: on 38x38 to
# 45x45 rects (1 444 to 2 025 free dofs) a sample cost 3-15 % more at 2 states
# per chunk than at 1, and less at 3
CHUNK_BYTES = 128 * 1024

_FIELDS = ("u", "v", "du", "dv")

# samples per block of recorded trace columns, rounded up to whole chunks: a
# (7, 1) array per sample, as one chunk a sample makes on rects from 37x37 up,
# held 192 B of it against 56 B of values
BLOCK_SAMPLES = 1024


class TraceRecorder:
    """Observer recording every diagnostic at each accepted step.

    A call only copies the state into a chunk buffer; the diagnostics are
    evaluated on a whole chunk of columns at once, when it fills and in
    trace().  The operator products of a chunk are written by
    _fem.csr_product into arrays the recorder owns, one per operator,
    field and chunk width (the StateBlock work dict), so a chunk allocates
    no product array with a field once the first chunk of its width is
    done.  What it still allocates are the boundary law values and the
    (chunk,) terms of the columns.  The 7 columns of evaluated chunks are
    written into (7, block) arrays of whole chunks, BLOCK_SAMPLES samples
    at least, allocated as they fill.  Each trace() carries the
    certificate, an admissible HypothesisReport or None, and a copy of
    metadata.
    """

    def __init__(self, system, certificate=None, metadata=None):
        if certificate is not None and not certificate.admissible:
            raise InvalidArgumentError("an inadmissible certificate certifies no trace")
        self.system = system
        n = len(system.free)
        fit = CHUNK_BYTES // (8 * len(_FIELDS) * n)
        self.chunk = fit if fit > 2 else 1
        self._times = np.empty(self.chunk)
        self._states = np.empty((len(_FIELDS), n, self.chunk))
        self._fill = 0
        self._block = self.chunk * -(-BLOCK_SAMPLES // self.chunk)
        self._blocks = []           # (7, block) arrays of evaluated chunks
        self._done = 0              # samples evaluated into them
        self._products = {}         # the StateBlock work arrays of every chunk
        self.certificate = certificate
        self.metadata = dict(metadata or {})

    def __call__(self, system, state):
        j = self._fill
        self._times[j] = state.t
        for k, name in enumerate(_FIELDS):
            self._states[k, :, j] = getattr(state, name)
        self._fill += 1
        if self._fill == self.chunk:
            at = self._done % self._block
            if at == 0:
                self._blocks.append(np.empty((7, self._block)))
            self._evaluate(self.chunk, self._blocks[-1][:, at:at + self.chunk])
            self._done += self.chunk
            self._fill = 0

    def _evaluate(self, count, out):
        """The 7 trace columns of the first `count` buffered samples,
        written into out, (7, count)."""
        system = self.system
        t = self._times[:count]
        block = StateBlock(t, *(np.ascontiguousarray(f[:, :count]) for f in self._states),
                           work=self._products)
        E = energy(system, block)
        F = functional_F(system, block)
        G = functional_G(system, block)
        diss = boundary_dissipation(system, block)
        stiff_u = column_dot(block.u, block.product(system.stiffness, "u"))
        mupr = system.schedule.mu_prime(t) / 2.0 * stiff_u
        return np.stack([t, E, F, G, diss["D_u"], diss["D_v"], mupr], out=out)

    def trace(self):
        """Every sample so far, in order; the recorder keeps recording."""
        n, size = self._done, self._block
        arr = np.empty((7, n + self._fill))
        for k, block in enumerate(self._blocks):
            part = arr[:, k * size:min(n, (k + 1) * size)]
            part[...] = block[:, :part.shape[1]]
        if self._fill:
            self._evaluate(self._fill, arr[:, n:])
        return EnergyTrace(*arr, metadata=dict(self.metadata), certificate=self.certificate)


# ---------------------------------------------------------------------------
# trace post-processing

def _require_columns(trace, *names):
    """Refuse a trace whose columns hold no data (NaN, as read back from CSV)."""
    for name in names:
        col = getattr(trace, name)
        if len(col) and np.all(np.isnan(col)):
            raise InvalidArgumentError(
                f"trace has no '{name}' column (the trace CSV does not store it)")


def energy_balance_residuals(trace):
    """Per-interval defect of d(E+F)/dt = mu'/2||u||^2 - D_u - D_v.

    The right side is averaged between the two endpoint samples, so for the
    midpoint integrator the defect shrinks at first order or better.
    """
    _require_columns(trace, "mu_prime_term")
    if len(trace) < 2:
        return np.array([])
    dt = np.diff(trace.t)
    lhs = np.diff(trace.E + trace.F) / dt
    source = trace.mu_prime_term - trace.D_u - trace.D_v
    rhs_mid = 0.5 * (source[1:] + source[:-1])
    return lhs - rhs_mid


def observed_orders(values, ratio=2.0):
    """log-ratio convergence orders of successive refinement errors."""
    v = np.asarray(values, dtype=float)
    return np.log(v[:-1] / v[1:]) / math.log(ratio)


def lyapunov_decay_defects(trace, eps2):
    """[L2(t+dt) - L2(t)]/dt + eps2 E(t), L2 = E+F+eps2 G, one value per
    trace interval: criterion 2 masks the array and takes its max."""
    L = trace.lyapunov(eps2)
    dt = np.diff(trace.t)
    return np.diff(L) / dt + eps2 * trace.E[:-1]


@dataclass(frozen=True)
class FitResult:
    rate: float
    intercept: float
    r_squared: float


def fit_decay_rate(trace, window=None):
    """Least-squares line through (t, ln E); rate is minus the slope.

    Default window [0.2 T, T] skips the initial transient.
    """
    if window is None:
        T = trace.t[-1]
        window = (0.2 * T, T)
    ta, tb = window
    mask = (trace.t >= ta) & (trace.t <= tb)
    if mask.sum() < 2:
        raise FitUndefinedError("window contains fewer than two samples")
    E = trace.E[mask]
    if not np.all(np.isfinite(E)):
        raise FitUndefinedError("window contains a non-finite energy sample")
    if np.any(E <= 0):
        raise FitUndefinedError("window contains non-positive energy samples")
    t = trace.t[mask]
    y = np.log(E)
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return FitResult(rate=-float(slope), intercept=float(intercept), r_squared=r2)
