"""Explicit decay-certificate arithmetic.

Computes the closed-form constants A, P1, P2, S1, S2 from the geometric and
embedding constants, checks the smallness conditions on the coupling
parameters (alpha1, alpha2) and, when they hold, produces the certified
exponential rate eta and the energy envelope 3 E(0) exp(-(2/3) eta t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class CoefficientSchedule:
    """Time-dependent wave-speed coefficient with a certified lower bound."""

    mu: object        # t -> mu(t)
    mu_prime: object  # t -> mu'(t)
    mu0: float        # lower bound over the run horizon
    mu_at_0: float

    def __post_init__(self):
        if not (0 < self.mu0 < math.inf and 0 < self.mu_at_0 < math.inf):  # NaN fails too
            raise InvalidArgumentError(f"mu0 and mu_at_0 must be finite and positive, got "
                                       f"{self.mu0!r} and {self.mu_at_0!r}")


def constant_schedule(c=1.0):
    if c <= 0:
        raise InvalidArgumentError("constant coefficient must be positive")
    return CoefficientSchedule(
        lambda t: c + 0.0 * np.asarray(t, dtype=float),
        lambda t: 0.0 * np.asarray(t, dtype=float), c, c)


def decaying_schedule(c0=1.0, lam=0.0, horizon=1.0):
    """mu(t) = c0 exp(-lam t); the lower bound is taken at the run horizon."""
    if c0 <= 0 or lam < 0 or horizon <= 0:
        raise InvalidArgumentError("need c0 > 0, lam >= 0, horizon > 0")
    return CoefficientSchedule(
        lambda t: c0 * np.exp(-lam * np.asarray(t, dtype=float)),
        lambda t: -lam * c0 * np.exp(-lam * np.asarray(t, dtype=float)),
        c0 * math.exp(-lam * horizon), c0)


def _require_positive(**kwargs):
    for name, val in kwargs.items():
        if not (val > 0):
            raise InvalidArgumentError(f"{name} must be positive, got {val!r}")


def compute_A(n, M, R, mu0, alpha_ratio):
    """Bound constant for the multiplier functional: |G| <= A E.

    With r = alpha_ratio = alpha1/alpha2, E (diagnostics.energy) bounds
    |u'|, sqrt(mu0) ||u||, sqrt(r) |v'| and sqrt(r) ||v|| by sqrt(2E), and
    |(n-1)(w', w) + 2(w', m.grad w)| <= ((n-1) M + 2R) |w'| ||w|| by
    Cauchy-Schwarz, Poincare (M) and |m| <= R.  So the u terms are at most
    2E/sqrt(mu0) and the v terms 2E/r = 2E alpha2/alpha1 times that factor.
    """
    _require_positive(n=n, M=M, R=R, mu0=mu0, alpha_ratio=alpha_ratio)
    if n not in (1, 2):
        raise InvalidArgumentError("spatial dimension must be 1 or 2")
    root = math.sqrt(mu0)
    inverse = 1.0 / alpha_ratio  # alpha2/alpha1
    return (2 * (n - 1) * M / root + 2 * (n - 1) * M * inverse
            + 4 * R / root + 4 * R * inverse)


def compute_P1(n, M, R, mu0):
    _require_positive(n=n, M=M, R=R, mu0=mu0)
    return 4 * (n - 1) ** 2 * n * M ** 2 / mu0 + 16 * R ** 2 * n / mu0


def compute_P2(n, N, tau0, mu0, R, sum_nu_bound):
    _require_positive(n=n, N=N, tau0=tau0, mu0=mu0, R=R, sum_nu_bound=sum_nu_bound)
    return (4 * (n - 1) ** 2 * sum_nu_bound ** 2 * N ** 4 / mu0
            + 2 * N ** 2 / (tau0 * mu0) * sum_nu_bound ** 2
            + 16 * R ** 2 * n / mu0)


def compute_S(n, R, N, L1, L2, mu_at_0):
    """Boundary-velocity weights in the dG/dt bound (literal formulas)."""
    _require_positive(n=n, R=R, N=N, L1=L1, L2=L2, mu_at_0=mu_at_0)
    S1 = 4 * (n - 1) ** 2 * mu_at_0 * R * L1 ** 2 * N ** 2 + mu_at_0 * R ** 2 * L2 ** 2 + 1
    S2 = 4 * (n - 1) ** 2 * R * L2 ** 2 * N ** 2 + 2 * R ** 2 * L2 ** 2 + 1
    return {"S1": S1, "S2": S2}


def check_admissibility(alpha1, alpha2, n, M, P1, P2, mu0):
    """Both smallness conditions with their slacks (non-strict inequalities)."""
    _require_positive(alpha1=alpha1, alpha2=alpha2, n=n, M=M, P1=P1, P2=P2, mu0=mu0)
    product_slack = mu0 / (64 * n * M ** 2) - alpha1 * alpha2
    quadratic_slack = 7.0 / 8.0 - (P1 * alpha1 ** 2 + P2 * alpha2 ** 2)
    return {
        "admissible": product_slack >= 0 and quadratic_slack >= 0,
        "product_slack": product_slack,
        "quadratic_slack": quadratic_slack,
    }


def epsilon_eta(A, S1, S2, b1, b2, alpha_ratio, mu0):
    """Largest admissible eps1, eps2 and the certified rate eta = min."""
    _require_positive(A=A, S1=S1, S2=S2, b1=b1, b2=b2, alpha_ratio=alpha_ratio, mu0=mu0)
    eps1_max = 1.0 / (4.0 * A)
    eps2_max = min(mu0 * b1 / S1, alpha_ratio * b2 / S2)
    return {"eps1_max": eps1_max, "eps2_max": eps2_max, "eta": min(eps1_max, eps2_max)}


def decay_envelope(E0, eta, t):
    """Certified envelope 3 E0 exp(-(2/3) eta t)."""
    if not 0 <= E0 < math.inf:  # NaN fails too
        raise InvalidArgumentError(f"initial energy must be finite and nonnegative, got {E0!r}")
    if not 0 < eta < math.inf:
        raise InvalidArgumentError(f"rate must be finite and positive, got {eta!r}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise InvalidArgumentError("time must be nonnegative")
    out = 3.0 * E0 * np.exp(-(2.0 / 3.0) * eta * t)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class HypothesisReport:
    """Everything the decay certificate depends on, plus the verdict."""

    n: int
    M: float
    N: float
    R: float
    tau0: float
    mu0: float
    mu_at_0: float
    b1: float
    b2: float
    L1: float
    L2: float
    alpha1: float
    alpha2: float
    sum_nu_bound: float
    sigma_sup: float
    sigma_positive: bool
    A: float
    P1: float
    P2: float
    S1: float
    S2: float
    product_slack: float
    quadratic_slack: float
    admissible: bool
    eps1_max: float = float("nan")
    eps2_max: float = float("nan")
    eta: float = float("nan")

    def _items(self):
        """(name, formatted value) of every field, in declaration order."""
        return [(f.name, _format(getattr(self, f.name))) for f in fields(self)]

    def as_text(self):
        items = self._items()
        width = max(len(name) for name, _ in items)
        return "\n".join(f"{name.ljust(width)}  {text}" for name, text in items)

    def as_csv(self):
        names, texts = zip(*self._items())
        return ",".join(names) + "\n" + ",".join(texts) + "\n"


def _format(value):
    """Report value as text: lower-case booleans, round-trip floats."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def build_report(n, M, N, R, tau0, schedule, law1, law2, alpha1, alpha2, partition):
    """Assemble the full admissibility report for a concrete configuration."""
    if law1.b <= 0 or law2.b <= 0:
        raise InvalidArgumentError(
            "decay certification needs strongly monotone laws (b > 0)")
    sigma = [alpha2 * sign for _, _, sign, _ in partition.gamma1_sides]  # per Gamma1 side
    sum_nu_bound = partition.sum_nu_bound()
    A = compute_A(n, M, R, schedule.mu0, alpha1 / alpha2)
    P1 = compute_P1(n, M, R, schedule.mu0)
    P2 = compute_P2(n, N, tau0, schedule.mu0, R, sum_nu_bound)
    S = compute_S(n, R, N, law1.L, law2.L, schedule.mu_at_0)
    adm = check_admissibility(alpha1, alpha2, n, M, P1, P2, schedule.mu0)
    extra = {}
    if adm["admissible"]:
        extra = epsilon_eta(A, S["S1"], S["S2"], law1.b, law2.b,
                            alpha1 / alpha2, schedule.mu0)
    return HypothesisReport(
        n=n, M=M, N=N, R=R, tau0=tau0, mu0=schedule.mu0, mu_at_0=schedule.mu_at_0,
        b1=law1.b, b2=law2.b, L1=law1.L, L2=law2.L,
        alpha1=alpha1, alpha2=alpha2,
        sum_nu_bound=sum_nu_bound,
        sigma_sup=float(max(map(abs, sigma))), sigma_positive=all(s > 0 for s in sigma),
        A=A, P1=P1, P2=P2, S1=S["S1"], S2=S["S2"],
        product_slack=adm["product_slack"], quadratic_slack=adm["quadratic_slack"],
        admissible=adm["admissible"], **extra,
    )
