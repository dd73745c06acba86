"""Monotone boundary feedback laws and their Lipschitz approximants.

A law is a scalar continuous function p with p(0) = 0, strong monotonicity
constant b ([p(s)-p(r)](s-r) >= b (s-r)^2) and linear growth constant L
(|p(s)| <= L |s|).  The boundary forcing at a feedback-boundary point is
h(x, s) = [m(x).nu(x)] p(s).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

# round-off allowed below b in the segment slopes of a LipschitzLaw: its
# slopes are difference quotients of a b-strongly-monotone law
SLOPE_TOL = 1e-12


@dataclass(frozen=True)
class FeedbackLaw:
    p: object            # vectorized scalar map
    slope: object        # derivative (used by the Newton solver)
    b: float             # strong-monotonicity constant
    L: float             # linear growth constant

    def __post_init__(self):
        if not 0.0 <= self.b <= self.L:  # NaN fails too
            raise InvalidArgumentError("need 0 <= b <= L")
        if abs(float(self.p(0.0))) > 0.0:
            raise InvalidArgumentError("law must vanish at 0")

    @property
    def constant_slope(self):
        """b = L forces p(s) = b s, so the slope is b everywhere."""
        return self.b == self.L

    def __call__(self, s):
        return self.p(s)


@dataclass(frozen=True)
class LipschitzLaw:
    """Piecewise-linear law: breakpoints, values and segment slopes.

    Beyond the breakpoint range the terminal segment slopes continue, which
    keeps the global Lipschitz constant finite and the monotonicity constant
    intact (a constant extension would lose it).

    The constants are checked on construction: at least two strictly
    increasing breakpoints, one value each, p(0) = 0 and
    0 <= b <= every segment slope, within SLOPE_TOL of round-off; L is the
    largest segment slope.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    b: float

    def __post_init__(self):
        for name in ("breakpoints", "values"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        x, y = self.breakpoints, self.values
        if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
            raise InvalidArgumentError("need at least two breakpoints and one value each")
        if not np.all(np.diff(x) > 0):
            raise InvalidArgumentError("breakpoints must increase strictly")
        if not (0.0 <= self.b <= float(np.min(self.slopes)) + SLOPE_TOL):
            raise InvalidArgumentError(
                f"need 0 <= b <= every segment slope, got b = {self.b!r} and "
                f"slopes down to {float(np.min(self.slopes))!r}")
        if self(0.0) != 0.0:
            raise InvalidArgumentError("law must vanish at 0")

    @property
    def slopes(self):
        return np.diff(self.values) / np.diff(self.breakpoints)

    @property
    def L(self):
        return float(np.max(self.slopes))

    @property
    def constant_slope(self):
        """One segment slope, which every s takes."""
        return bool(np.all(self.slopes == self.slopes[0]))

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        x, y = self.breakpoints, self.values
        idx = np.clip(np.searchsorted(x, s, side="right") - 1, 0, len(x) - 2)
        sl = self.slopes
        out = y[idx] + sl[idx] * (s - x[idx])
        return out if out.ndim else float(out)

    def slope(self, s):
        s = np.asarray(s, dtype=float)
        # right-slope at kinks
        idx = np.clip(np.searchsorted(self.breakpoints, s, side="right") - 1,
                      0, len(self.breakpoints) - 2)
        out = self.slopes[idx]
        return out if out.ndim else float(out)


def identity_law(k=1.0):
    if k <= 0:
        raise InvalidArgumentError("gain must be positive")
    return FeedbackLaw(lambda s: k * np.asarray(s, dtype=float),
                       lambda s: k * np.ones_like(np.asarray(s, dtype=float)), k, k)


def saturating_law(b=1.0, L=2.0):
    """p(s) = b s + (L - b) tanh s: slope ranges over [b, L]."""
    if b <= 0 or L < b:
        raise InvalidArgumentError("need 0 < b <= L")
    c = L - b
    return FeedbackLaw(
        lambda s: b * np.asarray(s, dtype=float) + c * np.tanh(s),
        lambda s: b + c / np.cosh(np.asarray(s, dtype=float)) ** 2,
        b, L,
    )


def hardening_law(b=1.0, L=2.0, knee=1.0):
    """Piecewise-linear: slope b inside [-knee, knee], slope L outside."""
    if b <= 0 or L < b or knee <= 0:
        raise InvalidArgumentError("need 0 < b <= L and knee > 0")

    def p(s):
        s = np.asarray(s, dtype=float)
        core = np.clip(s, -knee, knee)
        return b * core + L * (s - core)

    def slope(s):
        s = np.asarray(s, dtype=float)
        return np.where(np.abs(s) < knee, b, L)

    return FeedbackLaw(p, slope, b, L)


def zero_law():
    """Undamped boundary (b = 0); for conservative diagnostics only."""
    z = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    return FeedbackLaw(z, z, 0.0, 0.0)


CATALOG = {
    "identity": identity_law,
    "saturating": saturating_law,
    "hardening": hardening_law,
    "zero": zero_law,
}


def strauss_approximate(law, level):
    """Piecewise-linear interpolant of p on the grid {k/level : |k/level| <= level}.

    All segment slopes are difference quotients of a b-strongly-monotone
    function, hence >= b; the interpolant is globally Lipschitz with
    constant max slope and converges to p uniformly on bounded sets as the
    level grows.
    """
    level = int(level)
    if level < 1:
        raise InvalidArgumentError("level must be >= 1")
    k = np.arange(-level * level, level * level + 1)
    x = k / level
    y = np.asarray(law(x), dtype=float)
    return LipschitzLaw(x, y, law.b)


def law_from_spec(name, params):
    """Build a catalog law from a config name + parameter dict."""
    if name not in CATALOG:
        raise InvalidArgumentError(f"unknown feedback law '{name}'")
    accepted = inspect.signature(CATALOG[name]).parameters
    for key in params:
        if key not in accepted:
            raise InvalidArgumentError(
                f"feedback law '{name}' takes no parameter '{key}' "
                f"(it takes: {', '.join(accepted) or 'none'})")
    return CATALOG[name](**params)
