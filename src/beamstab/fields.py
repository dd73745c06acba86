"""Analytic initial-data fields and named presets.

Fields carry their gradient (needed for compatibility residuals) and, when
available, their Laplacian (needed for the Rellich multiplier check).  All callables take points of shape (N, dim).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class Field:
    name: str
    value: object
    grad: object = None
    laplacian: object = None


def zero_field(mesh, amplitude=0.0):
    dim = mesh.dimension
    return Field(
        "zero",
        lambda x: np.zeros(len(x)),
        lambda x: np.zeros((len(x), dim)),
        lambda x: np.zeros(len(x)),
    )


def sine_field(mesh, amplitude=1.0):
    """Product of sin(pi x_i / (2 l_i)): vanishes on the coordinate planes
    through the origin and has zero normal derivative on the far sides, so
    it is compatible with velocity-free initial data."""
    lengths = mesh.nodes.max(axis=0)
    ks = 0.5 * math.pi / lengths  # per-axis wavenumbers

    def value(x):
        return amplitude * np.prod(np.sin(ks[None, :] * x), axis=1)

    def grad(x):
        s = np.sin(ks[None, :] * x)
        c = np.cos(ks[None, :] * x)
        out = np.empty_like(np.asarray(x, dtype=float))
        for d in range(x.shape[1]):
            others = np.prod(np.delete(s, d, axis=1), axis=1)
            out[:, d] = amplitude * ks[d] * c[:, d] * others
        return out

    def laplacian(x):
        return -float(np.sum(ks ** 2)) * value(x)

    return Field("sine", value, grad, laplacian)


def quadratic_field(mesh, amplitude=1.0):
    """amplitude * sum_i x_i^2; used for manufactured identity checks."""
    dim = mesh.dimension

    def value(x):
        return amplitude * np.sum(x ** 2, axis=1)

    def grad(x):
        return 2.0 * amplitude * x

    def laplacian(x):
        return 2.0 * amplitude * dim * np.ones(len(x))

    return Field("quadratic", value, grad, laplacian)


def bump_field(mesh, amplitude=1.0):
    """Product of x_i^2 (l_i - x_i)^2: vanishes together with its normal
    derivative on the whole boundary, so it is compatible with any feedback
    law and any sigma weight."""
    lengths = mesh.nodes.max(axis=0)

    def value(x):
        x = np.asarray(x, dtype=float)
        return amplitude * np.prod((x * (lengths[None, :] - x)) ** 2, axis=1)

    def _factors(x):
        return (x * (lengths[None, :] - x)) ** 2

    def grad(x):
        x = np.asarray(x, dtype=float)
        f = _factors(x)
        df = 2.0 * x * (lengths[None, :] - x) * (lengths[None, :] - 2.0 * x)
        out = np.empty_like(x)
        for d in range(x.shape[1]):
            others = np.prod(np.delete(f, d, axis=1), axis=1)
            out[:, d] = amplitude * df[:, d] * others
        return out

    def laplacian(x):
        x = np.asarray(x, dtype=float)
        f = _factors(x)
        d2 = 2.0 * ((lengths[None, :] - 2.0 * x) ** 2
                    - 2.0 * x * (lengths[None, :] - x))
        out = np.zeros(len(x))
        for d in range(x.shape[1]):
            others = np.prod(np.delete(f, d, axis=1), axis=1)
            out += d2[:, d] * others
        return amplitude * out

    return Field("bump", value, grad, laplacian)


def linear_field(mesh, amplitude=1.0):
    dim = mesh.dimension

    def value(x):
        return amplitude * np.sum(x, axis=1)

    def grad(x):
        return amplitude * np.ones((len(x), dim))

    def laplacian(x):
        return np.zeros(len(x))

    return Field("linear", value, grad, laplacian)


PRESETS = {
    "zero": zero_field,
    "sine": sine_field,
    "bump": bump_field,
    "quadratic": quadratic_field,
    "linear": linear_field,
}


def make_field(name, mesh, amplitude=1.0):
    if name not in PRESETS:
        raise InvalidArgumentError(f"unknown field preset '{name}'")
    return PRESETS[name](mesh, amplitude)
