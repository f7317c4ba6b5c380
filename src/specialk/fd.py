"""Finite-difference differentiation used by all residual checks."""

from __future__ import annotations

import numpy as np

__all__ = ["FDEvaluationError", "jacobian", "jacobian4", "hessian"]

DEFAULT_STEP = 1e-5


class FDEvaluationError(RuntimeError):
    """Evaluation failed at a stencil point; carries the offending point."""

    def __init__(self, point, cause):
        super().__init__(f"stencil evaluation failed at {point!r}: {cause}")
        self.point = np.asarray(point, dtype=float)
        self.cause = cause


def _eval(f, x):
    try:
        return np.asarray(f(x), dtype=float)
    except FDEvaluationError:
        raise
    except Exception as exc:
        raise FDEvaluationError(x, exc) from exc


def _stencil_columns(f, x, h, column):
    """Stack column(at) over the coordinates j of x, where at(s) is f at
    x + s h e_j; output shape f(x).shape + (m,)."""
    if h <= 0:
        raise ValueError("step size must be positive")
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e.flat[j] = h
        cols.append(column(lambda s: _eval(f, x + s * e)))
    return np.stack(cols, axis=-1)


def jacobian(f, x, h: float = DEFAULT_STEP):
    """Central-difference Jacobian of a vector-valued f: R^m -> R^k.

    Output shape is f(x).shape + (m,); entrywise error is O(h^2) for C^3
    functions.
    """
    return _stencil_columns(f, x, h, lambda at: (at(1) - at(-1)) / (2.0 * h))


def jacobian4(f, x, h: float = 1e-3):
    """Fourth-order central stencil, used as an independent oracle against
    the second-order jacobian."""
    return _stencil_columns(
        f, x, h, lambda at: (-at(2) + 8.0 * at(1) - 8.0 * at(-1) + at(-2)) / (12.0 * h))


def hessian(f, x, h: float = 1e-4):
    """Symmetric second-difference Hessian of a scalar f: R^m -> R."""
    if h <= 0:
        raise ValueError("step size must be positive")
    x = np.asarray(x, dtype=float)
    m = x.size
    out = np.empty((m, m))
    for a in range(m):
        ea = np.zeros_like(x)
        ea.flat[a] = h
        for b in range(a, m):
            eb = np.zeros_like(x)
            eb.flat[b] = h
            val = (
                _eval(f, x + ea + eb)
                - _eval(f, x + ea - eb)
                - _eval(f, x - ea + eb)
                + _eval(f, x - ea - eb)
            ) / (4.0 * h * h)
            out[a, b] = val
            out[b, a] = val
    return out
