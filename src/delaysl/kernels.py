"""Entire trigonometric kernels of the spectral parameter.

``ckernel(lam, x) = cos(rho x)`` and ``skernel(lam, x) = sin(rho x)/rho``
with ``rho**2 = lam`` are entire in lam (only even powers of rho occur),
so the branch of the square root cannot matter.  Near lam = 0 both are
computed from their Maclaurin series in lam to avoid 0/0 noise.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ckernel", "skernel", "kernel_pair"]

# switch to the series when |lam| * x^2 drops below this
SERIES_THRESHOLD = 1e-3
_SERIES_TERMS = 8


def _sk_from_rho(rho, x):
    z = rho * x
    if np.count_nonzero(rho) == np.size(rho):
        return np.sin(z) / rho
    out = np.empty(z.shape, dtype=complex)
    nz = np.broadcast_to(rho != 0, z.shape)
    out[nz] = np.sin(z[nz]) / np.broadcast_to(rho, z.shape)[nz]
    out[~nz] = np.broadcast_to(x, z.shape)[~nz]
    return out


def _c_series(lam, x):
    # sum_k (-lam)^k x^(2k) / (2k)!
    acc = np.zeros(lam.shape, dtype=complex)
    t = -lam * x**2
    term = np.ones_like(acc)
    for k in range(_SERIES_TERMS):
        if k > 0:
            term = term * t / (2 * k * (2 * k - 1))
        acc += term
    return acc


def _s_series(lam, x):
    # x * sum_k (-lam x^2)^k / (2k+1)!
    acc = np.zeros(lam.shape, dtype=complex)
    t = -lam * x**2
    term = np.ones_like(acc)
    for k in range(_SERIES_TERMS):
        if k > 0:
            term = term * t / (2 * k * (2 * k + 1))
        acc += term
    return acc * x


def _evaluate(lam, x):
    """(ckernel, skernel) at broadcast (lam, x), from one series mask and one square root.

    The closed forms are taken at every point and the series replace
    them where |lam| x^2 < SERIES_THRESHOLD, so a call whose points all
    lie on one side of the switch gathers and scatters nothing.
    """
    lam = np.asarray(lam, dtype=complex)
    x = np.asarray(x, dtype=float)
    small = np.abs(lam) * x**2 < SERIES_THRESHOLD
    count = np.count_nonzero(small)
    if count == small.size:
        shape = small.shape
        lam, x = np.broadcast_to(lam, shape), np.broadcast_to(x, shape)
        return _c_series(lam, x)[()], _s_series(lam, x)[()]
    rho = np.sqrt(lam)
    c, s = np.cos(rho * x), _sk_from_rho(rho, x)
    if count:
        ls = np.broadcast_to(lam, small.shape)[small]
        xs = np.broadcast_to(x, small.shape)[small]
        c[small], s[small] = _c_series(ls, xs), _s_series(ls, xs)
    return c[()], s[()]


def ckernel(lam, x):
    """cos(rho x) as an entire function of lam = rho**2."""
    return _evaluate(lam, x)[0]


def skernel(lam, x):
    """sin(rho x)/rho as an entire function of lam = rho**2."""
    return _evaluate(lam, x)[1]


def kernel_pair(lam, x):
    """(ckernel(lam, x), skernel(lam, x)), bit for bit, from one shared evaluation."""
    return _evaluate(lam, x)
