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


def _prep(lam, x):
    lam = np.asarray(lam, dtype=complex)
    x = np.asarray(x, dtype=float)
    shape = np.broadcast_shapes(lam.shape, x.shape)
    lam = np.broadcast_to(lam, shape).ravel()
    x = np.broadcast_to(x, shape).ravel()
    small = np.abs(lam) * x**2 < SERIES_THRESHOLD
    return lam, x, small, shape


def _ck_from_rho(rho, x):
    return np.cos(rho * x)


def _sk_from_rho(rho, x):
    z = rho * x
    out = np.empty(np.broadcast(rho, x).shape, dtype=complex)
    nz = rho != 0
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


def _evaluate(lam, x, kinds):
    """Kernels at broadcast (lam, x), one array per (closed form, series) pair.

    The pairs share one ``_prep``, one series mask and one square root.
    """
    lam, x, small, shape = _prep(lam, x)
    outs = [np.empty(lam.shape, dtype=complex) for _ in kinds]
    if np.any(~small):
        rho, xb = np.sqrt(lam[~small]), x[~small]
        for out, (from_rho, _) in zip(outs, kinds):
            out[~small] = from_rho(rho, xb)
    if np.any(small):
        ls, xs = lam[small], x[small]
        for out, (_, series) in zip(outs, kinds):
            out[small] = series(ls, xs)
    return [out.reshape(shape)[()] for out in outs]


_COS = (_ck_from_rho, _c_series)
_SIN = (_sk_from_rho, _s_series)


def ckernel(lam, x):
    """cos(rho x) as an entire function of lam = rho**2."""
    return _evaluate(lam, x, (_COS,))[0]


def skernel(lam, x):
    """sin(rho x)/rho as an entire function of lam = rho**2."""
    return _evaluate(lam, x, (_SIN,))[0]


def kernel_pair(lam, x):
    """(ckernel(lam, x), skernel(lam, x)), bit for bit, from one shared evaluation."""
    c, s = _evaluate(lam, x, (_COS, _SIN))
    return c, s
