"""Vectorized evaluation of the analytical model (numpy fast path).

The reference implementation in :mod:`repro.core.schemes` evaluates one
``(p, theta)`` point per `scipy` quadrature call — exact but slow for
dense sweeps.  This module recomputes the same quantities with numpy:
the distance integral ``P_ws = \\int_0^1 2 r P_ws(r) dr`` becomes a
trapezoid sum over an ``r`` grid, evaluated for a whole vector of ``p``
values at once.  Tests pin the fast path to the reference within a
small tolerance.

Use it for dense visualisation/optimisation grids; use the scheme
classes when you want the authoritative number.
"""

from __future__ import annotations

import math

import numpy as np

from .schemes import OMNI, SPAN, CollisionAvoidanceScheme

__all__ = ["throughput_curve", "p_ws_curve"]

_R_GRID_POINTS = 257


def p_ws_curve(
    scheme: CollisionAvoidanceScheme, p_values: np.ndarray
) -> np.ndarray:
    """``P_ws`` for a vector of ``p`` values (trapezoid over r)."""
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p_values must be a non-empty 1-D array")
    if (p <= 0).any() or (p >= 1).any():
        raise ValueError("all p values must lie in (0, 1)")
    table = scheme.constraint_table
    prm = scheme.params
    n = prm.n_neighbors
    frac = prm.beamwidth / (2 * math.pi)
    r = np.linspace(0.0, 1.0, _R_GRID_POINTS)
    # One column per area, point by point from the scalar area function
    # (numpy's transcendentals need not match math's bit for bit).
    columns = np.array([table.areas(float(x)) for x in r]).T
    span_ratio = table.span / prm.beamwidth  # p * span/2pi = p * frac * ratio

    # exponent[j, k] = sum over windows of q_j * S_i(r_k) * N * d, with
    # q_j in {p_j, p_j * frac} and a span window's area scaled by ratio.
    base = np.zeros((p.size, r.size))
    for index, slots, thinning, _closes in table.rows:
        q = p if thinning == OMNI else p * frac
        area = columns[index] * span_ratio if thinning == SPAN else columns[index]
        base += np.outer(q, area * (n * slots))
    integrand = 2.0 * r * np.exp(-base)  # shape (len(p), len(r))
    trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy 1.x/2.x
    integral = trapezoid(integrand, r, axis=1)
    return p * (1.0 - p) * integral


def throughput_curve(
    scheme: CollisionAvoidanceScheme, p_values: np.ndarray
) -> np.ndarray:
    """Saturation throughput for a vector of ``p`` values."""
    p = np.asarray(p_values, dtype=float)
    p_ws = p_ws_curve(scheme, p)
    p_ww = np.array([scheme.p_ww(float(x)) for x in p])
    t_fail = np.array([scheme.t_fail(float(x)) for x in p])
    t_succeed = scheme.t_succeed()
    pi_w = 1.0 / (2.0 - p_ww)
    pi_s = p_ws * pi_w
    pi_f = np.clip(1.0 - pi_w - pi_s, 0.0, None)
    cycle = pi_w * 1.0 + pi_s * t_succeed + pi_f * t_fail
    return pi_s * scheme.params.l_data / cycle
