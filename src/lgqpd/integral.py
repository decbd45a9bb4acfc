"""Closed-form Gaussian reduction of the two-time sign-projector correlator.

The two Heaviside projectors are written as Fourier-Laplace integrals, the
Gaussian operator average is done exactly, and the remaining radial variable
is integrated in closed form, leaving a single smooth integral over the
angular variable u in [0, pi/2]:

    q = Re[ (1/2pi) e^{-delta/2} / sqrt(B) *
            Int_0^{pi/2} du { 1/sigma - (beta/sigma) sqrt(pi/(2 sigma)) erfcx(beta/sqrt(2 sigma)) } ]

with complex quadratic-form coefficients sigma(u), beta(u), delta built from
the squeezed mode function E(t) and the displacement gamma.  The erfcx form
keeps the bracket finite where exp(beta^2/2 sigma) would overflow.

This route covers pure (n_th = 0) squeezed coherent states measured with
sign-with-offset projectors.  At the degenerate separations where the two
measured quadratures commute (the phase of E(t2) conj(E(t1)) is a multiple of
pi) the Gaussian collapses to a perfectly correlated pair and the correlator
is evaluated by an exact one-dimensional closed form instead.

One kernel, :func:`_q_integral`, evaluates a whole array of t2;
:func:`qpd_integral` is its one-element call.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.special as _sp

from .errors import ConvergenceWarning
from .series import _check_finite, _check_signs
from .special import gauss_legendre
from .states import (SQRT2, ZERO_OFFSET, OffsetFunction, StateSpec, gamma_from,
                     lambda_of, mode_e, x_xi_of)

#: |sin(phase)| below which the Gaussian pair is treated as perfectly
#: correlated and the exact degenerate closed form is used.
DEGENERATE_TOL = 1e-8

#: Self-consistency target and flag threshold for the order-doubling loop.
U_SELF_CONSISTENCY = 1e-8
U_FLAG_THRESHOLD = 1e-6
U_ORDER_CAP = 512
#: The default starting order of the u quadrature.
DEFAULT_QUAD_ORDER = 32


@dataclass(frozen=True)
class IntegralInfo:
    """Diagnostics of one integral-route evaluation."""

    converged: bool
    last_delta: float
    order: int
    degenerate: bool


def _c_integral_vec(sigma, beta, delta):
    """Closed form of Int_0^inf dc c exp(-(sigma c^2 + 2 beta c + delta)/2) for
    Re(sigma) > 0, elementwise.  The erfc term carries the analytically derived
    constant (beta/sigma) sqrt(pi/(2 sigma)), evaluated in scaled erfcx form:

        e^{-delta/2} [ 1/sigma - (beta/sigma) sqrt(pi/(2 sigma)) erfcx(beta/sqrt(2 sigma)) ]

    A value beyond double range comes back infinite or NaN; the caller checks.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        root = np.sqrt(sigma)
        brace = 1.0 / sigma - (beta / sigma) * np.sqrt(np.pi / 2.0) / root \
            * _sp.erfcx(beta / (SQRT2 * root))
        return np.exp(-delta / 2.0) * brace


def _check_order(quad_order: int) -> None:
    # a start at half the cap or below keeps every doubling within the cap
    if not 8 <= quad_order <= U_ORDER_CAP // 2:
        raise ValueError(f"quad_order must be in [8, {U_ORDER_CAP // 2}], got {quad_order}")


def _check_pure(state: StateSpec) -> None:
    if state.n_th != 0:
        raise ValueError("the integral route covers pure states only (n_th = 0)")


def qpd_integral(state: StateSpec, offset: OffsetFunction | None, s1: int, s2: int,
                 t1: float, t2: float, quad_order: int = DEFAULT_QUAD_ORDER,
                 with_info: bool = False):
    """Quasi-probability q_{s1,s2}(t1,t2) by the angular-integral route.

    The one-element call of :func:`_q_integral`: the u integral uses fixed
    Gauss-Legendre rules, doubling the order from ``quad_order`` (8 to 256)
    until two successive orders agree to 1e-8 (cap 512); a ConvergenceWarning
    is issued if the final doubling still moved the result by more than 1e-6.
    Pure states only (``state.n_th == 0``).
    """
    q, info = _q_integral(state, offset, s1, s2, t1, np.array([float(t2)]), quad_order)
    return (float(q[0]), info[0]) if with_info else float(q[0])


def _q_integral(state: StateSpec, offset: OffsetFunction | None, s1: int, s2: int,
                t1: float, t2: np.ndarray, quad_order: int):
    """q at every t2 of the 1-D array ``t2``, and one :class:`IntegralInfo` per
    column.

    The t1 half is scalar; E(t2), the drive values, B and delta are columns,
    and sigma(u) and beta(u) (columns, nodes) arrays.  Each column doubles its
    order from ``quad_order`` until two successive orders agree to
    ``U_SELF_CONSISTENCY``, or up to ``U_ORDER_CAP``, and then leaves the
    loop, so it equals its own one-element call bit for bit.  A column with
    |sin phase| < ``DEGENERATE_TOL`` takes :func:`_degenerate_q`.  Each
    unconverged column gives one ConvergenceWarning, reported at the line
    that called this kernel's caller (for a point, the caller of
    :func:`qpd_integral`).
    """
    _check_order(quad_order)
    _check_pure(state)
    _check_signs(s1, s2)
    _check_finite(t1=t1, t2=t2)
    offset = ZERO_OFFSET if offset is None else offset
    gam = gamma_from(state.xi, state.r, state.theta0)
    e1, e2 = mode_e(t1, state.r, state.theta0), mode_e(t2, state.r, state.theta0)
    cal1 = 2.0 * (e1 * gam).real - float(offset.value(t1))
    # a zero offset subtracts exactly 0.0 either way; skipping its array saves time
    cal2 = 2.0 * (e2 * gam).real - (0.0 if offset.is_zero else offset.value(t2))
    ee = e2 * np.conj(e1)
    degenerate = np.abs(np.sin(np.angle(ee))) < DEGENERATE_TOL
    q, info = np.empty(t2.shape), [None] * t2.size
    live = np.flatnonzero(~degenerate)
    if live.size < t2.size:
        for k in np.flatnonzero(degenerate):
            # at t2 == t1 the second cut is the first, which the array half
            # rounds differently from the scalar one
            same = t2[k] == t1
            q[k] = _degenerate_q(e1, e1 if same else e2[k], s1, s2, cal1,
                                 cal1 if same else cal2[k])
            info[k] = IntegralInfo(True, 0.0, 0, True)
        e2, cal2, ee = e2[live], cal2[live], ee[live]

    # one row per column still running: the u-independent factors of sigma and
    # beta, and sqrt(B)
    cal2, ee = cal2[:, None], ee[:, None]
    a1, a2 = abs(e1) ** 2, np.abs(e2[:, None]) ** 2
    B = a1 * a2 - ee ** 2
    delta = (a2 * cal1 * cal1 + a1 * cal2 * cal2 - 2.0 * ee * cal1 * cal2) / B
    # a sign factor (+-1) scales exactly, so where it is applied moves no bit
    rows = [a2, 2.0 * s1 * s2 * ee, a2 * (-s1 * cal1), a1 * s2 * cal2, s1 * cal2, ee, B, delta,
            np.sqrt(B[:, 0])]
    # every column needs the first two orders, so the first pass takes both on
    # one node array
    now, orders = None, [int(quad_order), 2 * int(quad_order)]
    while live.size:
        a2, sig_uv, bet_c, bet_s, bet_x, ee, B, delta, root_b = rows
        rules = [gauss_legendre(order, 0.0, math.pi / 2.0) for order in orders]
        u = np.concatenate([rule.nodes for rule in rules])
        cu, su = np.cos(u), np.sin(u)
        sig = (a2 * cu * cu + a1 * su * su - sig_uv * su * cu) / B
        if np.any(sig.real <= 0):
            raise ArithmeticError("Re(sigma) <= 0 on the u grid; the radial form does not apply")
        bet = (bet_c * cu - bet_s * su + ee * (s2 * cal1 * su + bet_x * cu)) / B
        vals = _c_integral_vec(sig, bet, delta)
        for rule, end in zip(rules, itertools.accumulate(orders)):
            total = (rule.weights * vals[:, end - rule.nodes.size:end]).sum(axis=1) / root_b
            prev, now = now, total.real / (2.0 * math.pi)
        step = np.abs(now - prev)  # finite only if both orders are
        if not np.isfinite(step).all():
            raise ArithmeticError("u-integral overflowed; parameters out of the normalizable range")
        done = step <= (U_SELF_CONSISTENCY if 2 * orders[-1] <= U_ORDER_CAP else math.inf)
        for j in np.flatnonzero(done):
            q[live[j]] = now[j]
            info[live[j]] = IntegralInfo(bool(step[j] <= U_FLAG_THRESHOLD), float(step[j]),
                                         orders[-1], False)
        if done.all():
            break
        keep = ~done
        live, now, rows = live[keep], now[keep], [row[keep] for row in rows]
        orders = [2 * orders[-1]]

    for t, column in zip(t2.tolist(), info):
        if not column.converged:
            warnings.warn(f"u-integral not self-consistent at t2={t!r}, order {column.order}: "
                          f"delta={column.last_delta:.3e}", ConvergenceWarning, stacklevel=3)
    return q, info


def sign_marginal(state: StateSpec, offset: OffsetFunction | None, s: int,
                  t: float) -> float:
    """Single-time marginal <P_s(t)> = (1 + s erf(x_eff/lambda))/2.

    ``x_eff(t) = x_xi(t) - xbar(t)/sqrt(2)`` is the mean position relative to
    the measurement cut, in dimensionless units.
    """
    _check_finite(t=t)
    offset = ZERO_OFFSET if offset is None else offset
    lam = lambda_of(t, state.r, state.theta0)
    x_eff = x_xi_of(t, state.xi) - float(offset.value(t)) / SQRT2
    return 0.5 * (1.0 + s * _sp.erf(x_eff / lam))


def _degenerate_q(e1: complex, e2: complex, s1: int, s2: int, cal1: float,
                  cal2: float) -> float:
    """Exact correlator of one column when the two measured quadratures
    commute: E(t1), E(t2), the signs and the drive values cal1, cal2.

    With the phase of E(t2) conj(E(t1)) at a multiple of pi the joint Gaussian
    is perfectly (anti)correlated, so the second condition reduces to another
    half-line constraint on the first variable.
    """
    lam1, lam2 = abs(e1), abs(e2)
    eta = 1.0 if math.cos(np.angle(e2 * np.conj(e1))) > 0 else -1.0
    mu1, mu2 = cal1 / SQRT2, cal2 / SQRT2
    # each outcome is a half-line of the first variable; erf(+-inf) = +-1
    cuts = ((s1, 0.0), (int(s2 * eta), mu1 - eta * (lam1 / lam2) * mu2))
    lo = max([cut for s, cut in cuts if s == 1], default=-math.inf)
    hi = min([cut for s, cut in cuts if s == -1], default=math.inf)
    cdf = lambda y: 0.5 * (1.0 + _sp.erf((y - mu1) / lam1))
    return float(cdf(hi) - cdf(lo)) if lo < hi else 0.0
