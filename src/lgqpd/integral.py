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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.special as _sp

from .errors import ConvergenceWarning
from .series import _check_signs
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


@dataclass(frozen=True)
class QuadForm:
    """Quadratic-form data of the reduced Gaussian integral.

    ``B`` is the determinant of the 2x2 momentum covariance block, ``delta``
    the u-independent constant, and ``cal_e1/cal_e2`` the offset-shifted drive
    values E(t_i) gamma + conj(E(t_i) gamma) - xbar(t_i).  ``sigma(u)`` and
    ``beta_quad(u)`` evaluate the u-dependent coefficients (``beta_quad`` is
    the linear Gaussian coefficient, distinct from the quadrature rotation
    angle of :func:`lgqpd.states.phase_beta_of`).
    """

    e1: complex
    e2: complex
    s1: int
    s2: int
    cal_e1: float
    cal_e2: float
    B: complex
    delta: complex

    def sigma(self, u):
        cu, su = np.cos(u), np.sin(u)
        ee = self.e2 * np.conj(self.e1)
        return (abs(self.e2) ** 2 * cu * cu + abs(self.e1) ** 2 * su * su
                - 2.0 * self.s1 * self.s2 * ee * su * cu) / self.B

    def beta_quad(self, u):
        cu, su = np.cos(u), np.sin(u)
        ee = self.e2 * np.conj(self.e1)
        return (-abs(self.e2) ** 2 * self.s1 * self.cal_e1 * cu
                - abs(self.e1) ** 2 * self.s2 * self.cal_e2 * su
                + ee * (self.s2 * self.cal_e1 * su + self.s1 * self.cal_e2 * cu)) / self.B


@dataclass(frozen=True)
class IntegralInfo:
    """Diagnostics of one integral-route evaluation."""

    converged: bool
    last_delta: float
    order: int
    degenerate: bool


def quad_form(state: StateSpec, offset: OffsetFunction, s1: int, s2: int,
              t1: float, t2: float) -> QuadForm:
    """Assemble the Gaussian quadratic-form data for one evaluation point."""
    _check_signs(s1, s2)
    gam = gamma_from(state.xi, state.r, state.theta0)
    e1 = mode_e(t1, state.r, state.theta0)
    e2 = mode_e(t2, state.r, state.theta0)
    cal1 = 2.0 * (e1 * gam).real - float(offset.value(t1))
    cal2 = 2.0 * (e2 * gam).real - float(offset.value(t2))
    B = abs(e1) ** 2 * abs(e2) ** 2 - (e2 * np.conj(e1)) ** 2
    ee = e2 * np.conj(e1)
    delta = (abs(e2) ** 2 * cal1 * cal1 + abs(e1) ** 2 * cal2 * cal2
             - 2.0 * ee * cal1 * cal2) / B if B != 0 else complex("nan")
    return QuadForm(e1=complex(e1), e2=complex(e2), s1=int(s1), s2=int(s2),
                    cal_e1=cal1, cal_e2=cal2, B=complex(B), delta=complex(delta))


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
                 t1: float, t2: float, quad_order: int = 32, with_info: bool = False):
    """Quasi-probability q_{s1,s2}(t1,t2) by the angular-integral route.

    The u integral uses fixed Gauss-Legendre rules, doubling the order from
    ``quad_order`` (8 to 256) until two successive orders agree to 1e-8 (cap
    512); a ConvergenceWarning is issued if the final doubling still moved
    the result by more than 1e-6.  Pure states only (``state.n_th == 0``).
    """
    _check_order(quad_order)
    _check_pure(state)
    offset = ZERO_OFFSET if offset is None else offset
    form = quad_form(state, offset, s1, s2, t1, t2)

    if _is_degenerate(form):
        q = _degenerate_q(form)
        return (q, IntegralInfo(True, 0.0, 0, True)) if with_info else q

    prev = None
    order = int(quad_order)
    delta_last = math.inf
    while True:
        q = _u_integral(form, order)
        if prev is not None:
            delta_last = abs(q - prev)
            if delta_last <= U_SELF_CONSISTENCY or 2 * order > U_ORDER_CAP:
                break
        prev = q
        order *= 2
    converged = delta_last <= U_FLAG_THRESHOLD
    if not converged:
        warnings.warn(
            f"u-integral not self-consistent at order {order}: delta={delta_last:.3e}",
            ConvergenceWarning, stacklevel=2)
    return (q, IntegralInfo(converged, delta_last, order, False)) if with_info else q


def _u_integral(form: QuadForm, order: int) -> float:
    rule = gauss_legendre(order, 0.0, math.pi / 2.0)
    sig = form.sigma(rule.nodes)
    if np.any(sig.real <= 0):
        raise ArithmeticError(
            "Re(sigma) <= 0 on the u grid; the radial closed form does not apply")
    bet = form.beta_quad(rule.nodes)
    vals = _c_integral_vec(sig, bet, form.delta)
    total = (rule.weights * vals).sum() / np.sqrt(form.B)
    q = float(total.real) / (2.0 * math.pi)
    if not math.isfinite(q):
        raise ArithmeticError("u-integral overflowed; parameters out of the "
                              "normalizable range")
    return q


def sign_marginal(state: StateSpec, offset: OffsetFunction | None, s: int,
                  t: float) -> float:
    """Single-time marginal <P_s(t)> = (1 + s erf(x_eff/lambda))/2.

    ``x_eff(t) = x_xi(t) - xbar(t)/sqrt(2)`` is the mean position relative to
    the measurement cut, in dimensionless units.
    """
    offset = ZERO_OFFSET if offset is None else offset
    lam = lambda_of(t, state.r, state.theta0)
    x_eff = x_xi_of(t, state.xi) - float(offset.value(t)) / SQRT2
    return 0.5 * (1.0 + s * _sp.erf(x_eff / lam))


def _is_degenerate(form: QuadForm) -> bool:
    phase = np.angle(form.e2 * np.conj(form.e1))
    return abs(math.sin(phase)) < DEGENERATE_TOL


def _degenerate_q(form: QuadForm) -> float:
    """Exact correlator when the two measured quadratures commute.

    With the phase of E(t2) conj(E(t1)) at a multiple of pi the joint Gaussian
    is perfectly (anti)correlated, so the second condition reduces to another
    half-line constraint on the first variable.
    """
    lam1, lam2 = abs(form.e1), abs(form.e2)
    eta = 1.0 if math.cos(np.angle(form.e2 * np.conj(form.e1))) > 0 else -1.0
    mu1 = form.cal_e1 / SQRT2
    mu2 = form.cal_e2 / SQRT2
    cut2 = mu1 - eta * (lam1 / lam2) * mu2
    s2_eff = int(form.s2 * eta)

    lo = -math.inf
    hi = math.inf
    for s, cut in ((form.s1, 0.0), (s2_eff, cut2)):
        if s == 1:
            lo = max(lo, cut)
        else:
            hi = min(hi, cut)
    if lo >= hi:
        return 0.0
    cdf = lambda y: 0.5 * (1.0 + _sp.erf((y - mu1) / lam1)) if math.isfinite(y) \
        else (1.0 if y > 0 else 0.0)
    return float(cdf(hi) - cdf(lo))
