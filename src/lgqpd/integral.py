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
from .special import composite_gauss_legendre, gauss_legendre
from .states import (DEFAULT_UNITS, SQRT2, ZERO_OFFSET, OffsetFunction,
                     StateSpec, UnitsConfig, gamma_from, mode_e)

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
              t1: float, t2: float, units: UnitsConfig = DEFAULT_UNITS) -> QuadForm:
    """Assemble the Gaussian quadratic-form data for one evaluation point."""
    _check_signs(s1, s2)
    gam = gamma_from(state.xi, state.r, state.theta0)
    e1 = mode_e(t1, state.r, state.theta0, units)
    e2 = mode_e(t2, state.r, state.theta0, units)
    cal1 = 2.0 * (e1 * gam).real - float(offset.value(t1, units))
    cal2 = 2.0 * (e2 * gam).real - float(offset.value(t2, units))
    B = abs(e1) ** 2 * abs(e2) ** 2 - (e2 * np.conj(e1)) ** 2
    ee = e2 * np.conj(e1)
    delta = (abs(e2) ** 2 * cal1 * cal1 + abs(e1) ** 2 * cal2 * cal2
             - 2.0 * ee * cal1 * cal2) / B if B != 0 else complex("nan")
    return QuadForm(e1=complex(e1), e2=complex(e2), s1=int(s1), s2=int(s2),
                    cal_e1=cal1, cal_e2=cal2, B=complex(B), delta=complex(delta))


def c_integral_closed(sigma: complex, beta_quad: complex, delta: complex) -> complex:
    """Closed form of Int_0^inf dc c exp(-(sigma c^2 + 2 beta c + delta)/2).

    Requires Re(sigma) > 0.  The erfc term carries the analytically derived
    constant (beta/sigma) sqrt(pi/(2 sigma)), evaluated in scaled erfcx form:

        e^{-delta/2} [ 1/sigma - (beta/sigma) sqrt(pi/(2 sigma)) erfcx(beta/sqrt(2 sigma)) ]
    """
    sigma = complex(sigma)
    if not sigma.real > 0:
        raise ValueError(f"c_integral_closed requires Re(sigma) > 0, got sigma={sigma!r}")
    out = complex(_c_integral_vec(np.asarray(sigma), np.asarray(beta_quad),
                                  np.asarray(complex(delta))))
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise OverflowError(
            "radial integral exceeds double range (strongly negative drive); "
            f"sigma={sigma!r}, beta={beta_quad!r}, delta={delta!r}")
    return out


def _c_integral_vec(sigma, beta, delta):
    with np.errstate(over="ignore", invalid="ignore"):
        root = np.sqrt(sigma)
        brace = 1.0 / sigma - (beta / sigma) * np.sqrt(np.pi / 2.0) / root \
            * _sp.erfcx(beta / (SQRT2 * root))
        return np.exp(-delta / 2.0) * brace


def qpd_integral(state: StateSpec, offset: OffsetFunction | None, s1: int, s2: int,
                 t1: float, t2: float, quad_order: int = 32,
                 units: UnitsConfig = DEFAULT_UNITS, with_info: bool = False):
    """Quasi-probability q_{s1,s2}(t1,t2) by the angular-integral route.

    The u integral uses fixed Gauss-Legendre rules, doubling the order from
    ``quad_order`` until two successive orders agree to 1e-8 (cap 512); a
    ConvergenceWarning is issued if the final doubling still moved the result
    by more than 1e-6.  Pure states only (``state.n_th == 0``).
    """
    if quad_order < 8:
        raise ValueError(f"quad_order must be >= 8, got {quad_order}")
    if state.n_th != 0:
        raise ValueError("the integral route covers pure states only (n_th = 0)")
    offset = ZERO_OFFSET if offset is None else offset
    form = quad_form(state, offset, s1, s2, t1, t2, units)

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


def qpd_integral_2d(state: StateSpec, offset: OffsetFunction | None, s1: int, s2: int,
                    t1: float, t2: float, grid: tuple[int, int] = (64, 240),
                    units: UnitsConfig = DEFAULT_UNITS) -> float:
    """Direct 2-D quadrature over (u, c) before the radial closed form.

    Slow but independent of :func:`c_integral_closed`; used to pin the closed
    form's constant and the sqrt(B) branch.
    """
    _check_signs(s1, s2)
    if state.n_th != 0:
        raise ValueError("the integral route covers pure states only (n_th = 0)")
    offset = ZERO_OFFSET if offset is None else offset
    form = quad_form(state, offset, s1, s2, t1, t2, units)
    if _is_degenerate(form):
        return _degenerate_q(form)

    u_order, c_order = grid
    u_rule = gauss_legendre(int(u_order), 0.0, math.pi / 2.0)
    sig = form.sigma(u_rule.nodes)
    if np.any(sig.real <= 0):
        raise ArithmeticError("Re(sigma) <= 0 on the u grid")
    bet = form.beta_quad(u_rule.nodes)
    # Radial cutoff where the Gaussian factor is below exp(-160) for every u;
    # composite panels keep the oscillatory phase resolved out to the cutoff.
    c_max = float(np.max((np.abs(bet) + np.sqrt(np.abs(bet) ** 2 + 320.0 * sig.real))
                         / sig.real))
    c_rule = composite_gauss_legendre(0.0, c_max,
                                      panel_width=c_max / max(1, c_order // 12),
                                      order=12)
    c = c_rule.nodes[None, :]
    integrand = c * np.exp(-0.5 * (sig[:, None] * c * c + 2.0 * bet[:, None] * c
                                   + form.delta))
    inner = integrand @ c_rule.weights
    total = (u_rule.weights * inner).sum() / np.sqrt(form.B)
    return float(total.real) / (2.0 * math.pi)


def sign_marginal(state: StateSpec, offset: OffsetFunction | None, s: int, t: float,
                  units: UnitsConfig = DEFAULT_UNITS) -> float:
    """Single-time marginal <P_s(t)> = (1 + s erf(x_eff/lambda))/2.

    ``x_eff(t) = x_xi(t) - xbar(t)/sqrt(2)`` is the mean position relative to
    the measurement cut, in dimensionless units.
    """
    from .states import lambda_of, x_xi_of

    offset = ZERO_OFFSET if offset is None else offset
    lam = lambda_of(t, state.r, state.theta0, units)
    x_eff = x_xi_of(t, state.xi, units) - float(offset.value(t, units)) / SQRT2
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
