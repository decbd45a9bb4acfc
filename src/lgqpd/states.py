"""Initial-state parameter algebra for the displaced squeezed oscillator.

A state is parameterized by the coherent amplitude ``xi`` (so x0 = sqrt(2) Re xi
and p0 = sqrt(2) Im xi are the initial phase-space coordinates), a squeeze
magnitude ``r`` with phase ``theta0``, and a thermal occupation ``n_th``.

Two derived time-dependent quantities drive every evaluator: the variance
scale ``lambda(t)`` and the quadrature rotation angle ``beta(t)`` that together
fold the squeezing into a rescaled, time-reparameterized coherent problem.

Every time here, and in every kernel of the package, is the dimensionless
phase omega*t; only a scan config's ``omega`` rescales times, in the scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class StateSpec:
    """Displaced squeezed thermal state parameters.

    ``xi`` is the coherent amplitude, ``r >= 0`` the squeeze magnitude,
    ``theta0`` the squeeze phase in radians, ``n_th >= 0`` the thermal
    occupation (0 for a pure state).
    """

    xi: complex = 0j
    r: float = 0.0
    theta0: float = 0.0
    n_th: float = 0.0

    def __post_init__(self):
        xi = complex(self.xi)
        if not (math.isfinite(xi.real) and math.isfinite(xi.imag)):
            raise ValueError("xi must be finite")
        if not (math.isfinite(self.r) and self.r >= 0):
            raise ValueError(f"r must be finite and >= 0, got {self.r!r}")
        if not math.isfinite(self.theta0):
            raise ValueError("theta0 must be finite")
        if not (math.isfinite(self.n_th) and self.n_th >= 0):
            raise ValueError(f"n_th must be finite and >= 0, got {self.n_th!r}")
        object.__setattr__(self, "xi", xi)

    @property
    def x0(self) -> float:
        return SQRT2 * self.xi.real

    @property
    def p0(self) -> float:
        return SQRT2 * self.xi.imag

    @property
    def is_pure(self) -> bool:
        return self.n_th == 0.0

    @classmethod
    def from_phase_space(cls, x0: float, p0: float, r: float = 0.0,
                         theta0: float = 0.0, n_th: float = 0.0) -> "StateSpec":
        return cls(xi=(x0 + 1j * p0) / SQRT2, r=r, theta0=theta0, n_th=n_th)


def n_th_from_temperature(temp_ratio: float) -> float:
    """Thermal occupation from the temperature ratio k_B T / (hbar omega)."""
    if not (math.isfinite(temp_ratio) and temp_ratio >= 0):
        raise ValueError(f"temperature ratio must be finite and >= 0, got {temp_ratio!r}")
    if temp_ratio == 0.0:
        return 0.0
    return 1.0 / math.expm1(1.0 / temp_ratio)


@dataclass(frozen=True)
class OffsetFunction:
    """Harmonic measurement offset xbar(t) = amplitude*cos(t - phase) + constant.

    The offset is expressed on the same scale as the doubled coherent
    trajectory 2|xi|cos(t - Theta) = sqrt(2)*x_xi(t); divide by sqrt(2)
    (see :meth:`cut_position`) to get the cut location in the dimensionless
    position units of the eigenfunctions.
    """

    amplitude: float = 0.0
    phase: float = 0.0
    constant: float = 0.0

    def __post_init__(self):
        for name in ("amplitude", "phase", "constant"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def value(self, t):
        return self.amplitude * np.cos(t - self.phase) + self.constant

    def cut_position(self, t):
        """Cut location in dimensionless position units."""
        return self.value(t) / SQRT2

    @property
    def is_zero(self) -> bool:
        return self.amplitude == 0.0 and self.constant == 0.0

    @classmethod
    def coherent_equivalent(cls, xi: complex) -> "OffsetFunction":
        """Offset that makes the ground state reproduce the statistics of a
        coherent state xi measured with no offset."""
        xi = complex(xi)
        return cls(amplitude=-2.0 * abs(xi), phase=float(np.angle(xi)), constant=0.0)


ZERO_OFFSET = OffsetFunction()


def gamma_from(xi: complex, r: float, theta0: float) -> complex:
    """Displacement seen behind the squeezer: gamma = xi cosh r - conj(xi) e^{i theta0} sinh r."""
    if r < 0:
        raise ValueError("r must be >= 0")
    xi = complex(xi)
    if not (math.isfinite(xi.real) and math.isfinite(xi.imag)):
        raise ValueError("xi must be finite")
    return xi * math.cosh(r) - np.conj(xi) * np.exp(1j * theta0) * math.sinh(r)


def mode_e(t, r: float, theta0: float):
    """Squeezed mode function E(t) = e^{-i t} cosh r + e^{i t} e^{-i theta0} sinh r.

    Satisfies |E(t)| = lambda(t); reduces to e^{-i t} at r = 0.
    """
    return np.exp(-1j * t) * math.cosh(r) + np.exp(1j * t) * np.exp(-1j * theta0) * math.sinh(r)


def lambda_of(t, r: float, theta0: float):
    """Time-dependent width scale lambda(t) = sqrt(sinh(2r) cos(2t - theta0) + cosh(2r)).

    Bounded below by e^{-r} > 0 and periodic with period pi.
    """
    return np.sqrt(math.sinh(2 * r) * np.cos(2 * t - theta0) + math.cosh(2 * r))


def phase_beta_of(t, r: float, theta0: float):
    """Quadrature rotation angle beta(t) = atan2(B(t), A(t)).

    A(t) = cosh r + cos(theta0 - 2t) sinh r and B(t) = sin(theta0 - 2t) sinh r.
    A(t) >= cosh r - sinh r > 0 for every t, so the two-argument arctangent
    stays on the principal branch and beta is continuous and periodic without
    any unwrapping.
    """
    return np.arctan2(np.sin(theta0 - 2 * t) * math.sinh(r),
                      math.cosh(r) + np.cos(theta0 - 2 * t) * math.sinh(r))


def x_xi_of(t, xi: complex):
    """Mean trajectory x_xi(t) = sqrt(2) Re[xi e^{-i t}] = x0 cos t + p0 sin t."""
    return SQRT2 * (xi.real * np.cos(t) + xi.imag * np.sin(t))


def reduce_squeezed_to_coherent(spec: StateSpec):
    """Coherent-state parameters reproducing a squeezed-state correlator.

    Returns ``(xi_prime, time_map)`` such that the sign-projector
    quasi-probability of ``spec`` at times (t1, t2) equals that of the
    (thermal) coherent state ``xi_prime`` evaluated at times
    ``time_map(t_i) = t_i + beta(t_i)``.  The thermal occupation is
    unchanged by the reduction.  At r = 0 this is the identity.

    The phase-space map is

        x0' = x0 (cosh r - sinh r cos theta0) - p0 sinh r sin theta0
        p0' = -x0 sinh r sin theta0 + p0 (cosh r + sinh r cos theta0),

    the symplectic inverse of the map that sends a coherent amplitude to the
    squeezed amplitude with the same rescaled trajectory.
    """
    r, th = spec.r, spec.theta0
    ch, sh = math.cosh(r), math.sinh(r)
    c, s = math.cos(th), math.sin(th)
    x0, p0 = spec.x0, spec.p0
    x0p = x0 * (ch - sh * c) - p0 * sh * s
    p0p = -x0 * sh * s + p0 * (ch + sh * c)
    xi_prime = (x0p + 1j * p0p) / SQRT2
    if r == 0.0:
        xi_prime = spec.xi

    def time_map(t):
        return t + phase_beta_of(t, r, th)

    return xi_prime, time_map


def thermal_weight(m: int, n_th: float) -> float:
    """Occupation-m weight of a thermal state: (n_th/(1+n_th))^m / (1+n_th)."""
    if m < 0 or int(m) != m:
        raise ValueError(f"m must be a non-negative integer, got {m!r}")
    if not (math.isfinite(n_th) and n_th >= 0):
        raise ValueError(f"n_th must be finite and >= 0, got {n_th!r}")
    if n_th == 0.0:
        return 1.0 if m == 0 else 0.0
    return (n_th / (1.0 + n_th)) ** m / (1.0 + n_th)


def thermal_m_cut(n_th: float) -> int:
    """Smallest M with thermal_weight(M, n_th) < 1e-12: the occupation cut."""
    if n_th == 0.0:
        return 1
    ratio = n_th / (1.0 + n_th)
    m = int(math.ceil(math.log(1e-12 * (1.0 + n_th)) / math.log(ratio))) + 1
    return max(m, 1)
