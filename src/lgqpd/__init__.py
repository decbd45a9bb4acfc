"""Two-time Leggett-Garg quasi-probabilities for a harmonic oscillator.

Three mutually independent evaluation routes for
q_{s1,s2}(t1, t2) = Re Tr[P_{s2}(t2) P_{s1}(t1) rho]:

* :mod:`lgqpd.integral` -- closed Gaussian reduction to one angular integral
  (pure squeezed coherent states, sign projectors with a harmonic offset);
* :mod:`lgqpd.series` -- eigenbasis series (coherent, squeezed, thermal
  squeezed coherent states; symmetric window projectors on squeezed vacuum);
* :mod:`lgqpd.fock` -- brute-force truncated number-basis arbiter.

:mod:`lgqpd.scan` sweeps parameter planes and minimizes over the second
measurement time; negativity of q certifies a Leggett-Garg violation, floored
at -1/8.
"""

__version__ = "0.1.0"

from .errors import CapabilityError, ConvergenceWarning, TruncationError
from .special import composite_gauss_legendre, gauss_legendre, psi_rows
from .states import (OffsetFunction, StateSpec, ZERO_OFFSET, gamma_from,
                     lambda_of, mode_e, n_th_from_temperature, phase_beta_of,
                     reduce_squeezed_to_coherent, thermal_m_cut,
                     thermal_weight, x_xi_of)
from .matrix_elements import j_diag_row, j_row
from .integral import IntegralInfo, qpd_integral, sign_marginal
from .series import (MeasurementSpec, SeriesInfo, TruncationConfig,
                     q_sign_series_curve, q_window_series_curve,
                     qpd_series_squeezed, qpd_series_thermal,
                     qpd_series_window)
from .fock import OracleInfo, q_oracle_curve, qpd_oracle
from .scan import (GlobalMinimum, ScanConfig, ScanResult, T2Search,
                   global_minimize, minimize_over_t2, named_evaluator,
                   scan_plane)

__all__ = [name for name in dir() if not name.startswith("_")]
