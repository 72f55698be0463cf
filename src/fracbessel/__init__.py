"""Fractional-derivative calculus and series evaluation of the McDonald
function K_s(z), with an identity-verification suite against an independent
quadrature oracle."""

from .errors import (
    DomainError,
    FracBesselError,
    PoleError,
    SeriesDiverged,
    ToleranceNotMet,
)
from .fractional import (
    BoundarySetup,
    exp_rule,
    leibniz_series,
    log_rule,
    power_rule,
    rl_derivative,
    rl_integral,
)
from .oracle import (
    VerificationRecord,
    k_oracle,
    verify_m4a,
    verify_m4b,
    verify_m5a,
    verify_m5b,
)
from .series import (
    OrderArg,
    adjudicate_m10,
    general_expansion_m7,
    k_mcdonald,
    k_series_m9,
    k_series_m10,
    k_series_rearranged,
)
from .special import (
    EULER_GAMMA,
    LogGammaValue,
    digamma,
    gamma_log,
    gen_binomial,
    lower_incomplete_gamma,
    pochhammer,
)
from .truncation import DEFAULT_POLICY, SeriesApproximation, TruncationPolicy
from .vk import (
    Polynomial,
    vk_coeffs_closed_m1,
    vk_coeffs_recurrence,
    vk_coeffs_sum,
    vk_eval,
)

__version__ = "0.1.0"

__all__ = [
    "BoundarySetup",
    "DEFAULT_POLICY",
    "DomainError",
    "EULER_GAMMA",
    "FracBesselError",
    "LogGammaValue",
    "OrderArg",
    "PoleError",
    "Polynomial",
    "SeriesApproximation",
    "SeriesDiverged",
    "ToleranceNotMet",
    "TruncationPolicy",
    "VerificationRecord",
    "adjudicate_m10",
    "digamma",
    "exp_rule",
    "gamma_log",
    "gen_binomial",
    "general_expansion_m7",
    "k_mcdonald",
    "k_oracle",
    "k_series_m9",
    "k_series_m10",
    "k_series_rearranged",
    "leibniz_series",
    "log_rule",
    "lower_incomplete_gamma",
    "pochhammer",
    "power_rule",
    "rl_derivative",
    "rl_integral",
    "verify_m4a",
    "verify_m4b",
    "verify_m5a",
    "verify_m5b",
    "vk_coeffs_closed_m1",
    "vk_coeffs_recurrence",
    "vk_coeffs_sum",
    "vk_eval",
]
