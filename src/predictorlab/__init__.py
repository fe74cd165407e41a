"""Finite-past predictor coefficients of stationary processes.

Two independent computation routes — an explicit series built from the MA/AR
expansions of the outer function, and the classical Durbin-Levinson
recursion — plus experiments reproducing the long-memory asymptotics of the
predictor coefficients (convergence rate, Baxter-type ratio, kernel scaling).
"""

from .asymptotics import (BaxterReport, DkScalingReport, RateReport,
                          baxter_experiment, dk_scaling_experiment, f_u, fk0,
                          rate_experiment, semigroup_integral)
from .coeffs import (AutocovSeq, autocov, expand_ar, expand_ma, infinite_predictor,
                     phi_for_model, tail_sum_phi)
from .errors import (ConfigError, DegeneracyError, ModelValidationError,
                     OracleDisagreementError, PredictorLabError, RegimeError,
                     TruncationError)
from .explicit import (BetaSeq, DeltaBlock, DVectors, ExplicitPredictor,
                       SeriesTerms, TruncationPolicy, beta_for_model, d_vectors,
                       delta_block, finite_predictor_explicit,
                       finite_predictor_multistep, hankel_apply,
                       projection_iterates)
from .levinson import (PredictorSource, PredictorTable, durbin_levinson,
                       multistep_normal_solve)
from .models import (Ar1, ExplicitModel, Farima, ProcessModel, RealPolynomial,
                     memory_exponent)

__version__ = "0.1.0"

__all__ = [
    "Ar1", "AutocovSeq", "BaxterReport", "BetaSeq",
    "ConfigError", "DegeneracyError", "DeltaBlock", "DkScalingReport",
    "DVectors", "ExplicitModel", "ExplicitPredictor", "Farima",
    "ModelValidationError", "OracleDisagreementError", "PredictorLabError",
    "PredictorSource", "PredictorTable", "ProcessModel", "RateReport",
    "RealPolynomial", "RegimeError", "SeriesTerms",
    "TruncationError", "TruncationPolicy", "autocov", "baxter_experiment",
    "beta_for_model", "d_vectors", "delta_block",
    "dk_scaling_experiment", "durbin_levinson", "expand_ar", "expand_ma",
    "f_u", "finite_predictor_explicit", "finite_predictor_multistep", "fk0",
    "hankel_apply", "infinite_predictor",
    "memory_exponent", "multistep_normal_solve", "phi_for_model",
    "projection_iterates", "rate_experiment",
    "semigroup_integral", "tail_sum_phi",
]
