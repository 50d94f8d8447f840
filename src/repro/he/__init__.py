"""BFV homomorphic encryption substrate (the paper's SEAL role)."""

from repro.he.backend import PolyMulBackend, flash_backend, fp_fft_backend
from repro.he.bfv import BfvContext, Ciphertext, PublicKey, SecretKey
from repro.he.noise import (
    accumulation_noise_factor,
    fft_error_tolerance,
    fresh_noise_bound,
    plain_mult_noise_factor,
    predicted_budget_after_hconv,
)
from repro.he.param_search import (
    ParameterError,
    ParameterReport,
    max_log_q,
    noise_bits_for_hconv,
    parameters_for_network,
    select_parameters,
)
from repro.he.params import (
    BfvParameters,
    cham_preset,
    cheetah_preset,
    preset,
    toy_preset,
)
from repro.he.poly import RingPoly, gaussian_poly, ternary_poly, uniform_poly

__all__ = [
    "BfvContext",
    "BfvParameters",
    "Ciphertext",
    "ParameterError",
    "ParameterReport",
    "PolyMulBackend",
    "PublicKey",
    "RingPoly",
    "SecretKey",
    "accumulation_noise_factor",
    "cham_preset",
    "cheetah_preset",
    "fft_error_tolerance",
    "flash_backend",
    "fp_fft_backend",
    "fresh_noise_bound",
    "max_log_q",
    "noise_bits_for_hconv",
    "parameters_for_network",
    "gaussian_poly",
    "plain_mult_noise_factor",
    "predicted_budget_after_hconv",
    "preset",
    "select_parameters",
    "ternary_poly",
    "toy_preset",
    "uniform_poly",
]
