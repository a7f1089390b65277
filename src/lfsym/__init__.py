"""Symmetry types of L-function families from local (prime-side) data.

The package estimates the random-matrix symmetry constant of a family of
L-functions from its averaged Satake power sums, verifies that
Rankin-Selberg convolution multiplies symmetry constants, and ships the
supporting machinery: exact Weil-group algebra at the archimedean place,
random-matrix density predictions, and elliptic-curve family statistics.
"""

from .arith import (
    DirichletCharacter,
    PrimeTable,
    characters_mod,
    dirichlet_character,
    factorize,
    is_prime,
    kronecker_symbol,
    sieve_primes,
)
from .ecgeom import (
    CurveInvariants,
    EllipticFamilySpec,
    avg_log_conductor,
    conductor_proxy,
    invariants,
    michel_moment,
    nagao_sum,
    residue_moments,
    rs_conductor_bounds,
    trace_of_frobenius,
)
from .families import (
    Family,
    character_twist,
    convolve,
    cusp_form_delta,
    dirichlet_family,
    elliptic_family,
    fundamental_discriminants,
    kronecker_twist,
    quadratic_family,
    ramanujan_tau_table,
    sym_lift,
    twist_by_fixed,
)
from .rmt import (
    SymmetryGroup,
    TestFunction,
    density_one_point,
    fejer_test_function,
    fejer_squared_test_function,
    fourier_density,
    one_level_prediction,
    two_level_prediction,
)
from .satake import (
    SatakeSpectrum,
    sym_power_spectrum,
)
from .stats import (
    ConstantConfig,
    DensityReport,
    FamilyConstant,
    family_constant,
    pnt_prime_sum,
    predicted_density,
)
from .weil import (
    GammaFactor,
    WeilIrr,
    WeilRep,
    convolution_root_number,
    disc,
    epsilon_factor,
    gamma_factor,
    log_analytic_conductor,
    minus,
    plus,
    sym_power,
    tensor,
    wedge2,
)

__version__ = "0.1.0"
