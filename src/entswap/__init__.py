"""Fidelity, efficiency, and rate analysis for heralded entanglement swapping.

Closed-form photon-number statistics and fidelities for swapping heralded by
linear-optical and by sum-frequency-generation Bell state measurements, the
device physics that sets the up-conversion probability, exact truncated
Fock-space checks, and independent oracles that verify every closed form.
"""

from .errors import (
    ConfigError,
    DomainError,
    EntswapError,
    InputError,
    InsufficientStatisticsError,
    ModelValidityError,
    ModelValidityWarning,
    TruncationError,
    UndefinedFidelityError,
    UsageError,
)
from .photon_stats import (
    SwapScenario,
    epsilon_from_p,
    p_from_epsilon,
)
from .lo_bsm import (
    LoFidelityReport,
    fidelity_balanced_smalleta,
    fidelity_general,
    fidelity_unbalanced_limit,
    fidelity_upper_bound,
    optimal_epsilon_a,
)
from .nlo_bsm import (
    fidelity_nlo,
    p_for_target_fidelity,
    p_total_sfg,
)
from .sfg_device import (
    CavityParams,
    SteadyState,
    WaveguideParams,
    cavity_steady_state,
    eta_sfg_cavity,
    kappa_from_q,
    p_sfg_cavity,
    p_sfg_from_eta,
    p_sfg_waveguide,
)
from .rates import CrossoverResult, crossover, rate_lo, rate_nlo
from .fock_sim import (
    BellOutcome,
    bell_fidelity,
    bell_state,
    dfg_spurious_amplitude,
    product_state,
    sfg_evolve,
    swap_condition_on_sfg,
)
from .oracle import (
    OracleConfig,
    OracleEstimate,
    exact_fidelity_lo,
    exact_fidelity_nlo,
    mc_fidelity_lo,
    mc_fidelity_nlo,
)

__version__ = "0.1.0"
