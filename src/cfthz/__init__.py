"""Cell-free terahertz downlink simulator with leaky-wave antennas.

Frequency-angle-coupled antenna gain, four transmit-antenna-selection
schemes, cross-entropy subchannel allocation under bandwidth/flatness
constraints, and deterministic Monte Carlo sweeps.
"""

__version__ = "0.1.0"

from .alloc import (
    CEConfig,
    CEResult,
    GridRss,
    Subchannel,
    SubchannelPlan,
    build_plan,
    ce_optimize,
    integrated_rate,
    plan_rate,
)
from .phy import (
    SPEED_OF_LIGHT,
    AntennaConfig,
    BelowCutoffError,
    antenna_gain,
    complex_sinc,
    link_rss,
    path_gain,
    peak_frequency,
    phase_constant,
    wavenumber,
)
from .selection import (
    AccessPoint,
    select_best_at,
    select_best_nsel,
    select_mrt,
    select_nearest,
)
from .sim import (
    ScenarioConfig,
    SweepResult,
    TrialResult,
    generate_scenario,
    monte_carlo,
    run_trial,
)
