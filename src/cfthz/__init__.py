"""Cell-free terahertz downlink simulator with leaky-wave antennas.

Frequency-angle-coupled antenna gain, four transmit-antenna-selection
schemes, cross-entropy subchannel allocation under bandwidth/flatness
constraints, and deterministic Monte Carlo sweeps.
"""

__version__ = "0.1.0"

from .alloc import GridRss, ce_optimize
from .phy import AntennaConfig, antenna_gain, peak_frequency
from .sim import ScenarioConfig, generate_scenario, monte_carlo
