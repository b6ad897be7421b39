"""Energy-surplus growth lab.

A solver library and scenario simulator for an energy-centered model of an
autarkic agent: static equilibria on the energy side (surplus maximization
under prime-mover scarcity) and the consumer side (utility maximization
under an energy budget), prime-mover accumulation dynamics to a steady
state, and numerical comparative statics.
"""

__version__ = "0.1.0"

from .core import (EconomyState, EnergyGood, EventSpec, NonEnergyGood,
                   Preferences, PrimeMoverType, ScenarioConfig,
                   aggregate_power, direct_energy, initial_state,
                   load_scenario, scenario_digest, scenario_from_dict)
from .demand import DemandSolution, solve_demands, usability_slack
from .embodied import (MeecPoint, average_embodied, cumulative_transfer,
                       elasticity, marginal_embodied, sample_curve)
from .errors import (EglError, ScenarioParseError, ScenarioValidationError,
                     SolverError)
from .growth import Trajectory, apply_event, simulate, step_accumulation
from .statics import SignTable, perturb_and_sign, proposition_suite
from .surplus import (EnergySideSolution, figure1_report, marginal_surplus_at,
                      mover_surplus_rates, scarcity_premium,
                      solve_energy_side)

__all__ = [
    "EconomyState", "EnergyGood", "EventSpec", "NonEnergyGood",
    "Preferences", "PrimeMoverType", "ScenarioConfig",
    "aggregate_power", "direct_energy", "initial_state", "load_scenario",
    "scenario_digest", "scenario_from_dict",
    "DemandSolution", "solve_demands", "usability_slack",
    "MeecPoint", "average_embodied", "cumulative_transfer", "elasticity",
    "marginal_embodied", "sample_curve",
    "EglError", "ScenarioParseError", "ScenarioValidationError",
    "SolverError",
    "Trajectory", "apply_event", "simulate", "step_accumulation",
    "SignTable", "perturb_and_sign", "proposition_suite",
    "EnergySideSolution", "figure1_report", "marginal_surplus_at",
    "mover_surplus_rates", "scarcity_premium", "solve_energy_side",
    "__version__",
]
