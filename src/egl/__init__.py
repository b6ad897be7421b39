"""Energy-surplus growth lab.

A solver library and scenario simulator for an energy-centered model of an
autarkic agent: static equilibria on the energy side (surplus maximization
under prime-mover scarcity) and the consumer side (utility maximization
under an energy budget), prime-mover accumulation dynamics to a steady
state, and numerical comparative statics.

The names below are exported lazily: ``egl.simulate`` (or ``from egl
import simulate``) imports ``egl.growth`` on first use, so importing the
package, or one of its modules, loads no module it does not need.
"""

import importlib

__version__ = "0.1.0"

#: Each exported name, by the module that defines it.
_EXPORTS = {
    "core": ("EconomyState", "EnergyGood", "EventSpec", "NonEnergyGood",
             "Preferences", "PrimeMoverType", "ScenarioConfig",
             "aggregate_power", "direct_energy", "initial_state",
             "load_scenario", "scenario_digest", "scenario_from_dict"),
    "demand": ("DemandSolution", "solve_demands", "usability_slack"),
    "embodied": ("MeecPoint", "average_embodied", "cumulative_transfer",
                 "elasticity", "marginal_embodied", "sample_curve"),
    "errors": ("EglError", "ScenarioParseError", "ScenarioValidationError",
               "SolverError"),
    "growth": ("Trajectory", "apply_event", "simulate", "step_accumulation"),
    "statics": ("SignTable", "perturb_and_sign", "proposition_suite"),
    "surplus": ("EnergySideSolution", "figure1_report",
                "marginal_surplus_at", "mover_surplus_rates",
                "scarcity_premium", "solve_energy_side"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value         # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
