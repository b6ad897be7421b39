"""CSV emission for equilibria, demand solutions, trajectories, and sweeps.

Numbers are printed with up to 12 significant digits (Python ``.12g``), the
decimal separator is ``.``, fields are comma-separated, and lines end with
LF, so repeated runs on the same inputs are byte-identical.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .core import aggregate_power

if TYPE_CHECKING:
    from .core import EconomyState, ScenarioConfig
    from .demand import DemandSolution
    from .growth import Trajectory
    from .statics import SignTable
    from .surplus import EnergySideSolution


def fmt(value) -> str:
    """Canonical numeric formatting for every emitted number."""
    if value.__class__ is not float:        # most values are floats
        if value is None:
            return "nan"
        if isinstance(value, str):
            return value
        value = float(value)
    return format(value, ".12g")


def _lines(rows: list[list]) -> str:
    return "".join([",".join([fmt(v) for v in row]) + "\n" for row in rows])


def equilibrium_csv(state: EconomyState, solution: EnergySideSolution) -> str:
    rows: list[list] = [["good", "Q_star", "gamma", "alpha", "E_good",
                         "meroi", "binding_constraint"]]
    for good in state.energy_goods.values():
        gid = good.id
        q = solution.outputs.get(gid, 0.0)
        e_good = good.energy_content * q - solution.expenditure[gid]
        rows.append([gid, q, solution.gamma[gid],
                     solution.marginal_surplus[gid], e_good,
                     solution.meroi[gid],
                     solution.binding_constraints.get(gid, "")])
    rows.append([])
    rows.append(["phi", solution.phi])
    rows.append(["E_total", solution.usable_surplus])
    rows.append(["I", solution.gross_income])
    rows.append(["G", solution.gross_expenditure])
    return _lines(rows)


def demand_csv(solution: DemandSolution) -> str:
    rows: list[list] = [["good", "Q_star", "gamma_avg", "gamma_marginal",
                         "energy_spent"]]
    for gid, q in solution.bundle.items():
        avg = solution.gamma_average.get(gid)
        rows.append([gid, q, avg, solution.gamma_marginal.get(gid),
                     (avg * q) if avg is not None else 0.0])
    rows.append([])
    rows.append(["lambda", solution.lam])
    rows.append(["E", solution.energy_budget])
    rows.append(["budget_residual", solution.budget_residual])
    rows.append(["usability_slack", solution.usability_slack])
    return _lines(rows)


def trajectory_csv(scenario: ScenarioConfig, trajectory: Trajectory) -> str:
    good_ids = [g.id for g in scenario.energy_goods]
    mover_ids = [m.id for m in scenario.prime_movers]

    header = ["t", "phi", "E_star", "P", "lambda"]
    for gid in good_ids:
        header += [f"Q_{gid}", f"alpha_{gid}", f"meroi_{gid}"]
    for mid in mover_ids:
        header += [f"x_{mid}", f"phi_l_{mid}"]

    # every field is a number, formatted as ``fmt`` does, None as nan
    template = ",".join(["%.12g"] * len(header)) + "\n"
    lines = [",".join(header) + "\n"]
    for r in trajectory.records:
        energy, stocks, lam = r.energy, r.state.stocks, r.demand.lam
        row: list = [r.state.period, energy.phi, energy.usable_surplus,
                     aggregate_power(r.state),
                     math.nan if lam is None else lam]
        for gid in good_ids:
            meroi = energy.meroi.get(gid)
            row += [energy.outputs.get(gid, math.nan),
                    energy.marginal_surplus.get(gid, math.nan),
                    math.nan if meroi is None else meroi]
        for mid in mover_ids:
            row += [stocks.get(mid, math.nan),
                    energy.mover_surplus.get(mid, math.nan)]
        lines.append(template % tuple(row))
    text = "".join(lines)

    if trajectory.steady:
        last = trajectory.records[-1]
        alpha = last.energy.marginal_surplus
        outputs = last.energy.outputs
        text += f"# steady_state_period,{fmt(last.state.period)}\n"
        text += f"# steady_state_phi,{fmt(last.energy.phi)}\n"
        text += "# steady_state_max_alpha," \
            f"{fmt(max(alpha.values(), default=0.0))}\n"
        for gid in sorted(outputs):
            text += f"# steady_state_Q_{gid},{fmt(outputs[gid])}\n"
    if trajectory.error is not None:
        text += f"# aborted_period,{len(trajectory.records)}\n"
        text += f"# error,{trajectory.error}\n"
    return text


def sign_table_csv(tables: dict[str, SignTable]) -> str:
    rows: list[list] = [["proposition", "trials", "confirmed", "failed",
                         "discarded", "min_derivative", "max_derivative"]]
    for key in sorted(tables):
        t = tables[key]
        if not t.applicable:
            rows.append([t.proposition, 0, 0, 0, t.discarded,
                         "not_applicable", "not_applicable"])
            continue
        rows.append([t.proposition, t.trials, t.confirmations,
                     len(t.failures), t.discarded, t.min_derivative,
                     t.max_derivative])
    text = _lines(rows)
    text += f"# generator,{tables[next(iter(sorted(tables)))].generator}\n"
    return text


def failures_csv(tables: dict[str, SignTable]) -> str:
    rows: list[list] = [["proposition", "trial", "digest", "derivative"]]
    for key in sorted(tables):
        for trial, digest, deriv in tables[key].failures:
            rows.append([key, trial, digest, deriv])
    return _lines(rows)


def meec_curve_csv(points) -> str:
    rows: list[list] = [["Q", "gamma", "gamma_avg", "G", "eta"]]
    for p in points:
        rows.append([p.quantity, p.marginal, p.average, p.cumulative,
                     p.elasticity])
    return _lines(rows)
