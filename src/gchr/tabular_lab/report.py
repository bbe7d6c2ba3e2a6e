"""Verification report for a tabular MDP file: every lab identity, with margins."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .monotonic import REACHABILITY_DELTA, check_theorem2_monotonicity, fold_max
from .occupancy import compute_occupancy, q_from_occupancy
from .policy import TabularPolicy
from .solve import HIT_MASS_FLOOR, policy_evaluation_iterative


@dataclass
class CheckResult:
    name: str
    passed: bool
    margin: float
    tolerance: float
    detail: str = ""


N_POLICIES = 3  # the uniform policy, then random ones drawn from the seed


def verify_tabular(mdp, seed=0, pi_sweeps=4):
    """Run every identity and theorem check on one MDP.

    Margins are worst-case absolute errors (or, for the monotonicity checks,
    the most negative per-sweep improvement, flipped in sign so that bigger
    is worse); a check passes when its margin stays within tolerance. A NaN
    anywhere in a margin's fold makes that margin NaN, which fails.
    """
    rng = np.random.default_rng(seed)
    results = []

    row_margin = float(np.max(np.abs(mdp.transitions.sum(axis=2) - 1.0)))
    results.append(CheckResult("transition_rows_sum_to_one", row_margin <= 1e-12,
                               row_margin, 1e-12))

    occ_margin = 0.0
    identity_margin = 0.0
    first_hit_margin = 0.0
    support_leak = 0.0
    hit_mass_margin = 0.0
    shape = (mdp.n_states, mdp.n_goals, mdp.n_actions)
    for i in range(N_POLICIES):
        # drawn one at a time, in the rng order of drawing them all up front
        policy = TabularPolicy.random(*shape, rng) if i else TabularPolicy.uniform(*shape)
        q_iter, _ = policy_evaluation_iterative(mdp, policy)
        for goal in range(mdp.n_goals):
            table = compute_occupancy(mdp, policy, goal)
            occ_margin = fold_max(occ_margin, float(np.max(np.abs(table.d_row_sums - 1.0))))
            occ_margin = fold_max(
                occ_margin, float(np.max(np.abs(table.d_marginal_row_sums - 1.0))))
            identity_margin = fold_max(identity_margin, float(
                np.max(np.abs(q_from_occupancy(table) - q_iter[:, :, goal]))))
            defined = table.hit_mass > HIT_MASS_FLOOR
            if np.any(defined):
                sums = table.first_hit[defined].sum(axis=1)
                first_hit_margin = fold_max(first_hit_margin, float(np.max(np.abs(sums - 1.0))))
            outside = np.ones(mdp.n_states, dtype=bool)
            outside[mdp.goal_states(goal)] = False
            leak = float(np.max(np.abs(table.first_hit[:, outside]))) if np.any(outside) else 0.0
            support_leak = fold_max(support_leak, leak)
            hit_mass_margin = fold_max(
                hit_mass_margin, float(np.max(np.abs(table.hit_mass - table.p_goal_marginal)))
            )
        del policy, q_iter, table  # released before the next draw and evaluation
    results.append(CheckResult("occupancy_rows_sum_to_one", occ_margin <= 1e-9,
                               occ_margin, 1e-9))
    results.append(CheckResult("q_equals_p_over_one_minus_gamma", identity_margin <= 1e-9,
                               identity_margin, 1e-9,
                               "occupancy route vs Neumann-doubling evaluation"))
    results.append(CheckResult("first_hit_rows_normalized", first_hit_margin <= 1e-9,
                               first_hit_margin, 1e-9))
    results.append(CheckResult("first_hit_support_in_goal_set", support_leak <= 0.0,
                               support_leak, 0.0))
    results.append(CheckResult("hit_mass_matches_goal_density", hit_mass_margin <= 1e-9,
                               hit_mass_margin, 1e-9))

    # the monotonicity check certifies its hypothesis under the same uniform policy
    report = check_theorem2_monotonicity(mdp, n_iterations=pi_sweeps)
    certs = report.certificates
    n_bad = sum(not c.holds for c in certs)
    results.append(CheckResult(
        "uniform_reachability_certificate", n_bad == 0, float(n_bad), 0.0,
        f"{len(certs) - n_bad}/{len(certs)} goals certified (delta={REACHABILITY_DELTA:g})",
    ))

    via_margin = fold_max(0.0, -report.min_via_diff)
    hit_margin = fold_max(0.0, -report.min_hit_diff)
    down_margin = fold_max(0.0, -report.min_downstream_diff)
    gated = "hypothesis certified" if report.assumption_holds else "hypothesis NOT certified"
    results.append(CheckResult("via_goal_value_monotone", via_margin <= 1e-9,
                               via_margin, 1e-9, gated))
    results.append(CheckResult("hit_probability_monotone", hit_margin <= 1e-9,
                               hit_margin, 1e-9, gated))
    results.append(CheckResult("downstream_value_monotone", down_margin <= 1e-9,
                               down_margin, 1e-9, gated))
    return results


def format_report(results):
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = f"{status}  {res.name:<36} margin={res.margin:.3e}  tol={res.tolerance:.0e}"
        if res.detail:
            line += f"  ({res.detail})"
        lines.append(line)
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)


def write_report_csv(results, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "passed", "margin", "tolerance", "detail"])
        for res in results:
            writer.writerow([res.name, int(res.passed), repr(res.margin),
                             repr(res.tolerance), res.detail])
