from .assumption import ReachabilityCertificate, check_assumption_uniform_reachability
from .gridworld import grid_cells, make_gridworld, random_walk_log
from .monotonic import MonotonicityReport, check_theorem2_monotonicity
from .occupancy import OccupancyTable, compute_occupancy, q_from_occupancy
from .policy import TabularPolicy
from .report import CheckResult, format_report, verify_tabular, write_report_csv
from .solve import (
    greedy_policy_slice,
    policy_evaluation_iterative,
    policy_iteration_step,
    policy_transition_matrix,
    reward_vector,
)
from .supports import (
    achieved_goals_in_logs,
    behavior_clone,
    hgr_support_table,
    hsr_support_table,
)
from .via_goal import via_goal_slice

__all__ = [
    "ReachabilityCertificate",
    "check_assumption_uniform_reachability",
    "grid_cells",
    "make_gridworld",
    "random_walk_log",
    "MonotonicityReport",
    "check_theorem2_monotonicity",
    "OccupancyTable",
    "compute_occupancy",
    "q_from_occupancy",
    "TabularPolicy",
    "CheckResult",
    "format_report",
    "verify_tabular",
    "write_report_csv",
    "greedy_policy_slice",
    "policy_evaluation_iterative",
    "policy_iteration_step",
    "policy_transition_matrix",
    "reward_vector",
    "achieved_goals_in_logs",
    "behavior_clone",
    "hgr_support_table",
    "hsr_support_table",
    "via_goal_slice",
]
