"""Sweep driver: one full multi-seed run per axis value plus a summary CSV."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .config import ConfigError, apply_overrides
from .loop import RunFailure, final_success_per_seed, run_training

# each axis sets one config key, through the same parser as --set
SWEEP_AXES = {
    "beta": "agent.beta",
    "alpha": "agent.alpha",
    "K_fraction": "agent.hindsight_goal_fraction",
    "relabel_ratio": "her.relabel_ratio",
    "action_noise": "env.action_noise_std",
}


def apply_axis(cfg, axis, value):
    """New ExperimentConfig with one sweep axis set."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; known: {tuple(SWEEP_AXES)}")
    return apply_overrides(cfg, [f"{SWEEP_AXES[axis]}={float(value)!r}"])


def _cell_name(axis, value):
    return f"{axis}_{value:g}" if isinstance(value, float) else f"{axis}_{value}"


def run_sweep(cfg, axis, values, sweep_dir):
    """Run every value; a failed cell is recorded and does not abort the sweep.

    Every cell's config is built before any cell runs, so a value the
    config rejects raises ConfigError with nothing trained. The summary is
    recomputed from the per-seed metrics files so it cannot drift from the
    run records.
    """
    try:
        cells = [apply_axis(cfg, axis, value) for value in values]
    except ValueError as exc:
        raise ConfigError(f"sweep {axis}: {exc}") from exc
    sweep_dir = Path(sweep_dir)
    sweep_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for value, cell_cfg in zip(values, cells):
        cell_dir = sweep_dir / _cell_name(axis, value)
        try:
            run_training(cell_cfg, cell_dir)
            finals = list(final_success_per_seed(cell_dir, cell_cfg.seeds).values())
            rows.append([
                axis, repr(float(value)),
                repr(float(np.mean(finals))), repr(float(np.std(finals))),
                len(finals), "ok",
            ])
        except RunFailure as exc:
            rows.append([axis, repr(float(value)), "", "", 0, f"failed: {exc}"])
    summary = sweep_dir / "summary.csv"
    with open(summary, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", "final_success_mean", "final_success_std",
                         "n_seeds", "status"])
        writer.writerows(rows)
    return summary
