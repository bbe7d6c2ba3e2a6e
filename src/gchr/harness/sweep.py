"""Sweep driver: one full multi-seed run per axis value plus a summary CSV."""

from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError
from .loop import RunFailure, final_success_per_seed, run_training

SWEEP_AXES = ("beta", "alpha", "K_fraction", "relabel_ratio", "action_noise")


def apply_axis(cfg, axis, value):
    """New ExperimentConfig with one sweep axis set."""
    if axis == "beta":
        return replace(cfg, agent=replace(cfg.agent, beta=float(value)))
    if axis == "alpha":
        return replace(cfg, agent=replace(cfg.agent, alpha=float(value)))
    if axis == "K_fraction":
        return replace(cfg, agent=replace(cfg.agent, hindsight_goal_fraction=float(value)))
    if axis == "relabel_ratio":
        return replace(cfg, her=replace(cfg.her, relabel_ratio=float(value)))
    if axis == "action_noise":
        return replace(cfg, action_noise_std=float(value))
    raise ConfigError(f"unknown sweep axis {axis!r}; known: {SWEEP_AXES}")


def _cell_name(axis, value):
    return f"{axis}_{value:g}" if isinstance(value, float) else f"{axis}_{value}"


def run_sweep(cfg, axis, values, sweep_dir):
    """Run every value; a failed cell is recorded and does not abort the sweep.

    The summary is recomputed from the per-seed metrics files so it cannot
    drift from the run records.
    """
    sweep_dir = Path(sweep_dir)
    sweep_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in values:
        cell_cfg = apply_axis(cfg, axis, value)
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
