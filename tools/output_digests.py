#!/usr/bin/env python3
"""Output digests: sha256 of training outputs and of tabular-lab reports.

    python3 tools/output_digests.py

Trains seed 1 of four fixed configs, each in a fresh temporary directory,
and prints one line per config: its name, the digest of metrics.csv and the
digest of checkpoint.ckpt. The configs are the benchmark's two training
workloads (their overrides are read from perfbench/workloads.py) plus two
small ones that reach the tanh, delayed copy, K-fraction, action-noise and
entropy paths the workloads leave at their defaults.

Then runs verify_tabular, as `gchr tabular-verify` does, on the benchmark's
lab gridworld (LAB_GRID in perfbench/workloads.py) for seeds 1-5, on
assets/chain3.mdp for seeds 0-5 and on a walled 4x3 grid whose goal sets are
pairs of cells for seeds 0-2, and prints one line per MDP and seed: its
name, the seed and the digest of the report CSV. The walled grid is the one
MDP with goal sets of more than one state: first hits spread over several
columns, and both parts of the reachability certificate run.

A change that must keep training output and lab reports byte-identical
prints the same lines before and after.

    python3 tools/output_digests.py --check tools/output_digests.txt

compares the printed lines with a recorded file (lines starting with "#"
are comments), prints each line that differs and exits 1 on a difference.
The digests depend on the numpy and BLAS build, so the recorded file names
the build that produced it, and a check on another build may differ
without any change to the program.
"""

import os

# one BLAS thread before numpy loads, as perfbench/run.py does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from itertools import zip_longest  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from gchr.envs import load_tabular_mdp  # noqa: E402
from gchr.harness import default_config, train_seed  # noqa: E402
from gchr.tabular_lab import (  # noqa: E402
    grid_cells,
    make_gridworld,
    verify_tabular,
    write_report_csv,
)
from workloads import LAB_GRID, TRAIN_OVERRIDES  # noqa: E402

CONFIGS = {
    **TRAIN_OVERRIDES,
    "l_maze_tanh_delayed": [
        "env.name=l_maze", "agent.activation=tanh", "agent.hidden_sizes=16 16 16",
        "agent.prior_source=delayed_copy", "agent.tau_delay=7",
        "agent.hindsight_goal_fraction=0.5", "run.epochs=2", "run.cycles_per_epoch=3",
    ],
    "block_push_noise_entropy": [
        "env.name=block_push", "env.action_noise_std=0.1", "agent.entropy_coeff=0.01",
        "run.epochs=2", "run.cycles_per_epoch=3",
    ],
}
SEED = 1
PAIRED_WALLS = [(1, 0), (1, 1), (1, 2)]  # a wall column cuts the 4x3 grid in two


def paired_goal_grid():
    """4x3 slippery grid behind a wall column; consecutive cells share a goal id."""
    n_states = len(grid_cells(4, 3, PAIRED_WALLS))
    return make_gridworld(4, 3, gamma=0.9, walls=PAIRED_WALLS, slip=0.2,
                          phi=np.arange(n_states) // 2)


LAB_MDPS = {
    "lab_grid": (lambda: make_gridworld(**LAB_GRID), range(1, 6)),
    "chain3": (lambda: load_tabular_mdp(ROOT / "assets" / "chain3.mdp"), range(0, 6)),
    "paired_goal_grid": (paired_goal_grid, range(0, 3)),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_lines():
    """Train and verify every config and MDP; yields one line per digest."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, overrides in CONFIGS.items():
            run_dir = Path(tmp) / name
            train_seed(default_config(overrides), SEED, run_dir)
            yield f"{name} {sha256(run_dir / 'metrics.csv')} {sha256(run_dir / 'checkpoint.ckpt')}"
        for name, (build, seeds) in LAB_MDPS.items():
            mdp = build()
            for seed in seeds:
                report = Path(tmp) / f"{name}_{seed}.csv"
                write_report_csv(verify_tabular(mdp, seed=seed), report)
                yield f"{name} seed={seed} {sha256(report)}"


def main(argv=None):
    parser = argparse.ArgumentParser(description="sha256 of training outputs and lab reports")
    parser.add_argument("--check", metavar="FILE",
                        help="compare with recorded lines; exit 1 on a difference")
    args = parser.parse_args(argv)
    lines = []
    for line in digest_lines():
        print(line, flush=True)
        lines.append(line)
    if args.check is None:
        return 0
    recorded = [line for line in Path(args.check).read_text().splitlines()
                if line.strip() and not line.startswith("#")]
    differ = [(want, got) for want, got in zip_longest(recorded, lines, fillvalue="(none)")
              if want != got]
    for want, got in differ:
        print(f"differs: recorded {want}\n         printed  {got}")
    print(f"{len(differ)} lines differ from {args.check}" if differ
          else f"all {len(lines)} lines match {args.check}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
