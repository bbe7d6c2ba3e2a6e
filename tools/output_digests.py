#!/usr/bin/env python3
"""Training-output digests: sha256 of metrics.csv and checkpoint.ckpt.

    python3 tools/output_digests.py

Trains seed 1 of four fixed configs, each in a fresh temporary directory,
and prints one line per config: its name, the digest of metrics.csv and the
digest of checkpoint.ckpt. A change that must keep training output
byte-identical prints the same lines before and after. The configs are the
benchmark's two training workloads (their overrides are read from
perfbench/workloads.py) plus two small ones that reach the tanh, delayed
copy, K-fraction, action-noise and entropy paths the workloads leave at
their defaults.
"""

import os

# one BLAS thread before numpy loads, as perfbench/run.py does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from gchr.harness import default_config, train_seed  # noqa: E402
from workloads import TRAIN_OVERRIDES  # noqa: E402

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


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name, overrides in CONFIGS.items():
            run_dir = Path(tmp) / name
            train_seed(default_config(overrides), SEED, run_dir)
            print(name, sha256(run_dir / "metrics.csv"), sha256(run_dir / "checkpoint.ckpt"),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
