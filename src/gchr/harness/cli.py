"""Command-line interface.

Verbs: train, eval, sweep, tabular-verify, dump-goals. Any config key can
be overridden with --set section.key=value. Output directories resolve
against --output, then the config's output_dir under $GCHR_OUTPUT_ROOT
(default ./runs). Exit codes: 0 success, 1 run failure, 2 config error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from ..agent import load_actor_from_checkpoint
from ..envs import load_tabular_mdp, make_env
from ..nn.mlp import ACTIVATIONS
from ..tabular_lab import format_report, verify_tabular, write_report_csv
from .config import ConfigError, default_config, load_config, parse_env_overrides
from .goals import dump_terminal_goals
from .loop import RunFailure, final_success_per_seed, run_eval, run_training
from .sweep import SWEEP_AXES, run_sweep


def _resolve_run_dir(cfg, explicit):
    if explicit:
        return Path(explicit)
    root = Path(os.environ.get("GCHR_OUTPUT_ROOT", "runs"))
    out = Path(cfg.output_dir)
    return out if out.is_absolute() else root / out


def _load(args):
    if args.config:
        return load_config(args.config, args.set)
    return default_config(args.set)


def cmd_train(args):
    cfg = _load(args)
    run_dir = _resolve_run_dir(cfg, args.output)
    print(f"[gchr] training {cfg.env['name']} -> {run_dir} (seeds {list(cfg.seeds)})")
    run_training(cfg, run_dir)
    for seed, success in final_success_per_seed(run_dir, cfg.seeds).items():
        print(f"[gchr] seed {seed}: final success {success:.3f}")
    return 0


def cmd_eval(args):
    overrides = parse_env_overrides(args.set)
    try:
        env = make_env(args.env, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    spec = env.spec
    actor = load_actor_from_checkpoint(
        args.checkpoint, spec.state_dim, spec.goal_dim, spec.action_dim,
        activation=args.activation,
    )
    success, mean_return = run_eval(actor, env, args.episodes, args.seed)
    print(f"[gchr] success_rate {success:.4f} mean_return {mean_return:.4f} "
          f"({args.episodes} rollouts, seed {args.seed})")
    return 0


def cmd_sweep(args):
    cfg = _load(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values {args.values!r}: {exc}") from exc
    if not values:
        raise ConfigError("sweep needs at least one value")
    sweep_dir = _resolve_run_dir(cfg, args.output)
    print(f"[gchr] sweeping {args.axis} over {values} -> {sweep_dir}")
    summary = run_sweep(cfg, args.axis, values, sweep_dir)
    print(summary.read_text().rstrip())
    return 0


def cmd_tabular_verify(args):
    mdp = load_tabular_mdp(args.mdp)
    results = verify_tabular(mdp, seed=args.seed, pi_sweeps=args.sweeps)
    print(format_report(results))
    if args.csv:
        write_report_csv(results, args.csv)
        print(f"[gchr] wrote {args.csv}")
    return 0 if all(r.passed for r in results) else 1


def cmd_dump_goals(args):
    out = dump_terminal_goals(args.run_dir, args.out)
    print(f"[gchr] wrote {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="gchr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run a multi-seed training experiment")
    train.add_argument("--config", help="INI experiment file (defaults apply otherwise)")
    train.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override any config key (repeatable)")
    train.add_argument("--output", help="run directory (overrides config output_dir)")
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser("eval", help="evaluate an actor checkpoint")
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--env", required=True)
    evaluate.add_argument("--episodes", type=int, default=100)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--activation", default="relu", choices=ACTIVATIONS)
    evaluate.add_argument("--set", action="append", default=[], metavar="ENV.KEY=VALUE")
    evaluate.set_defaults(func=cmd_eval)

    sweep = sub.add_parser("sweep", help="run one training per axis value")
    sweep.add_argument("--config", help="base INI experiment file")
    sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep.add_argument("--values", required=True, help="comma-separated values")
    sweep.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE")
    sweep.add_argument("--output", help="sweep directory")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("tabular-verify", help="verify the lab identities on an MDP file")
    verify.add_argument("--mdp", required=True)
    verify.add_argument("--csv", help="also write per-check margins to this CSV")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--sweeps", type=int, default=4)
    verify.set_defaults(func=cmd_tabular_verify)

    goals = sub.add_parser("dump-goals", help="extract terminal achieved goals from a run")
    goals.add_argument("--run-dir", required=True)
    goals.add_argument("--out")
    goals.set_defaults(func=cmd_dump_goals)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"[gchr] config error: {exc}", file=sys.stderr)
        return 2
    except (RunFailure, FileNotFoundError, ValueError) as exc:
        print(f"[gchr] run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
