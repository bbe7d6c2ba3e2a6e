#!/usr/bin/env python3
"""gchr benchmark: one workload per process, one closed-loop caller.

    python3 perfbench/run.py --workload reach_hgr --seed 1 --seconds 20 --trace 0

Workloads: reach_hgr, push_collect, lab_grid (see NOTES.md). The seed
builds the program's inputs: the training seed, or the lab's random
policies. With --trace 0 the run times set-up, the task and the read-back
path untraced and prints the end-to-end metrics; with --trace 1 it times
the task untraced, then again with every layer's public functions
wrapped, and prints the per-layer metrics. Each metric is printed on its
own line with its unit, then the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every correctness gate passed.

Runs happen in fresh directories under .bench_runs/ in the checkout,
removed at the end; traced runs leave their spans in
.bench_runs/spans_<workload>_seed<seed>.csv.
"""

import os

# Pin BLAS to one thread before numpy loads: the program's own limiter is a
# no-op without threadpoolctl, and the networks are too small to gain from more.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from spans import SpanTable, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
WORKLOADS = ("reach_hgr", "push_collect", "lab_grid")

# set-up is short, so it repeats for at least this long and this many times
SETUP_SECONDS = 1.0
SETUP_AT_LEAST = 9
# share of --seconds spent on the task; the read-back path gets the rest
TASK_SHARE = 0.8

FS_MAGIC = {
    0xEF53: "ext2/3/4", 0x794C7630: "overlayfs", 0x01021994: "tmpfs", 0x58465342: "xfs",
    0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
}


def fs_type(path):
    """Filesystem of `path` from statfs(2); f_type is the struct's first field."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.statfs.argtypes = [ctypes.c_char_p, ctypes.c_void_p]
    libc.statfs.restype = ctypes.c_int
    buf = ctypes.create_string_buffer(256)  # larger than struct statfs
    if libc.statfs(os.fsencode(str(path)), buf) != 0:
        return "unknown"
    magic = ctypes.c_long.from_buffer(buf).value & 0xFFFFFFFF
    return FS_MAGIC.get(magic, hex(magic))


def machine(run_dir):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "run_dir_fs": fs_type(run_dir),
    }


def repeat(fn, seconds, at_least):
    """Call fn (which returns its own wall time) until `seconds` have passed
    and it ran at least `at_least` times; one caller, no overlap."""
    values = []
    tick = time.perf_counter()
    while len(values) < at_least or time.perf_counter() - tick < seconds:
        values.append(fn())
    return values


def summary(values, what):
    """Median of the samples, described with their count and spread."""
    median = statistics.median(values)
    lo, hi = min(values), max(values)
    return median, f"median of {len(values)} {what}, min {lo:.6g}, max {hi:.6g}"


def peak_alloc_mb(wl):
    """Peak bytes held by Python's allocators, numpy arrays included, during
    one extra task. tracemalloc slows every allocation, so this task is not
    timed; unlike ru_maxrss the figure does not depend on heap fragmentation."""
    tracemalloc.start()
    try:
        wl.task()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def measure_end_to_end(wl, seconds):
    setups = repeat(wl.setup, SETUP_SECONDS, SETUP_AT_LEAST)
    tasks = repeat(wl.task, TASK_SHARE * seconds, 2)
    evals = repeat(wl.evaluate, (1.0 - TASK_SHARE) * seconds, 3)
    epochs = wl.epoch_seconds()
    if epochs:
        print(f"info epoch_s_p50 = {statistics.median(epochs)!r} s "
              f"(median of {len(epochs)} epochs from timing.csv)")
    alloc = peak_alloc_mb(wl)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB
    print(f"info peak_rss_mb = {rss!r} MB (ru_maxrss)")
    return {
        "setup_s": (*summary(setups, "set-ups"), "s"),
        "task_s": (*summary(tasks, "tasks"), "s"),
        "eval_s": (*summary(evals, "read-backs"), "s"),
        "peak_alloc_mb": (alloc, "tracemalloc peak over one untimed task", "MB"),
    }


def measure_layers(wl, seconds, spans_path):
    from workloads import install_spans, layer_metrics  # needs src/ on sys.path

    wl.setup()
    plain = repeat(wl.task, 0.5 * TASK_SHARE * seconds, 2)
    epochs = wl.epoch_seconds()
    tracer = Tracer()
    install_spans(tracer)
    try:
        traced = repeat(wl.task, 0.5 * TASK_SHARE * seconds, wl.min_traced_tasks)
        repeat(wl.evaluate, (1.0 - TASK_SHARE) * seconds, 3)
    finally:
        tracer.restore()
    tracer.write_csv(spans_path)
    print(f"info {len(tracer.names)} spans written to {spans_path}")
    out = {name: (value, "traced", unit) for name, (value, unit)
           in layer_metrics(SpanTable(tracer), wl, wl.gate).items()}
    out["harness.epoch_s_p50"] = (
        *(summary(epochs, "untraced epochs") if epochs else (0.0, "no epochs")), "s")
    base = statistics.median(plain)
    out["trace.overhead_frac"] = (
        (statistics.median(traced) - base) / base,
        f"{len(traced)} traced vs {len(plain)} untraced tasks", "frac")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gchr" / "__init__.py").is_file():
        print(f"perfbench: no gchr sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from workloads import Gate, make_workload

    RUNS.mkdir(exist_ok=True)
    gate = Gate()
    with tempfile.TemporaryDirectory(dir=RUNS, prefix=f"{args.workload}-") as work_dir:
        print("machine " + json.dumps(machine(work_dir), sort_keys=True))
        wl = make_workload(args.workload, args.seed, work_dir, gate)
        if args.trace:
            spans_path = RUNS / f"spans_{args.workload}_seed{args.seed}.csv"
            metrics = measure_layers(wl, args.seconds, spans_path)
        else:
            metrics = measure_end_to_end(wl, args.seconds)
        wl.finish()
    for name, (value, detail, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit} ({detail})")
    for problem in gate.problems:
        print(f"gate FAILED: {problem}")
    print(json.dumps({
        "correct": gate.ok,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, _, unit) in metrics.items()},
    }))
    return 0 if gate.ok else 1


if __name__ == "__main__":
    sys.exit(main())
