"""qilab benchmark: one workload, one seed, one result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload extend_grid --seed 1 --seconds 30 --trace 0

Workloads: extend_grid, constructions, cli_mix (see perfbench/README.md).
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics from a traced run.  Details,
the environment and the spans go to .perfbench-out/ and stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from tracer import per_layer_metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Untraced runs split the time among fresh worker processes, run one after
# another, and report medians across them: task times on this kind of machine
# shift from one process to the next.  cli_mix already starts a process per
# request.  A traced run uses one worker.
WORKERS = {"extend_grid": 3, "constructions": 3, "cli_mix": 1}
SETUPS = 7            # setup_s is the median of this many fresh-process set-ups
MIN_TASKS = 100       # per run, so that p90 has at least 10 samples above it
BLAS_THREADS = 1      # one caller, one thread: see README.md
DEADLINE_S = 170      # the whole run, workers included, ends within this
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update({v: threads for v in BLAS_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, out: Path, name: str, workers: int, deadline: float,
               setup_only: bool = False) -> dict:
    result = out / f"{name}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / workers),
           "--min-tasks", str(-(-MIN_TASKS // workers)), "--trace", str(args.trace),
           "--root", str(ROOT), "--out", str(out), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    # own process group, so that a timeout also stops the worker's qi-cli children
    proc = subprocess.Popen(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {name} worker did not finish within {DEADLINE_S} s")
    if proc.returncode != 0 or not result.exists():
        sys.stderr.write(err.decode(errors="replace"))
        raise SystemExit(f"perfbench: {name} worker exited with {proc.returncode}")
    return json.loads(result.read_text())


def merge(results: list[dict]) -> dict:
    """Pool the samples of the workers of one run."""
    merged = dict(results[0])
    for key in ("pass_s", "task_ms", "failures"):
        merged[key] = [x for r in results for x in r[key]]
    merged["attempted"] = sum(r["attempted"] for r in results)
    merged["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in results)
    return merged


def end_to_end(main: dict, setups: list[float]) -> dict:
    failed = len(main["failures"])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(main["pass_s"]), "s"),
        "task_ms.p50": (float(np.quantile(main["task_ms"], 0.5)), "ms"),
        "task_ms.p90": (float(np.quantile(main["task_ms"], 0.9)), "ms"),
        "success_rate": (1.0 - failed / main["attempted"], "ratio"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }


def per_layer(main: dict) -> dict:
    units = {"calls": "count", "iterations": "count", "bytes_out": "bytes",
             "max_operator_bytes": "bytes", "overhead_ratio": "ratio",
             "feasible": "count", "infeasible_evidence": "count", "undetermined": "count"}
    out = {}
    for name in per_layer_metric_names():
        last = name.rsplit(".", 1)[1]
        unit = units.get(last, "ms/iteration" if last == "ms_per_iteration" else "ms")
        out[name] = (main["per_layer"][name], unit)
    return out


def by_label(main: dict) -> dict:
    """Task times per task label, for reading a run, not for gating."""
    labels = main["labels"]
    groups: dict[str, list[float]] = {}
    for i, ms in enumerate(main["task_ms"]):
        groups.setdefault(labels[i % len(labels)], []).append(ms)
    return {k: {"median": statistics.median(v), "min": min(v), "max": max(v), "n": len(v)}
            for k, v in groups.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/qilab/__init__.py", "src/qilab/cli.py"):
        if not (ROOT / needed).is_file():
            sys.stderr.write(f"perfbench: {ROOT / needed} is missing; run from a qilab checkout\n")
            return 2

    out = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    deadline = time.monotonic() + DEADLINE_S
    workers = 1 if args.trace else WORKERS[args.workload]
    results = [run_worker(args, out, f"worker{i}", workers, deadline) for i in range(workers)]
    setups = [r["setup_s"] for r in results]
    if not args.trace:  # a traced run reports no setup_s
        for i in range(SETUPS - workers):
            setups.append(run_worker(args, out, f"setup{i}", workers, deadline,
                                     setup_only=True)["setup_s"])
    main_result = merge(results)
    for path in out.glob("inputs-*"):
        shutil.rmtree(path, ignore_errors=True)

    metrics = per_layer(main_result) if args.trace else end_to_end(main_result, setups)
    failures = main_result["failures"]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "workers": workers, "passes": len(main_result["pass_s"]),
        "tasks_per_pass": main_result["tasks_per_pass"],
        "pass_s": main_result["pass_s"], "setup_s": setups,
        "failures": failures, "known_defects": main_result["known_defects"],
        "environment": main_result["environment"],
        "blas_threads_set": worker_env()["OPENBLAS_NUM_THREADS"],
        "samples": {"task_ms": len(main_result["task_ms"]), "setup_s": len(setups),
                    "wall_s": len(main_result["pass_s"])},
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "task_ms_by_label": by_label(main_result),
    }
    (out / "report.json").write_text(json.dumps(report, indent=1))
    sys.stderr.write(json.dumps({k: report[k] for k in
                                 ("workload", "seed", "workers", "passes", "tasks_per_pass", "samples",
                                  "environment", "blas_threads_set")}) + "\n")
    for why in failures[:20]:
        sys.stderr.write(f"perfbench: FAILED {why}\n")
    for defect in main_result["known_defects"]:
        state = "still fails" if defect["still_fails"] else "now passes"
        sys.stderr.write(f"perfbench: known defect ({defect['defect']}): {state}\n")

    line = {
        "correct": not failures,
        "attempted": main_result["attempted"],
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    sys.stdout.write(json.dumps(line) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
