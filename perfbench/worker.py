"""One workload in a fresh interpreter: set up, run timed passes, check.

Started by run.py; writes one JSON object to the file named by --result.
With --setup-only it stops after set-up and reports only its duration.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

import workloads  # noqa: E402  (numpy import counts towards set-up)
from tracer import Tracer, install, per_layer_metrics  # noqa: E402

OVERHEAD_STRIDE = 3  # every third task also runs untraced, for trace.overhead_ratio


def import_qilab(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import qilab
    if Path(qilab.__file__).resolve().parent != (src / "qilab").resolve():
        raise RuntimeError(f"imported qilab from {qilab.__file__}, not from {src}")
    return qilab


def blas_threads() -> int | None:
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return None
    libs = {line.split()[-1] for line in maps.read_text().splitlines() if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: Path) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qilab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "qilab_source_sha256": digest.hexdigest(),
    }


def setup(args, root: Path, out: Path):
    """Import, generate inputs and warm up; returns (tasks, context)."""
    ctx: dict = {}
    if args.workload == "cli_mix":
        env = dict(os.environ)
        workdir = out / f"inputs-{os.getpid()}"
        requests = workloads.write_cli_inputs(args.seed, workdir)
        runner = workloads.CliRunner(root, env, args.seed, None)
        # one request on each path warms the page cache and compiles bytecode
        warm = workloads.CliRequest(["datahiding", "--d", "3"], lambda r: None)
        runner.run(warm)
        if args.trace:
            runner.spans_dir = out / "cli-spans"
            runner.spans_dir.mkdir(exist_ok=True)
            runner.run(warm)[1].unlink()
            runner.spans_dir = None
        ctx.update(runner=runner, workdir=workdir)
        return workloads.build_cli_mix(runner, requests), ctx
    q = import_qilab(root)
    ctx["qilab"] = q
    if args.workload == "extend_grid":
        tasks = workloads.build_extend_grid(q, args.seed)
        workloads.warm_extend_grid(q)
    else:
        tasks = workloads.build_constructions(q, args.seed)
        workloads.warm_constructions(q)
    return tasks, ctx


def run_task(task):
    t = time.perf_counter()
    try:
        out, error = task.run(), None
    except Exception as exc:  # a failing task is a counted failure, not a crash
        out, error = None, f"{task.label}: {type(exc).__name__}: {exc}"
    return out, error, time.perf_counter() - t


def check_task(task, out) -> str | None:
    try:
        why = task.check(out)
    except Exception as exc:
        why = f"checker raised {type(exc).__name__}: {exc}"
    return f"{task.label}: {why}" if why else None


def load_cli_spans(path: Path, tracer: Tracer, task: int) -> None:
    offset = len(tracer.spans)
    with open(path) as fh:
        for line in fh:
            name, start, end, parent, _, extra = json.loads(line)
            tracer.spans.append([name, start, end, parent + offset if parent >= 0 else -1,
                                 task, extra])
    path.unlink()


def known_defects(args, ctx) -> list[dict]:
    """Probe ROADMAP item-4 defects after the timed passes; report, do not count."""
    found = []
    if args.workload == "cli_mix":
        runner = ctx["runner"]
        for what, req in workloads.known_defect_requests(ctx["workdir"]):
            proc, _ = runner.run(req)
            why = runner.check(req, proc)
            found.append({"defect": what, "still_fails": why is not None, "detail": why})
    elif args.workload == "constructions":
        try:
            ctx["qilab"].spectrum_estimation_distribution(0.2, 1100)
            why = None
        except OverflowError as exc:
            why = f"spectrum_estimation_distribution(0.2, 1100): OverflowError: {exc}"
        found.append({"defect": "spectrum overflow at n > 1030", "still_fails": why is not None,
                      "detail": why})
    return found


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--min-tasks", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    root, out = Path(args.root), Path(args.out)

    tasks, ctx = setup(args, root, out)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        Path(args.result).write_text(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    cli = ctx.get("runner")
    reference = {}
    t_run = time.perf_counter()
    if tracer is not None:
        for i in range(0, len(tasks), OVERHEAD_STRIDE):
            reference[i] = run_task(tasks[i])[2]
        if cli is None:
            install(tracer)
        else:
            cli.spans_dir = out / "cli-spans"

    pass_s, task_ms, failures = [], [], []
    traced_ref_s = 0.0
    attempted = 0
    while True:
        pass_dt = 0.0  # the tasks' own time: checks and span merging stay outside
        for i, task in enumerate(tasks):
            if tracer is not None:
                tracer.task, tracer.active = i, cli is None
            out_, error, dt = run_task(task)
            if tracer is not None:
                tracer.active = False
                if cli is not None and out_ is not None and out_[1].exists():
                    load_cli_spans(out_[1], tracer, i)
                if i in reference and len(pass_s) == 0:
                    traced_ref_s += dt
            attempted += 1
            pass_dt += dt
            task_ms.append(dt * 1000.0)
            why = error or check_task(task, out_)
            if why:
                failures.append(why)
            del out_
        pass_s.append(pass_dt)
        if attempted >= args.min_tasks and time.perf_counter() - t_run + pass_s[-1] > args.seconds:
            break

    if cli is not None:
        cli.spans_dir = None
    result = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "task_ms": task_ms,
        "tasks_per_pass": len(tasks),
        "labels": [t.label for t in tasks],
        "attempted": attempted,
        "failures": failures,
        "known_defects": known_defects(args, ctx),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN if cli is not None else resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0,
        "environment": environment(root),
    }
    if tracer is not None:
        ratio = traced_ref_s / sum(reference.values())
        result["per_layer"] = per_layer_metrics(tracer.spans, len(pass_s), ratio)
        tracer.dump(str(out / "spans.jsonl"))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
