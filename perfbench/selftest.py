"""Self-tests of the benchmark itself.

Usage (from the repository root): python3 perfbench/selftest.py

- every metric name uses only [A-Za-z0-9_.-] and matches BENCHMARK.json;
- every checker rejects a deliberately corrupted output;
- exact counts (iterations, calls, bytes_out, win_probability.calls) repeat
  identically for a fixed seed, on cut-down task lists;
- a traced call that raises still leaves every per-layer metric.
"""
from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TRACER = tracer.Tracer()


def setUpModule():
    import qilab  # noqa: F401  (every qilab module must be loaded before install)
    tracer.install(TRACER, cli_handlers=True)


def q():
    return sys.modules["qilab"]


def scratch_dir():
    """A temporary directory inside the checkout, like the benchmark's own output."""
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=out)


class MetricNames(unittest.TestCase):
    def test_names_are_plain_and_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = [m["name"] for m in spec["end_to_end"]]
        layer = [m["name"] for m in spec["per_layer"]]
        for name in e2e + layer:
            self.assertRegex(name, NAME)
        self.assertEqual(len(set(e2e + layer)), len(e2e + layer))
        self.assertEqual(layer, tracer.per_layer_metric_names())
        fake = {"failures": [], "attempted": 1, "pass_s": [1.0], "task_ms": [1.0],
                "peak_rss_mb": 1.0}
        self.assertEqual(sorted(e2e), sorted(run.end_to_end(fake, [1.0])))
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, (_, unit) in run.end_to_end(fake, [1.0]).items():
            self.assertEqual(units[name], unit)


class CheckersRejectCorruption(unittest.TestCase):
    def test_extension(self):
        rng = np.random.default_rng(5)
        rho = workloads.separable_mixture(rng, 2, 2, 0.2)
        case = workloads.ExtendCase("sep", 2, 2, 2, rho, "feasible")
        rep = q().k_extendibility(q().DensityMatrix(rho, (2, 2)), 2)
        self.assertIsNone(checks.check_extendibility(rep, case))
        ext = rep.extension
        swap_broken = ext.copy()
        swap_broken[0, 1] += 1e-3
        swap_broken[1, 0] += 1e-3
        shifted = ext + 1e-3 * np.eye(ext.shape[0])
        negative = ext - 2 * float(np.linalg.eigvalsh(ext)[-1]) * np.outer(
            np.linalg.eigh(ext)[1][:, -1], np.linalg.eigh(ext)[1][:, -1].conj())
        for bad in (swap_broken, shifted, negative, None):
            self.assertIsNotNone(checks.check_extendibility(
                dataclasses.replace(rep, extension=bad), case))
        undetermined = dataclasses.replace(rep, status=q().FeasStatus.UNDETERMINED)
        self.assertIsNotNone(checks.check_extendibility(undetermined, case))
        phi = workloads.ExtendCase("phi", 2, 2, 2, workloads.phi_plus(2), "not_feasible")
        self.assertIsNotNone(checks.check_extendibility(rep, phi))

    def test_projectors(self):
        p = q().symmetric_projector(2, 4)
        self.assertIsNone(checks.check_projector(p, 5))
        self.assertIsNotNone(checks.check_projector(p, 6))
        self.assertIsNotNone(checks.check_projector(p * 1.01, 5))
        mixed = p.copy()
        mixed[0, 0], mixed[15, 15] = 0.5, 1.5  # right trace, not a projector
        self.assertIsNotNone(checks.check_projector(mixed, 5))
        blocks = q().spin_projectors(4)
        self.assertIsNone(checks.check_spin_blocks(4, blocks))
        self.assertIsNotNone(checks.check_spin_blocks(4, blocks[1:]))
        wrong = [dataclasses.replace(blocks[0], multiplicity=blocks[0].multiplicity + 1)]
        self.assertIsNotNone(checks.check_spin_blocks(4, wrong + blocks[1:]))

    def test_tensor_ops(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        dims = (2,) * 6
        pt = q().partial_trace(m, dims, [1, 4])
        self.assertIsNone(checks.check_partial_trace(m, dims, [1, 4], pt))
        self.assertIsNotNone(checks.check_partial_trace(m, dims, [1, 4], pt + 1e-6))
        self.assertIsNotNone(checks.check_partial_trace(m, dims, [1, 4], pt.T))
        tp = q().partial_transpose(m, dims, [0, 3])
        self.assertIsNone(checks.check_partial_transpose(m, dims, [0, 3], tp))
        wrong = q().partial_transpose(m, dims, [0, 2])
        self.assertIsNotNone(checks.check_partial_transpose(m, dims, [0, 3], wrong))

    def test_distributions(self):
        dist = q().spectrum_estimation_distribution(0.2, 40)
        self.assertIsNone(checks.check_spectrum(0.2, 40, dist))
        bad = dict(dist)
        bad[20.0] *= 1.0001
        self.assertIsNotNone(checks.check_spectrum(0.2, 40, bad))
        self.assertIsNotNone(checks.check_spectrum(0.21, 40, dist))
        rep = q().typical_set([0.8, 0.2], 20, 0.1)
        self.assertIsNone(checks.check_typical_set(0.2, 20, 0.1, rep, True))
        self.assertIsNotNone(checks.check_typical_set(
            0.2, 20, 0.1, dataclasses.replace(rep, mass=rep.mass + 1e-6), True))
        self.assertIsNotNone(checks.check_typical_set(0.2, 20, 0.1, rep, False))
        comp = q().compression_trial([0.9, 0.1], 500, 0.7, 20)
        self.assertIsNone(checks.check_compression(comp, 500, 0.7, 0.1, 20))
        self.assertIsNotNone(checks.check_compression(
            dataclasses.replace(comp, successes=0), 500, 0.7, 0.1, 20))
        self.assertEqual(checks.max_clique(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), 3)

    def test_cli_checks(self):
        with scratch_dir() as tmp:
            reqs = workloads.write_cli_inputs(3, Path(tmp))
            by_name = {r.argv[0]: r for r in reqs if r.check is not None}

            def check(req, proc):  # a fresh runner has seen no earlier stdout
                return workloads.CliRunner(ROOT, {}, 7, None).check(req, proc)

            def proc(stdout, stderr=b"", code=0):
                return subprocess.CompletedProcess([], code, stdout, stderr)

            def report(cmd, results):
                return json.dumps({"command": cmd, "seed": 7, "results": results}).encode()

            chsh = by_name["chsh"]
            good = {"classical": 0.75, "classical_achievers": 8, "quantum": 0.853553390593,
                    "quantum_bound": 0.853553390593, "tsirelson_gap": 0.0}
            self.assertIsNone(check(chsh, proc(report("chsh", good))))
            self.assertIsNotNone(check(chsh, proc(report("chsh", {**good, "quantum": 0.85}))))
            self.assertIsNotNone(check(chsh, proc(report("chsh", {**good, "classical": 0.8}))))
            self.assertIsNotNone(check(chsh, proc(report("chsh", good), code=2)))
            self.assertIsNotNone(check(
                chsh, proc(report("chsh", good), b"Traceback (most recent call last):\n")))
            runner = workloads.CliRunner(ROOT, {}, 7, None)
            self.assertIsNone(runner.check(chsh, proc(report("chsh", good))))
            changed = report("chsh", {**good, "tsirelson_gap": 1e-13})
            self.assertIsNotNone(runner.check(chsh, proc(changed)))  # stdout differs from first

            hide = by_name["datahiding"]
            d = int(hide.argv[2])
            ok = {"d": d, "global_distance": 1.0, "ppt_bias_bound": (d + 2) / (2 * d * (d + 1)),
                  "one_over_d": 1 / d}
            self.assertIsNone(check(hide, proc(report("datahiding", ok))))
            self.assertIsNotNone(check(hide, proc(report(
                "datahiding", {**ok, "ppt_bias_bound": 1 / d}))))

            bad = next(r for r in reqs if r.check is None)
            self.assertIsNone(check(bad, proc(b"", b"qi-cli: input error: x\n", 1)))
            self.assertIsNotNone(check(bad, proc(b"", b"usage\nerror\n", 1)))
            self.assertIsNotNone(check(bad, proc(b"", b"qi-cli: input error: x\n", 0)))
            self.assertIsNotNone(check(bad, proc(b"{}", b"qi-cli: input error: x\n", 1)))


class CountsRepeat(unittest.TestCase):
    COUNTS = re.compile(r"\.(calls|iterations|bytes_out|feasible|infeasible_evidence|undetermined)$")

    def traced_counts(self, tasks) -> dict:
        TRACER.spans.clear()
        for i, task in enumerate(tasks):
            TRACER.task, TRACER.active = i, True
            out = task.run()
            TRACER.active = False
            self.assertIsNone(task.check(out), task.label)
        metrics = tracer.per_layer_metrics(TRACER.spans, 1, 1.0)
        return {k: v for k, v in metrics.items() if self.COUNTS.search(k)}

    def test_in_process_counts(self):
        extend = workloads.build_extend_grid(q(), 11)
        picks = [t for t in extend if "(2, 2, 2)" in t.label][:8]
        picks += [t for t in extend if "(3, 2, 4)" in t.label][:2]
        build = workloads.build_constructions(q(), 11)
        picks += [t for t in build if t.label.startswith(("symmetric_projector(d=2,n=8)",
                                                          "partial_trace(2^10", "h_n_ext(n=4)",
                                                          "DensityMatrix(dim=256)"))][:6]
        first, second = self.traced_counts(picks), self.traced_counts(picks)
        self.assertEqual(first, second)
        self.assertGreater(first["separability.k_extendibility.iterations"], 0)
        self.assertGreater(first["tensor.bytes_out"], 0)
        self.assertEqual(first["linalg.eigh.calls"],
                         first["separability.k_extendibility.iterations"])

    def test_raising_call_still_reports_every_metric(self):
        TRACER.spans.clear()
        TRACER.task, TRACER.active = 0, True
        with self.assertRaises(ValueError):  # k must be at least 2
            q().k_extendibility(q().DensityMatrix(np.eye(4) / 4, (2, 2)), 1)
        TRACER.active = False
        metrics = tracer.per_layer_metrics(TRACER.spans, 1, 1.0)
        self.assertEqual(sorted(metrics), sorted(tracer.per_layer_metric_names()))
        self.assertEqual(metrics["separability.k_extendibility.calls"], 1)
        self.assertEqual(metrics["separability.k_extendibility.iterations"], 0)

    def test_cli_counts_and_stdout(self):
        env = run.worker_env()
        with scratch_dir() as tmp:
            outs, counts = [], []
            for i in range(2):
                spans = Path(tmp) / f"s{i}.jsonl"
                env.update(PERFBENCH_SPANS=str(spans), PERFBENCH_SPAWN_NS=str(0))
                proc = subprocess.run([sys.executable, str(HERE / "cli_shim.py"), "chsh"],
                                      env=env, cwd=ROOT, capture_output=True, timeout=120)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                outs.append(proc.stdout)
                rows = [json.loads(line) for line in spans.read_text().splitlines()]
                metrics = tracer.per_layer_metrics(rows, 1, 1.0)
                counts.append({k: v for k, v in metrics.items() if self.COUNTS.search(k)})
            plain = subprocess.run([sys.executable, "-m", "qilab.cli", "chsh"], env=env,
                                   cwd=ROOT, capture_output=True, timeout=120)
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["chsh.win_probability.calls"], 0)
        self.assertEqual(outs[0], outs[1])
        self.assertEqual(outs[0], plain.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
