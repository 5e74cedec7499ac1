"""The three workloads: seeded inputs, task lists, warm-ups and checks.

Every input is generated here from the workload seed with numpy alone; qilab
receives only the generated inputs.  A task list is fixed for a seed, and a
run repeats it in passes.  See README.md for why each cell was chosen.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
from tracer import CLI_SUBCOMMANDS

WORKLOADS = ("extend_grid", "constructions", "cli_mix")


@dataclass
class Task:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _interleave(tasks: list[Task], seed: int) -> list[Task]:
    """Seeded task order.  Like tasks spread over the whole pass, so each
    quantile samples the machine's speed over the pass rather than over the
    few seconds one group would take in a row."""
    return [tasks[i] for i in _rng(seed, 9).permutation(len(tasks))]


def _unit(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def phi_plus(d: int) -> np.ndarray:
    v = np.zeros(d * d, dtype=complex)
    v[[i * d + i for i in range(d)]] = 1 / math.sqrt(d)
    return np.outer(v, v.conj())


def noisy_epr(p: float) -> np.ndarray:
    return p * phi_plus(2) + (1 - p) * np.eye(4) / 4


def separable_mixture(rng, d_a: int, d_b: int, noise: float, terms: int = 4) -> np.ndarray:
    """Random mixture of product states, mixed with white noise."""
    w = rng.dirichlet(np.ones(terms))
    acc = np.zeros((d_a * d_b,) * 2, dtype=complex)
    for wi in w:
        v = np.kron(_unit(rng, d_a), _unit(rng, d_b))
        acc += wi * np.outer(v, v.conj())
    return (1 - noise) * acc + noise * np.eye(d_a * d_b) / (d_a * d_b)


# ---------------------------------------------------------------------------
# extend_grid
# ---------------------------------------------------------------------------

def epr_threshold(k: int) -> float:
    """Noisy EPR p*Phi+ + (1-p) I/4 is k-extendible iff p <= (k + 2) / (3k)."""
    return (k + 2) / (3 * k)


# (d_a, d_b, k) -> (white-noise weight of the separable family, {family: count}).
# The noise keeps each cell's iteration counts in a narrow band, so a run's
# time follows the code rather than the seed (see README.md).
EXTEND_GRID = {
    (2, 2, 2): (0.2, {"sep": 27, "phi": 2, "epr_below": 2, "epr_above": 2}),
    (2, 3, 3): (0.85, {"sep": 64}),
    (2, 2, 3): (0.5, {"sep": 6, "phi": 2, "epr_below": 2, "epr_above": 2}),
    (3, 2, 4): (0.75, {"sep": 16}),
    (2, 2, 4): (0.5, {"sep": 1, "phi": 1}),
    (3, 3, 3): (0.65, {"sep": 2, "phi": 1}),
}


@dataclass
class ExtendCase:
    family: str
    d_a: int
    d_b: int
    k: int
    rho: np.ndarray
    expect: str  # "feasible" or "not_feasible"


def extend_cases(seed: int) -> list[ExtendCase]:
    cases = []
    for c, ((d_a, d_b, k), (noise, fams)) in enumerate(EXTEND_GRID.items()):
        rng = _rng(seed, 1, c)
        for fam, count in fams.items():
            for _ in range(count):
                if fam == "sep":
                    rho, expect = separable_mixture(rng, d_a, d_b, noise), "feasible"
                elif fam == "phi":
                    rho, expect = phi_plus(d_a), "not_feasible"
                elif fam == "epr_below":
                    p = epr_threshold(k) - rng.uniform(0.1, 0.2)
                    rho, expect = noisy_epr(p), "feasible"
                else:
                    p = epr_threshold(k) + rng.uniform(0.1, 0.2)
                    rho, expect = noisy_epr(p), "not_feasible"
                cases.append(ExtendCase(fam, d_a, d_b, k, rho, expect))
    return cases


def build_extend_grid(q, seed: int) -> list[Task]:
    tasks = []
    for case in extend_cases(seed):
        dm = q.DensityMatrix(case.rho, (case.d_a, case.d_b))
        tasks.append(Task(
            f"k_extendibility{(case.d_a, case.d_b, case.k)}/{case.family}",
            lambda dm=dm, k=case.k: q.k_extendibility(dm, k),
            lambda rep, case=case: checks.check_extendibility(rep, case)))
    return _interleave(tasks, seed)


def warm_extend_grid(q) -> None:
    rng = _rng(0, 99)
    q.k_extendibility(q.DensityMatrix(separable_mixture(rng, 2, 2, 0.2), (2, 2)), 2)
    q.k_extendibility(q.DensityMatrix(phi_plus(2), (2, 2)), 3)
    q.k_extendibility(q.DensityMatrix(separable_mixture(rng, 2, 3, 0.5), (2, 3)), 3)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

# The repeats are deliberate: a block of like tasks around the median (the
# d=2, n=9 projector) and around the 90th percentile (the d=2, n=11
# projector) keeps those quantiles from jumping between unlike tasks from run
# to run; both builds vary least from run to run (see README.md).
SYMMETRIC = [(2, 8)] + [(2, 9)] * 12 + [(2, 10)] + [(2, 11)] * 4 + [(2, 12), (3, 5), (3, 6), (3, 7)]
SPIN_N = [6, 7, 8, 9, 10]
H_N_EXT_N = [2, 3, 4, 5, 6, 7, 8]
# (dim rho, n, spectrum): the spectrum fixes the projector's rank, and with it
# the cost of the build (one outer product per typical string), so only the
# eigenbasis is seeded: with a random spectrum one (2,10) build takes 11 ms to 2.8 s.
TYPICAL_SUBSPACE = [(2, 8, (0.8, 0.2)), (2, 10, (0.85, 0.15)), (3, 5, (0.7, 0.2, 0.1)),
                    (4, 4, (0.6, 0.2, 0.15, 0.05)), (4, 5, (0.7, 0.15, 0.1, 0.05))]
OPERATOR_QUBITS = {10: 3, 11: 2, 12: 1}  # qubits -> partial traces (and transposes) on it
DENSITY_DIMS = [256, 512, 1024]
SPECTRUM_N = [16, 24, 32, 48, 64, 80, 100, 128, 160, 200, 256, 320, 400, 512, 700, 1000]
TYPICAL_SET = [(12, True), (16, True), (20, True), (22, True), (40, False), (60, False)]
COMPRESSION_N = [500, 1000, 2000, 3000]


def _random_psd(rng, dim: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T + 0.01 * np.eye(dim)
    return m / np.trace(m).real


def build_constructions(q, seed: int) -> list[Task]:
    tasks: list[Task] = []
    add = lambda label, run, check: tasks.append(Task(label, run, check))  # noqa: E731

    for d, n in SYMMETRIC:
        add(f"symmetric_projector(d={d},n={n})", lambda d=d, n=n: q.symmetric_projector(d, n),
            lambda p, d=d, n=n: checks.check_projector(p, checks.symmetric_dimension(d, n)))
    for n in SPIN_N:
        add(f"spin_projectors(n={n})", lambda n=n: q.spin_projectors(n),
            lambda blocks, n=n: checks.check_spin_blocks(n, blocks))

    rng = _rng(seed, 2, 0)
    for n in H_N_EXT_N:
        m = _random_psd(rng, 4, 2)
        m = m / np.linalg.eigvalsh(m)[-1]
        lower = max(float(np.real(np.vdot(v, m @ v))) for v in
                    (np.kron(_unit(rng, 2), _unit(rng, 2)) for _ in range(64)))

        def check_h(val, lower=lower):
            if not lower - 1e-9 <= val <= 1 + 1e-9:
                return f"h_n_ext {val!r} outside [{lower:.6f}, 1]"
            return None
        add(f"h_n_ext(n={n})", lambda m=m, n=n: q.h_n_ext(m, (2, 2), n), check_h)

    rng = _rng(seed, 2, 1)
    for d, n, spectrum in TYPICAL_SUBSPACE:
        u = _random_unitary(rng, d)
        rho = (u * np.array(spectrum)) @ u.conj().T
        dm = q.DensityMatrix(rho)
        delta = 0.3
        rank = checks.typical_rank(np.linalg.eigvalsh(rho), n, delta)
        add(f"typical_subspace_projector(d={d},n={n})",
            lambda dm=dm, n=n: q.typical_subspace_projector(dm, n, delta),
            lambda p, rank=rank: checks.check_projector(p, rank, probes=1))

    rng = _rng(seed, 2, 2)
    for nq, count in OPERATOR_QUBITS.items():
        dim = 2**nq
        op = np.empty((dim, dim), dtype=complex)
        op.real = rng.standard_normal((dim, dim))
        op.imag = rng.standard_normal((dim, dim))
        dims = (2,) * nq
        for _ in range(count):
            keep = sorted(rng.choice(nq, size=int(rng.integers(1, 5)), replace=False).tolist())
            add(f"partial_trace(2^{nq},keep={keep})",
                lambda op=op, dims=dims, keep=keep: q.partial_trace(op, dims, keep),
                lambda out, op=op, dims=dims, keep=keep:
                    checks.check_partial_trace(op, dims, keep, out))
            subs = sorted(rng.choice(nq, size=nq // 2, replace=False).tolist())
            add(f"partial_transpose(2^{nq},subs={subs})",
                lambda op=op, dims=dims, subs=subs: q.partial_transpose(op, dims, subs),
                lambda out, op=op, dims=dims, subs=subs:
                    checks.check_partial_transpose(op, dims, subs, out))

    rng = _rng(seed, 2, 3)
    for dim in DENSITY_DIMS:
        m = _random_psd(rng, dim, 8)
        dims = (2,) * int(math.log2(dim))

        def check_dm(dm, m=m, dims=dims):
            if dm.dims != dims or float(np.max(np.abs(dm.mat - m))) > 1e-12:
                return "DensityMatrix changed a valid input"
            return None
        add(f"DensityMatrix(dim={dim})", lambda m=m, dims=dims: q.DensityMatrix(m, dims), check_dm)

    rng = _rng(seed, 2, 4)
    for n in SPECTRUM_N:
        r = float(rng.uniform(0.05, 0.45))
        add(f"spectrum_estimation_distribution(n={n})",
            lambda r=r, n=n: q.spectrum_estimation_distribution(r, n),
            lambda dist, r=r, n=n: checks.check_spectrum(r, n, dist))

    rng = _rng(seed, 2, 5)
    for n, exact in TYPICAL_SET:
        p1 = float(rng.uniform(0.1, 0.3))
        add(f"typical_set(n={n},{'exact' if exact else 'sampled'})",
            lambda p1=p1, n=n: q.typical_set([1 - p1, p1], n, 0.1, seed=seed),
            lambda rep, p1=p1, n=n, exact=exact: checks.check_typical_set(p1, n, 0.1, rep, exact))

    rng = _rng(seed, 2, 6)
    for i, n in enumerate(COMPRESSION_N):
        p1 = float(rng.uniform(0.08, 0.15))
        h = checks.binary_entropy(p1)
        rate = h + 0.2 if i % 2 == 0 else h - 0.2
        add(f"compression_trial(n={n})",
            lambda p1=p1, n=n, rate=rate: q.compression_trial([1 - p1, p1], n, rate, 50, seed=seed),
            lambda rep, p1=p1, n=n, rate=rate: checks.check_compression(rep, n, rate, p1, 50))
    return _interleave(tasks, seed)


def warm_constructions(q) -> None:
    rng = _rng(0, 98)
    q.symmetric_projector(2, 4)
    q.symmetric_projector(3, 3)
    q.spin_projectors(4)
    q.h_n_ext(np.eye(4), (2, 2), 2)
    q.typical_subspace_projector(q.DensityMatrix(_random_psd(rng, 2, 2)), 3, 0.3)
    op = _random_psd(rng, 64, 4)
    q.partial_trace(op, (2,) * 6, [0])
    q.partial_transpose(op, (2,) * 6, [1])
    q.DensityMatrix(op)
    q.spectrum_estimation_distribution(0.2, 10)
    q.typical_set([0.8, 0.2], 10, 0.1)
    q.typical_set([0.8, 0.2], 30, 0.1, mc_samples=100)
    q.compression_trial([0.9, 0.1], 50, 0.5, 5)


# ---------------------------------------------------------------------------
# cli_mix: one qi-cli process per request
# ---------------------------------------------------------------------------

# Each subcommand runs once per round; its seeded variants alternate across
# rounds.  Three rounds make a pass of 48 requests (about 11 s), so a run makes
# at least three passes, wall_s is a median, and every argv repeats, which lets
# stdout determinism be checked on it.
CLI_ROUNDS = 3


def _state_json(amps: np.ndarray, dims) -> dict:
    return {"amps_re": amps.real.tolist(), "amps_im": amps.imag.tolist(), "dims": list(dims)}


def _matrix_json(m: np.ndarray, dims) -> dict:
    return {"rows": m.shape[0], "cols": m.shape[1], "dims": list(dims),
            "re": m.real.reshape(-1).tolist(), "im": m.imag.reshape(-1).tolist()}


def _random_unitary(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    qm, r = np.linalg.qr(g)
    return qm * (np.diag(r) / np.abs(np.diag(r)))


@dataclass
class CliRequest:
    argv: list[str]
    check: Callable[[dict], str | None] | None  # None: malformed, expect exit 1
    expect_code: int = 0


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def write_cli_inputs(seed: int, workdir: Path) -> list[CliRequest]:
    """Write seeded state files and return the request list for one pass."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, 3)
    files: dict[str, Path] = {}

    def put(name: str, obj: dict) -> str:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(obj))
        files[name] = path
        return str(path)

    phi = put("phi_plus", _state_json(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2), (2, 2)))
    variants: dict[str, list[CliRequest]] = {}

    # ppt / witness / entropy / extend on noisy EPR states: closed forms in p
    epr = []
    for i in range(2):
        p = float(rng.uniform(0.2, 0.45)) if i == 0 else float(rng.uniform(0.8, 0.95))
        epr.append((p, put(f"epr{i}", _matrix_json(noisy_epr(p), (2, 2)))))

    def ppt_check(p):
        return lambda r: None if _close(r["min_eig"], (1 - 3 * p) / 4) and \
            r["is_ppt"] == (p <= 1 / 3) else f"ppt min_eig {r['min_eig']} != (1-3p)/4"
    variants["ppt"] = [CliRequest(["ppt", "--state", phi],
                                  lambda r: None if _close(r["min_eig"], -0.5) else
                                  f"Phi+ PT min eigenvalue {r['min_eig']} != -1/2")]
    variants["ppt"] += [CliRequest(["ppt", "--state", f], ppt_check(p)) for p, f in epr]

    def witness_check(p, kind):
        want = (1 - 3 * p) / 2 if kind == "flip" else 1 / math.sqrt(2) - p * math.sqrt(2)
        return lambda r: None if _close(r["value"], want) and r["detects"] == (want < 0) \
            else f"{kind} witness {r['value']} != {want}"
    variants["witness"] = [CliRequest(["witness", "--state", f, "--witness", kind],
                                      witness_check(p, kind))
                           for (p, f), kind in zip(epr, ("flip", "chsh"))]

    def entropy_check(p):
        f = p + (1 - p) / 4
        eigs = [f] + [(1 - f) / 3] * 3
        s_ab = -sum(x * math.log2(x) for x in eigs if x > 0)
        return lambda r: None if _close(r["S_A"], 1) and _close(r["S_B"], 1) and \
            _close(r["S_AB"], s_ab) and _close(r["I_AB"], 2 - s_ab) \
            else f"entropy S_AB {r['S_AB']} != {s_ab}"
    variants["entropy"] = [CliRequest(["entropy", "--state", f], entropy_check(p)) for p, f in epr]

    def extend_check(p):
        below = p < epr_threshold(2)
        return lambda r: None if (r["status"] == "Feasible") == below \
            else f"extend p={p:.3f} came back {r['status']}"
    extend_in = [(float(rng.uniform(0.3, 0.55)), 0), (float(rng.uniform(0.78, 0.9)), 2)]
    variants["extend"] = []
    for i, (p, code) in enumerate(extend_in):
        f = put(f"extend{i}", _matrix_json(noisy_epr(p), (2, 2)))
        variants["extend"].append(CliRequest(["extend", "--state", f, "--k", "2"],
                                             extend_check(p), code))

    variants["chsh"] = [CliRequest(["chsh"], lambda r: None if r["classical"] == 0.75 and
                                   r["classical_achievers"] == 8 and
                                   _close(r["quantum"], math.cos(math.pi / 8) ** 2)
                                   else f"chsh values {r}")]

    # three-qubit classes: local unitaries keep GHZ and W classes and marginals
    classify = []
    for name, amps in (("GHZ", np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2)),
                       ("W", np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3))):
        u = np.kron(np.kron(_random_unitary(rng, 2), _random_unitary(rng, 2)),
                    _random_unitary(rng, 2))
        f = put(f"class_{name}", _state_json(u @ amps.astype(complex), (2, 2, 2)))
        classify.append(CliRequest(["classify3q", "--state", f],
                                   lambda r, name=name: None if r["class"] == name
                                   else f"classified {r['class']}, expected {name}"))
    variants["classify3q"] = classify

    def marginal_check(lams):
        compatible = all(lams[i] + lams[j] <= 1 + lams[k] + 1e-12
                         for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)))

        def check(r):
            if r["compatible"] != compatible:
                return f"compatibility {r['compatible']} for {lams}"
            if compatible:
                s = r["state"]
                psi = (np.array(s["amps_re"]) + 1j * np.array(s["amps_im"])).reshape(2, 2, 2)
                for party in range(3):
                    a = np.moveaxis(psi, party, 0).reshape(2, 4)
                    top = float(np.linalg.eigvalsh(a @ a.conj().T)[-1])
                    if abs(top - lams[party]) > 1e-8:
                        return f"marginal {party} top eigenvalue {top} != {lams[party]}"
            return None
        return check
    marg = []
    for i in range(2):
        while True:
            lams = [round(float(x), 6) for x in rng.uniform(0.5, 1.0, size=3)]
            ok = all(lams[a] + lams[b] <= 1 + lams[c] for a, b, c in ((0, 1, 2), (0, 2, 1), (1, 2, 0)))
            if ok == (i == 0):
                break
        marg.append(CliRequest(["marginal3q", "--a", str(lams[0]), "--b", str(lams[1]),
                                "--c", str(lams[2])], marginal_check(lams)))
    variants["marginal3q"] = marg

    variants["teleport"] = [CliRequest(["teleport"], lambda r: None if _close(r["probability"], 0.25)
                                       and _close(r["fidelity"], 1.0) and r["outcome"] in range(4)
                                       else f"teleport {r}")]

    comp = []
    for i in range(2):
        p1 = float(rng.uniform(0.08, 0.15))
        h = checks.binary_entropy(p1)
        rate = round(h + 0.2 if i == 0 else h - 0.2, 6)
        p0 = f"{1 - p1:.6f}"
        p1r = 1 - float(p0)

        def check(r, p1r=p1r, rate=rate):
            if not _close(r["entropy"], checks.binary_entropy(p1r)):
                return f"compress entropy {r['entropy']}"
            ok = r["success_rate"] >= 0.9 if rate > r["entropy"] else r["success_rate"] <= 0.1
            return None if ok else f"compress rate {rate} success {r['success_rate']}"
        comp.append(CliRequest(["compress", "--p0", p0, "--n", "1000", "--rate", str(rate),
                                "--trials", "50"], check))
    variants["compress"] = comp

    dfin = []
    for _ in range(2):
        d, n, k = int(rng.integers(2, 5)), int(rng.integers(8, 40)), int(rng.integers(1, 6))
        ov = checks.overlap_exact(d, n, k)
        dfin.append(CliRequest(
            ["definetti", "--d", str(d), "--n", str(n), "--k", str(k)],
            lambda r, ov=ov: None if _close(r["overlap"], ov) and
            _close(r["error_bound"], 2 * math.sqrt(1 - ov)) else f"definetti {r}"))
    variants["definetti"] = dfin

    spec = []
    for _ in range(2):
        r_, n = round(float(rng.uniform(0.05, 0.45)), 6), int(rng.integers(10, 65))

        def check(res, r_=r_, n=n):
            probs = {float(j): v for j, v in res["probs"].items()}
            ref = checks.spectrum_distribution(r_, n)
            if set(probs) != set(ref):
                return "spectrum support differs"
            bad = [j for j in ref if abs(probs[j] - ref[j]) > 1e-11 * max(ref[j], 1e-12)]
            return f"spectrum Pr[j] differs at j={bad[:3]}" if bad else None
        spec.append(CliRequest(["spectrum", "--r", str(r_), "--n", str(n)], check))
    variants["spectrum"] = spec

    hide = []
    for _ in range(2):
        d = int(rng.integers(2, 9))
        hide.append(CliRequest(["datahiding", "--d", str(d)],
                               lambda r, d=d: None if _close(r["ppt_bias_bound"],
                                                             (d + 2) / (2 * d * (d + 1)))
                               and _close(r["one_over_d"], 1 / d) else f"datahiding {r}"))
    variants["datahiding"] = hide

    motz = []
    for _ in range(2):
        n = int(rng.integers(5, 9))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        if not edges:
            edges = [(0, 1)]
        w = checks.max_clique(n, edges)
        motz.append(CliRequest(
            ["motzkin", "--n", str(n), "--edges", ",".join(f"{i}-{j}" for i, j in edges)],
            lambda r, w=w: None if r["clique_number"] == w and
            _close(r["optimization_value"], 1 - 1 / w, 1e-6) else f"motzkin {r}, omega {w}"))
    variants["motzkin"] = motz

    malformed = [
        CliRequest(["motzkin", "--n", "4", "--edges", "0-1,1-x"], None, 1),
        CliRequest(["motzkin", "--n", "4", "--edges", "0-1,2-9"], None, 1),
        CliRequest(["motzkin", "--n", "0", "--edges", ""], None, 1),
        CliRequest(["ppt", "--state", str(workdir / "missing.json")], None, 1),
        CliRequest(["entropy", "--state", str(workdir / "missing.json")], None, 1),
        CliRequest(["spectrum", "--r", "0.2", "--n", "0"], None, 1),
        CliRequest(["definetti", "--d", "2", "--n", "0", "--k", "1"], None, 1),
        CliRequest(["classify3q", "--state", phi], None, 1),
        CliRequest(["witness", "--state", str(files["class_GHZ"])], None, 1),
    ]

    requests: list[CliRequest] = []
    for rnd in range(CLI_ROUNDS):
        for name in CLI_SUBCOMMANDS:
            opts = variants[name]
            requests.append(opts[rnd % len(opts)])
        requests.extend(malformed[rnd::CLI_ROUNDS])
    return requests


def known_defect_requests(workdir: Path) -> list[tuple[str, CliRequest]]:
    """Malformed requests that qilab does not yet reject cleanly (ROADMAP
    item 4).  They run after the timed pass and are reported apart."""
    phi = str(workdir / "phi_plus.json")
    return [
        ("ppt --cut out of range prints a traceback",
         CliRequest(["ppt", "--state", phi, "--cut", "3"], None, 1)),
        ("compress --n 0 is accepted",
         CliRequest(["compress", "--p0", "0.9", "--n", "0", "--rate", "0.5", "--trials", "5"],
                    None, 1)),
    ]


class CliRunner:
    """Runs one qi-cli request as a child process and checks it."""

    def __init__(self, root: Path, env: dict, seed: int, spans_dir: Path | None):
        self.root = root
        self.env = env
        self.seed = seed
        self.spans_dir = spans_dir
        self.stdout_seen: dict[tuple, bytes] = {}
        self.count = 0

    def command(self, argv: list[str]) -> list[str]:
        head = ["--seed", str(self.seed)]
        if self.spans_dir is None:
            return [sys.executable, "-m", "qilab.cli", *head, *argv]
        shim = str(Path(__file__).with_name("cli_shim.py"))
        return [sys.executable, shim, *head, *argv]

    def run(self, req: CliRequest):
        env = dict(self.env)
        spans = None
        if self.spans_dir is not None:
            self.count += 1
            spans = self.spans_dir / f"req{self.count}.jsonl"
            env["PERFBENCH_SPANS"] = str(spans)
            env["PERFBENCH_SPAWN_NS"] = str(time.time_ns())
        proc = subprocess.run(self.command(req.argv), env=env, cwd=self.root,
                              capture_output=True, timeout=120)
        return proc, spans

    def check(self, req: CliRequest, proc) -> str | None:
        err = proc.stderr.decode(errors="replace")
        name = " ".join(req.argv[:1])
        if "Traceback" in err:
            return f"{name}: traceback on stderr: {err.strip().splitlines()[-1]}"
        if proc.returncode != req.expect_code:
            return f"{' '.join(req.argv)}: exit {proc.returncode}, expected {req.expect_code}"
        if req.check is None:
            lines = err.strip().splitlines()
            if proc.stdout or len(lines) != 1:
                return f"{name}: malformed request should print one error line, got {len(lines)}"
            return None
        key = tuple(req.argv)
        first = self.stdout_seen.setdefault(key, proc.stdout)
        if first != proc.stdout:
            return f"{name}: stdout differs between repeats of the same request"
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            return f"{name}: stdout is not JSON ({exc})"
        if report.get("command") != req.argv[0] or report.get("seed") != self.seed:
            return f"{name}: report header {report.get('command')}/{report.get('seed')}"
        try:
            return req.check(report["results"])
        except (KeyError, TypeError, ValueError) as exc:
            return f"{name}: result missing a field ({exc!r})"


def build_cli_mix(runner: CliRunner, requests: list[CliRequest]) -> list[Task]:
    tasks = []
    for req in requests:
        tasks.append(Task(
            f"qi-cli {req.argv[0]}" + ("" if req.check else " (malformed)"),
            lambda req=req: runner.run(req),
            lambda out, req=req: runner.check(req, out[0])))
    return tasks
