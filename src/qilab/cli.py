"""qi-cli: command-line front end.

Every subcommand prints a single JSON report (or ``--format text``) and is
byte-for-byte deterministic for a fixed request and seed.  Exit codes:
0 success, 1 malformed input, 2 the verdict is Undetermined or
InfeasibleEvidence.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Any

import numpy as np

from . import chsh as chsh_mod
from . import entropy as entropy_mod
from . import pure as pure_mod
from . import schur as schur_mod
from . import separability as sep_mod
from .serialize import FormatError, load_state_or_density, state_to_json
from .states import DensityMatrix, PureState, random_pure_state

DEFAULT_SEED = 0x5EED

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNDETERMINED = 2


def _load_density(path: str) -> DensityMatrix:
    obj = load_state_or_density(path)
    return obj.density() if isinstance(obj, PureState) else obj


def _load_pure(path: str) -> PureState:
    obj = load_state_or_density(path)
    if not isinstance(obj, PureState):
        raise FormatError("this subcommand needs a pure state (amps_re/amps_im)")
    return obj


def _round(x):
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _round(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round(v) for v in x]
    return x


# --- subcommand handlers: each returns (results dict, exit code) -----------

def _cmd_ppt(args) -> tuple[dict, int]:
    rho = _load_density(args.state)
    v = sep_mod.ppt_check(rho, transpose_on=args.cut)
    return {
        "is_ppt": v.is_ppt,
        "min_eig": v.min_eigenvalue,
        "spectrum": v.spectrum.tolist(),
    }, EXIT_OK


def _cmd_witness(args) -> tuple[dict, int]:
    rho = _load_density(args.state)
    w = sep_mod.chsh_witness() if args.witness == "chsh" else sep_mod.flip_witness()
    if rho.dim != 4:
        raise FormatError("built-in witnesses act on two qubits")
    val = sep_mod.witness_value(w, rho)
    return {"witness": args.witness, "value": val, "detects": val < 0}, EXIT_OK


def _cmd_extend(args) -> tuple[dict, int]:
    rho = _load_density(args.state)
    rep = sep_mod.k_extendibility(rho, args.k)
    out = {
        "status": rep.status.value,
        "residual": rep.residual,
        "iterations": rep.iterations,
    }
    code = EXIT_OK if rep.status is sep_mod.FeasStatus.FEASIBLE else EXIT_UNDETERMINED
    return out, code


def _cmd_chsh(args) -> tuple[dict, int]:
    classical, achievers = chsh_mod.chsh_classical_optimum()
    opt = chsh_mod.chsh_optimize(seed=args.seed)
    gap = chsh_mod.QUANTUM_OPTIMUM - opt.value
    # an excess of a few ulps is rounding at the bound, not a Tsirelson violation
    if -4 * math.ulp(chsh_mod.QUANTUM_OPTIMUM) <= gap < 0:
        gap = 0.0
    return {
        "classical": classical,
        "classical_achievers": len(achievers),
        "quantum": opt.value,
        "quantum_bound": chsh_mod.QUANTUM_OPTIMUM,
        "tsirelson_gap": gap,
    }, EXIT_OK


def _cmd_classify3q(args) -> tuple[dict, int]:
    psi = _load_pure(args.state)
    cls = pure_mod.classify_three_qubit(psi)
    out = {
        "class": cls.value,
        "hyperdet_abs": abs(pure_mod.hyperdeterminant(psi)),
    }
    code = EXIT_UNDETERMINED if cls is pure_mod.SloccClass.UNDETERMINED else EXIT_OK
    return out, code


def _cmd_marginal3q(args) -> tuple[dict, int]:
    lams = (args.a, args.b, args.c)
    ok = pure_mod.three_qubit_spectra_compatible(lams)
    out: dict[str, Any] = {"compatible": ok}
    if ok:
        out["state"] = state_to_json(pure_mod.three_qubit_state_from_spectra(lams))
    return out, EXIT_OK


def _cmd_teleport(args) -> tuple[dict, int]:
    if args.state:
        psi = _load_pure(args.state)
    else:
        psi = random_pure_state(2, np.random.default_rng(args.seed))
    t = pure_mod.teleport(psi, seed=args.seed)
    out = {
        "outcome": t.outcome,
        "probability": t.probability,
        "output": state_to_json(t.output),
    }
    if len(psi.dims) == 1:
        fid = abs(np.vdot(t.output.amps, psi.amps)) ** 2
        out["fidelity"] = fid
    return out, EXIT_OK


def _cmd_compress(args) -> tuple[dict, int]:
    if not 0.0 < args.p0 < 1.0:
        raise FormatError("p0 must lie strictly inside (0, 1)")
    if args.n > 20000:  # compression_trial itself refuses n < 1 and trials < 1
        raise FormatError("n must lie in 1..20000")
    if args.trials > 100000:
        raise FormatError("trials must lie in 1..100000")
    rep = entropy_mod.compression_trial(
        [args.p0, 1 - args.p0], args.n, args.rate, args.trials, seed=args.seed)
    return {
        "n": rep.n,
        "rate": rep.rate,
        "trials": rep.trials,
        "successes": rep.successes,
        "success_rate": rep.success_rate,
        "entropy": entropy_mod.binary_entropy(args.p0),
    }, EXIT_OK


def _cmd_entropy(args) -> tuple[dict, int]:
    rho = _load_density(args.state)
    n = len(rho.dims)
    if args.parties:
        try:
            parties = [tuple(int(i) for i in g.split(",")) for g in args.parties.split("/")]
        except ValueError as exc:
            raise FormatError(f"bad parties spec: {exc}") from exc
    elif n == 2:
        parties = [(0,), (1,)]
    elif n == 3:
        parties = [(0,), (1,), (2,)]
    else:
        raise FormatError("give --parties for states that are not 2- or 3-partite")
    return entropy_mod.information_measures(rho, parties), EXIT_OK


def _cmd_definetti(args) -> tuple[dict, int]:
    if max(args.d, args.n, args.k) > 10000:  # estimation_overlap itself refuses d, n < 1, k < 0
        raise FormatError("d, n and k must be at most 10000")
    overlap = schur_mod.estimation_overlap(args.d, args.n, args.k)
    return {
        "overlap": overlap,
        "overlap_lower_bound": 1 - args.d * args.k / args.n,
        "error_bound": schur_mod.definetti_error_bound(args.d, args.n, args.k),
    }, EXIT_OK


def _cmd_spectrum(args) -> tuple[dict, int]:
    if args.n < 1 or args.n > 64:
        raise FormatError("n must lie in 1..64")
    dist = schur_mod.spectrum_estimation_distribution(args.r, args.n)

    def key(j: float) -> str:
        return str(int(j)) if float(j).is_integer() else str(j)

    return {
        "n": args.n,
        "r": args.r,
        "probs": {key(j): dist[j] for j in sorted(dist, reverse=True)},
    }, EXIT_OK


def _cmd_datahiding(args) -> tuple[dict, int]:
    rep = sep_mod.data_hiding_bias(args.d)
    return {
        "d": rep.d,
        "global_distance": rep.global_distance,
        "ppt_bias_bound": rep.ppt_bias_bound,
        "one_over_d": 1 / args.d,
    }, EXIT_OK


def _cmd_motzkin(args) -> tuple[dict, int]:
    try:
        edges = []
        for tok in args.edges.split(","):
            if not tok:
                continue
            i, j = tok.split("-")
            edges.append((int(i), int(j)))
    except ValueError as exc:
        raise FormatError(f"bad edge list: {exc}") from exc
    rep = sep_mod.motzkin_straus(args.n, edges)
    return {
        "clique_number": rep.clique_number,
        "optimization_value": rep.optimization_value,
        "predicted_value": rep.predicted_value,
    }, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qi-cli",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    parser.add_argument("--timing", action="store_true",
                        help="include elapsed milliseconds (breaks byte determinism)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ppt", help="partial-transpose spectrum test")
    p.add_argument("--state", required=True)
    p.add_argument("--cut", type=int, default=0)
    p.set_defaults(handler=_cmd_ppt)

    p = sub.add_parser("witness", help="evaluate a built-in two-qubit witness")
    p.add_argument("--state", required=True)
    p.add_argument("--witness", choices=("flip", "chsh"), default="flip")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("extend", help="k-extendibility by alternating projections")
    p.add_argument("--state", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_extend)

    p = sub.add_parser("chsh", help="classical and quantum CHSH optima")
    p.set_defaults(handler=_cmd_chsh)

    p = sub.add_parser("classify3q", help="three-qubit SLOCC class")
    p.add_argument("--state", required=True)
    p.set_defaults(handler=_cmd_classify3q)

    p = sub.add_parser("marginal3q", help="one-body marginal compatibility")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.set_defaults(handler=_cmd_marginal3q)

    p = sub.add_parser("teleport", help="teleport a qubit through |Phi+>")
    p.add_argument("--state")
    p.set_defaults(handler=_cmd_teleport)

    p = sub.add_parser("compress", help="fixed-rate compression simulation")
    p.add_argument("--p0", type=float, required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(handler=_cmd_compress)

    p = sub.add_parser("entropy", help="entropic measures of a state")
    p.add_argument("--state", required=True)
    p.add_argument("--parties", help="e.g. 0/1 or 0/1/2 or 0,1/2")
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("definetti", help="symmetric-subspace overlap and error bound")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_definetti)

    p = sub.add_parser("spectrum", help="total-spin outcome distribution")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("datahiding", help="Werner-pair hiding bias bounds")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=_cmd_datahiding)

    p = sub.add_parser("motzkin", help="clique number vs quadratic optimum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--edges", required=True, help='e.g. "0-1,1-2,0-2"')
    p.set_defaults(handler=_cmd_motzkin)

    return parser


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
        return
    def walk(prefix: str, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}{k}.", obj[k])
        else:
            sys.stdout.write(f"{prefix[:-1]} = {obj}\n")
    walk("", report)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse reports its own diagnostics; map usage errors to code 1
        return EXIT_INPUT if exc.code not in (0, None) else 0
    start = time.perf_counter()
    try:
        results, code = args.handler(args)
    except (ValueError, IndexError) as exc:  # FormatError is a ValueError
        sys.stderr.write(f"qi-cli: input error: {exc}\n")
        return EXIT_INPUT
    report = {
        "command": args.command,
        "seed": args.seed,
        "results": _round(results),
    }
    if args.timing:
        report["elapsed_ms"] = (time.perf_counter() - start) * 1000
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
