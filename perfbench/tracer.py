"""Span tracer installed around qilab from outside the library.

`install` replaces every public function of every loaded ``qilab.*``
module, at every module that binds it, with a wrapper that records a span:
``[name, start_ns, end_ns, parent, task, extra]``.  It also wraps
``DensityMatrix``/``PureState`` construction, ``QuantumStrategy.win_probability``
and ``numpy.linalg.{eigh,eigvalsh,svd,pinv}``.  Spans stay in memory; the
caller writes them out when the run ends.  Nothing is printed.

Modules are looked up in ``sys.modules``: the attribute ``qilab.tensor`` is
the re-exported ``tensor()`` function, not the module.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import types

LINALG_FUNCTIONS = ("eigh", "eigvalsh", "svd", "pinv")

# (layer, function) pairs reported with .calls and .ms
FUNCTIONS = {
    "separability": ("k_extendibility", "ppt_check", "h_n_ext", "motzkin_straus",
                     "witness_value"),
    "tensor": ("tensor", "partial_trace", "partial_transpose",
               "permutation_operator", "hermitian_eig"),
    "linalg": LINALG_FUNCTIONS,
    "states": ("DensityMatrix", "PureState", "random_separable_state",
               "random_pure_state"),
    "schur": ("symmetric_projector", "spin_projectors",
              "spectrum_estimation_distribution", "estimation_overlap"),
    "entropy": ("typical_set", "typical_subspace_projector", "compression_trial",
                "von_neumann_entropy", "information_measures"),
    "chsh": ("chsh_optimize", "chsh_classical_optimum"),
    "pure": ("classify_three_qubit", "teleport", "three_qubit_state_from_spectra",
             "schmidt"),
    "serialize": ("load_state_or_density",),
}

CLI_SUBCOMMANDS = ("ppt", "witness", "extend", "chsh", "classify3q", "marginal3q",
                   "teleport", "compress", "entropy", "definetti", "spectrum",
                   "datahiding", "motzkin")


def per_layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for layer, fns in FUNCTIONS.items():
        for fn in fns:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.ms"]
            if fn == "k_extendibility":
                names += [f"{layer}.{fn}.self_ms", f"{layer}.{fn}.iterations",
                          f"{layer}.{fn}.ms_per_iteration"]
        if layer == "separability":
            names += [f"separability.verdict.{v}"
                      for v in ("feasible", "infeasible_evidence", "undetermined")]
        if layer == "tensor":
            names += ["tensor.bytes_out", "tensor.max_operator_bytes"]
        if layer == "chsh":
            names.append("chsh.win_probability.calls")
        names.append(f"{layer}.self_ms")
    names += ["cli.interpreter_ms", "cli.import_ms", "cli.handler_ms"]
    names += [f"cli.{c}.ms" for c in CLI_SUBCOMMANDS]
    names.append("trace.overhead_ratio")
    return names


def _nbytes(out) -> int:
    """Bytes of the arrays a tensor-layer function returned."""
    if hasattr(out, "nbytes"):
        return int(out.nbytes)
    if hasattr(out, "eigenvalues") and hasattr(out, "eigenvectors"):
        return int(out.eigenvalues.nbytes + out.eigenvectors.nbytes)
    return 0


def _extra(name: str, out):
    if name.startswith("tensor."):
        return _nbytes(out)
    if name == "separability.k_extendibility":
        return [out.iterations, out.status.value]
    return None


class Tracer:
    """In-memory span recorder; records only while ``active`` is true."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.task: int | None = None
        self.active = False
        self._wrappers: dict[int, object] = {}

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a finished span that no wrapper measured (CLI start-up phases)."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start_ns, end_ns, parent, self.task, None])

    def wrap(self, name: str, fn):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = [name, 0, 0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.task, None]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                tracer.stack.pop()
            span[5] = _extra(name, out)
            return out

        self._wrappers[key] = wrapper
        return wrapper

    def dump(self, path: str) -> None:
        """Write spans as JSON lines: name, start, end, parent index, task, extra."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer, cli_handlers: bool = False) -> None:
    """Wrap qilab's public functions, constructors and the linalg kernels."""
    import numpy.linalg

    modules = {name: mod for name, mod in list(sys.modules.items())
               if isinstance(mod, types.ModuleType)
               and (name == "qilab" or name.startswith("qilab."))}
    for mod in modules.values():
        for attr, val in list(vars(mod).items()):
            if not isinstance(val, types.FunctionType):
                continue
            defined_in = getattr(val, "__module__", "") or ""
            if not defined_in.startswith("qilab."):
                continue
            layer = defined_in.rsplit(".", 1)[1]
            if attr.startswith("_cmd_") and cli_handlers and layer == "cli":
                setattr(mod, attr, tracer.wrap(f"cli.{attr[5:]}", val))
            elif not attr.startswith("_") and attr == val.__name__:
                setattr(mod, attr, tracer.wrap(f"{layer}.{attr}", val))

    states = modules.get("qilab.states")
    if states is not None:
        for cls in (states.DensityMatrix, states.PureState):
            cls.__init__ = tracer.wrap(f"states.{cls.__name__}", cls.__init__)
    chsh = modules.get("qilab.chsh")
    if chsh is not None:
        chsh.QuantumStrategy.win_probability = tracer.wrap(
            "chsh.win_probability", chsh.QuantumStrategy.win_probability)
    for fn in LINALG_FUNCTIONS:
        setattr(numpy.linalg, fn, tracer.wrap(f"linalg.{fn}", getattr(numpy.linalg, fn)))


def self_times(spans: list[list]) -> list[int]:
    """Self time (ns) of each span: its duration minus its direct children's.

    Spans of one process nest strictly (single thread), so the children of a
    span cover disjoint parts of its interval.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, task, extra in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [s[2] - s[1] - child_ns[i] for i, s in enumerate(spans)]


def per_layer_metrics(spans: list[list], passes: int, overhead_ratio: float) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics, per pass of the task list."""
    names = per_layer_metric_names()
    acc = {n: 0.0 for n in names}
    selfs = self_times(spans)
    max_bytes = 0
    for (name, start, end, parent, task, extra), self_ns in zip(spans, selfs):
        layer, _, fn = name.partition(".")
        ms = (end - start) / 1e6
        if f"{name}.calls" in acc:
            acc[f"{name}.calls"] += 1
        if f"{name}.ms" in acc:
            acc[f"{name}.ms"] += ms
        if f"{layer}.self_ms" in acc:
            acc[f"{layer}.self_ms"] += self_ns / 1e6
        if layer == "tensor" and extra:
            acc["tensor.bytes_out"] += extra
            max_bytes = max(max_bytes, extra)
        elif name == "separability.k_extendibility":
            acc["separability.k_extendibility.self_ms"] += self_ns / 1e6
            if extra is None:  # the call raised: no iterations, no verdict
                continue
            acc["separability.k_extendibility.iterations"] += extra[0]
            verdict = {"Feasible": "feasible", "InfeasibleEvidence": "infeasible_evidence",
                       "Undetermined": "undetermined"}[extra[1]]
            acc[f"separability.verdict.{verdict}"] += 1
        elif name == "cli.interpreter":
            acc["cli.interpreter_ms"] += ms
        elif name == "cli.import":
            acc["cli.import_ms"] += ms
        elif layer == "cli" and fn in CLI_SUBCOMMANDS:
            acc["cli.handler_ms"] += ms
    out = {n: v / passes for n, v in acc.items()}
    out["tensor.max_operator_bytes"] = float(max_bytes)
    its = acc["separability.k_extendibility.iterations"]
    out["separability.k_extendibility.ms_per_iteration"] = (
        acc["separability.k_extendibility.ms"] / its if its else 0.0)
    out["trace.overhead_ratio"] = overhead_ratio
    return out
