"""Shannon/von Neumann entropies, typical sets, and block compression.

All logarithms are base 2.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .states import DensityMatrix
from .tensor import (_checked_dim, _checked_distribution, _count, _normalized, _subsystems, basis_digits,
                     hermitian_eig, trace_norm)

LN2 = math.log(2.0)
ENUMERATION_CAP = 2**22
MC_BATCH = 4096  # rows per multinomial draw in typical_set: bounded memory, the per-sample stream
TYPE_CLASS_CAP = 2**15  # compression_trial keeps n log2(d)-bit sizes per class: 260 MB at n = 2^15 - 1


def _entropy_bits(p: np.ndarray) -> float:
    """-sum p log2 p over the entries p > 0 of a ``_normalized`` p: >= 0, and 0.0 for a point mass."""
    nz = p[p > 0]
    return float(0.0 - np.sum(nz * np.log2(nz)))


def shannon_entropy(p: Sequence[float]) -> float:
    """H(p) = -sum p_i log2 p_i, with 0 log 0 = 0."""
    return _entropy_bits(_checked_distribution(p, "p"))


def binary_entropy(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{x} outside [0, 1]")
    return shannon_entropy([x, 1.0 - x])


def binary_relative_entropy(x: float, y: float) -> float:
    """delta(x || y) = x log(x/y) + (1-x) log((1-x)/(1-y)); may be +inf."""
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError("arguments must lie in [0, 1]")
    total = 0.0
    for a, b in ((x, y), (1.0 - x, 1.0 - y)):
        if a == 0.0:
            continue
        if b == 0.0:
            return math.inf
        total += a * math.log2(a / b)
    return total


def _spectrum(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """rho's eigenvalues, descending, through ``_normalized``, with their eigenvectors; an eigenvalue
    at or below dim * eps * lambda_max, the backward error of eigh, reads as 0."""
    eig = hermitian_eig(rho.mat)
    vals = eig.eigenvalues
    cut = rho.dim * np.finfo(float).eps * vals[0]
    return _normalized(np.where(vals > cut, vals, 0.0)), eig.eigenvectors


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -tr rho log2 rho via the spectrum ``_spectrum`` reads."""
    return _entropy_bits(_spectrum(rho)[0])


def classical_mutual_information(pxy: np.ndarray) -> float:
    """I(X:Y) = H(X) + H(Y) - H(XY) for a joint distribution matrix."""
    pxy = _checked_distribution(pxy, "pxy", ndim=2)
    hx = _entropy_bits(pxy.sum(axis=1))
    hy = _entropy_bits(pxy.sum(axis=0))
    return hx + hy - _entropy_bits(pxy.reshape(-1))


def classical_pinsker_bound(pxy: np.ndarray) -> float:
    """(1/(2 ln 2)) * (l1 distance from the product of marginals)^2."""
    pxy = _checked_distribution(pxy, "pxy", ndim=2)
    prod = np.outer(pxy.sum(axis=1), pxy.sum(axis=0))
    l1 = float(np.sum(np.abs(pxy - prod)))
    return l1 * l1 / (2 * LN2)


def information_measures(rho: DensityMatrix, parties: Sequence[Sequence[int]]) -> dict[str, float]:
    """Entropic quantities for a bi- or tripartite split of the subsystems.

    ``parties`` lists the subsystem indices of A, B (and optionally C), each
    party read as ``partial_trace`` reads ``keep``: one index is that subsystem.
    Returns conditional entropies and mutual informations alongside the
    marginal entropies; conditional quantities may be negative.
    """
    parts = [tuple(_subsystems(g, len(rho.dims))) for g in parties]
    if len(parts) not in (2, 3):
        raise ValueError("need two or three parties")
    seen = [i for g in parts for i in g]
    if len(set(seen)) != len(seen):
        raise ValueError("parties overlap")

    def s(*groups) -> float:
        return von_neumann_entropy(rho.marginal(sorted(i for g in groups for i in g)))

    a, b = parts[0], parts[1]
    out = {
        "S_A": s(a),
        "S_B": s(b),
        "S_AB": s(a, b),
    }
    out["S_A_given_B"] = out["S_AB"] - out["S_B"]
    out["I_AB"] = out["S_A"] + out["S_B"] - out["S_AB"]
    if len(parts) == 3:
        c = parts[2]
        out.update(
            S_C=s(c),
            S_AC=s(a, c),
            S_BC=s(b, c),
            S_ABC=s(a, b, c),
        )
        out["I_A_C"] = out["S_A"] + out["S_C"] - out["S_AC"]
        out["I_A_BC"] = out["S_A"] + out["S_BC"] - out["S_ABC"]
        # I(A:B|C) = S(A|C) + S(B|C) - S(AB|C)
        out["I_AB_given_C"] = (
            (out["S_AC"] - out["S_C"])
            + (out["S_BC"] - out["S_C"])
            - (out["S_ABC"] - out["S_C"])
        )
    return out


def quantum_pinsker_bound(rho: DensityMatrix, parties: Sequence[Sequence[int]]) -> float:
    """(1/(2 ln 2)) ||rho_AB - rho_A x rho_B||_1^2 for a bipartite split, each party
    read as in ``information_measures``."""
    parts = [tuple(_subsystems(g, len(rho.dims))) for g in parties]
    if len(parts) != 2:
        raise ValueError("need two parties")
    a, b = parts
    keep = sorted(a + b)
    # order A before B to match the product
    if tuple(keep) != a + b:
        raise ValueError("parties must be sorted with A before B")
    l1 = trace_norm(rho.marginal(keep).mat - np.kron(rho.marginal(a).mat, rho.marginal(b).mat))
    return l1 * l1 / (2 * LN2)


# ---------------------------------------------------------------------------
# typicality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypicalSetReport:
    n: int
    delta: float
    entropy: float
    log_size_bound: float
    mass: float
    mass_stderr: float | None
    log_size: float | None
    is_typical: Callable[[Sequence[int]], bool]


def _iter_types(n: int, d: int):
    """Count vectors t with sum n, in lexicographic order, with their class
    sizes n!/(t_0! ... t_{d-1}!).  The next type moves one count of the last
    nonzero t_k to t_{k-1} and the rest to t_{d-1}: the size's factor C(r, c)
    at level k - 1 becomes C(r, c + 1) = C(r, c) t_k/(c + 1), the later ones 1.
    """
    t, size = [0] * (d - 1) + [n], [1] * d  # size[i]: the factors of levels 0 .. i
    while True:
        yield tuple(t), size[-1]
        k = max((j for j in range(1, d) if t[j]), default=0)  # the last nonzero count
        if not k:
            return
        size[k - 1] = size[k - 1] * t[k] // (t[k - 1] + 1)
        t[k - 1], t[k], t[-1] = t[k - 1] + 1, 0, t[k] - 1
        size[k:] = [size[k - 1]] * (d - k)


def _typicality(p: np.ndarray, n: int, delta: float) -> tuple[float, Callable[[np.ndarray], np.ndarray]]:
    """H(p) and the one typicality test: counts (along the last axis) of a string of length n over
    the symbols of ``p`` are typical when |-(1/n) log2 p(x^n) - H(p)| <= delta."""
    if not delta > 0:  # also rejects NaN
        raise ValueError("need delta > 0")
    h = _entropy_bits(p)
    logs = np.array([-math.log2(x) if x > 0 else math.inf for x in p])

    def typical(counts: np.ndarray) -> np.ndarray:
        ll = np.zeros(counts.shape[:-1])
        for i in range(len(p)):  # in symbol order; a zero count adds nothing, so 0 * inf is never formed
            c = counts[..., i]
            ll += np.multiply(c, logs[i], out=np.zeros(ll.shape), where=c > 0)
        return np.abs(ll / n - h) <= delta

    return h, typical


def typical_set(p: Sequence[float], n: int, delta: float,
                mc_samples: int = 20000, seed: int = 0) -> TypicalSetReport:
    """The set of n-strings with empirical log-likelihood within delta of H(p).

    A string x^n is typical when |-(1/n) log2 p(x^n) - H(p)| <= delta, which
    ``_typicality`` decides from its counts.  For alphabets with d^n below the
    enumeration cap the mass and size are exact (over all type classes);
    otherwise the mass is the typical share of ``mc_samples`` draws.
    """
    p = _checked_distribution(p, "p")
    n, mc_samples = _count(n, 1, "n"), _count(mc_samples, 1, "mc_samples")
    h, typical = _typicality(p, n, delta)
    d = len(p)

    def is_typical(xs: Sequence[int]) -> bool:
        xs = np.asarray(xs)
        ok = np.issubdtype(xs.dtype, np.integer) and np.all((xs >= 0) & (xs < d))
        if xs.shape != (n,) or not ok:
            raise ValueError(f"expected a string of {n} integer symbols in 0..{d - 1}")
        return bool(typical(np.bincount(xs, minlength=d)))

    # n is bounded before d**n is formed, as in tensor._checked_dim
    if (d < 2 or n <= ENUMERATION_CAP.bit_length()) and d**n <= ENUMERATION_CAP:
        types, sizes = (np.array(a) for a in zip(*_iter_types(n, d)))
        hit = typical(types)  # a count on a zero-probability symbol makes ll infinite
        # scalar powers, as np.power on arrays may round differently; summed in type order
        probs = [math.prod(x**c for x, c in zip(p, t)) for t in types[hit]]
        mass = float(np.cumsum(sizes[hit] * probs)[-1]) if probs else 0.0
        size = int(sizes[hit].sum())
        log_size = math.log2(size) if size else -math.inf
        return TypicalSetReport(n, delta, h, n * (h + delta), mass, None, log_size, is_typical)

    rng = np.random.default_rng(seed)
    hits = sum(int(typical(rng.multinomial(n, p, size=min(MC_BATCH, mc_samples - s))).sum())
               for s in range(0, mc_samples, MC_BATCH))
    mass = hits / mc_samples
    stderr = math.sqrt(max(mass * (1 - mass), 1e-12) / mc_samples)
    return TypicalSetReport(n, delta, h, n * (h + delta), mass, stderr, None, is_typical)


def typical_mass_lower_bound(p: Sequence[float], n: int, delta: float) -> float:
    """Chebyshev guarantee: mass >= 1 - Var[log2 p(X)] / (n delta^2); its limit where
    n delta^2 underflows to 0: -inf, or 1 at zero variance (every string typical)."""
    p, n = _checked_distribution(p, "p"), _count(n, 1, "n")
    if not delta > 0:  # also rejects NaN
        raise ValueError("need delta > 0")
    nz = p[p > 0]
    logs = -np.log2(nz)
    mean = _entropy_bits(p)  # H(p), the mean surprisal
    # equal probabilities have zero variance, which these sums would miss by round-off
    var = 0.0 if np.ptp(logs) == 0 else float(np.sum(nz * logs**2) - mean**2)
    if n * delta * delta == 0:
        return -math.inf if var > 0 else 1.0
    return 1.0 - var / (n * delta * delta)


def typical_subspace_projector(rho: DensityMatrix, n: int, delta: float) -> np.ndarray:
    """Projector onto the eigenstrings of rho^(x n) whose eigenvalue string is typical.

    The spectrum is ``_spectrum``'s and the test is ``typical_set``'s, ``_typicality``,
    applied to the symbol counts of all d^n eigenstrings at once, so the rank is the
    size of that spectrum's typical set, at most 2^{n (S + delta)}.  The projector
    is W W^dagger with W the typical columns of U^(x n), where U is the eigenbasis
    of rho.  Only feasible for d^n within the operator size cap.
    """
    n = _count(n, 1, "n")
    p, vecs = _spectrum(rho)
    typical = _typicality(p, n, delta)[1]
    d = rho.dim
    _checked_dim(d, n)
    digits = basis_digits(d, n)
    counts = (digits == np.arange(d)[:, None, None]).sum(axis=1, dtype=np.int16)  # (d, d^n); counts <= n
    keep = typical(counts.T)
    w = np.ones((1, int(keep.sum())), dtype=complex)
    for x in digits[:, keep]:
        w = (w[:, None, :] * vecs[:, x]).reshape(w.shape[0] * d, -1)
    return w @ w.conj().T


# ---------------------------------------------------------------------------
# fixed-rate compression simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompressionReport:
    n: int
    rate: float
    trials: int
    successes: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials


def compression_trial(p: Sequence[float], n: int, rate: float,
                      trials: int, seed: int = 0) -> CompressionReport:
    """Simulate a fixed-rate codebook of the 2^{nR} most probable strings.

    Strings are ranked by probability (per type class, lexicographic within a
    class); a sampled string succeeds when its rank falls below the capacity
    2^{nR}, decided by exact big-integer comparison.
    """
    p = _checked_distribution(p, "p")
    d, n, trials = len(p), _count(n, 1, "n"), _count(trials, 1, "trials")
    if not 0 <= rate < math.inf:  # also rejects NaN
        raise ValueError("rate must be finite and nonnegative")
    # C(n + d - 1, d - 1) >= 2^min(n, d - 1), so a count that long is refused before it is formed
    if min(n, d - 1) > TYPE_CLASS_CAP.bit_length() or math.comb(n + d - 1, d - 1) > TYPE_CLASS_CAP:
        raise ValueError(f"{d} symbols at block length {n} make more than {TYPE_CLASS_CAP} type classes")
    types = [(t, size) for t, size in _iter_types(n, d)
             if not any(t[i] > 0 and p[i] == 0 for i in range(d))]
    types.sort(key=lambda ts: -sum(ts[0][i] * math.log(p[i]) for i in range(d) if ts[0][i]))
    # each type's (rank of its first string, class size)
    starts = itertools.accumulate((size for _, size in types), initial=0)
    below = {t: (first, size) for (t, size), first in zip(types, starts)}

    n_rate = n * rate
    rng = np.random.default_rng(seed)
    successes = 0
    for _ in range(trials):
        t = tuple(int(c) for c in rng.multinomial(n, p))
        # uniform rank within the type class (strings of one type are
        # exchangeable), drawn with 63 bits of resolution
        r = int(rng.integers(0, 2**63))
        first, size = below[t]
        rank = first + (size * r >> 63)
        if rank == 0 or math.log2(rank) < n_rate:
            successes += 1
    return CompressionReport(n, rate, trials, successes)
