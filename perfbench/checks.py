"""Output checks computed independently of qilab.

Each checker returns None when the output is right and a one-line reason
when it is not.  They use numpy directly (reshape, transpose, einsum,
eigvalsh) and closed forms, never a qilab routine, so a defect in the code
under test cannot hide itself.  The benchmark calls them outside the timed
and traced regions.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

PSD_TOL = 1e-6
MARGINAL_TOL = 1e-6
SYMMETRY_TOL = 1e-6
PROJECTOR_TOL = 1e-8


# --- reference tensor operations -------------------------------------------

def ref_partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    n = len(dims)
    letters = "abcdefghijklmnopqrstuvwxyz"
    rows = list(letters[:n])
    cols = [rows[i] if i not in keep else letters[n + i] for i in range(n)]
    out = "".join(rows[i] for i in keep) + "".join(cols[i] for i in keep)
    t = np.einsum(f"{''.join(rows)}{''.join(cols)}->{out}", m.reshape(tuple(dims) * 2))
    dk = int(np.prod([dims[i] for i in keep]))
    return t.reshape(dk, dk)


def _digits(idx: np.ndarray, dims) -> list[np.ndarray]:
    out = []
    for d in reversed(dims):
        out.append(idx % d)
        idx = idx // d
    return out[::-1]


def _undigits(digits, dims) -> np.ndarray:
    idx = np.zeros_like(digits[0])
    for x, d in zip(digits, dims):
        idx = idx * d + x
    return idx


def check_partial_transpose(m: np.ndarray, dims, subs, out: np.ndarray,
                            samples: int = 4096) -> str | None:
    """Entry-wise spot check: out[i, j] = m[i', j'] with the digits of the
    transposed subsystems exchanged between row and column."""
    if out.shape != m.shape:
        return f"partial_transpose shape {out.shape} != {m.shape}"
    rng = np.random.default_rng(12345)
    i = rng.integers(0, m.shape[0], size=samples)
    j = rng.integers(0, m.shape[0], size=samples)
    di, dj = _digits(i, dims), _digits(j, dims)
    for s in subs:
        di[s], dj[s] = dj[s], di[s]
    src = m[_undigits(di, dims), _undigits(dj, dims)]
    err = float(np.max(np.abs(out[i, j] - src)))
    return None if err == 0.0 else f"partial_transpose entries differ by {err:.3e}"


def check_partial_trace(m, dims, keep, out) -> str | None:
    ref = ref_partial_trace(m, dims, keep)
    if out.shape != ref.shape:
        return f"partial_trace shape {out.shape} != {ref.shape}"
    err = float(np.max(np.abs(out - ref)))
    scale = max(1.0, float(np.max(np.abs(ref))))
    return None if err <= 1e-9 * scale else f"partial_trace differs by {err:.3e}"


def permute_b_factors(x: np.ndarray, d_a: int, d_b: int, k: int, perm) -> np.ndarray:
    """Conjugate x by the permutation of the k B factors, by axis transposes."""
    dims = (d_a,) + (d_b,) * k
    t = x.reshape(dims + dims)
    axes = [0] + [1 + p for p in perm]
    axes = axes + [k + 1 + a for a in axes]
    return t.transpose(axes).reshape(x.shape)


# --- solver outputs -----------------------------------------------------------

def check_extension(rho: np.ndarray, d_a: int, d_b: int, k: int, ext: np.ndarray) -> str | None:
    """A k-extension is PSD, invariant under B swaps, and has A B1 marginal rho."""
    dim = d_a * d_b**k
    if ext is None or ext.shape != (dim, dim):
        return "Feasible verdict without an extension of the right shape"
    herm = (ext + ext.conj().T) / 2
    if float(np.max(np.abs(ext - herm))) > SYMMETRY_TOL:
        return "extension is not Hermitian"
    lo = float(np.linalg.eigvalsh(herm)[0])
    if lo < -PSD_TOL:
        return f"extension has eigenvalue {lo:.3e}"
    for i in range(k - 1):
        perm = list(range(k))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        err = float(np.max(np.abs(permute_b_factors(ext, d_a, d_b, k, perm) - ext)))
        if err > SYMMETRY_TOL:
            return f"extension not invariant under swapping B{i + 1}, B{i + 2} ({err:.3e})"
    marg = ref_partial_trace(ext, (d_a,) + (d_b,) * k, [0, 1])
    err = float(np.max(np.abs(marg - rho)))
    if err > MARGINAL_TOL:
        return f"A B1 marginal differs from rho by {err:.3e}"
    return None


def check_extendibility(report, case) -> str | None:
    """Verdict against what is known of the input, then the extension itself."""
    status = report.status.value
    if case.expect == "feasible":
        if status != "Feasible":
            return f"{case.family} input came back {status}"
        return check_extension(case.rho, case.d_a, case.d_b, case.k, report.extension)
    if status == "Feasible":
        return f"{case.family} input (not {case.k}-extendible) came back Feasible"
    return None


# --- projectors -----------------------------------------------------------------

def check_projector(p: np.ndarray, rank: int, probes: int = 3) -> str | None:
    """Hermitian, idempotent on random probe vectors, trace equal to rank."""
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        return f"projector has shape {p.shape}"
    for i in range(0, p.shape[0], 512):  # row blocks keep the check's memory small
        if float(np.max(np.abs(p[i:i + 512] - p[:, i:i + 512].conj().T))) > PROJECTOR_TOL:
            return "projector is not Hermitian"
    tr = complex(np.trace(p))
    if abs(tr.real - rank) > 1e-6 or abs(tr.imag) > 1e-6:
        return f"projector trace {tr.real:.6f} != {rank}"
    rng = np.random.default_rng(777)
    for _ in range(probes):
        v = rng.normal(size=p.shape[0]) + 1j * rng.normal(size=p.shape[0])
        pv = p @ v
        err = float(np.max(np.abs(p @ pv - pv)))
        if err > 1e-8 * max(1.0, float(np.max(np.abs(pv)))):
            return f"projector is not idempotent (defect {err:.3e})"
    return None


def symmetric_dimension(d: int, n: int) -> int:
    return math.comb(n + d - 1, n)


def spin_multiplicity(n: int, two_j: int) -> int:
    k = (n - two_j) // 2
    return math.comb(n, k) - (math.comb(n, k - 1) if k >= 1 else 0)


def check_spin_blocks(n: int, blocks) -> str | None:
    expected = {n - 2 * m for m in range(n // 2 + 1)}
    seen = set()
    total = 0
    for b in blocks:
        two_j = round(2 * b.j)
        seen.add(two_j)
        rank = (two_j + 1) * spin_multiplicity(n, two_j)
        if b.multiplicity != spin_multiplicity(n, two_j):
            return f"j={b.j}: multiplicity {b.multiplicity}"
        why = check_projector(b.projector, rank, probes=1)
        if why:
            return f"spin block j={b.j}: {why}"
        total += rank
    if seen != expected or total != 2**n:
        return f"spin blocks cover 2j in {sorted(seen)}, total rank {total}"
    return None


def typical_rank(eigs: np.ndarray, n: int, delta: float) -> int:
    """Number of eigen-strings of rho^(x n) with typical log-eigenvalue."""
    eigs = np.clip(np.asarray(eigs, dtype=float), 0.0, None)
    nz = eigs[eigs > 1e-15]
    s = float(-np.sum(nz * np.log2(nz)))
    logs = [-math.log2(v) if v > 1e-15 else math.inf for v in eigs]
    d = len(eigs)
    count = 0

    def types(rem, slots):
        if slots == 1:
            yield (rem,)
            return
        for first in range(rem + 1):
            for rest in types(rem - first, slots - 1):
                yield (first,) + rest

    for t in types(n, d):
        if any(c and math.isinf(logs[i]) for i, c in enumerate(t)):
            continue
        ll = sum(c * logs[i] for i, c in enumerate(t) if c)
        if abs(ll / n - s) <= delta:
            mult, rem = 1, n
            for c in t:
                mult *= math.comb(rem, c)
                rem -= c
            count += mult
    return count


# --- distributions ---------------------------------------------------------------

def spectrum_distribution(r: float, n: int) -> dict[float, float]:
    """Pr[j] in log space, for 0 < r < 1/2:
    m_j (pq)^(n/2-j) (p^(2j+1) - q^(2j+1)) / (p - q)."""
    p, q = 0.5 + r, 0.5 - r
    out = {}
    for two_j in range(n % 2, n + 1, 2):
        half = (n - two_j) // 2
        inner_log = ((two_j + 1) * math.log(p) + math.log1p(-(q / p) ** (two_j + 1))
                     - math.log(p - q))
        out[two_j / 2] = math.exp(math.log(spin_multiplicity(n, two_j))
                                  + half * math.log(p * q) + inner_log)
    return out


def check_spectrum(r: float, n: int, dist) -> str | None:
    ref = spectrum_distribution(r, n)
    keys = {float(j) for j in dist}
    if keys != set(ref):
        return f"spectrum support {sorted(keys)[:4]}... != 2j in n, n-2, ..."
    for j, pr in dist.items():
        want = ref[float(j)]
        if abs(pr - want) > 1e-9 * max(want, 1e-300) + 1e-15:
            return f"Pr[j={j}] = {pr!r}, closed form {want!r}"
    total = sum(dist.values())
    return None if abs(total - 1.0) < 1e-9 else f"spectrum sums to {total!r}"


def binary_entropy(x: float) -> float:
    return -sum(v * math.log2(v) for v in (x, 1 - x) if v > 0)


def binary_typical_mass(p1: float, n: int, delta: float) -> tuple[float, int]:
    """Exact mass and size of the typical set of Bernoulli(p1) strings."""
    h = binary_entropy(p1)
    mass, size = 0.0, 0
    for k in range(n + 1):
        ll = -(k * math.log2(p1) + (n - k) * math.log2(1 - p1))
        if abs(ll / n - h) <= delta:
            c = math.comb(n, k)
            size += c
            mass += math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                             + k * math.log(p1) + (n - k) * math.log(1 - p1))
    return mass, size


def check_typical_set(p1: float, n: int, delta: float, rep, exact: bool) -> str | None:
    mass, size = binary_typical_mass(p1, n, delta)
    if exact:
        if rep.mass_stderr is not None or rep.log_size is None:
            return "exact path expected for this size"
        if abs(rep.mass - mass) > 1e-9:
            return f"typical mass {rep.mass!r} != {mass!r}"
        want = math.log2(size) if size else -math.inf
        if rep.log_size != want and abs(rep.log_size - want) > 1e-9:
            return f"typical log-size {rep.log_size!r} != {want!r}"
        return None
    if rep.mass_stderr is None:
        return "Monte Carlo path expected for this size"
    if abs(rep.mass - mass) > 6 * max(rep.mass_stderr, 1e-3):
        return f"sampled typical mass {rep.mass:.4f} far from exact {mass:.4f}"
    return None


def check_compression(rep, n: int, rate: float, p1: float, trials: int) -> str | None:
    if (rep.n, rep.trials) != (n, trials):
        return f"compression report n={rep.n} trials={rep.trials}"
    h = binary_entropy(p1)
    rate_ok = rep.successes / trials
    if rate > h and rate_ok < 0.9:
        return f"rate {rate:.3f} above H={h:.3f} but success {rate_ok:.2f}"
    if rate < h and rate_ok > 0.1:
        return f"rate {rate:.3f} below H={h:.3f} but success {rate_ok:.2f}"
    return None


def overlap_exact(d: int, n: int, k: int) -> float:
    return float(Fraction(symmetric_dimension(d, n), symmetric_dimension(d, n + k)))


def max_clique(n: int, edges) -> int:
    adj = [[False] * n for _ in range(n)]
    for i, j in edges:
        adj[i][j] = adj[j][i] = True
    best = 1
    for mask in range(1, 1 << n):
        members = [v for v in range(n) if mask >> v & 1]
        if len(members) > best and all(adj[a][b] for x, a in enumerate(members)
                                       for b in members[x + 1:]):
            best = len(members)
    return best
