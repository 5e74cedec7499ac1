"""Entanglement detection: PPT, witnesses, k-extendibility by alternating
projections, data hiding, and symmetric-extension support functions."""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .entropy import _iter_types
from .schur import _affine_maps
from .states import DensityMatrix, PureState, phi_plus, random_pure_state
from .tensor import (
    _as_matrix,
    _check_dims,
    _checked_dim,
    _count,
    _finite,
    _hermitian,
    _is_scalar,
    _negative_eigenvalue,
    _operator_on,
    _strict_int,
    hermitian_eig,
    partial_transpose,
)


@dataclass(frozen=True)
class PptVerdict:
    is_ppt: bool
    min_eigenvalue: float
    spectrum: np.ndarray


def _npt_certified(rho: DensityMatrix, lo: float) -> bool:
    """Whether lo = lambda_min(rho^Gamma) < -(1e-10 + ||rho_-||_F), rho_- the negative part
    that validation lets through, which certifies that the PSD part rho_+ is not PPT, as
    ||rho_-^Gamma||_op <= ||rho_-^Gamma||_F = ||rho_-||_F.  rho's eigvalsh runs only if lo < -1e-10."""
    if not lo < -1e-10:
        return False
    return lo < -1e-10 - float(np.linalg.norm(np.minimum(np.linalg.eigvalsh(rho.mat), 0.0)))


def ppt_check(rho: DensityMatrix, transpose_on: Sequence[int] | int = 0) -> PptVerdict:
    """Partial-transpose spectrum test; entanglement is certified by ``_npt_certified``."""
    pt = partial_transpose(rho.mat, rho.dims, transpose_on)
    spec = hermitian_eig(pt).eigenvalues
    lo = float(spec[-1])
    return PptVerdict(not _npt_certified(rho, lo), lo, spec)


def witness_value(w: np.ndarray, rho: DensityMatrix) -> float:
    return float(np.trace(_operator_on(w, rho.dim) @ rho.mat).real)


def flip_witness() -> np.ndarray:
    """W = I - 2 |Phi+><Phi+| on two qubits: -1 on Phi+, >= 0 on separables."""
    return np.eye(4) - 2 * phi_plus().density().mat


def chsh_witness() -> np.ndarray:
    """Witness from the CHSH observables: W = I/sqrt(2) - B/2.

    B is the Bell operator for A0 = Z, A1 = X and the rotated Hadamard-type
    Bob observables.  Product states satisfy tr(B sigma) <= sqrt(2) (Bloch
    Cauchy-Schwarz for these fixed observables), so tr(W sigma) >= 0 on the
    separable set, while tr(W Phi+) = -1/sqrt(2).
    """
    from .chsh import optimal_observables, bell_operator

    a0, a1, b0, b1 = optimal_observables()
    b = bell_operator(a0, a1, b0, b1)
    return np.eye(4) / math.sqrt(2) - b / 2


def eigen_witness(rho: DensityMatrix, transpose_on: Sequence[int] | int = 0) -> np.ndarray:
    """Witness (|v><v|)^T_A from the most negative eigenvector of rho^T_A, for a state
    ``ppt_check`` finds not PPT."""
    pt = partial_transpose(rho.mat, rho.dims, transpose_on)
    eig = hermitian_eig(pt)
    if not _npt_certified(rho, eig.eigenvalues[-1]):
        raise ValueError("state is PPT; no negative eigenvector to build from")
    v = eig.eigenvectors[:, -1]
    return partial_transpose(np.outer(v, v.conj()), rho.dims, transpose_on)


# ---------------------------------------------------------------------------
# k-extendibility via Dykstra-style alternating projections
# ---------------------------------------------------------------------------

MEMORY = 4  # Anderson differences kept
WITNESS_EVERY = 10  # the dual bound is computed at iteration 1, every 10th and the last
WITNESS_TOL = 1e-12  # absolute tolerance of both conditions of a passing witness


class FeasStatus(enum.Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE_EVIDENCE = "InfeasibleEvidence"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class FeasibilityReport:
    status: FeasStatus
    residual: float
    iterations: int
    extension: np.ndarray | None
    witness: np.ndarray | None = None  # on A B_1, see check_extendibility_witness


def _to_cc(m: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """An A B_1 operator as the stack m[c d_B + C] = <c|m|C> of d_A x d_A blocks."""
    return m.reshape(d_a, d_b, d_a, d_b).transpose(1, 3, 0, 2).reshape(-1, d_a, d_a)


def _marginal_power(m: np.ndarray, k: int, power: float) -> np.ndarray:
    """L^power for L(D) = tr_{B2..Bk} sym(D x I/d_B^{k-1}) on A B_1 operators kept
    as in ``_to_cc``.

    L(D) = D/k + (1 - 1/k) P(D) with P(D) = tr_B(D) x I/d_B, the diagonal-block
    sum, an orthogonal projector; hence L^p = k^-p I + (1 - k^-p) P.
    """
    d_b = math.isqrt(len(m))
    scale = k ** -power
    out = scale * m
    out[::d_b + 1] += (1 - scale) / d_b * m[::d_b + 1].sum(axis=0)
    return out


def _project_psd_blocks(z: np.ndarray) -> np.ndarray:
    """Eigenvalue clipping of each block of a padded stack by one batched eigh, which
    reads one triangle (so z need not be exactly Hermitian); eigenvectors may mix
    padding into a block where eigenvalues meet, and nothing reads it."""
    vals, vecs = np.linalg.eigh(z)
    return (vecs * np.maximum(vals, 0.0)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)


def _extension_dims(rho: DensityMatrix, k: int) -> tuple[int, int, int]:
    """(d_A, d_B, k) of a k-extension of ``rho``, checked."""
    if len(rho.dims) != 2:
        raise ValueError("state must be explicitly bipartite")
    k = _count(k, 2, "k")
    d_a, d_b = rho.dims
    _checked_dim(d_a * _checked_dim(d_b, k))
    return d_a, d_b, k


def k_extendibility(rho: DensityMatrix, k: int,
                    max_iterations: int = 5000) -> FeasibilityReport:
    """Search for a permutation-invariant k-extension of a bipartite state.

    Dykstra's alternating projections between the PSD cone (eigenvalue
    clipping, with correction term) and the affine set of operators that
    are invariant under permuting the B factors and whose A B_1 marginal
    equals rho.  The iterates commute with those permutations and are kept
    as Schur-Weyl blocks X_lam on C^{d_A} x Q_lam; the exact affine step adds
    the blocks of sym(L^{-1}(rho - marginal) x I), L inverted in closed form.
    Dykstra's x + p is z = correction(E) for an A B_1 operator E, which the
    loop keeps: with y = P_psd(z), D = L^{-1}(rho - marginal(y)) and
    step = correction(D), x = y + step and x + p = z + step, so E += D.
    Each iteration is one batched eigh over the blocks plus two sparse
    contractions with the gl(d_B) generators on each Q_lam (``schur._affine_maps``,
    one cached plan per (d_B, k)), so nothing with d_B^k rows is touched and no
    block's padding is read; a real rho stays real throughout.
    The residual |y - x| = |step| is sqrt(d_B^{1-k}) |L^{1/2} D|.

    Dual bound: step is orthogonal to the affine set's linear part, so with
    mu = max(0, lam_max(step)) and u = step - mu I <= 0 every affine a and PSD s
    have |a - s| >= <u, a - s>/|u| >= (<step, x> - mu)/|u| = lower.  It is
    computed at iteration 1, every WITNESS_EVERY-th and the last; lower > 0
    certifies that rho has no k-extension, and that settles the verdict.

    Until then E is extrapolated by Anderson acceleration over the last MEMORY
    differences of (E + D, L^{1/2} D), safeguarded: an extrapolated E whose
    residual does not fall below the last accepted one is dropped for the
    plain E + D, the memory's last entry, and the memory cleared; that pass
    counts as an iteration, so iterations and eigh calls are equal.

    Three ends, and what ``residual`` then means:
    - a residual |y - x| <= 1e-7 (tested first) yields Feasible with the
      extension x attached;
    - a positive bound yields InfeasibleEvidence at once, with the witness
      W = mu I - d_B^{1-k} D (``check_extendibility_witness``) and residual
      the certified lower bound on dist(PSD, affine set), which W alone gives
      as -tr(W rho) / |sym(W x I_{B2..Bk})|_F;
    - the end of the budget yields Undetermined with the residual |y - x|.
    """
    d_a, d_b, k = _extension_dims(rho, k)
    max_iterations = _count(max_iterations, 1, "max_iterations")
    marginal, correction, embed = _affine_maps(d_b, k)
    rho_cc = _to_cc(rho.mat if rho.mat.imag.any() else rho.mat.real, d_a, d_b)
    scale = d_b ** (1.0 - k)
    e = _marginal_power(rho_cc, k, -1)  # z = P_affine(correction(rho)), p = 0
    # Anderson memory of accepted iterates: E + D, whose last entry is the plain step
    # while e is extrapolated, and L^{1/2} D as one real vector, a complex entry as two
    ts: list[np.ndarray] = []
    gs: list[np.ndarray] = []
    accepted = math.inf
    for it in range(1, max_iterations + 1):
        y = _project_psd_blocks(correction(e))
        d = _marginal_power(rho_cc - marginal(y), k, -1)
        g = _marginal_power(d, k, 0.5)
        residual = math.sqrt(scale * np.vdot(g, g).real)  # full-space |y - x|
        if len(ts) > 1 and residual > (1 - 1e-12) * accepted:  # e was extrapolated
            # safeguard: back to the plain step, memory cleared; the pass still counts
            e, residual = ts[-1], accepted
            ts.clear()
            gs.clear()
            continue
        accepted = residual
        if residual <= 1e-7:
            # x = y + step is affine by construction, and as |step_lam|_2 <= residual/sqrt(f_lam)
            # Weyl gives lam_min(x_lam) >= -residual - O(eps|y|): no eigenvalue check is needed
            x = embed(y + correction(d))
            return FeasibilityReport(FeasStatus.FEASIBLE, residual, it, x.astype(complex))
        if it == 1 or it % WITNESS_EVERY == 0 or it == max_iterations:
            mu = max(0.0, float(np.linalg.eigvalsh(correction(d)).max()))
            gap = scale * float(np.vdot(d, rho_cc).real) - mu  # <step, x> - mu = -tr(W rho)
            if gap > WITNESS_TOL:
                trace = np.trace(d[::d_b + 1], axis1=1, axis2=2).sum().real  # tr step
                norm_u = math.sqrt(max(0.0, residual**2 - 2 * mu * trace
                                       + mu**2 * d_a * d_b**k))
                d = d.reshape(d_b, d_b, d_a, d_a).transpose(2, 0, 3, 1)  # undoes _to_cc
                witness = mu * np.eye(d_a * d_b) - scale * d.reshape(d_a * d_b, d_a * d_b)
                return FeasibilityReport(FeasStatus.INFEASIBLE_EVIDENCE, gap / norm_u, it, None,
                                         witness.astype(complex))
        e = e + d  # the plain step
        ts.append(e)
        gs.append(g.reshape(-1).view(np.float64))
        del ts[:-MEMORY - 1], gs[:-MEMORY - 1]
        if len(ts) > 1:
            dg = np.diff(gs, axis=0)
            # rcond drops directions at round-off level, where differences are collinear
            gamma = np.linalg.lstsq(dg.T, gs[-1], rcond=1e-10)[0]
            dt = np.diff(ts, axis=0)
            e = e - (gamma @ dt.reshape(len(dt), -1)).reshape(e.shape)
    return FeasibilityReport(FeasStatus.UNDETERMINED, residual, it, None)


def check_extendibility_witness(w: np.ndarray, rho: DensityMatrix, k: int) -> bool:
    """Whether the A B_1 operator ``w`` certifies that ``rho`` has no k-extension,
    without the solver: sym(w x I_{B2..Bk}) >= 0 and tr(w rho) < 0, each to
    WITNESS_TOL.  Every symmetric k-extension sigma of rho would then give
    tr(w rho) = tr(sym(w x I) sigma) >= 0.  The lift is d_B^{k-1} correction(w),
    a stack of blocks checked by the one PSD test, ``tensor._negative_eigenvalue``."""
    d_a, d_b, k = _extension_dims(rho, k)
    w = _hermitian(_operator_on(w, rho.dim), "witness")
    correction = _affine_maps(d_b, k)[1]
    lift = d_b ** (k - 1) * correction(_to_cc(w, d_a, d_b))
    return _negative_eigenvalue(lift, WITNESS_TOL) is None and witness_value(w, rho) < -WITNESS_TOL


def slater_state(d: int) -> PureState:
    """The d-party Slater determinant state (1/sqrt(d!)) sum sgn(pi) |pi>,
    sgn from the inversion count, |pi> at the base-d number pi spells."""
    d = _count(d, 1, "d")
    size = _checked_dim(d, d, state=True)
    perms = np.array(list(itertools.permutations(range(d))), dtype=int)
    inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
    amps = np.zeros(size, dtype=complex)
    amps[perms @ d ** np.arange(d - 1, -1, -1)] = 1 - 2 * (inversions % 2)
    amps /= math.sqrt(math.factorial(d))
    return PureState(amps, (d,) * d)


# ---------------------------------------------------------------------------
# data hiding with Werner states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataHidingReport:
    d: int
    global_distance: float
    ppt_bias_bound: float


def data_hiding_bias(d: int) -> DataHidingReport:
    """Werner-state hiding pair: globally orthogonal, nearly invisible to
    one-sided (PPT-constrained) measurements.

    The PPT bound evaluates (1/2)|| I/(d(d^2-1)) - Phi+/(d^2-1) ||_1 in
    closed form from its two eigenvalues -1/(d(d+1)) (once) and
    1/(d(d^2-1)) (d^2 - 1 times), giving (d+2)/(2d(d+1)) <= 1/d.
    """
    d = _count(d, 2, "d")
    ppt_bias = 0.5 * (1 / (d * (d + 1)) + 1 / d)
    # the symmetric and antisymmetric Werner states have orthogonal supports
    return DataHidingReport(d, 1.0, ppt_bias)


def bcy_inequality_check(rho: DensityMatrix, measurement: np.ndarray, k: int,
                         samples: int = 200, seed: int = 0) -> dict[str, float | bool]:
    """One-sided sanity check of the k-extendibility distance bound.

    For a 1-LOCC style effect M (0 <= M <= I), the bias |tr M (rho - sigma)|
    minimized over sampled separable sigma must not exceed
    sqrt(2 ln2 * log2(d_A) / k).
    """
    if len(rho.dims) != 2:
        raise ValueError("state must be bipartite")
    k, samples = _count(k, 1, "k"), _count(samples, 1, "samples")
    d_a, d_b = rho.dims
    m = _operator_on(measurement, rho.dim)
    rhs = math.sqrt(2 * math.log(2) * math.log2(d_a) / k)
    rng = np.random.default_rng(seed)
    # one product vector a x b per row, a drawn before b for each sample
    v = np.array([np.kron(random_pure_state(d_a, rng).amps, random_pure_state(d_b, rng).amps)
                  for _ in range(samples)])
    # |tr M (rho - |v><v|)| = |tr(M rho) - <v|M|v>| for every sample at once
    biases = np.abs(np.trace(m @ rho.mat).real - np.einsum("si,ij,sj->s", v.conj(), m, v).real)
    best = float(np.min(biases))
    return {"lhs": best, "rhs": rhs, "holds": best <= rhs + 1e-12}


# ---------------------------------------------------------------------------
# support functions h_Sep and h_{n-ext}
# ---------------------------------------------------------------------------

def _two_dims(m: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    """The ``dims`` of the operator ``m`` by ``_check_dims``; exactly two, else ValueError."""
    dims = _check_dims(m.shape[0], dims)
    if len(dims) != 2:
        raise ValueError(f"dims {dims} must name exactly two subsystems")
    return dims


def h_n_ext(m: np.ndarray, dims: tuple[int, int], n: int) -> float:
    """Largest eigenvalue of (I x Pi_sym) (M x I^{n-1}) (I x Pi_sym).

    Upper-bounds h_Sep(M) and converges to it at rate d_B/n.  Built on
    A x Sym^n(B) in the type basis: |t> = sum_b sqrt(t_b/n) |b>|t - e_b>
    maps Sym^n into C^{d_B} x Sym^{n-1}, where M x I acts.
    """
    m = _as_matrix(m)
    d_a, d_b = _two_dims(m, dims)
    n = _count(n, 1, "n")
    with np.errstate(over="ignore", invalid="ignore"):  # NaN, inf or overflow: refused below
        h = ((m + m.conj().T) / 2).reshape(d_a, d_b, d_a, d_b)  # makes op exactly Hermitian
    if not np.isfinite(h).all():
        raise ValueError("operator has NaN or infinite entries, or its Hermitian part overflows")
    s = math.comb(n + d_b - 1, n)
    _checked_dim(d_a * s)
    index = {t: i for i, (t, _) in enumerate(_iter_types(n, d_b))}
    u = np.array([t for t, _ in _iter_types(n - 1, d_b)])
    up = np.array([[index[tuple(t)] for t in v + np.eye(d_b, dtype=int)] for v in u])
    w = np.sqrt((u + 1) / n)  # up[:, b] is t = u + e_b, w[:, b] its sqrt(t_b/n)
    b, c = np.indices((d_b, d_b)).reshape(2, -1)
    op = np.zeros((d_a, s, d_a, s), dtype=complex)
    # the pairs (t, t') repeat across (b, b') only on the diagonal b = b'
    np.add.at(op, (slice(None), up[:, b], slice(None), up[:, c]),
              h[:, b, :, c] * (w[:, b] * w[:, c])[..., None, None])
    top = float(np.max(np.linalg.eigvalsh(op.reshape(d_a * s, d_a * s))))
    # the operator vanishes on A x (Sym^n)^perp, which is not empty once n, d_B >= 2
    return max(top, 0.0) if min(n, d_b) > 1 else top


def h_sep_sampled(m: np.ndarray, dims: tuple[int, int],
                  starts: int = 32, seed: int = 0) -> float:
    """Lower bound on h_Sep(M) by alternating top-eigenvector ascent.

    Fixing one side of a product state, the optimal other side is the top
    eigenvector of the conditioned operator; alternating is monotone, so the
    best value over random restarts is a certified lower bound.  Every start
    is drawn first, then all ascend together, one batched eigh per half-sweep,
    for at most 200 sweeps; a start stops once its gain falls below 1e-12.
    """
    starts = _count(starts, 1, "starts")
    m = _finite(_as_matrix(m))
    d_a, d_b = _two_dims(m, dims)
    m = m.reshape(d_a, d_b, d_a, d_b)

    def ascend(spec: str, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Top eigenvectors and eigenvalues of the Hermitian parts of M conditioned on
        each row of v."""
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
            c = np.einsum(spec, m, v.conj(), v)
            c = (c + c.conj().transpose(0, 2, 1)) / 2
        if not np.isfinite(c).all():
            raise ValueError("operator has entries too large: a conditioned operator overflows")
        vals, vecs = np.linalg.eigh(c)
        return vecs[:, :, -1], vals[:, -1]

    rng = np.random.default_rng(seed)
    b = np.array([random_pure_state(d_b, rng).amps for _ in range(starts)])
    val = np.full(starts, -math.inf)
    live = np.arange(starts)  # the starts still ascending
    for _ in range(200):
        a, _ = ascend("aBAb,sB,sb->saA", b[live])
        b[live], top = ascend("aBAb,sa,sA->sBb", a)
        gain, val[live] = top - val[live], top
        live = live[gain >= 1e-12]
        if not live.size:
            break
    return float(val.max())


# ---------------------------------------------------------------------------
# Motzkin-Straus clique correspondence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MotzkinStrausReport:
    clique_number: int
    optimization_value: float

    @property
    def predicted_value(self) -> float:
        return 1.0 - 1.0 / self.clique_number


def _max_clique(n: int, edges: set[tuple[int, int]]) -> tuple[int, set[int]]:
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    best: set[int] = {0} if n else set()

    def grow(r: set, p: set, x: set):
        nonlocal best
        if not p and not x:
            if len(r) > len(best):
                best = set(r)
            return
        if len(r) + len(p) <= len(best):
            return
        pivot = max(p | x, key=lambda v: len(adj[v] & p))
        for v in list(p - adj[pivot]):
            grow(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    grow(set(), set(range(n)), set())
    return len(best), best


def motzkin_straus(n: int, edges: Sequence[tuple[int, int]]) -> MotzkinStrausReport:
    """Clique number vs the quadratic program 2 max sum_{(ij) in E} p_i p_j.

    The optimum equals 1 - 1/w(G) (Motzkin-Straus).  The clique number comes
    from an exact search, and the quadratic value is the objective at its
    certificate: p uniform on the maximum clique, which attains 1 - 1/w.
    """
    n = _count(n, 1, "n")
    if n > 20:
        raise ValueError("vertex count must be in 1..20")
    if _is_scalar(edges):
        raise ValueError(f"edges must be a collection of vertex pairs, got {edges!r}")
    eset = set()
    for edge in edges:
        pair = () if _is_scalar(edge) else tuple(edge)
        if len(pair) != 2:
            raise ValueError(f"edge {edge!r} is not a pair of vertices")
        i, j = map(_strict_int, pair)  # the subsystem-index rule
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"bad edge ({i}, {j})")
        eset.add((min(i, j), max(i, j)))
    w, clique = _max_clique(n, eset)
    adj = np.zeros((n, n))
    for i, j in eset:
        adj[i, j] = adj[j, i] = 1.0
    p = np.zeros(n)
    p[list(clique)] = 1.0 / len(clique)
    return MotzkinStrausReport(w, max(0.0, float(p @ adj @ p)))
