"""Symmetric subspaces, Schur-Weyl multiplicities, spectrum estimation,
and finite de Finetti bounds."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .entropy import binary_entropy, binary_relative_entropy
from .states import DensityMatrix, PureState
from .tensor import _checked_dim, _count, _normalized, _psd_sqrt, _strict_int, basis_digits

if TYPE_CHECKING:
    from fractions import Fraction


def symmetric_dimension(d: int, n: int) -> int:
    """dim Sym^n(C^d) = C(n + d - 1, n)."""
    d, n = _count(d, 1, "d"), _count(n, 0, "n")
    return math.comb(n + d - 1, n)


def symmetric_projector(d: int, n: int) -> np.ndarray:
    """Projector onto Sym^n(C^d), assembled from normalized type vectors.

    For each occupation type t the vector is the uniform superposition of
    the C(n; t) computational strings with that type; these are orthonormal
    and span the symmetric subspace.  A string's type is keyed by one
    integer, its digits sorted and read as a base-d number; ``_group_by``
    gathers the basis indices of each key, and each type's constant
    1/C(n; t) block is written in place, so the work is the sum of the
    squared class sizes.
    """
    d, n = _strict_int(d), _strict_int(n)
    dim = _checked_dim(d, n)
    key = np.sort(basis_digits(d, n), axis=0).T @ d ** np.arange(n - 1, -1, -1)
    proj = np.zeros((dim, dim), dtype=complex)
    for idx in _group_by(key).values():
        proj[np.ix_(idx, idx)] = 1.0 / idx.size
    return proj


def estimation_overlap_exact(d: int, n: int, k: int) -> Fraction:
    """Exact overlap ratio dim Sym^n / dim Sym^{n+k} >= 1 - d k / n."""
    from fractions import Fraction  # here, not at import: it pulls in decimal too

    d, n, k = _count(d, 1, "d"), _count(n, 1, "n"), _count(k, 0, "k")
    return Fraction(symmetric_dimension(d, n), symmetric_dimension(d, n + k))


def estimation_overlap(d: int, n: int, k: int) -> float:
    return float(estimation_overlap_exact(d, n, k))


def definetti_error_bound(d: int, n: int, k: int) -> float:
    """2 sqrt(1 - dim Sym^n / dim Sym^{n+k}) <= 2 sqrt(d k / n)."""
    return 2 * math.sqrt(max(0.0, 1.0 - estimation_overlap(d, n, k)))


def symmetric_purification(rho: DensityMatrix) -> PureState:
    """Permutation-invariant purification of a permutation-invariant state.

    Uses |psi> = (sqrt(rho) x I) |Gamma> with |Gamma> = sum_x |x>|x>
    unnormalized; the copy system inherits the symmetry because
    (A^T x I)|Gamma> = (I x A)|Gamma>.
    """
    dims = rho.dims
    if len(set(dims)) != 1 or len(dims) < 2:
        raise ValueError("state must live on n >= 2 equal subsystems")
    d, n = dims[0], len(dims)
    _checked_dim(rho.dim)
    # invariance check on adjacent transpositions (they generate S_n),
    # applied to the row and column axes of the tensor together, within 1e-8
    t = rho.mat.reshape((d,) * (2 * n))
    for i in range(n - 1):
        if np.max(np.abs(t.swapaxes(i, i + 1).swapaxes(n + i, n + i + 1) - t)) > 1e-8:
            raise ValueError("state is not permutation invariant")
    amps = _psd_sqrt(rho.mat).reshape(-1)  # (sqrt(rho) x I)|Gamma> in row-major layout
    return PureState(amps / np.linalg.norm(amps), dims + dims)


# ---------------------------------------------------------------------------
# Schur-Weyl blocks of (C^d)^{x k}
# ---------------------------------------------------------------------------

def _permutation_average(t: np.ndarray, slots: Sequence[Sequence[int]],
                         sign: int = 1) -> np.ndarray:
    """Average of pi(t) over every permutation pi of ``slots``, each term
    weighted by sgn(pi) when ``sign`` is -1.

    Each slot is a tuple of axes of ``t`` that move together (a row and its
    column axis for an operator).  S_j is built from S_{j-1} and its coset
    representatives e, (i j) for i < j, so the S_m average costs m(m-1)/2
    axis transposes, each added in place; with ``sign`` -1 each
    transposition enters negated.
    """
    combine = np.add if sign > 0 else np.subtract
    for j in range(1, len(slots)):
        acc = None
        for i in range(j):
            axes = list(range(t.ndim))
            for a, b in zip(slots[i], slots[j]):
                axes[a], axes[b] = b, a
            if acc is None:
                acc = combine(t, t.transpose(axes))
            else:
                combine(acc, t.transpose(axes), out=acc)
        acc /= j + 1
        t = acc
    return t


def _partitions(k: int, rows: int, top: int | None = None):
    """Partitions of k into at most ``rows`` parts, each at most ``top``."""
    if k == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(k, top or k), 0, -1):
        for rest in _partitions(k - first, rows - 1, first):
            yield (first,) + rest


def _semistandard_indices(shape: tuple[int, ...], d: int) -> np.ndarray:
    """Increasing indices of the strings in (C^d)^{x |shape|} that are semistandard
    fillings of ``shape``, cell c in row-reading order holding digit c."""
    # np.indices, not tensor.basis_digits: a cold build would add a perfbench-traced call
    digits = np.indices((d,) * sum(shape)).reshape(sum(shape), -1)
    start = np.cumsum((0,) + shape[:-1])
    ok = np.ones(digits.shape[1], dtype=bool)
    for i, (s, r) in enumerate(zip(start, shape)):
        ok &= np.all(digits[s:s + r - 1] <= digits[s + 1:s + r], axis=0)  # along row i
        if i:  # down each column into row i
            ok &= np.all(digits[start[i - 1]:start[i - 1] + r] < digits[s:s + r], axis=0)
    return np.flatnonzero(ok)


def _schur_weyl_basis(d: int, k: int) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Schur-Weyl blocks of (C^d)^{x k} = (+)_lam Q_lam x P_lam.

    Returns (f, fills, w), one entry per partition lam of k with at most d rows:
    f_lam = dim P_lam from the hook-length formula, fills[lam] the indices of the
    q_lam = dim Q_lam semistandard fillings of lam, and w[lam] (d^k x max q)
    whose first q_lam columns are an orthonormal basis of one copy of Q_lam,
    the rest zero.  That copy is the image of the Young symmetrizer of the
    row-reading tableau (row averages, then signed column averages) applied to
    the fillings.  An operator commuting with permutations of the k factors is
    (+)_lam X_lam x I_{f_lam}, with X_lam = w[lam]^T (.) w[lam].  Not cached:
    ``_affine_maps`` builds it once per (d, k).
    """
    shapes = list(_partitions(k, d))
    f, fills, blocks = [], [], []
    for shape in shapes:
        cols = [sum(1 for r in shape if r > c) for c in range(shape[0])]
        hooks = math.prod(r - c + cols[c] - i - 1
                          for i, r in enumerate(shape) for c in range(r))
        f.append(math.factorial(k) // hooks)
        fill = _semistandard_indices(shape, d)
        fills.append(fill)
        v = np.zeros((d**k, fill.size))
        v[fill, np.arange(fill.size)] = 1.0
        t = v.reshape((d,) * k + (fill.size,))
        start = np.cumsum((0,) + shape[:-1])
        for s, r in zip(start, shape):
            t = _permutation_average(t, [(p,) for p in range(s, s + r)])
        for c in range(shape[0]):
            t = _permutation_average(t, [(s + c,) for s in start[:cols[c]]], -1)
        blocks.append(np.linalg.qr(t.reshape(d**k, -1))[0])
    w = np.zeros((len(shapes), d**k, max(b.shape[1] for b in blocks)))
    for l, b in enumerate(blocks):
        w[l, :, :b.shape[1]] = b
    return np.array(f), fills, w


def _aligned_copies(d: int, k: int, copies: np.ndarray) -> None:
    """Fill ``copies`` (d^k, f_lam, q_lam), whose copy 0 holds the basis of Q_lam from
    ``_schur_weyl_basis``, with f_lam orthonormal copies of Q_lam aligned with it.

    Copy i is U(. x v_i) for an orthonormal basis v_i of P_lam, U the Schur-Weyl
    isomorphism, so copy i carries basis vector s of Q_lam to column s.  A
    permutation of the k factors acts as I x pi on Q_lam x P_lam and maps aligned
    copies to aligned copies, and by Schur's lemma two aligned copies have
    C_i^T C_j = <v_i, v_j> I: their first columns carry every overlap.  So
    Gram-Schmidt runs on first columns only, over the images of each accepted
    copy under the adjacent transpositions (which generate S_k, whose images of
    v_0 span the irreducible P_lam), and a copy is formed only when its first
    column is new.  On every (d, k) with d^k <= 4096 a residual is either
    round-off (below 2e-15) or at least 0.16, so the cut at 1e-6 decides; one
    reorthogonalisation keeps the copies orthonormal to round-off.
    """
    dim, f, q = copies.shape
    first = np.empty((f, dim))  # first columns of the accepted copies
    first[0] = copies[:, 0, 0]
    accepted = 1
    for src in range(f):  # breadth first: copy src is accepted before it is read
        assert src < accepted, "the transposition images do not span P_lam"
        for j in range(k - 1):
            if accepted == f:
                return
            # the swap of factors j and j + 1
            image = first[src].reshape(d**j, d, d, -1).swapaxes(1, 2).reshape(dim)
            coef = first[:accepted] @ image
            resid = image - coef @ first[:accepted]
            again = first[:accepted] @ resid
            resid -= again @ first[:accepted]
            norm = math.sqrt(resid @ resid)
            if norm > 1e-6:
                copy = copies[:, src].reshape(d**j, d, d, -1, q).swapaxes(1, 2).reshape(dim, q)
                combo = np.tensordot(copies[:, :accepted], coef + again, axes=([1], [0]))
                copies[:, accepted] = (copy - combo) / norm
                first[accepted] = copies[:, accepted, 0]
                accepted += 1


def _sector_blocks(d: int, k: int, f: np.ndarray, fills: list[np.ndarray], w: np.ndarray):
    """The aligned copies of every Q_lam (``_aligned_copies``) as the blocks of one
    orthogonal d^k x d^k matrix V with columns (lam, i, s): column s of copy i of Q_lam.

    Permutations keep the weight of a string (its digits in increasing order), and
    column (lam, i, s) has the weight of filling s, so V is block diagonal over the
    weight sectors: strings and columns of one weight.  Sectors are ordered by size,
    then weight, so those of one size m are a run of positions [a, b) that one
    (cnt, m, m) stack serves.  Returns the runs (a, b, stack), ``cols``, where
    cols[lam] (f_lam, q_lam) holds the sorted positions of the columns of Q_lam,
    and the sorted position of each string.
    """
    dim = w.shape[1]
    place = d ** np.arange(k - 1, -1, -1)
    key = np.sort(np.indices((d,) * k).reshape(k, -1), axis=0).T @ place  # each string's weight
    # the d strings c c ... c, one per single-string sector, share one d x d (diagonal)
    # block: any union of sectors is a block of V, and this one saves a batch
    key[np.bincount(key)[key] == 1] = 0
    size = np.bincount(key, minlength=dim)  # strings per sector
    v = np.empty((dim, dim))  # the columns (lam, i, s), one copy after another
    col_key, spans, start = np.empty(dim, dtype=key.dtype), [], 0
    for l, fill in enumerate(fills):
        span = f[l] * fill.size
        copies = v[:, start:start + span].reshape(dim, f[l], fill.size)
        copies[:, 0] = w[l, :, :fill.size]
        _aligned_copies(d, k, copies)
        col_key[start:start + span] = np.tile(key[fill], f[l])
        spans.append((start, f[l], fill.size))
        start += span
    by_row = np.lexsort((key, size[key]))  # stable: each sector in increasing order
    by_col = np.lexsort((col_key, size[col_key]))
    assert np.array_equal(key[by_row], col_key[by_col]), "a sector is not square"
    sorted_pos, pos = np.empty(dim, dtype=np.intp), np.empty(dim, dtype=np.intp)
    sorted_pos[by_row] = pos[by_col] = np.arange(dim)
    sizes = size[key[by_row]]
    bounds = np.append(np.flatnonzero(np.diff(sizes, prepend=0)), dim)
    runs = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        r, c = by_row[a:b].reshape(-1, sizes[a]), by_col[a:b].reshape(-1, sizes[a])
        runs.append((a, b, v[r[:, :, None], c[:, None, :]]))
    cols = [pos[start:start + f_l * q].reshape(f_l, q) for start, f_l, q in spans]
    return runs, cols, sorted_pos


@functools.lru_cache(maxsize=8)
def _affine_maps(d: int, k: int):
    """The cached plan on the basis ``_schur_weyl_basis(d, k)``, which it builds: the
    A B_1 marginal of its zero-padded (n, d_A q_max, d_A q_max) block stacks, its
    adjoint ``correction``, the blocks of sym(D x I/d^{k-1}), for A B_1 operators
    kept as the stack D[c d + C] = <c|D|C> of d_A x d_A blocks, and ``embed``, the
    operator (+)_lam X_lam x I_{f_lam} of a stack; each reads d_A from its input.
    The first two are sums over the entries G_lam[c, C, s, t] = <w_s| J_cC |w_t> of
    the gl(d) generators J_cC = sum_j E_cC^(j) on each Q_lam:

        marginal(X)[c C] = sum_lam (f_lam/k) sum_{s,t} G_lam[c, C, s, t] X_lam[(., s), (., t)]
        correction(D)_lam[(., s), (., t)] = sum_{c,C} G_lam[c, C, s, t] D[c C] / (k d^{k-1})

    Each is one gather, scaled, then summed over runs of entries by np.add.reduceat;
    none of the three reads the padding of a stack, and ``correction`` leaves it zero.

    ``embed`` is sum_lam sum_i (I x V_lam,i) X_lam (I x V_lam,i)^T over the f_lam
    aligned copies V_lam,i of Q_lam, that is V Xs V^T with Xs = (+)_(lam, i) X_lam
    and V the orthogonal matrix of ``_sector_blocks``, built on the first call and
    kept with the plan.  V is block diagonal over weight sectors, so each product
    by V is one batched matmul per sector size, in real arithmetic (a complex
    operand is read as pairs of reals).

    Column s of w[lam] has the weight of semistandard filling s: the QR keeps
    the fillings in order, and fillings of different weight stay orthogonal.
    J_cC moves weight by e_c - e_C, so G is zero unless wt(s) - e_c =
    wt(t) - e_C =: rho.  For each rho, with A[(j, r), (c, s)] = <x| w_s> where
    x is the string r of weight rho with digit c inserted at position j, the
    entries are A^T A.  Weights are keyed by their digits in increasing order,
    read as a base-d number.
    """
    f, fills, w = _schur_weyl_basis(d, k)
    n, dim, q_max = w.shape
    place = d ** np.arange(k - 1, -1, -1)
    rest = np.arange(d ** (k - 1))
    # x[j, r, c]: the string r of k - 1 digits with c inserted at position j
    high, low = np.divmod(rest, place[:, None])
    x = (high * d * place[:, None] + low)[:, :, None] + np.arange(d) * place[:, None, None]
    rows = _group_by(np.sort(rest // place[1:, None] % d, axis=0).T @ place[1:])  # r by weight
    drop = np.array([np.delete(np.arange(k), p) for p in range(k)])
    parts = []
    for l, fill in enumerate(fills):
        fill = np.sort(fill[:, None] // place % d, axis=1)
        first = np.ones(fill.shape, dtype=bool)  # each distinct digit c of a filling once
        first[:, 1:] = fill[:, 1:] != fill[:, :-1]
        s, p = np.nonzero(first)
        c = fill[s, p]
        # the pairs (c, s) by the weight wt(s) - e_c, the filling's digits without that c
        for key, sel in _group_by((fill[:, drop] @ place[1:])[s, p]).items():
            a = w[l][x[:, rows[key]][:, :, c[sel]], s[sel]].reshape(-1, sel.size)
            g = a.T @ a
            cc = c[sel, None] * d + c[sel]
            parts.append(np.broadcast_arrays(l, s[sel, None], s[sel], cc, g))
    lam, s, t, cc, g = (np.concatenate([p[i].ravel() for p in parts]) for i in range(5))
    # the marginal sums runs of one generator c d + C, with entries sorted by (c d + C, lam, s, t)
    order = np.lexsort((t, s, lam, cc))
    lam, s, t, cc, g = lam[order], s[order], t[order], cc[order], g[order]
    # np.add.reduceat needs every run non-empty: each (lam, s, t) run is by
    # construction, and each generator has entries on lam = (k)
    assert np.bincount(cc[lam == 0], minlength=d * d).all(), "a generator misses lam = (k)"
    cc_starts = np.searchsorted(cc, np.arange(d * d))
    g_marg = (g * f[lam] / k)[:, None, None]
    # the correction sums runs of one block entry (lam, s, t), sorted by (lam, s, t, c d + C)
    by_block = np.lexsort((cc, t, s, lam))
    block = (lam * q_max + s)[by_block] * q_max + t[by_block]
    block_starts = np.flatnonzero(np.diff(block, prepend=-1))
    cc_corr, g_corr = cc[by_block], (g[by_block] / (k * dim // d))[:, None, None]
    head = by_block[block_starts]  # the first entry of each (lam, s, t) run
    lam_z, s_z, t_z = lam[head], s[head], t[head]

    def marginal(blocks: np.ndarray) -> np.ndarray:
        d_a = blocks.shape[1] // q_max  # block rows are (a, s), padded in s
        entries = blocks.reshape(n, d_a, q_max, d_a, q_max)[lam, :, s, :, t]
        return np.add.reduceat(entries * g_marg, cc_starts, axis=0)

    def correction(delta: np.ndarray) -> np.ndarray:
        d_a = delta.shape[1]
        z = np.zeros((n, d_a, q_max, d_a, q_max), dtype=delta.dtype)
        z[lam_z, :, s_z, :, t_z] = np.add.reduceat(delta[cc_corr] * g_corr, block_starts, axis=0)
        return z.reshape(n, d_a * q_max, d_a * q_max)

    sectors = functools.cache(lambda: _sector_blocks(d, k, f, fills, w))

    def embed(blocks: np.ndarray) -> np.ndarray:
        runs, cols, sorted_pos = sectors()
        d_a = blocks.shape[1] // q_max
        xt = blocks.reshape(n, d_a, q_max, d_a, q_max).transpose(0, 4, 2, 1, 3)  # [lam, t, s, a, A]
        z = np.zeros((dim, dim, d_a, d_a), dtype=blocks.dtype)  # Xs^T: [column t, column s, a, A]
        for l, c in enumerate(cols):
            q = c.shape[1]
            z[c[:, :, None], c[:, None, :]] = xt[l, :q, :q]  # X_lam on copy i, for every i
        # z is rebound at each step, so no more than two operator-sized arrays are held
        z = _times_blockdiag(runs, z)  # V Xs^T: [row y (sorted), column s, a, A]
        z = z.transpose(1, 0, 2, 3)[:, sorted_pos]  # Xs V^T, its strings back in order
        z = _times_blockdiag(runs, z)  # V Xs V^T: [row x (sorted), row y, a, A]
        return z.transpose(2, 0, 3, 1)[:, sorted_pos].reshape(d_a * dim, d_a * dim)

    return marginal, correction, embed


def _times_blockdiag(runs, m: np.ndarray) -> np.ndarray:
    """V m for the block-diagonal V of ``_sector_blocks`` given by its ``runs``: rows
    and result rows in sorted order; a complex m is multiplied as pairs of reals."""
    flat = m.view(np.float64).reshape(len(m), -1)
    out = np.empty_like(flat)
    for a, b, stack in runs:
        shape = (len(stack), stack.shape[1], -1)
        np.matmul(stack, flat[a:b].reshape(shape), out=out[a:b].reshape(shape))
    return out.view(m.dtype).reshape(m.shape)


def _group_by(keys: np.ndarray) -> dict[int, np.ndarray]:
    """The positions of each distinct key, in increasing order."""
    order = np.argsort(keys, kind="stable")
    uniq, starts = np.unique(keys[order], return_index=True)
    return dict(zip(uniq.tolist(), np.split(order, starts[1:])))


# ---------------------------------------------------------------------------
# qubit Schur-Weyl: multiplicities, spin blocks, spectrum estimation
# ---------------------------------------------------------------------------

def _j_values(n: int) -> list[float]:
    return [n / 2 - m for m in range(n // 2 + 1)]


def spin_multiplicity(n: int, j: float) -> int:
    """m_j^(n) = C(n, n/2 - j) - C(n, n/2 - j - 1), exact integers."""
    n = _count(n, 0, "n")
    if j is None or not math.isfinite(j):
        raise ValueError(f"j must be finite, got {j}")
    two_j = round(2 * j)
    if not 0 <= two_j <= n or (n - two_j) % 2:
        return 0
    k = (n - two_j) // 2
    return math.comb(n, k) - (math.comb(n, k - 1) if k else 0)


def _spin_fraction(n: int, j: float) -> float:
    """1/2 + j/n for a spin j of n >= 1 qubits; ValueError unless it lies in [0, 1]."""
    x = 0.5 + j / n
    if not 0.0 <= x <= 1.0:  # also refuses NaN
        raise ValueError("j/n out of range")
    return x


def spin_multiplicity_bound(n: int, j: float) -> float:
    """m_j^(n) <= 2^{n h(1/2 + j/n)}, the binomial entropy bound; inf (true but vacuous) from 2^1024."""
    n = _count(n, 1, "n")
    exponent = n * binary_entropy(_spin_fraction(n, j))
    return 2.0 ** exponent if exponent < 1024 else math.inf


@dataclass(frozen=True)
class SpinBlock:
    j: float
    multiplicity: int
    projector: np.ndarray


def spin_projectors(n: int) -> list[SpinBlock]:
    """Total-spin projectors on n qubits from the spectrum of J^2.

    J^2 = n(4 - n)/4 I + sum_{i<k} SWAP_ik is real and conserves the Hamming
    weight, so it is diagonalized one weight sector (of size C(n, w)) at a
    time.  On the sector of weight w, sum_{i<k} SWAP_ik is 1 between strings
    that differ in exactly two digits, read off x = s ^ t: it is nonzero, and
    clearing its lowest bit, y = x & (x - 1), leaves one bit; its diagonal is
    C(w, 2) + C(n - w, 2), the pairs of equal digits.  An eigenvalue j(j+1)
    names its block by 2j = sqrt(1 + 4 j(j+1)) - 1, rounded: the j(j+1) lie
    at least 2 apart, so every eigenvector lands in a block, of dimension
    (2j + 1) m_j.
    """
    n = _strict_int(n)
    dim = _checked_dim(2, n)
    projs: dict[int, np.ndarray] = {}  # keyed by 2j
    for w, idx in _group_by(basis_digits(2, n).sum(axis=0)).items():  # by Hamming weight
        x = idx[:, None] ^ idx
        y = x & (x - 1)
        j2 = ((x != 0) & (y & (y - 1) == 0)).astype(float)
        np.fill_diagonal(j2, math.comb(w, 2) + math.comb(n - w, 2))
        vals, vecs = np.linalg.eigh(j2)
        two_j = np.rint(np.sqrt(1 + 4 * (vals + n * (4 - n) / 4)) - 1).astype(int)
        for t in np.unique(two_j).tolist():
            v = vecs[:, two_j == t]
            if t not in projs:
                projs[t] = np.zeros((dim, dim), dtype=complex)
            projs[t][np.ix_(idx, idx)] = v @ v.T
    return [SpinBlock(t / 2, spin_multiplicity(n, t / 2), projs[t])
            for t in sorted(projs, reverse=True)]


def spectrum_estimation_distribution(r: float, n: int) -> dict[float, float]:
    """Pr[j] for measuring total spin on n copies of a qubit with spectrum
    (1/2 + r, 1/2 - r).

    Pr[j] = m_j q^{n/2-j} p^{n/2-j} sum_{m=-j}^{j} p^{j+m} q^{j-m}
    with p = 1/2 + r, q = 1/2 - r.  The inner sum is geometric,
    (p^{2j+1} - q^{2j+1}) / (p - q), and each term is formed in log space
    from the exact multiplicity (running binomials), so large n neither
    overflows nor costs O(n^2) powers.
    """
    if not 0.0 <= r <= 0.5:
        raise ValueError("r must lie in [0, 1/2]")
    n = _count(n, 0, "n")
    if r == 0.5:  # q = 0: all weight on j = n/2, whose multiplicity is 1
        return {j: float(j == n / 2) for j in _j_values(n)}
    p, q = 0.5 + r, 0.5 - r
    out: dict[float, float] = {}
    binom_prev, binom = 0, 1  # C(n, t - 1), C(n, t) with t = n/2 - j
    for t, j in enumerate(_j_values(n)):
        m_j = binom - binom_prev  # spin_multiplicity(n, j)
        binom_prev, binom = binom, binom * (n - t) // (t + 1)
        k = int(2 * j) + 1  # terms of the inner sum
        if r == 0.0:  # p = q = 1/2: the inner sum is k 2^{-2j}
            log_weight = math.log(k) - n * math.log(2)
        else:  # p^k (1 - (q/p)^k) / (2r), with q/p = 1 - 2r/p
            log_weight = ((n / 2 - j) * math.log(p * q) + k * math.log(p)
                          + math.log(-math.expm1(k * math.log1p(-2 * r / p)))
                          - math.log(2 * r))
        out[j] = math.exp(math.log(m_j) + log_weight)
    return out


def spectrum_tail_bound(r: float, n: int, j: float) -> float:
    """Keyl-Werner exponential bound on Pr[j], vacuous (inf) at r = 0.

    Pr[j] <= c * 2^{-n delta(1/2 + j/n || 1/2 + r)} with c = (1/2 + r)/(2r).
    """
    n = _count(n, 1, "n")
    x = _spin_fraction(n, j)
    if r <= 0:
        return math.inf
    dl = binary_relative_entropy(x, 0.5 + r)
    if math.isinf(dl):
        return 0.0
    return (0.5 + r) / (2 * r) * 2.0 ** (-n * dl)


def sample_spin_outcomes(r: float, n: int, size: int, seed: int = 0) -> np.ndarray:
    """Draw total-spin outcomes j from the exact distribution."""
    size = _count(size, 0, "size")
    dist = spectrum_estimation_distribution(r, n)
    js = np.array(sorted(dist))
    ps = _normalized(np.array([dist[j] for j in js]))
    rng = np.random.default_rng(seed)
    return rng.choice(js, size=size, p=ps)


@dataclass(frozen=True)
class SpectrumEstimate:
    r_hat: float
    n: int
    samples: int
    deviation: float | None
    tail_bound: float | None


def keyl_werner_estimate(outcomes: Sequence[float], n: int,
                         r_true: float | None = None) -> SpectrumEstimate:
    """Point estimate r_hat = mean(j)/n; with the true r supplied, also the
    exponential bound on seeing the observed deviation in a single shot."""
    js, n = np.asarray(outcomes, dtype=float), _count(n, 1, "n")
    if js.size == 0 or not (np.isfinite(js).all() and (r_true is None or math.isfinite(r_true))):
        raise ValueError("need at least one outcome; outcomes and r_true must be finite")
    r_hat = float(js.mean() / n)
    dev = bound = None
    if r_true is not None:
        dev = abs(r_hat - r_true)
        bound = 0.0
        for j in _j_values(n):
            if abs(j / n - r_true) >= dev and dev > 0:
                bound += min(1.0, spectrum_tail_bound(r_true, n, j))
        bound = min(1.0, bound) if dev > 0 else 1.0
    return SpectrumEstimate(r_hat, n, int(js.size), dev, bound)
