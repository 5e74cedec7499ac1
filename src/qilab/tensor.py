"""Dense complex tensor calculus on composite Hilbert spaces.

Composite indices are big-endian: the leftmost subsystem is the most
significant digit, matching the ordering produced by ``numpy.kron``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

#: Largest operator (rows) the library materializes; its SIZE_CAP**2 entries bound every count-sized array.
SIZE_CAP = 4096

#: The one slack of every input check: Hermiticity, PSD, traces, sums, probabilities.
INPUT_TOL = 1e-9

#: Most axes numpy gives one array: 64 from numpy 2.0, 32 before.
MAX_AXES = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32


def _as_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _is_scalar(x) -> bool:
    """Whether ``x`` is a single value rather than a collection: a 0-d array is one."""
    return not isinstance(x, Iterable) or getattr(x, "ndim", None) == 0


def _strict_int(x) -> int:
    """``x`` as an int if it is an int or an integral float (not a bool), or a 0-d array
    holding one, else ValueError."""
    v = x[()] if getattr(x, "ndim", None) == 0 else x
    if isinstance(v, (bool, np.bool_)) or not (isinstance(v, (int, np.integer)) or (
            isinstance(v, (float, np.floating)) and float(v).is_integer())):
        raise ValueError(f"expected an integer, got {x!r}")
    return int(v)


def _count(x, least: int, name: str) -> int:
    """The count ``x`` read by ``_strict_int``; a value below ``least`` is refused
    with a ValueError that names the parameter and its bound."""
    n = _strict_int(x)
    if n < least:
        bound = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise ValueError(f"{name} must be {bound}, got {n}")
    return n


def _checked_dim(d: int, n: int = 1, *, state: bool = False, per: int | None = None, name: str = "") -> int:
    """d**n for counts d >= 1 and n >= 0 (read by ``_count``) if what it sizes fits the library's
    one budget of SIZE_CAP**2 entries, the entry count of the largest operator: an operator of
    (d**n)**2 entries, with ``state`` a vector of d**n, or with ``per`` a stack of d**n >= 0 rows
    of ``per`` entries that a refusal calls ``name``.  A larger size is refused before anything
    is built, and a long n before d**n >= 2**n is formed.  The n + 1 axes of np.indices((d,) * n)
    must also fit numpy's MAX_AXES; only d = 1 gets that far within the budget.
    """
    d, n = _count(d, 1 if per is None else 0, "dimension"), _count(n, 0, "n")
    cap = SIZE_CAP**2
    if (d >= 2 and n > cap.bit_length()) or d**n * (1 if state else d**n if per is None else per) > cap:
        size = d if n == 1 else f"{d}^{n}"
        if per is not None:
            raise ValueError(f"{size} {name} of {per} entries each exceed cap {SIZE_CAP}^2 entries")
        what = f"state of {size} amplitudes" if state else f"operator size {size}"
        raise ValueError(f"{what} exceeds cap {SIZE_CAP}{'^2' if state else ''}")
    if n + 1 > MAX_AXES:
        raise ValueError(f"{n} factors of dimension {d} need {n + 1} array axes, "
                         f"more than numpy's {MAX_AXES}")
    return d**n


def _subsystems(indices: Iterable[int] | int, n: int) -> list[int]:
    """The distinct subsystem indices in ascending order, each read by ``_strict_int``,
    a single index standing for itself; IndexError unless all lie in 0..n-1."""
    if _is_scalar(indices):
        indices = [indices]
    idx = sorted({_strict_int(k) for k in indices})
    if any(k < 0 or k >= n for k in idx):
        raise IndexError(f"subsystem indices {idx} out of range for {n} subsystems")
    return idx


def _ndim(a: np.ndarray, ndim: int, name: str) -> np.ndarray:
    """``a`` if it has ``ndim`` axes, else ValueError naming it."""
    if a.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    return a


def _finite(m: np.ndarray) -> np.ndarray:
    """``m`` if every entry is finite, else ValueError."""
    if not np.isfinite(m).all():
        raise ValueError("matrix has NaN or infinite entries")
    return m


def _operator_on(m: np.ndarray, dim: int) -> np.ndarray:
    """``m`` as a finite complex dim x dim matrix, else ValueError."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"operator of shape {m.shape} does not act on a state of dimension {dim}")
    return _finite(m)


def _check_dims(size: int, dims: Sequence[int] | None) -> tuple[int, ...]:
    """Positive subsystem dimensions multiplying to ``size``; None is one system."""
    if dims is None:
        return (size,)
    if _is_scalar(dims):
        raise ValueError(f"dims must be a sequence of subsystem dimensions, got {dims!r}")
    dims = tuple(_count(d, 1, "subsystem dimension") for d in dims)
    total = math.prod(dims)
    if size != total:
        raise ValueError(f"dims {dims} imply size {total}, but the space has size {size}")
    return dims


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices (or vectors).

    A vector result is capped as a state's amplitudes, a matrix result's rows
    and columns as an operator's; a larger result is refused before it is built.
    """
    if not ops:
        raise ValueError("tensor() needs at least one operand")
    ops = [np.asarray(op, dtype=complex) for op in ops]
    ndim = max(op.ndim for op in ops)
    shapes = [(1,) * (ndim - op.ndim) + op.shape for op in ops]  # as np.kron pads them
    for size in map(math.prod, zip(*shapes)):
        _checked_dim(size, state=ndim == 1)
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Iterable[int] | int) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``keep`` is a subsystem index into ``dims`` or a collection of them; the result
    carries the kept subsystems in their original relative order.  One einsum
    does it: a traced subsystem repeats its row label on its column axis.
    """
    m = _as_matrix(m)
    dims = _check_dims(m.shape[0], dims)
    n = len(dims)
    keep = _subsystems(keep, n)
    if n + len(keep) > 52:
        raise ValueError(f"{n} subsystems keeping {len(keep)} need more than np.einsum's 52 labels")
    # label i on row axis i and on a traced column axis, n + k on kept column axis k
    cols = [n + i if i in keep else i for i in range(n)]
    t = np.einsum(m.reshape(dims + dims), list(range(n)) + cols, keep + [n + k for k in keep])
    dkeep = int(np.prod([dims[k] for k in keep]))
    return t.reshape(dkeep, dkeep)


def _amplitude_matrix(amps: np.ndarray, dims: Sequence[int], rows: list[int]) -> np.ndarray:
    """A state vector as a matrix: the subsystems ``rows`` (as ``_subsystems`` returns
    them) by the rest, each in order."""
    rest = [i for i in range(len(dims)) if i not in rows]
    d_rows = int(np.prod([dims[k] for k in rows]))
    return np.reshape(amps, dims).transpose(rows + rest).reshape(d_rows, -1)


def partial_transpose(m: np.ndarray, dims: Sequence[int], subsystems: Iterable[int] | int) -> np.ndarray:
    """Transpose the given subsystem(s) only."""
    m = _as_matrix(m)
    dims = _check_dims(m.shape[0], dims)
    n = len(dims)
    subs = _subsystems(subsystems, n)
    t = m.reshape(dims + dims)
    axes = list(range(2 * n))
    for s in subs:
        axes[s], axes[n + s] = axes[n + s], axes[s]
    return t.transpose(axes).reshape(m.shape)


def _hermitian(m: np.ndarray, what: str) -> np.ndarray:
    """The Hermitian part (m + m^dag)/2 of the square operator ``m``; ValueError naming
    ``what`` if the defect max|m - m^dag| exceeds INPUT_TOL or the part is not finite
    (NaN, inf and overflow, ignored while both are computed, each fail one of the two)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got {m.shape}")
    h = np.conjugate(m.T, out=np.empty(m.shape, dtype=complex))  # one transposed pass, read by both
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.max(np.abs(m - h), initial=0.0)
        h += m  # m^dag + m = m + m^dag bit for bit, halved in place
        h /= 2
    if not defect <= INPUT_TOL:
        raise ValueError(f"{what} is not Hermitian (defect {defect:.3e} > {INPUT_TOL:.1e})")
    if not np.isfinite(h).all():
        raise ValueError(f"{what} has entries too large: its Hermitian part overflows")
    return h


def _negative_eigenvalue(m: np.ndarray, tol: float) -> float | None:
    """The lowest eigenvalue of the exactly Hermitian matrix, or stack of them, ``m``
    if it is below -tol, else None.

    A Cholesky factorisation of m + tol*I exists exactly when lambda_min(m) > -tol,
    up to round-off of order n*u*||m||, the backward error of eigvalsh too; it
    costs n^3/3 flops with no tridiagonal reduction.  So an accepted m pays one
    factorisation, and only a failed one runs eigvalsh, which applies the -tol
    rule and supplies the eigenvalue.  Zero padding of a stack, shifted to tol*I,
    never fails.  Cholesky reads the transpose, conj(m) + tol*I, which factors exactly
    when m + tol*I does.
    """
    diag = np.arange(m.shape[-1])
    shifted = m.copy()
    shifted[..., diag, diag] += tol
    try:
        np.linalg.cholesky(shifted.swapaxes(-1, -2))  # a Fortran-order view: numpy copies nothing
    except np.linalg.LinAlgError:
        lo = float(np.min(np.linalg.eigvalsh(m)))
        return lo if lo < -tol else None
    return None


def _normalized(p: np.ndarray) -> np.ndarray:
    """``p`` clipped at 0 and, if its sum exceeds 1, divided by that sum: entries in [0, 1] and a
    total at most 1.  Where the quotient's sum still rounds above 1, the divisor is raised one
    float at a time until it does not.  A nonnegative ``p`` summing to at most 1 comes back bit for
    bit, so a second call returns its input."""
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if not total > 1:
        return p
    q = p / total
    while q.sum() > 1:  # ends: each quotient, and so the sum, falls as the divisor grows
        total = np.nextafter(total, math.inf)
        q = p / total
    return q


def _checked_distribution(p: Sequence[float], name: str, ndim: int = 1) -> np.ndarray:
    """``p`` with ``ndim`` axes, entries at least -INPUT_TOL and a sum within INPUT_TOL of 1, through
    ``_normalized``; else ValueError naming it."""
    p = _ndim(np.asarray(p, dtype=float), ndim, name)
    if not (np.all(p >= -INPUT_TOL) and abs(p.sum() - 1.0) <= INPUT_TOL):  # also rejects NaN, inf
        raise ValueError(f"{name} is not a probability distribution")
    return _normalized(p)


def is_hermitian(m: np.ndarray) -> bool:
    try:
        return _hermitian(m, "matrix") is not None
    except ValueError:
        return False


@dataclass(frozen=True)
class EigDecomposition:
    """Eigenvalues in descending order with matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_eig(m: np.ndarray) -> EigDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    Rejects a Hermiticity defect above INPUT_TOL = 1e-9; below that
    the input is symmetrized before factorization, so the returned
    eigenvalues are exactly real.
    """
    vals, vecs = np.linalg.eigh(_hermitian(m, "matrix"))
    order = np.argsort(vals)[::-1]
    return EigDecomposition(vals[order], vecs[:, order])


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian matrix, negative eigenvalues clipped to 0."""
    eig = hermitian_eig(m)
    vals = np.clip(eig.eigenvalues, 0.0, None)
    return (eig.eigenvectors * np.sqrt(vals)) @ eig.eigenvectors.conj().T


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim {m.ndim}")
    with np.errstate(over="ignore"):  # an unrepresentable norm is refused below
        norm = float(np.sum(np.linalg.svd(_finite(m), compute_uv=False)))
    if not math.isfinite(norm):
        raise ValueError("trace norm overflows")
    return norm


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """D(a, b) = (1/2)||a - b||_1 for Hermitian a, b of equal size."""
    a, b = _hermitian(a, "first operand"), _hermitian(b, "second operand")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    # the Hermitian parts' entries are at most half the float limit, so a - b is finite
    return 0.5 * trace_norm(a - b)


def permutation_operator(d: int, perm: Sequence[int]) -> np.ndarray:
    """Unitary permuting n subsystems of equal dimension d.

    ``perm`` lists images: position i is sent to position perm[i], i.e.
    P|i_1 ... i_n> = |j_1 ... j_n> with j_{perm[k]} = i_k.  Composition
    satisfies P(pi) @ P(sigma) = P(pi o sigma).
    """
    if _is_scalar(perm):
        raise ValueError(f"perm must be a sequence of images, got {perm!r}")
    perm = [_strict_int(p) for p in perm]
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    d = _strict_int(d)
    # column |i_1 ... i_n> has its one 1 in row sum_k i_k d^(n-1-perm[k])
    rows = (d ** np.arange(n - 1, -1, -1))[perm] @ basis_digits(d, n)
    out = np.zeros((rows.size, rows.size), dtype=complex)
    out[rows, np.arange(rows.size)] = 1
    return out


def basis_digits(d: int, n: int) -> np.ndarray:
    """Digits of every basis index of (C^d)^{x n}, shape (n, d^n).

    Column k holds the big-endian base-d digits of index k, so row 0 is the
    leftmost subsystem.  d^n is capped as an operator's size.
    """
    dim = _checked_dim(d, n)
    return np.indices((d,) * n).reshape(n, dim)


def swap_operator(d: int) -> np.ndarray:
    """Flip operator F on C^d x C^d: F|a,b> = |b,a>."""
    return permutation_operator(d, [1, 0])
