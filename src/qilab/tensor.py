"""Dense complex tensor calculus on composite Hilbert spaces.

Composite indices are big-endian: the leftmost subsystem is the most
significant digit, matching the ordering produced by ``numpy.kron``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Largest operator (rows) the library materializes.
SIZE_CAP = 4096

HERMITICITY_TOL = 1e-9


def _as_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_size(dim: int) -> None:
    """Refuse an operator of more than SIZE_CAP rows before it is built."""
    if dim > SIZE_CAP:
        raise ValueError(f"operator size {dim} exceeds cap {SIZE_CAP}")


def _checked_power(d: int, n: int) -> int:
    """d**n after ``_check_size``; a huge n is refused before d**n is formed."""
    if d >= 2 and n > SIZE_CAP.bit_length():
        raise ValueError(f"operator size of at least {d}^{n} exceeds cap {SIZE_CAP}")
    dim = d**n
    _check_size(dim)
    return dim


def _checked_amplitudes(d: int, n: int = 1) -> int:
    """d**n amplitudes if at most SIZE_CAP**2, the entry count of the largest
    operator; a state vector is refused before it is built, a huge n before d**n."""
    if (d >= 2 and n > 2 * SIZE_CAP.bit_length()) or d**n > SIZE_CAP**2:
        size = f"{d}^{n}" if n != 1 else d
        raise ValueError(f"state of {size} amplitudes exceeds cap {SIZE_CAP}^2")
    return d**n


def _strict_int(x) -> int:
    """``x`` as an int if it is an int or an integral float (not a bool), else ValueError."""
    if isinstance(x, (bool, np.bool_)) or not (isinstance(x, (int, np.integer)) or (
            isinstance(x, (float, np.floating)) and float(x).is_integer())):
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


def _check_dims(size: int, dims: Sequence[int] | None) -> tuple[int, ...]:
    """Positive subsystem dimensions multiplying to ``size``; None is one system."""
    if dims is None:
        return (size,)
    dims = tuple(_strict_int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    total = math.prod(dims)
    if size != total:
        raise ValueError(f"dims {dims} imply size {total}, but the space has size {size}")
    return dims


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices (or vectors)."""
    if not ops:
        raise ValueError("tensor() needs at least one operand")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``keep`` is a collection of subsystem indices into ``dims``; the result
    carries the kept subsystems in their original relative order.  One einsum
    does it: a traced subsystem repeats its row label on its column axis.
    """
    m = _as_matrix(m)
    dims = _check_dims(m.shape[0], dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise IndexError(f"keep indices {keep} out of range for {n} subsystems")
    if n + len(keep) > 52:
        raise ValueError(f"{n} subsystems keeping {len(keep)} need more than np.einsum's 52 labels")
    # label i on row axis i and on a traced column axis, n + k on kept column axis k
    cols = [n + i if i in keep else i for i in range(n)]
    t = np.einsum(m.reshape(dims + dims), list(range(n)) + cols, keep + [n + k for k in keep])
    dkeep = int(np.prod([dims[k] for k in keep]))
    return t.reshape(dkeep, dkeep)


def _amplitude_matrix(amps: np.ndarray, dims: Sequence[int], rows: Iterable[int]) -> np.ndarray:
    """A state vector as a matrix: the subsystems ``rows`` by the rest, each in order."""
    rows = sorted(set(int(k) for k in rows))
    if any(k < 0 or k >= len(dims) for k in rows):
        raise IndexError(f"keep indices {rows} out of range for {len(dims)} subsystems")
    rest = [i for i in range(len(dims)) if i not in rows]
    d_rows = int(np.prod([dims[k] for k in rows]))
    return np.reshape(amps, dims).transpose(rows + rest).reshape(d_rows, -1)


def partial_transpose(m: np.ndarray, dims: Sequence[int], subsystems: Iterable[int] | int) -> np.ndarray:
    """Transpose the given subsystem(s) only."""
    m = _as_matrix(m)
    dims = _check_dims(m.shape[0], dims)
    n = len(dims)
    if isinstance(subsystems, (int, np.integer)):
        subsystems = [int(subsystems)]
    subs = sorted(set(int(s) for s in subsystems))
    if any(s < 0 or s >= n for s in subs):
        raise IndexError(f"subsystem indices {subs} out of range for {n} subsystems")
    t = m.reshape(dims + dims)
    axes = list(range(2 * n))
    for s in subs:
        axes[s], axes[n + s] = axes[n + s], axes[s]
    return t.transpose(axes).reshape(m.shape)


def is_hermitian(m: np.ndarray) -> bool:
    m = np.asarray(m, dtype=complex)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and np.max(np.abs(m - m.conj().T)) <= HERMITICITY_TOL


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

    Rejects a Hermiticity defect above HERMITICITY_TOL = 1e-9; below that
    the input is symmetrized before factorization, so the returned
    eigenvalues are exactly real.
    """
    m = _as_matrix(m)
    defect = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {HERMITICITY_TOL:.1e})")
    h = (m + m.conj().T) / 2
    vals, vecs = np.linalg.eigh(h)
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
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """D(a, b) = (1/2)||a - b||_1 for Hermitian a, b of equal size."""
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if not is_hermitian(a) or not is_hermitian(b):
        raise ValueError("trace_distance expects Hermitian operands")
    return 0.5 * trace_norm(a - b)


def permutation_operator(d: int, perm: Sequence[int]) -> np.ndarray:
    """Unitary permuting n subsystems of equal dimension d.

    ``perm`` lists images: position i is sent to position perm[i], i.e.
    P|i_1 ... i_n> = |j_1 ... j_n> with j_{perm[k]} = i_k.  Composition
    satisfies P(pi) @ P(sigma) = P(pi o sigma).
    """
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    dim = _checked_power(d, n)
    t = np.eye(dim).reshape((d,) * (2 * n))
    # Axis k of the "row" block corresponds to output slot k; pull input
    # slot inv[k] into it.
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    axes = inv + list(range(n, 2 * n))
    return t.transpose(axes).reshape(dim, dim).astype(complex)


def basis_digits(d: int, n: int) -> np.ndarray:
    """Digits of every basis index of (C^d)^{x n}, shape (n, d^n).

    Column k holds the big-endian base-d digits of index k, so row 0 is the
    leftmost subsystem.
    """
    return np.indices((d,) * n).reshape(n, d**n)


def swap_operator(d: int) -> np.ndarray:
    """Flip operator F on C^d x C^d: F|a,b> = |b,a>."""
    return permutation_operator(d, [1, 0])
