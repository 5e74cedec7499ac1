"""Independent cross-checks for qilab.schur, shared across test modules."""
import numpy as np

from qilab.schur import _permutation_average, _schur_weyl_basis


def spin_multiplicity_recursive(n: int, j: float) -> int:
    """Pascal-style recursion m_j^(n+1) = m_{j+1/2}^(n) + m_{j-1/2}^(n)."""
    table = {0.0: 1}  # n = 0: single trivial block
    for m in range(1, n + 1):
        new: dict[float, int] = {}
        for jv in (m / 2 - t for t in range(m // 2 + 1)):
            new[jv] = table.get(jv + 0.5, 0) + (table.get(jv - 0.5, 0) if jv > 0 else 0)
        table = new
    return table.get(float(j), 0)


def semistandard_fillings(shape: tuple[int, ...], d: int) -> np.ndarray:
    """Every semistandard filling of ``shape`` from {0..d-1}, in row-reading order,
    grown cell by cell: rows weakly increase and columns strictly increase."""
    cells = [(i, c) for i, r in enumerate(shape) for c in range(r)]
    fills: list[tuple[int, ...]] = []
    value: dict[tuple[int, int], int] = {}

    def grow(p: int) -> None:
        if p == len(cells):
            fills.append(tuple(value[c] for c in cells))
            return
        i, c = cells[p]
        lo = max(value[i, c - 1] if c else 0, value[i - 1, c] + 1 if i else 0)
        for v in range(lo, d):
            value[i, c] = v
            grow(p + 1)

    grow(0)
    return np.array(fills, dtype=np.intp).reshape(len(fills), len(cells))


def to_schur_weyl_blocks(x, d_a: int, d: int, k: int):
    """Zero-padded stack of the blocks X_lam = (I x W_lam)^T x (I x W_lam) of an
    operator x on C^{d_a} x (C^d)^{x k}, in the basis of ``_schur_weyl_basis``."""
    _, _, w = _schur_weyl_basis(d, k)
    n, dim, q_max = w.shape
    t = x.reshape(d_a, dim, d_a, dim)
    blocks = np.einsum("lbs,abAc,lct->lasAt", w, t, w, optimize=True)
    return blocks.reshape(n, d_a * q_max, d_a * q_max)


def symmetrize_b(x, d_a: int, d: int, k: int):
    """Average of P x P^dag over every permutation P of the k factors C^d."""
    t = x.reshape(((d_a,) + (d,) * k) * 2)
    return _permutation_average(t, [(1 + i, k + 2 + i) for i in range(k)]).reshape(x.shape)
