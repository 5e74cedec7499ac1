"""Independent cross-checks for qilab.schur, shared across test modules."""
import numpy as np

from qilab.schur import _permutation_average, _schur_weyl_basis
from qilab.tensor import basis_digits


def symmetric_projector_by_unique(d: int, n: int) -> np.ndarray:
    """Projector onto Sym^n(C^d) from the types found by np.unique over the sorted
    digit columns, one O(d^n) scan per type to find its basis indices."""
    types, type_of = np.unique(np.sort(basis_digits(d, n), axis=0), axis=1, return_inverse=True)
    type_of = type_of.reshape(-1)
    proj = np.zeros((d**n, d**n), dtype=complex)
    for t in range(types.shape[1]):
        idx = np.flatnonzero(type_of == t)
        proj[np.ix_(idx, idx)] = 1.0 / idx.size
    return proj


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


def to_cc(m, d_a: int, d_b: int):
    """An A B_1 operator as the stack of d_a x d_a blocks <c|m|C>, index c d_b + C."""
    return m.reshape(d_a, d_b, d_a, d_b).transpose(1, 3, 0, 2).reshape(-1, d_a, d_a)


def from_cc(m, d_a: int, d_b: int):
    """The inverse of ``to_cc``."""
    return m.reshape(d_b, d_b, d_a, d_a).transpose(2, 0, 3, 1).reshape(d_a * d_b, d_a * d_b)


def _u_contractions(d: int, k: int):
    f, _, w = _schur_weyl_basis(d, k)
    n, dim, q_max = w.shape
    rest = dim // d
    # u[l, s, j, c, r]: column s of w[l] with factor B_j first (c), the others flat (r)
    u = np.stack([np.moveaxis(w.reshape((n,) + (d,) * k + (q_max,)), 1 + j, 1)
                  for j in range(k)], axis=-1).reshape(n, d, rest, q_max, k)
    u = np.ascontiguousarray(u.transpose(0, 3, 4, 1, 2), dtype=complex)
    u_rows = u.reshape(n, q_max, k * dim)
    u_marg = (u * (f / k)[:, None, None, None, None]).transpose(3, 0, 1, 2, 4).reshape(d, -1)
    return u, u_rows, u_marg


def u_marginal(x, d_a: int, d: int, k: int):
    """sum_lam (f_lam/k) sum_j tr_{B - B_j} of the padded block stack x, on A B_1,
    by contracting with d^k-row copies of the Schur-Weyl basis."""
    u, u_rows, u_marg = _u_contractions(d, k)
    n, q_max, rest = u.shape[0], u.shape[1], u.shape[-1]
    t = (x.reshape(n, -1, q_max) @ u_rows).reshape(n, d_a, q_max, d_a, k, d, rest)
    t = t.transpose(0, 2, 4, 6, 1, 3, 5).reshape(-1, d_a * d_a * d)
    return (u_marg @ t).reshape(d, d_a, d_a, d).transpose(1, 0, 2, 3).reshape(d_a * d, d_a * d)


def u_correction(delta, d_a: int, d: int, k: int):
    """The padded blocks of sym(delta x I/d^{k-1}) for delta on A B_1, by the
    same contractions as ``u_marginal``."""
    u, u_rows, _ = _u_contractions(d, k)
    n, q_max, rest = u.shape[0], u.shape[1], u.shape[-1]
    m = d_a * q_max
    g = delta.reshape(d_a, d, d_a, d).transpose(1, 0, 2, 3).reshape(d, -1)
    g = (u.reshape(-1, d, rest).transpose(0, 2, 1) @ g).reshape(
        n, q_max, k, rest, d_a, d_a, d).transpose(0, 1, 4, 5, 2, 6, 3)
    h = g.reshape(n, q_max * d_a * d_a, k * d * rest) @ u_rows.transpose(0, 2, 1) / (k * rest)
    return h.reshape(n, q_max, d_a, d_a, q_max).transpose(0, 2, 1, 3, 4).reshape(n, m, m)
