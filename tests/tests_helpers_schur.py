"""Independent cross-checks for qilab.schur, shared across test modules."""


def spin_multiplicity_recursive(n: int, j: float) -> int:
    """Pascal-style recursion m_j^(n+1) = m_{j+1/2}^(n) + m_{j-1/2}^(n)."""
    table = {0.0: 1}  # n = 0: single trivial block
    for m in range(1, n + 1):
        new: dict[float, int] = {}
        for jv in (m / 2 - t for t in range(m // 2 + 1)):
            new[jv] = table.get(jv + 0.5, 0) + (table.get(jv - 0.5, 0) if jv > 0 else 0)
        table = new
    return table.get(float(j), 0)
