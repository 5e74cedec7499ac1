import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qilab as q
from qilab.schur import (
    _affine_maps,
    _aligned_copies,
    _partitions,
    _permutation_average,
    _schur_weyl_basis,
    _sector_blocks,
    _semistandard_indices,
)
from qilab.states import PAULI_X, PAULI_Y, PAULI_Z
from qilab.tensor import basis_digits, permutation_operator, swap_operator, tensor
from tests_helpers_schur import (
    semistandard_fillings,
    spin_multiplicity_recursive,
    symmetric_projector_by_unique,
    symmetrize_b,
    to_schur_weyl_blocks,
)

RNG = np.random.default_rng(19)


def symmetric_projector_from_permutations(d: int, n: int) -> np.ndarray:
    """(1/n!) sum_pi P_pi; independent reference, feasible for small n."""
    dim = d**n
    acc = np.zeros((dim, dim), dtype=complex)
    count = 0
    for perm in itertools.permutations(range(n)):
        acc += permutation_operator(d, list(perm))
        count += 1
    return acc / count


def haar_moment_deviation(d: int, n: int, samples: int, seed: int = 0) -> dict[str, float]:
    """Monte Carlo check of E[phi^(x n)] = Pi_sym / dim Sym^n.

    Returns the operator-norm deviation of the sample mean together with a
    crude scale for the expected statistical fluctuation.
    """
    rng = np.random.default_rng(seed)
    dim = d**n
    acc = np.zeros((dim, dim), dtype=complex)
    for _ in range(samples):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        w = v
        for _ in range(n - 1):
            w = np.kron(w, v)
        acc += np.outer(w, w.conj())
    mean = acc / samples
    target = q.symmetric_projector(d, n) / q.symmetric_dimension(d, n)
    dev = float(np.linalg.norm(mean - target, ord=2))
    return {"deviation": dev, "fluctuation_scale": 1.0 / math.sqrt(samples)}


def spin_projectors_from_dense_j2(n: int, tol: float = 1e-7) -> list[tuple[float, np.ndarray]]:
    """(j, projector) from one complex eigh of J^2 built from Pauli chains."""
    dim = 2**n
    js = [np.zeros((dim, dim), dtype=complex) for _ in range(3)]
    for i in range(n):
        for a, s in enumerate((PAULI_X, PAULI_Y, PAULI_Z)):
            ops = [np.eye(2, dtype=complex)] * n
            ops[i] = s / 2
            js[a] += tensor(*ops)
    vals, vecs = np.linalg.eigh(sum(j @ j for j in js))
    out = []
    for m in range(n // 2 + 1):
        j = n / 2 - m
        sel = np.abs(vals - j * (j + 1)) < tol
        if np.any(sel):
            v = vecs[:, sel]
            out.append((j, v @ v.conj().T))
    return out


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (2, 6), (3, 4), (4, 3)])
def test_symmetric_projector_matches_permutation_average(d, n):
    a = q.symmetric_projector(d, n)
    b = symmetric_projector_from_permutations(d, n)
    assert np.max(np.abs(a - b)) < 1e-12
    assert np.max(np.abs(a @ a - a)) < 1e-12
    assert np.trace(a).real == pytest.approx(q.symmetric_dimension(d, n), abs=1e-9)


@pytest.mark.parametrize("d, n", [(1, 0), (2, 0), (1, 5), (2, 10), (3, 6), (4, 5), (5, 2), (7, 3),
                                  (32, 2), (1024, 1)])
def test_symmetric_projector_is_bytewise_the_unique_type_oracle(d, n):
    assert q.symmetric_projector(d, n).tobytes() == symmetric_projector_by_unique(d, n).tobytes()


def test_symmetric_projector_two_copies_closed_form():
    for d in (2, 3, 4):
        want = (np.eye(d * d) + swap_operator(d)) / 2
        assert np.max(np.abs(q.symmetric_projector(d, 2) - want)) < 1e-12


def test_haar_moment_identity_monte_carlo():
    out = haar_moment_deviation(2, 2, samples=4000, seed=5)
    assert out["deviation"] < 6 * out["fluctuation_scale"]


def test_tetrahedron_states_form_a_two_design():
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    acc = np.zeros((4, 4), dtype=complex)
    for v in verts:
        rho = q.bloch_state(v).mat  # pure projector
        acc += np.kron(rho, rho)
    mean = acc / 4
    target = q.symmetric_projector(2, 2) / 3
    assert np.max(np.abs(mean - target)) < 1e-12


def test_estimation_overlap_exact_and_bound():
    assert q.estimation_overlap_exact(2, 4, 1) == Fraction(
        math.comb(5, 4), math.comb(6, 5))
    for d in (2, 3):
        for n in (5, 20, 50):
            for k in (0, 1, 5):
                ratio = q.estimation_overlap_exact(d, n, k)
                assert ratio >= 1 - Fraction(d * k, n)
    assert q.estimation_overlap(2, 100, 0) == 1.0


def test_definetti_error_bound_monotone_in_k():
    prev = 0.0
    for k in (0, 1, 2, 4, 8):
        b = q.definetti_error_bound(2, 100, k)
        assert b >= prev - 1e-12
        prev = b
    assert q.definetti_error_bound(2, 100, 1) <= 2 * math.sqrt(2 / 100) + 1e-12


def test_definetti_quadrature_small_instance():
    # n=2, k=1, d=2: the marginal of a random symmetric three-qubit state is
    # within 2 sqrt(1 - dim Sym^2/dim Sym^3) of a mixture of pure powers.
    proj = q.symmetric_projector(2, 3)
    g = RNG.normal(size=8) + 1j * RNG.normal(size=8)
    v = proj @ g
    v /= np.linalg.norm(v)
    psi = q.PureState(v, (2, 2, 2))
    marg = psi.marginal([0]).mat
    # quadrature over the Bloch sphere of p_phi |phi><phi|
    thetas = np.linspace(0, math.pi, 400)
    acc = np.zeros((2, 2), dtype=complex)
    total = 0.0
    t3 = v.reshape(2, 2, 2)
    for th in thetas:
        for ph in np.linspace(0, 2 * math.pi, 80, endpoint=False):
            phi = np.array([math.cos(th / 2), math.sin(th / 2) * np.exp(1j * ph)])
            tail = np.einsum("abc,b,c->a", t3, phi.conj(), phi.conj())
            w = math.sin(th)
            acc += w * np.outer(tail, tail.conj())
            total += w * float(np.vdot(tail, tail).real)
    sigma = acc / np.trace(acc)
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(marg - sigma)))
    assert dist <= q.definetti_error_bound(2, 2, 1) + 1e-6


def test_symmetric_purification():
    rho = q.werner_symmetric(2)  # permutation invariant on two qubits
    psi = q.symmetric_purification(rho)
    assert psi.dims == (2, 2, 2, 2)
    red = psi.marginal([0, 1]).mat
    assert np.max(np.abs(red - rho.mat)) < 1e-10
    # invariance under the simultaneous swap of both halves
    p = tensor(swap_operator(2), swap_operator(2))
    assert np.max(np.abs(p @ psi.amps - psi.amps)) < 1e-10
    lopsided = q.DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), (2, 2))
    with pytest.raises(ValueError):
        q.symmetric_purification(lopsided)


def test_spin_multiplicities_closed_form_vs_recursion():
    for n in range(1, 21):
        total = 0
        for m in range(n // 2 + 1):
            j = n / 2 - m
            mj = q.spin_multiplicity(n, j)
            assert mj == spin_multiplicity_recursive(n, j)
            assert mj <= q.spin_multiplicity_bound(n, j) + 1e-6
            total += round(2 * j + 1) * mj
        assert total == 2**n


def test_spin_projectors_structure():
    for n in (2, 3, 4):
        blocks = q.spin_projectors(n)
        acc = np.zeros((2**n, 2**n), dtype=complex)
        for b in blocks:
            dim = int(round(np.trace(b.projector).real))
            assert dim == round(2 * b.j + 1) * b.multiplicity
            assert np.max(np.abs(b.projector @ b.projector - b.projector)) < 1e-9
            acc += b.projector
        assert np.max(np.abs(acc - np.eye(2**n))) < 1e-9


@pytest.mark.parametrize("n", range(2, 8))
def test_spin_projectors_match_dense_j2_eigh(n):
    blocks = q.spin_projectors(n)
    want = spin_projectors_from_dense_j2(n)
    assert [b.j for b in blocks] == [j for j, _ in want]
    acc = np.zeros((2**n, 2**n), dtype=complex)
    for b, (j, proj) in zip(blocks, want):
        assert b.multiplicity == q.spin_multiplicity(n, j)
        assert b.projector.dtype == complex
        assert np.max(np.abs(b.projector - proj)) < 1e-10
        for i, k in itertools.combinations(range(n), 2):
            perm = list(range(n))
            perm[i], perm[k] = k, i
            swap = permutation_operator(2, perm)
            assert np.max(np.abs(swap @ b.projector - b.projector @ swap)) < 1e-10
        acc += b.projector
    assert np.max(np.abs(acc - np.eye(2**n))) < 1e-10


def spin_projectors_from_swap_table(n: int) -> list[q.SpinBlock]:
    """The spin blocks with each weight sector's sum_{i<k} SWAP_ik accumulated from a
    table of every pair's swap image of every basis string."""
    dim = 2**n
    digits = basis_digits(2, n)
    weight = digits.sum(axis=0)
    place = 2 ** np.arange(n - 1, -1, -1)
    # swaps[p, x]: the index of basis string x with the digits of pair p exchanged
    swaps = np.array([np.arange(dim) + (digits[k] - digits[i]) * (place[i] - place[k])
                      for i, k in itertools.combinations(range(n), 2)],
                     dtype=np.intp).reshape(-1, dim)
    projs = {}
    for w in range(n + 1):
        idx = np.flatnonzero(weight == w)
        j2 = np.zeros((idx.size, idx.size))
        np.add.at(j2, (np.searchsorted(idx, swaps[:, idx]), np.arange(idx.size)), 1.0)
        vals, vecs = np.linalg.eigh(j2)
        two_j = np.rint(np.sqrt(1 + 4 * (vals + n * (4 - n) / 4)) - 1).astype(int)
        for t in np.unique(two_j).tolist():
            v = vecs[:, two_j == t]
            projs.setdefault(t, np.zeros((dim, dim), dtype=complex))[np.ix_(idx, idx)] = v @ v.T
    return [q.SpinBlock(t / 2, q.spin_multiplicity(n, t / 2), projs[t]) for t in sorted(projs, reverse=True)]


@pytest.mark.parametrize("n", range(1, 11))
def test_spin_projectors_are_bytewise_the_swap_table_oracle(n):
    got, want = q.spin_projectors(n), spin_projectors_from_swap_table(n)
    assert [(b.j, b.multiplicity) for b in got] == [(b.j, b.multiplicity) for b in want]
    assert all(np.array_equal(b.projector, c.projector) for b, c in zip(got, want))


def test_projector_builders_reject_negative_n():
    with pytest.raises(ValueError):
        q.symmetric_projector(2, -1)
    with pytest.raises(ValueError):
        q.spin_projectors(-1)


def _traced_peak(build):
    tracemalloc.start()
    try:
        out = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_projector_builders_allocate_little_beyond_their_output():
    proj, peak = _traced_peak(lambda: q.symmetric_projector(2, 12))
    assert peak <= proj.nbytes + 8 * 2**20
    blocks, peak = _traced_peak(lambda: q.spin_projectors(10))
    assert peak <= sum(b.projector.nbytes for b in blocks) + 8 * 2**20


@pytest.mark.parametrize("r", [0.0, 0.1, 0.3, 0.5])
def test_spectrum_distribution_matches_projector_traces(r):
    n = 5
    dist = q.spectrum_estimation_distribution(r, n)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    rho = np.diag([0.5 + r, 0.5 - r]).astype(complex)
    big = rho
    for _ in range(n - 1):
        big = np.kron(big, rho)
    for b in q.spin_projectors(n):
        assert dist[b.j] == pytest.approx(np.trace(b.projector @ big).real, abs=1e-10)


def spectrum_distribution_exact(r, n):
    """Pr[j] as Fractions from the defining sum, with r taken exactly."""
    p, q_ = Fraction(1, 2) + Fraction(r), Fraction(1, 2) - Fraction(r)
    out = {}
    for two_j in range(n % 2, n + 1, 2):
        inner = sum(p ** t * q_ ** (two_j - t) for t in range(two_j + 1))
        out[two_j / 2] = q.spin_multiplicity(n, two_j / 2) * (p * q_) ** ((n - two_j) // 2) * inner
    return out


@pytest.mark.parametrize("r", [0.0, 0.1, 0.25, 0.5])
def test_spectrum_distribution_matches_exact_fractions(r):
    for n in range(0, 41):
        dist = q.spectrum_estimation_distribution(r, n)
        exact = spectrum_distribution_exact(r, n)
        assert set(dist) == set(exact)
        for j, want in exact.items():
            assert abs(Fraction(dist[j]) - want) <= 1e-12 * want


@pytest.mark.parametrize("n", [1100, 4096])
@pytest.mark.parametrize("r", [0.0, 0.1, 0.25, 0.5])
def test_spectrum_distribution_large_n(n, r):
    dist = q.spectrum_estimation_distribution(r, n)
    assert len(dist) == n // 2 + 1
    assert all(math.isfinite(v) and v >= 0 for v in dist.values())
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_spectrum_distribution_extremes():
    dist = q.spectrum_estimation_distribution(0.5, 6)
    assert dist[3.0] == pytest.approx(1.0)
    assert all(abs(v) < 1e-15 for j, v in dist.items() if j != 3.0)
    for r in (0.2, 0.5):
        with pytest.raises(ValueError):
            q.spectrum_estimation_distribution(r, -3)


def test_spectrum_tail_bound():
    for r in (0.1, 0.25, 0.4):
        for n in (4, 8, 16):
            dist = q.spectrum_estimation_distribution(r, n)
            for j, p in dist.items():
                assert p <= q.spectrum_tail_bound(r, n, j) + 1e-12
    assert math.isinf(q.spectrum_tail_bound(0.0, 10, 2.0))


def test_spectrum_mode_near_r():
    n, r = 512, 0.3
    dist = q.spectrum_estimation_distribution(r, n)
    mode = max(dist, key=dist.get)
    assert abs(mode / n - r) < 0.02


def test_sampling_and_estimation():
    n, r = 128, 0.25
    js = q.sample_spin_outcomes(r, n, size=400, seed=6)
    assert np.array_equal(js, q.sample_spin_outcomes(r, n, size=400, seed=6))
    est = q.keyl_werner_estimate(js, n, r_true=r)
    assert abs(est.r_hat - r) < 0.02
    assert est.tail_bound is not None and 0 <= est.tail_bound <= 1
    for bad_n in (0, -2):
        with pytest.raises(ValueError):
            q.keyl_werner_estimate(js, bad_n)


# (d, k) with d^k <= 2048 and 2 <= d <= 8
BASIS_SHAPES = [(d, k) for d in range(2, 9) for k in range(1, 12) if d**k <= 2048]


@pytest.mark.parametrize("d,k", BASIS_SHAPES)
def test_schur_weyl_basis_splits_the_tensor_power(d, k):
    f, fills, w = _schur_weyl_basis(d, k)
    q_dims = np.array([fill.size for fill in fills])
    if d >= k:  # every partition of k appears: sum_lam f_lam^2 = |S_k|
        assert int(np.sum(f * f)) == math.factorial(k)
    assert int(np.sum(f * q_dims)) == d**k
    cols = np.hstack([w[l, :, :q_dims[l]] for l in range(len(f))])
    assert np.max(np.abs(cols.T @ cols - np.eye(cols.shape[1]))) <= 1e-13
    for l, q_l in enumerate(q_dims):
        assert not np.any(w[l, :, q_l:])  # padding columns


def copies_of(d, k):
    """The aligned copies of each Q_lam, one (d^k, f_lam, q_lam) array per lam."""
    f, fills, w = _schur_weyl_basis(d, k)
    out = []
    for l, fill in enumerate(fills):
        copies = np.empty((d**k, f[l], fill.size))
        copies[:, 0] = w[l, :, :fill.size]
        _aligned_copies(d, k, copies)
        out.append(copies)
    return f, out


@pytest.mark.parametrize("d,k", BASIS_SHAPES + [(1, 5), (3, 1)])
def test_aligned_copies_are_an_orthonormal_basis_of_the_tensor_power(d, k):
    f, copies = copies_of(d, k)
    assert [c.shape[1] for c in copies] == list(f)  # exactly f_lam copies of each Q_lam
    assert sum(c.shape[1] * c.shape[2] for c in copies) == d**k
    cols = np.hstack([c.reshape(d**k, -1) for c in copies])
    assert np.max(np.abs(cols.T @ cols - np.eye(d**k))) <= 1e-13


@pytest.mark.parametrize("d,k", [(2, 3), (2, 5), (3, 3), (2, 6), (3, 4), (4, 3)])
def test_aligned_copies_are_aligned(d, k):
    # Schur's lemma: a permutation pi acts as I x pi on Q_lam x P_lam, so between aligned
    # copies C_i^T pi C_j is a multiple of the identity, for every pi and not just the first column
    _, copies = copies_of(d, k)
    for perm in [(1, 0) + tuple(range(2, k)), tuple(range(1, k)) + (0,)]:
        p = permutation_operator(d, perm).real
        for c in copies:
            q_l = c.shape[2]
            for i, j in itertools.product(range(c.shape[1]), repeat=2):
                overlap = c[:, i].T @ p @ c[:, j]
                assert np.max(np.abs(overlap - overlap[0, 0] * np.eye(q_l))) <= 1e-12


@pytest.mark.parametrize("d,k", [(2, 2), (2, 4), (3, 3), (2, 7), (4, 3), (16, 2)])
def test_sector_blocks_are_the_copies_block_diagonal_by_weight(d, k):
    f, fills, w = _schur_weyl_basis(d, k)
    runs, cols, sorted_pos = _sector_blocks(d, k, f, fills, w)
    v = np.zeros((d**k, d**k))
    for a, b, stack in runs:  # V with rows and columns in sorted order
        cnt, m, _ = stack.shape
        assert (b - a) == cnt * m
        for c in range(cnt):
            v[a + c * m:a + (c + 1) * m, a + c * m:a + (c + 1) * m] = stack[c]
    _, copies = copies_of(d, k)
    for l, copy in enumerate(copies):
        # column s of copy i sits at cols[l][i, s]; its rows, in string order, are copy[:, i, s]
        assert np.max(np.abs(v[sorted_pos][:, cols[l]] - copy)) <= 1e-14
    assert sorted(np.concatenate([c.ravel() for c in cols])) == list(range(d**k))
    assert sorted(sorted_pos) == list(range(d**k))


def permutation_average_by_copies(t, slots, sign=1):
    """The coset-sum average with a copy and a scaled temporary per term."""
    for j in range(1, len(slots)):
        acc = t.copy()
        for i in range(j):
            axes = list(range(t.ndim))
            for a, b in zip(slots[i], slots[j]):
                axes[a], axes[b] = b, a
            acc += sign * t.transpose(axes)
        acc /= j + 1
        t = acc
    return t


@pytest.mark.parametrize("shape,slots", [((3, 3, 3, 3), [(0, 2), (1, 3)]),
                                         ((2,) * 8, [(0, 4), (1, 5), (2, 6), (3, 7)]),
                                         ((3,) * 6 + (4,), [(0,), (1,), (2,), (4,)]),
                                         ((2, 3, 3, 3) * 2, [(1, 5), (2, 6), (3, 7)])])
@pytest.mark.parametrize("sign", [1, -1])
def test_permutation_average_in_place_is_bitwise_the_copying_sum(shape, slots, sign):
    rng = np.random.default_rng(len(shape))
    t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    want = permutation_average_by_copies(t, slots, sign)
    assert _permutation_average(t, slots, sign).tobytes() == want.tobytes()
    assert _permutation_average(t.real, slots, sign).tobytes() == \
        permutation_average_by_copies(t.real, slots, sign).tobytes()


@pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 7) for k in range(1, 9) if d**k <= 4096])
def test_semistandard_indices_match_the_recursive_fillings(d, k):
    place = d ** np.arange(k - 1, -1, -1)
    for shape in _partitions(k, d):
        want = semistandard_fillings(shape, d) @ place
        assert np.array_equal(_semistandard_indices(shape, d), want), shape


# (d_a, d, k) with d_a d^k <= 64
BLOCK_SHAPES = [(d_a, d, k) for d_a in (1, 2, 3) for d in (2, 3, 4) for k in range(1, 7)
                if d_a * d**k <= 64]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BLOCK_SHAPES), st.integers(0, 2**32 - 1))
def test_schur_weyl_blocks_reassemble_invariant_operators(shape, seed):
    d_a, d, k = shape
    rng = np.random.default_rng(seed)
    dim = d_a * d**k
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    x = symmetrize_b((g + g.conj().T) / (2 * dim), d_a, d, k)
    blocks = to_schur_weyl_blocks(x, d_a, d, k)
    assert np.max(np.abs(_affine_maps(d, k)[2](blocks) - x)) <= 1e-12
    f = _schur_weyl_basis(d, k)[0]
    weighted = float(f @ np.sum(np.abs(blocks) ** 2, axis=(1, 2)))
    assert weighted == pytest.approx(float(np.sum(np.abs(x) ** 2)), rel=1e-12)


def test_spin_multiplicity_bound_is_inf_once_the_power_overflows():
    # n h(1/2 + j/n) >= 1024: 2^(n h) is not a float, and inf is the true, vacuous bound
    assert q.spin_multiplicity_bound(1024, 0) == math.inf
    assert q.spin_multiplicity_bound(2000, 0) == math.inf
    # just below 2^1024 the power is formed as before
    assert q.spin_multiplicity_bound(1023, 0.5) == 2.0 ** (1023 * q.binary_entropy(0.5 + 0.5 / 1023))
    assert 8.9e307 < q.spin_multiplicity_bound(1023, 0.5) < math.inf
