import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qilab as q
from qilab.separability import FeasStatus
from qilab.tensor import (
    MAX_AXES,
    SIZE_CAP,
    EigDecomposition,
    _check_dims,
    _checked_dim,
    _hermitian,
    _negative_eigenvalue,
    _normalized,
    _strict_int,
    hermitian_eig,
    is_hermitian,
    partial_trace,
    partial_transpose,
    permutation_operator,
    swap_operator,
    tensor,
    trace_distance,
    trace_norm,
)

RNG = np.random.default_rng(42)


def random_hermitian(d, rng=RNG):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def test_tensor_matches_kron_chain():
    a, b, c = (RNG.normal(size=(2, 2)) for _ in range(3))
    assert np.allclose(tensor(a, b, c), np.kron(np.kron(a, b), c))


def test_partial_trace_of_product_factors():
    a = random_hermitian(2)
    b = random_hermitian(3)
    m = tensor(a, b)
    assert np.allclose(partial_trace(m, (2, 3), [0]), a * np.trace(b))
    assert np.allclose(partial_trace(m, (2, 3), [1]), b * np.trace(a))


def partial_trace_by_loop(m, dims, keep):
    """Oracle: trace out the subsystems not in ``keep`` one np.trace at a time, from the right."""
    dims = tuple(dims)
    t = m.reshape(dims + dims)
    for i in reversed([i for i in range(len(dims)) if i not in keep]):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    dkeep = int(np.prod([dims[k] for k in keep]))
    return t.reshape(dkeep, dkeep)


def test_partial_trace_preserves_trace_and_einsum_oracle():
    dims = (2, 3, 2)
    m = random_hermitian(12)
    for keep in ([], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]):
        sub = partial_trace(m, dims, keep)
        assert abs(np.trace(sub) - np.trace(m)) < 1e-12
        assert np.max(np.abs(sub - partial_trace_by_loop(m, dims, keep))) < 1e-12
    # independent einsum oracle for keep = [0, 2]
    t = m.reshape(2, 3, 2, 2, 3, 2)
    oracle = np.einsum("ajbAjB->abAB", t).reshape(4, 4)
    assert np.allclose(partial_trace(m, dims, [0, 2]), oracle)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=6), st.data())
def test_partial_trace_matches_loop_oracle(dims, data):
    dim = int(np.prod(dims))
    keep = data.draw(st.sets(st.integers(0, len(dims) - 1)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    want = partial_trace_by_loop(m, dims, sorted(keep))
    got = partial_trace(m, dims, keep)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_partial_transpose_involution_and_product():
    dims = (2, 3)
    m = random_hermitian(6)
    pt = partial_transpose(m, dims, 0)
    assert np.allclose(partial_transpose(pt, dims, 0), m)
    assert abs(np.trace(pt) - np.trace(m)) < 1e-12
    a, b = random_hermitian(2), random_hermitian(3)
    assert np.allclose(partial_transpose(tensor(a, b), dims, 0), tensor(a.T, b))
    # transposing every subsystem is the full transpose
    assert np.allclose(partial_transpose(m, dims, [0, 1]), m.T)


def test_hermitian_eig_reconstruction_and_order():
    m = random_hermitian(7)
    eig = hermitian_eig(m)
    assert isinstance(eig, EigDecomposition)
    assert np.allclose(eig.reconstruct(), m, atol=1e-12)
    assert np.all(np.diff(eig.eigenvalues) <= 1e-14)
    v = eig.eigenvectors
    assert np.allclose(v.conj().T @ v, np.eye(7), atol=1e-12)


def test_hermitian_eig_rejects_nonhermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        hermitian_eig(m)


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), defect=st.floats(0.0, 0.99e-9),
       scale=st.sampled_from([1e-6, 1.0, 1e3]))
def test_hermitian_reader_returns_the_hermitian_part(d, seed, defect, scale):
    rng = np.random.default_rng(seed)
    # an exactly Hermitian matrix plus a perturbation of entries at most defect/2 in modulus
    h = random_hermitian(d, rng) * scale
    p = rng.uniform(-1, 1, size=(d, d)) + 1j * rng.uniform(-1, 1, size=(d, d))
    m = h + p * (defect / (2 * math.sqrt(2)))
    assert np.max(np.abs(m - m.conj().T)) <= 1e-9
    got = _hermitian(m, "m")
    want = (m + m.conj().T) / 2
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert is_hermitian(m)
    # one NaN or infinite part of one entry, and the reader refuses the matrix
    bad = m.copy()
    i, j = rng.integers(d, size=2)
    (bad.real if rng.integers(2) else bad.imag)[i, j] = rng.choice([math.nan, math.inf, -math.inf])
    with pytest.raises(ValueError, match="^m is not Hermitian"):
        _hermitian(bad, "m")
    assert not is_hermitian(bad)


@pytest.mark.parametrize("d", [1, 2, 17, 64, 300])
def test_hermitian_reader_is_bytewise_the_hermitian_part(d):
    rng = np.random.default_rng(d)
    m = random_hermitian(d, rng) + 1e-10 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    assert _hermitian(m, "m").tobytes() == ((m + m.conj().T) / 2).tobytes()


@pytest.mark.parametrize("m, message", [
    (np.array([[0.0, 1.0], [0.0, 0.0]]), "rho is not Hermitian (defect 1.000e+00 > 1.0e-09)"),
    (np.diag([math.nan, 1.0]), "rho is not Hermitian (defect nan > 1.0e-09)"),
    (np.full((2, 2), 1.7e308), "rho has entries too large: its Hermitian part overflows"),
])
def test_hermitian_reader_messages(m, message):
    with pytest.raises(ValueError) as err:
        _hermitian(m, "rho")
    assert str(err.value) == message


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), blocks=st.integers(1, 4), size=st.integers(1, 12),
       pad=st.integers(0, 3), real=st.booleans(), tol=st.sampled_from([1e-12, 1e-9]),
       lam_min=st.one_of(st.floats(-3e-9, 1e-9), st.floats(-0.5, 0.5)))
def test_psd_test_agrees_with_eigvalsh(seed, blocks, size, pad, real, tol, lam_min):
    """The one PSD test on a zero-padded stack, as the Schur-Weyl plan keeps blocks."""
    rng = np.random.default_rng(seed)
    m = np.zeros((blocks, size + pad, size + pad), dtype=float if real else complex)
    for i in range(blocks):
        d = int(rng.integers(1, size + 1))  # this block's size inside the padding
        g = rng.normal(size=(d, d)) + (0 if real else 1j * rng.normal(size=(d, d)))
        u = np.linalg.qr(g)[0]
        spectrum = rng.uniform(0, 1, size=d)
        if i == 0:  # the block that carries lambda_min
            spectrum[0] = lam_min
        m[i, :d, :d] = (u * spectrum) @ u.conj().T
    m = (m + m.conj().transpose(0, 2, 1)) / 2
    lo = float(np.linalg.eigvalsh(m).min())
    assume(abs(lo + tol) > 1e-10 * np.linalg.norm(m, 2, axis=(1, 2)).max())
    got = _negative_eigenvalue(m, tol)
    assert (got is None) == (lo >= -tol)
    assert got is None or got == lo


def test_a_single_subsystem_index_stands_for_itself():
    m = random_hermitian(6)
    for i in range(2):
        assert np.array_equal(partial_trace(m, (2, 3), i), partial_trace(m, (2, 3), [i]))
        assert np.array_equal(partial_transpose(m, (2, 3), i), partial_transpose(m, (2, 3), [i]))
    assert np.array_equal(partial_trace(m, (2, 3), np.int64(1)), partial_trace(m, (2, 3), [1]))
    with pytest.raises(IndexError, match="out of range"):
        partial_trace(m, (2, 3), 2)
    with pytest.raises(ValueError, match="^expected an integer, got True$"):
        partial_trace(m, (2, 3), True)


def test_trace_norm_is_sum_of_abs_eigenvalues():
    m = random_hermitian(5)
    vals = np.linalg.eigvalsh(m)
    assert abs(trace_norm(m) - np.sum(np.abs(vals))) < 1e-10


def test_trace_distance_basic_properties():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert abs(trace_distance(a, b) - 1.0) < 1e-12
    assert trace_distance(a, a) < 1e-12
    with pytest.raises(ValueError):
        trace_distance(a, np.array([[0, 1], [0, 0]], dtype=complex))


def test_permutation_operator_action_and_composition():
    d, n = 2, 3
    for pi in itertools.permutations(range(n)):
        p = permutation_operator(d, pi)
        # action on a basis ket
        bits = (1, 0, 1)
        v = np.zeros(d**n)
        v[int("".join(map(str, bits)), 2)] = 1.0
        out = [0] * n
        for k in range(n):
            out[pi[k]] = bits[k]
        w = np.zeros(d**n)
        w[int("".join(map(str, out)), 2)] = 1.0
        assert np.allclose(p @ v, w)
    for pi in itertools.permutations(range(n)):
        for sg in itertools.permutations(range(n)):
            comp = tuple(pi[sg[i]] for i in range(n))
            lhs = permutation_operator(d, pi) @ permutation_operator(d, sg)
            assert np.allclose(lhs, permutation_operator(d, comp))


def test_swap_operator_and_size_cap():
    f = swap_operator(3)
    a = RNG.normal(size=3)
    b = RNG.normal(size=3)
    assert np.allclose(f @ np.kron(a, b), np.kron(b, a))
    assert np.allclose(f @ f, np.eye(9))
    with pytest.raises(ValueError):
        permutation_operator(2, list(range(13)))  # 8192 > 4096


# each entry point with an operator of more than 4096 rows, as (function, *args)
OVERSIZED = {
    "permutation_operator": lambda: (permutation_operator, 2, list(range(13))),
    "swap_operator": lambda: (swap_operator, 65),
    "symmetric_projector": lambda: (q.symmetric_projector, 2, 13),
    "spin_projectors": lambda: (q.spin_projectors, 13),
    "k_extendibility": lambda: (q.k_extendibility, q.noisy_epr(0.5), 12),
    # built on A x Sym^n(B): 2 * C(2049, 2048) = 4098 rows
    "h_n_ext": lambda: (q.h_n_ext, q.phi_plus().density().mat, (2, 2), 2048),
    "typical_subspace_projector": lambda: (
        q.typical_subspace_projector, q.DensityMatrix(np.diag([0.7, 0.3]).astype(complex)), 13, 0.2),
    "PureState.density": lambda: (q.PureState(np.eye(1, 2**13)[0], (2,) * 13).density,),
    "maximally_mixed": lambda: (q.maximally_mixed, 4097),
    "random_density_matrix": lambda: (q.random_density_matrix, (4097,), np.random.default_rng(0)),
    "random_unitary": lambda: (q.random_unitary, 4097, np.random.default_rng(0)),
    "random_separable_state": lambda: (q.random_separable_state, 65, 64, np.random.default_rng(0)),
    "depolarizing_channel": lambda: (q.depolarizing_channel, 0.5, 65),  # 65^2 Kraus operators
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_size_guard_refuses_before_allocating(name):
    _checked_dim(SIZE_CAP)  # the cap itself is allowed
    fn, *args = OVERSIZED[name]()  # inputs are built before tracing starts
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds cap 4096"):
            fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# each builder of a state vector of more than 4096^2 amplitudes, as (function, *args)
OVERSIZED_STATES = {
    "phi_plus": lambda: (q.phi_plus, 30000),
    # an int64 product of these dims wraps round to 2^31
    "random_pure_state": lambda: (q.random_pure_state, (2**31, 2**33 + 1), np.random.default_rng(0)),
    "slater_state": lambda: (q.slater_state, 9),
    "slater_state(10^6)": lambda: (q.slater_state, 10**6),  # refused before 10^6 ** 10^6 is formed
}


@pytest.mark.parametrize("name", sorted(OVERSIZED_STATES))
def test_state_size_guard_refuses_before_allocating(name):
    assert _checked_dim(SIZE_CAP, 2, state=True) == SIZE_CAP**2  # the cap itself is allowed
    fn, *args = OVERSIZED_STATES[name]()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"exceeds cap 4096\^2"):
            fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@settings(max_examples=100, deadline=None)
@given(d=st.integers(0, 70), n=st.integers(0, 30))
def test_checked_power_accepts_exactly_the_powers_within_the_cap(d, n):
    if d == 0:
        with pytest.raises(ValueError, match="positive integer"):
            _checked_dim(d, n)
    elif d**n <= SIZE_CAP:
        assert _checked_dim(d, n) == d**n
    else:
        with pytest.raises(ValueError, match="exceeds cap 4096"):
            _checked_dim(d, n)


def test_checked_power_boundaries():
    assert _checked_dim(2, 12) == 4096
    with pytest.raises(ValueError, match="exceeds cap 4096"):
        _checked_dim(2, 13)
    # forming (10^6)^(10^6) would take minutes and megabytes; it is refused at once
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds cap 4096"):
        _checked_dim(10**6, 10**6)
    assert time.perf_counter() - start < 1.0
    # d = 1 keeps d^n = 1 for every n; the axes of the caller's arrays bound n instead
    assert _checked_dim(1, MAX_AXES - 1) == 1
    assert _checked_dim(1, MAX_AXES - 1, state=True) == 1
    assert _checked_dim(1, MAX_AXES // 2, axes=MAX_AXES) == 1
    for n, axes in [(MAX_AXES, None), (10**18, None), (MAX_AXES // 2 + 1, MAX_AXES + 2)]:
        with pytest.raises(ValueError, match=f"need {axes or n + 1} array axes, more than numpy's {MAX_AXES}$"):
            _checked_dim(1, n, axes=axes)
    with pytest.raises(ValueError, match="array axes"):
        _checked_dim(1, 10**18, state=True)


def test_d1_calls_within_the_axis_cap_still_return():
    n = MAX_AXES - 1  # np.indices((1,) * n) takes n + 1 axes
    assert np.array_equal(q.symmetric_projector(1, n), [[1]])
    assert np.array_equal(q.permutation_operator(1, range(MAX_AXES // 2)), [[1]])
    assert np.array_equal(q.typical_subspace_projector(q.DensityMatrix(np.eye(1)), n, 0.1), [[1]])
    rho = q.DensityMatrix(np.eye(2) / 2, (2, 1))
    rep = q.k_extendibility(rho, n)
    assert rep.status is FeasStatus.FEASIBLE
    assert np.array_equal(rep.extension, rho.mat)


@settings(max_examples=60, deadline=None)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=4), data=st.data())
def test_partial_transpose_matches_einsum(dims, data):
    n = len(dims)
    subs = data.draw(st.sets(st.integers(0, n - 1)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dim = math.prod(dims)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    # row label i, column label n + i; a transposed subsystem swaps its two labels
    rows, cols = list(range(n)), list(range(n, 2 * n))
    out = [cols[i] if i in subs else rows[i] for i in range(n)] + \
          [rows[i] if i in subs else cols[i] for i in range(n)]
    want = np.einsum(m.reshape(dims + dims), rows + cols, out).reshape(dim, dim)
    assert np.array_equal(partial_transpose(m, dims, subs), want)


def test_bad_inputs():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), (2, 2), [0])
    with pytest.raises(IndexError):
        partial_trace(np.eye(6), (2, 3), [5])
    # one einsum label per subsystem and per kept subsystem: 52 fit, 53 do not
    assert partial_trace(np.eye(1), (1,) * 30, range(22)).shape == (1, 1)
    with pytest.raises(ValueError, match="52 labels"):
        partial_trace(np.eye(1), (1,) * 30, range(23))
    with pytest.raises(IndexError):
        partial_transpose(np.eye(6), (2, 3), 2)
    with pytest.raises(ValueError):
        permutation_operator(2, [0, 0, 1])


@pytest.mark.parametrize("x", [4, 4.0, np.int64(4), np.float64(4.0)])
def test_strict_int_accepts_integral_numbers(x):
    assert _strict_int(x) == 4 and type(_strict_int(x)) is int


@pytest.mark.parametrize("x", [True, np.bool_(False), 2.5, math.nan, math.inf, -math.inf,
                               None, [2], "2", 1j])
def test_strict_int_refuses_everything_else(x):
    with pytest.raises(ValueError, match="expected an integer"):
        _strict_int(x)


def test_integral_floats_count_as_integers():
    assert np.array_equal(q.symmetric_projector(2, 2.0), q.symmetric_projector(2, 2))
    assert np.array_equal(permutation_operator(2, [1.0, 0.0]), swap_operator(2))


def old_index_normalisation(indices):
    """The rule each index reader followed before the shared one: int() of each, sorted, distinct."""
    return sorted(set(int(k) for k in indices))


@settings(max_examples=60, deadline=None)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=4), data=st.data())
def test_index_reader_matches_the_old_normalisation(dims, data):
    n = len(dims)
    # unsorted, repeated, and as int, numpy int or integral float
    raw = data.draw(st.lists(st.integers(0, n - 1).flatmap(
        lambda k: st.sampled_from([k, np.int64(k), float(k)])), max_size=6))
    keep = old_index_normalisation(raw)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dim = math.prod(dims)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    assert np.array_equal(partial_trace(m, dims, raw), partial_trace(m, dims, keep))
    assert np.array_equal(partial_transpose(m, dims, raw), partial_transpose(m, dims, keep))
    psi = q.random_pure_state(dims, rng)
    for state in (psi, psi.density()):
        got, want = state.marginal(raw), state.marginal(keep)
        assert got.dims == want.dims and np.array_equal(got.mat, want.mat)
    cuts = [(raw, keep)] if 0 < len(keep) < n else []
    if n > 1:  # an integer cut c is the subsystems 0..c-1
        c = data.draw(st.integers(1, n - 1))
        cuts.append((float(c), list(range(c))))
    for cut, want_cut in cuts:
        got, want = q.schmidt(psi, cut), q.schmidt(psi, want_cut)
        assert got.cut == want.cut and got.dims == want.dims
        for x, y in ((got.coefficients, want.coefficients), (got.left_basis, want.left_basis),
                     (got.right_basis, want.right_basis)):
            assert np.array_equal(x, y)


def test_check_dims_refuses_non_integer_dimensions():
    assert _check_dims(4, (2.0, np.int64(2))) == (2, 2)
    for dims in [(2.9, 2.1), (True, 4), (2.5, 1.6), (None, 4)]:
        with pytest.raises(ValueError):
            _check_dims(4, dims)
    with pytest.raises(ValueError):
        q.DensityMatrix(np.eye(4) / 4, (2.9, 2.1))
    # the product is exact: int64 would wrap 2^64 round to 0
    with pytest.raises(ValueError, match="imply size 18446744073709551616"):
        _check_dims(1, (2**32, 2**32))


# each tolerance or stopping rule that is a fixed value, as (function, args, keyword)
FIXED_VALUES = {
    "is_hermitian(tol)": (is_hermitian, (np.eye(2),), "tol"),
    "hermitian_eig(tol)": (hermitian_eig, (np.eye(2),), "tol"),
    "trace_distance(tol)": (trace_distance, (np.eye(2) / 2, np.eye(2) / 2), "tol"),
    "ppt_check(tol)": (q.ppt_check, (q.noisy_epr(0.5),), "tol"),
    **{f"k_extendibility({kw})": (q.k_extendibility, (q.noisy_epr(0.5), 2), kw)
       for kw in ("eps_feasible", "eps_gap", "plateau_window", "plateau_rel")},
    **{f"h_sep_sampled({kw})": (q.h_sep_sampled, (np.eye(4), (2, 2)), kw) for kw in ("sweeps", "tol")},
    **{f"chsh_optimize({kw})": (q.chsh_optimize, (1,), kw) for kw in ("sweep_tol", "max_sweeps")},
    "SchmidtDecomposition.rank(tol)": (q.schmidt(q.phi_plus(), 1).rank, (), "tol"),
    **{f"classify_three_qubit({kw})": (q.classify_three_qubit, (q.ghz_state(),), kw)
       for kw in ("rank_tol", "hyperdet_tol")},
    "three_qubit_spectra_compatible(tol)": (q.three_qubit_spectra_compatible, ((0.5, 0.5, 0.5),), "tol"),
    "w_polytope_check(tol)": (q.w_polytope_check, ((1.0, 1.0, 1.0),), "tol"),
    "symmetric_purification(tol)": (q.symmetric_purification,
                                    (q.DensityMatrix(np.eye(4) / 4, (2, 2)),), "tol"),
    # keywords that no caller set: a rank-deficient sample, output dims, a term count
    "random_density_matrix(rank)": (q.random_density_matrix, (2, np.random.default_rng(0)), "rank"),
    "apply_channel(dims_out)": (q.apply_channel, (q.depolarizing_channel(0.5), q.noisy_epr(0.5).marginal([0])),
                                "dims_out"),
    "random_separable_state(terms)": (q.random_separable_state, (2, 2, np.random.default_rng(0)), "terms"),
}


@pytest.mark.parametrize("name", sorted(FIXED_VALUES))
def test_fixed_tolerances_are_not_keywords(name):
    fn, args, kw = FIXED_VALUES[name]
    with pytest.raises(TypeError, match=kw):
        fn(*args, **{kw: 1})


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=12), st.floats(0.0, 1.0))
def test_normalized_clips_and_scales_down_only_an_excess(v, scale):
    p = np.array(v)
    out = _normalized(p)
    assert np.all((out >= 0) & (out <= 1))
    assert out.sum() <= 1
    np.random.default_rng(0).multinomial(5, out)  # numpy accepts it as pvals
    nonneg = np.abs(p)
    nonneg = nonneg * (scale / nonneg.sum()) if nonneg.sum() > 1 else nonneg
    if nonneg.sum() <= 1:
        assert _normalized(nonneg).tobytes() == nonneg.tobytes()


@pytest.mark.parametrize("excess", [0.0, 1e-16, 3e-16, 1e-12])
def test_normalized_is_idempotent(excess):
    # dividing by a sum just above 1 can leave a sum just above 1; a second call must not divide again
    rng = np.random.default_rng(0)
    for length in range(2, 9):
        for v in rng.dirichlet(np.ones(length), size=25_000 // 7 + 1) * (1 + excess):
            once = _normalized(v)
            assert once.sum() <= 1
            assert _normalized(once).tobytes() == once.tobytes()
