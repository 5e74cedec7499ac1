import itertools
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qilab as q
from qilab.entropy import MC_BATCH, _entropy_bits, _iter_types, _spectrum

RNG = np.random.default_rng(11)


def test_shannon_and_binary_entropy_values():
    assert q.shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)
    assert q.shannon_entropy([1.0, 0.0]) == 0.0
    assert q.binary_entropy(0.5) == pytest.approx(1.0)
    p = 0.11
    assert q.binary_entropy(p) == pytest.approx(-p * math.log2(p) - (1 - p) * math.log2(1 - p))
    for bad in ([0.5, 0.6], [math.nan, 0.5], [math.nan, 1.0], [math.inf, 0.0],
                [1.0, -math.inf], [math.inf, -math.inf]):
        with pytest.raises(ValueError):
            q.shannon_entropy(bad)


def test_binary_relative_entropy():
    assert q.binary_relative_entropy(0.3, 0.3) == pytest.approx(0.0)
    assert q.binary_relative_entropy(0.3, 0.5) > 0
    assert math.isinf(q.binary_relative_entropy(0.3, 0.0))
    assert math.isinf(q.binary_relative_entropy(0.3, 1.0))
    assert q.binary_relative_entropy(1.0, 1.0) == 0.0


def test_von_neumann_entropy_extremes():
    assert q.von_neumann_entropy(q.random_pure_state(5, RNG).density()) == pytest.approx(0.0, abs=1e-10)
    assert q.von_neumann_entropy(q.maximally_mixed(8)) == pytest.approx(3.0)
    assert q.von_neumann_entropy(q.phi_plus().marginal([0])) == pytest.approx(1.0)


def test_information_measures_phi_plus():
    m = q.information_measures(q.phi_plus().density(), [(0,), (1,)])
    assert m["I_AB"] == pytest.approx(2.0, abs=1e-10)
    assert m["S_A_given_B"] == pytest.approx(-1.0, abs=1e-10)
    assert m["S_AB"] == pytest.approx(0.0, abs=1e-10)


def test_chain_rule_and_ssa_on_random_states():
    for _ in range(20):
        rho = q.random_density_matrix((2, 2, 2), RNG)
        m = q.information_measures(rho, [(0,), (1,), (2,)])
        # chain rule I(A:BC) = I(A:C) + I(A:B|C)
        assert m["I_A_BC"] == pytest.approx(m["I_A_C"] + m["I_AB_given_C"], abs=1e-9)
        # strong subadditivity
        assert m["I_AB_given_C"] >= -1e-9


def test_classical_mutual_information_and_pinsker():
    for _ in range(20):
        pxy = RNG.dirichlet(np.ones(12)).reshape(3, 4)
        mi = q.classical_mutual_information(pxy)
        assert mi >= -1e-12
        assert mi >= q.classical_pinsker_bound(pxy) - 1e-12
    # product distribution: both sides vanish
    prod = np.outer([0.3, 0.7], [0.25, 0.75])
    assert q.classical_mutual_information(prod) == pytest.approx(0.0, abs=1e-12)
    for bad in ([[math.nan, 0.5], [0.25, 0.25]], [[0.5, 0.6], [0.0, 0.0]]):
        with pytest.raises(ValueError):
            q.classical_pinsker_bound(np.array(bad))


def test_quantum_pinsker_on_random_states():
    for _ in range(20):
        rho = q.random_density_matrix((2, 2), RNG)
        m = q.information_measures(rho, [(0,), (1,)])
        assert m["I_AB"] >= q.quantum_pinsker_bound(rho, [(0,), (1,)]) - 1e-10
    with pytest.raises(ValueError, match="sorted"):
        q.quantum_pinsker_bound(rho, [(1,), (0,)])
    # a product state: rho_AB = rho_A x rho_B, so the bound vanishes
    prod = q.DensityMatrix(np.kron(rho.marginal([0]).mat, rho.marginal([1]).mat), (2, 2))
    assert q.quantum_pinsker_bound(prod, [(0,), (1,)]) == pytest.approx(0.0, abs=1e-12)


def brute_force_typical(p, n, delta):
    """String-by-string oracle for small alphabets."""
    p = np.asarray(p)
    h = q.shannon_entropy(p)
    size, mass = 0, 0.0
    for xs in itertools.product(range(len(p)), repeat=n):
        prob = math.prod(p[x] for x in xs)
        if prob == 0:
            continue
        if abs(-math.log2(prob) / n - h) <= delta:
            size += 1
            mass += prob
    return size, mass


def multinomial(n, counts):
    out, rem = 1, n
    for c in counts:
        out *= math.comb(rem, c)
        rem -= c
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_iter_types_sizes_are_multinomials(d):
    for n in (0, 1, 5, 9):
        types = list(_iter_types(n, d))
        assert [t for t, _ in types] == sorted(set(t for t, _ in types))  # lexicographic
        assert len(types) == math.comb(n + d - 1, n)
        assert all(sum(t) == n and size == multinomial(n, t) for t, size in types)
        assert sum(size for _, size in types) == d**n


@pytest.mark.parametrize("p,n,delta", [
    ((0.5, 0.5), 8, 0.1),
    ((0.8, 0.2), 10, 0.25),
    ((0.5, 0.3, 0.2), 6, 0.3),
])
def test_typical_set_exact_against_brute_force(p, n, delta):
    rep = q.typical_set(p, n, delta)
    size, mass = brute_force_typical(p, n, delta)
    assert rep.mass == pytest.approx(mass, abs=1e-12)
    if size:
        assert rep.log_size == pytest.approx(math.log2(size), abs=1e-12)
    assert rep.log_size <= rep.log_size_bound + 1e-12
    # membership predicate agrees with the direct inequality
    for xs in [tuple(RNG.integers(0, len(p), size=n)) for _ in range(20)]:
        prob = math.prod(p[x] for x in xs)
        want = prob > 0 and abs(-math.log2(prob) / n - q.shannon_entropy(p)) <= delta
        assert rep.is_typical(xs) == want
    # symbols outside 0..d-1 (a -1 must not wrap around), non-integers and wrong lengths are refused
    for bad in ([-1] * n, [len(p)] * n, [0.0] * n, [0] * (n - 1)):
        with pytest.raises(ValueError):
            rep.is_typical(bad)


def test_typical_set_uniform_is_everything():
    rep = q.typical_set([0.25] * 4, 5, 0.05)
    assert rep.mass == pytest.approx(1.0)
    assert rep.log_size == pytest.approx(10.0)  # 4^5 strings


def test_typical_mass_chebyshev_bound():
    p = (0.7, 0.2, 0.1)
    for n, delta in [(10, 0.4), (12, 0.5)]:
        rep = q.typical_set(p, n, delta)
        assert rep.mass >= q.typical_mass_lower_bound(p, n, delta) - 1e-12


def test_typical_set_monte_carlo_mode():
    rep = q.typical_set([0.11, 0.89], 1000, 0.05, mc_samples=4000, seed=3)
    assert rep.mass_stderr is not None
    assert rep.mass > 0.9  # far above the Chebyshev floor for these params
    rep2 = q.typical_set([0.11, 0.89], 1000, 0.05, mc_samples=4000, seed=3)
    assert rep.mass == rep2.mass  # seeded determinism


def direct_typicality(p, xs, delta):
    """|-(1/n) log2 p(xs) - H(p)|, summed over the string in order, and its verdict."""
    ll = sum(-math.log2(p[x]) if p[x] > 0 else math.inf for x in xs)
    gap = abs(ll / len(xs) - q.shannon_entropy(p))
    return gap, gap <= delta


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)), min_size=1, max_size=3)
       .filter(lambda w: sum(w) > 0),
       st.integers(1, 6), st.floats(0.01, 1.0))
def test_typicality_predicate_matches_direct_sum_over_each_string(w, n, delta):
    p = [x / sum(w) for x in w]
    rep = q.typical_set(p, n, delta)
    strings = list(itertools.product(range(len(p)), repeat=n))
    direct = [direct_typicality(p, xs, delta) for xs in strings]
    # the two sums differ in order only; keep off the rounding boundary
    assume(all(abs(gap - delta) > 1e-9 for gap, _ in direct))
    assert [rep.is_typical(xs) for xs in strings] == [ok for _, ok in direct]
    size = sum(ok for _, ok in direct)
    mass = sum(math.prod(p[x] for x in xs) for xs, (_, ok) in zip(strings, direct) if ok)
    assert rep.mass == pytest.approx(mass, abs=1e-12)
    assert rep.log_size == (math.log2(size) if size else -math.inf)


@pytest.mark.parametrize("p,n,seed", [
    ((0.11, 0.89), 60, 0),
    ((0.5, 0.3, 0.2), 40, 1),
    ((0.6, 0.0, 0.3, 0.1), 30, 2),  # a zero-probability symbol is never drawn
])
def test_typical_set_monte_carlo_matches_per_sample_draws(p, n, seed):
    samples = 2 * MC_BATCH + 7  # three batches
    rep = q.typical_set(p, n, 0.1, mc_samples=samples, seed=seed)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(samples):
        xs = np.repeat(np.arange(len(p)), rng.multinomial(n, p))  # a string of the drawn type
        hits += direct_typicality(p, xs, 0.1)[1]
    assert rep.mass == hits / samples


@pytest.mark.parametrize("mc_samples", [0, -5])
def test_typical_set_rejects_no_samples(mc_samples):
    with pytest.raises(ValueError, match="mc_samples"):
        q.typical_set([0.8, 0.2], 40, 0.1, mc_samples=mc_samples)
    for delta in (0.0, -0.1, math.nan):  # both paths, exact and Monte-Carlo
        for n in (8, 40):
            with pytest.raises(ValueError, match="delta"):
                q.typical_set([0.8, 0.2], n, delta)


@pytest.mark.parametrize("d,n_exact", [(2, 22), (3, 13), (4, 11)])
def test_typical_set_path_switches_at_the_enumeration_cap(d, n_exact):
    p = [1 / d] * d  # d^n strings: exact while d^n <= ENUMERATION_CAP, Monte Carlo beyond
    exact = q.typical_set(p, n_exact, 0.1, mc_samples=10)
    assert exact.mass_stderr is None and exact.log_size is not None
    sampled = q.typical_set(p, n_exact + 1, 0.1, mc_samples=10)
    assert sampled.mass_stderr is not None and sampled.log_size is None


def test_typical_set_huge_n_takes_the_monte_carlo_path_at_once():
    start = time.perf_counter()
    rep = q.typical_set([0.3, 0.3, 0.4], 10**7, 0.1, mc_samples=10)
    assert time.perf_counter() - start < 1.0  # 3**(10**7) alone takes seconds
    assert rep.mass_stderr is not None


def test_typical_subspace_projector():
    rho = q.DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
    n, delta = 8, 0.2
    proj = q.typical_subspace_projector(rho, n, delta)
    assert np.allclose(proj @ proj, proj, atol=1e-10)
    rank = int(round(np.trace(proj).real))
    s = q.von_neumann_entropy(rho)
    assert rank <= 2 ** (n * (s + delta)) + 1e-9
    big = rho.mat
    for _ in range(n - 1):
        big = np.kron(big, rho.mat)
    # projector commutes with the product state and captures the typical mass
    assert np.max(np.abs(proj @ big - big @ proj)) < 1e-10
    classical = q.typical_set([0.7, 0.3], n, delta)
    assert np.trace(proj @ big).real == pytest.approx(classical.mass, abs=1e-10)


def typical_projector_from_strings(rho, n, delta):
    """Sum of |u_xs><u_xs| over eigenstrings with typical log-eigenvalue."""
    vals, vecs = np.linalg.eigh(rho.mat)
    vals = np.clip(vals, 0.0, None)
    s = q.von_neumann_entropy(rho)
    d = rho.dim
    proj = np.zeros((d**n, d**n), dtype=complex)
    for xs in itertools.product(range(d), repeat=n):
        if any(vals[x] <= 1e-15 for x in xs):
            continue
        ll = sum(-math.log2(vals[x]) for x in xs)
        if abs(ll / n - s) <= delta:
            vec = vecs[:, xs[0]]
            for x in xs[1:]:
                vec = np.kron(vec, vecs[:, x])
            proj += np.outer(vec, vec.conj())
    return proj


@pytest.mark.parametrize("d,n", [(2, 6), (3, 4), (4, 3)])
@pytest.mark.parametrize("kind", ["full_rank", "rank_deficient", "maximally_mixed"])
def test_typical_subspace_projector_matches_string_sum(d, n, kind):
    if kind == "maximally_mixed":
        rho = q.maximally_mixed(d)
    else:
        spectrum = RNG.dirichlet(np.ones(d))
        if kind == "rank_deficient":
            spectrum[0] = 0.0
            spectrum /= spectrum.sum()
        u = q.random_unitary(d, RNG)
        rho = q.DensityMatrix((u * spectrum) @ u.conj().T)
    for delta in (0.1, 0.3, 1.0):
        proj = q.typical_subspace_projector(rho, n, delta)
        want = typical_projector_from_strings(rho, n, delta)
        assert proj.dtype == complex
        assert np.max(np.abs(proj - want)) < 1e-12


def test_typical_subspace_projector_rejects_empty_block():
    rho = q.DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
    with pytest.raises(ValueError):
        q.typical_subspace_projector(rho, 0, 0.2)
    for delta in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="delta"):
            q.typical_subspace_projector(rho, 4, delta)


def test_compression_full_rate_always_succeeds():
    rep = q.compression_trial([0.3, 0.7], 50, 1.0, trials=100, seed=1)
    assert rep.success_rate == 1.0


@pytest.mark.parametrize("n", [0, -3])
def test_compression_rejects_empty_block(n):
    with pytest.raises(ValueError):
        q.compression_trial([0.9, 0.1], n, 0.5, trials=5)


@pytest.mark.parametrize("trials", [0, -3])
def test_compression_rejects_no_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        q.compression_trial([0.9, 0.1], 10, 0.5, trials=trials)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -0.5])
def test_compression_rejects_bad_rate(rate):
    with pytest.raises(ValueError):
        q.compression_trial([0.9, 0.1], 10, rate, trials=5)


# each class takes 20 + d + ceil(n log2(d) / 60) entries of the 4096^2 budget
@pytest.mark.parametrize("p,n", [
    ([0.1, 0.2, 0.3, 0.4], 150),  # C(153, 3) = 585276 classes of 29 entries
    ([0.2, 0.3, 0.5], 853),  # C(855, 2) = 365085 classes of 46 entries
    ([0.3, 0.7], 2**15),  # 2^15 + 1 classes of 569 entries
    ([1 / 30] * 30, 30),  # C(59, 29) is not formed
    pytest.param([0.3, 0.7], 10**400, id="p4-10^400"),  # n too large for a float
])
def test_compression_refuses_too_many_type_classes_at_once(p, n):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="type classes"):
        q.compression_trial(p, n, 0.5, trials=5)
    assert time.perf_counter() - start < 0.5


def test_compression_type_class_bound_is_inclusive(monkeypatch):
    # binary classes at n <= 60 take 20 + 2 + 1 = 23 entries: 23 of them fill a budget of 23^2
    monkeypatch.setattr(sys.modules["qilab.tensor"], "SIZE_CAP", 23)  # qilab.tensor is also a function
    assert q.compression_trial([0.3, 0.7], 22, 0.5, trials=5).trials == 5  # 23 classes
    with pytest.raises(ValueError, match="^24 type classes of 23 entries each exceed cap 23\\^2 entries$"):
        q.compression_trial([0.3, 0.7], 23, 0.5, trials=5)


def test_compression_accepts_any_alphabet_within_the_bound():
    # five symbols were refused outright; C(14, 4) = 1001 classes
    rep = q.compression_trial([0.1, 0.1, 0.2, 0.2, 0.4], 10, 2.5, trials=50, seed=3)
    assert rep.success_rate > 0.5
    # the binary block lengths qi-cli accepts stay within the bound (n <= 31067)
    assert q.compression_trial([0.9, 0.1], 20000, 0.5, trials=5).trials == 5


def test_compression_phase_transition_small():
    h = q.binary_entropy(0.11)  # ~0.4999
    hi = q.compression_trial([0.11, 0.89], 400, 0.65, trials=100, seed=5)
    lo = q.compression_trial([0.11, 0.89], 400, 0.35, trials=100, seed=5)
    assert hi.success_rate > 0.9
    assert lo.success_rate < 0.1
    again = q.compression_trial([0.11, 0.89], 400, 0.65, trials=100, seed=5)
    assert again.successes == hi.successes  # deterministic given seed


@pytest.mark.parametrize("p,want", [([0.3, 0.7], -math.inf), ([0.5, 0.5], 1.0), ([1 / 3] * 3, 1.0),
                                    ([1 / 7] * 7, 1.0)])
def test_typical_mass_lower_bound_where_n_delta_squared_underflows(p, want):
    # n delta^2 = 0 in floating point: the limit of 1 - Var/(n delta^2), -inf for a
    # positive variance and 1 for uniform p, where every string is typical; uniform p
    # has zero variance however its log-probabilities round
    assert q.typical_mass_lower_bound(p, 10, 1e-200) == want
    assert q.typical_mass_lower_bound(p, 10, 1e-160) == want  # no underflow: the same value
    assert q.typical_mass_lower_bound(p, 10, 0.1) <= 1.0


def test_entropy_of_an_accepted_vector_summing_above_one_is_zero():
    # the reader clips -1e-10 to 0 and scales the 1 + 1e-10 that is left down to 1
    for p in ([1 + 1e-10, -1e-10], [1 + 5e-10, 0.0], [1.0, 0.0]):
        h = q.shannon_entropy(p)
        assert h == 0.0 and math.copysign(1.0, h) == 1.0  # 0.0, not -0.0


def test_shannon_entropy_reads_only_vectors():
    with pytest.raises(ValueError, match="1-dimensional"):
        q.shannon_entropy([[0.5, 0.0], [0.0, 0.5]])


def test_typical_set_samples_an_accepted_vector_summing_above_one():
    rep = q.typical_set([1 + 5e-10, 0.0], 100, 0.1)  # d^n is past the enumeration cap
    assert rep.mass_stderr is not None and rep.entropy == 0.0 and rep.mass == 1.0


def test_von_neumann_entropy_of_random_pure_states_is_nonnegative():
    rng = np.random.default_rng(0)
    vals = [q.von_neumann_entropy(q.random_pure_state(d, rng=rng).density())
            for _ in range(200) for d in (2, 3, 4, 8, 16)]
    assert min(vals) >= 0.0 and max(vals) < 1e-13


def type_deviations(p, n):
    """|-(1/n) log2 p(x^n) - H(p)| of every type class, summed as typical_set sums it."""
    logs = [-math.log2(x) if x > 0 else math.inf for x in p]
    h = _entropy_bits(p)
    devs = set()
    for t, _ in _iter_types(n, len(p)):
        ll = 0.0
        for c, s in zip(t, logs):
            if c:
                ll += c * s
        devs.add(abs(ll / n - h))
    return sorted(x for x in devs if 0 < x < math.inf)


@pytest.mark.parametrize("d,n", [(2, 6), (3, 4), (4, 3)])
def test_typical_projector_rank_is_the_typical_set_size(d, n):
    # at delta equal to a type's own deviation the type sits on the boundary, where any
    # second test that sums in another order would decide otherwise
    rng = np.random.default_rng(29 + d)
    for _ in range(40):
        rho = q.random_density_matrix(d, rng)
        p = _spectrum(rho)[0]
        for delta in type_deviations(p, n)[:6]:
            rank = round(np.trace(q.typical_subspace_projector(rho, n, delta)).real)
            log_size = q.typical_set(p, n, delta).log_size
            assert rank == (0 if log_size == -math.inf else round(2 ** log_size))


@pytest.mark.parametrize("excess", [1e-16, 3e-16, 1e-12])
def test_typical_projector_rank_is_the_typical_set_size_on_a_spectrum_above_1(excess):
    # a diagonal rho whose eigenvalues sum just above 1: _spectrum divides them once, and
    # typical_set, normalizing that spectrum again, must read the same vector
    rng = np.random.default_rng(7)
    checked = 0
    for d, n in [(2, 6), (3, 4), (4, 3)] * 20:
        vals = rng.dirichlet(np.ones(d)) * (1 + excess)
        rho = q.DensityMatrix(np.diag(vals))
        p = _spectrum(rho)[0]
        checked += vals.sum() > 1
        for delta in type_deviations(p, n)[:6]:
            rank = round(np.trace(q.typical_subspace_projector(rho, n, delta)).real)
            log_size = q.typical_set(p, n, delta).log_size
            assert rank == (0 if log_size == -math.inf else round(2 ** log_size))
    assert checked >= 4  # spectra that did sum above 1


def test_round_off_eigenvalues_of_a_pure_state_read_as_zero():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rho = q.random_pure_state(3, rng=rng).density()
        assert round(np.trace(q.typical_subspace_projector(rho, 4, 20)).real) == 1
    rng = np.random.default_rng(0)
    vals = [q.von_neumann_entropy(q.random_pure_state(d, rng=rng).density())
            for _ in range(200) for d in (2, 3, 4, 8, 16)]
    assert max(vals) <= 1e-14


def test_typical_projector_reads_a_spectrum_within_the_input_tolerance():
    # eigenvalues down to -1e-9 and a trace 1 + 2e-10 are accepted, and normalized away
    rho = q.DensityMatrix(np.diag([0.5 + 2e-9, 0.5, -0.9e-9, -0.9e-9]))
    assert round(np.trace(q.typical_subspace_projector(rho, 3, 0.5)).real) == 8
