import math

import numpy as np
import pytest

import qilab as q
from qilab.pure import SloccClass

RNG = np.random.default_rng(23)


def test_schmidt_reconstruction_random():
    for dims, cut in [((2, 3), [0]), ((2, 2, 2), [1]), ((3, 2, 2), [0, 2])]:
        psi = q.random_pure_state(dims, RNG)
        dec = q.schmidt(psi, cut)
        assert np.all(np.diff(dec.coefficients) <= 1e-14)
        assert np.allclose(dec.reconstruct(), psi.amps, atol=1e-12)
        u = dec.left_basis
        assert np.allclose(u.conj().T @ u, np.eye(u.shape[1]), atol=1e-12)
        # squared coefficients are the marginal spectrum
        marg = psi.marginal(cut).mat
        vals = np.sort(np.linalg.eigvalsh(marg))[::-1]
        padded = np.zeros_like(vals)
        padded[: len(dec.coefficients)] = dec.coefficients**2
        assert np.allclose(np.sort(padded)[::-1], vals, atol=1e-10)


def test_schmidt_special_cases():
    dec = q.schmidt(q.phi_plus(), [0])
    assert np.allclose(dec.coefficients, [1 / math.sqrt(2)] * 2, atol=1e-12)
    prod = q.PureState(np.kron([1, 0], [0, 1]).astype(complex), (2, 2))
    assert q.schmidt(prod, [0]).rank() == 1
    with pytest.raises(ValueError):
        q.schmidt(prod, [0, 1])


def test_entanglement_entropy():
    assert q.entanglement_entropy(q.phi_plus(), [0]) == pytest.approx(1.0)
    assert q.entanglement_entropy(q.ghz_state(), [0]) == pytest.approx(1.0)
    psi = q.random_pure_state((2, 2, 2), RNG)
    # entropy is symmetric across the cut
    assert q.entanglement_entropy(psi, [0]) == pytest.approx(
        q.entanglement_entropy(psi, [1, 2]), abs=1e-10)


def test_teleport_all_outcomes():
    psi = q.random_pure_state(2, RNG)
    for out in range(4):
        t = q.teleport(psi, force_outcome=out)
        assert t.probability == pytest.approx(0.25, abs=1e-10)
        fid = abs(np.vdot(t.output.amps, psi.amps)) ** 2
        assert fid == pytest.approx(1.0, abs=1e-10)


def test_teleport_entangled_input_carries_correlations():
    psi = q.random_pure_state((2, 2), RNG)  # bystander + message qubit
    for out in range(4):
        t = q.teleport(psi, force_outcome=out)
        fid = abs(np.vdot(t.output.amps, psi.amps)) ** 2
        assert fid == pytest.approx(1.0, abs=1e-10)


def test_teleport_seeded_and_bob_unconditioned():
    psi = q.random_pure_state(2, RNG)
    a = q.teleport(psi, seed=9)
    b = q.teleport(psi, seed=9)
    assert a.outcome == b.outcome
    assert np.allclose(q.unconditioned_bob_state(psi), np.eye(2) / 2, atol=1e-12)


def test_distillation_yield_concentrates():
    spec = [0.5, 0.5]
    n = 4000
    y = q.distillation_yield(spec, n, seed=1)
    assert y <= n  # at most n ebits from qubit spectra
    assert y / n == pytest.approx(1.0, abs=0.02)
    assert q.distillation_yield([1.0, 0.0], 100, seed=0) == 0.0
    for bad in ([math.nan, 1.0], [1.0, math.nan], [math.inf, 0.0], [math.inf, -math.inf]):
        with pytest.raises(ValueError):
            q.distillation_yield(bad, 10)


def test_dilution_rank_bound():
    assert q.dilution_rank_bound(q.phi_plus(), [0], 10, 0.0) == 10
    prod = q.PureState(np.kron([1, 0], [1, 0]).astype(complex), (2, 2))
    assert q.dilution_rank_bound(prod, [0], 50, 0.0) == 0
    assert q.dilution_rank_bound(q.phi_plus(), [0], 10, 0.15) == 12  # ceil(11.5)


def test_slocc_apply():
    ops = [q.random_unitary(2, RNG) for _ in range(3)]
    out = q.slocc_apply(ops, q.ghz_state())
    assert abs(np.linalg.norm(out.amps) - 1) < 1e-12
    killer = np.array([[1, 0], [0, 0]], dtype=complex)
    one = q.PureState(np.array([0, 1], dtype=complex))
    with pytest.raises(ValueError):
        q.slocc_apply([killer], one)


def test_slocc_apply_matches_the_kronecker_product():
    rng = np.random.default_rng(31)
    for n in range(2, 7):
        for _ in range(5):
            dims = tuple(int(d) for d in rng.integers(1, 4, size=n))
            psi = q.random_pure_state(dims, rng)
            ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in dims]
            big = ops[0]
            for op in ops[1:]:
                big = np.kron(big, op)
            v = big @ psi.amps
            out = q.slocc_apply(ops, psi)
            assert out.dims == dims
            assert np.max(np.abs(out.amps - v / np.linalg.norm(v))) <= 1e-12


def test_hyperdeterminant_values():
    assert q.hyperdeterminant(q.ghz_state()) == pytest.approx(0.25, abs=1e-12)
    assert abs(q.hyperdeterminant(q.w_state())) < 1e-14
    with pytest.raises(ValueError):
        q.hyperdeterminant(q.phi_plus())


def hyperdeterminant_by_monomials(psi):
    """Cayley's hyperdeterminant written out as its 12 monomials in the amplitudes."""
    t = psi.amps.reshape(2, 2, 2)

    def a(i, j, k):
        return t[i, j, k]

    d1 = (a(0, 0, 0) ** 2 * a(1, 1, 1) ** 2 + a(0, 0, 1) ** 2 * a(1, 1, 0) ** 2
          + a(0, 1, 0) ** 2 * a(1, 0, 1) ** 2 + a(1, 0, 0) ** 2 * a(0, 1, 1) ** 2)
    d2 = (a(0, 0, 0) * a(1, 1, 1) * a(0, 1, 1) * a(1, 0, 0)
          + a(0, 0, 0) * a(1, 1, 1) * a(1, 0, 1) * a(0, 1, 0)
          + a(0, 0, 0) * a(1, 1, 1) * a(1, 1, 0) * a(0, 0, 1)
          + a(0, 1, 1) * a(1, 0, 0) * a(1, 0, 1) * a(0, 1, 0)
          + a(0, 1, 1) * a(1, 0, 0) * a(1, 1, 0) * a(0, 0, 1)
          + a(1, 0, 1) * a(0, 1, 0) * a(1, 1, 0) * a(0, 0, 1))
    d3 = (a(0, 0, 0) * a(1, 1, 0) * a(1, 0, 1) * a(0, 1, 1)
          + a(1, 1, 1) * a(0, 0, 1) * a(0, 1, 0) * a(1, 0, 0))
    return d1 - 2 * d2 + 4 * d3


def test_hyperdeterminant_matches_monomial_expansion():
    rng = np.random.default_rng(12)
    states = [q.random_pure_state((2, 2, 2), rng) for _ in range(1000)]
    for base in (q.ghz_state(), q.w_state()):
        states.append(base)
        for _ in range(50):  # SLOCC images: invertible complex local operators
            ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
            states.append(q.slocc_apply(ops, base))
    for psi in states:
        want = hyperdeterminant_by_monomials(psi)
        assert abs(q.hyperdeterminant(psi) - want) <= 1e-12 * abs(want) + 1e-15
    assert q.hyperdeterminant(q.w_state()) == 0


def _embed_pair(pair_amps, lone, arrangement):
    """Three-qubit state with an entangled pair at the given two slots."""
    t = np.zeros((2, 2, 2), dtype=complex)
    pm = pair_amps.reshape(2, 2)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                idx = [0, 0, 0]
                idx[arrangement[0]], idx[arrangement[1]] = i, j
                idx[arrangement[2]] = k
                t[tuple(idx)] += pm[i, j] * lone[k]
    return q.PureState(t.reshape(8), (2, 2, 2))


def representatives():
    phi = q.phi_plus().amps
    lone = np.array([1, 0], dtype=complex)
    return {
        SloccClass.PRODUCT: q.PureState(np.kron(np.kron(lone, lone), lone), (2, 2, 2)),
        SloccClass.BIPARTITE_AB: _embed_pair(phi, lone, (0, 1, 2)),
        SloccClass.BIPARTITE_AC: _embed_pair(phi, lone, (0, 2, 1)),
        SloccClass.BIPARTITE_BC: _embed_pair(phi, lone, (1, 2, 0)),
        SloccClass.W: q.w_state(),
        SloccClass.GHZ: q.ghz_state(),
    }


def test_classify_representatives():
    for cls, psi in representatives().items():
        assert q.classify_three_qubit(psi) is cls


def test_classify_invariant_under_local_unitaries():
    for cls, psi in representatives().items():
        for _ in range(5):
            ops = [q.random_unitary(2, RNG) for _ in range(3)]
            assert q.classify_three_qubit(q.slocc_apply(ops, psi)) is cls


def test_three_qubit_compatibility_and_reconstruction():
    assert q.three_qubit_spectra_compatible((0.5, 0.5, 0.5))
    assert q.three_qubit_spectra_compatible((1.0, 1.0, 1.0))
    assert not q.three_qubit_spectra_compatible((0.9, 0.9, 0.5))
    with pytest.raises(ValueError):
        q.three_qubit_spectra_compatible((0.4, 0.6, 0.6))
    lams = (0.7, 0.65, 0.8)
    psi = q.three_qubit_state_from_spectra(lams)
    got = q.largest_marginal_eigenvalues(psi)
    assert np.allclose(got, lams, atol=1e-10)
    with pytest.raises(ValueError):
        q.three_qubit_state_from_spectra((0.9, 0.9, 0.5))


def test_w_polytope():
    assert q.w_polytope_check(q.largest_marginal_eigenvalues(q.w_state()))
    assert not q.w_polytope_check(q.largest_marginal_eigenvalues(q.ghz_state()))


@pytest.mark.parametrize("spectrum", [[1 + 5e-10, 0.0], [1 + 1e-10, -1e-10]])
def test_distillation_yield_samples_an_accepted_spectrum_summing_above_one(spectrum):
    assert q.distillation_yield(spectrum, 4) == 0.0  # a point mass: one type class of size 1
