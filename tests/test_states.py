import importlib
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qilab as q
from qilab.tensor import partial_trace, swap_operator, tensor

RNG = np.random.default_rng(7)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        q.DensityMatrix(np.array([[0, 1], [0, 1]], dtype=complex))
    with pytest.raises(ValueError):
        q.DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        q.DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError):
        q.DensityMatrix(np.eye(4) / 4, dims=(2, 3))
    for dims in ((-2, -2), (-1, -4)):  # the product matches the size
        with pytest.raises(ValueError, match="positive"):
            q.DensityMatrix(np.eye(4) / 4, dims=dims)
    # entries near the float limit overflow the checks: a ValueError, not a warning
    for m in (np.diag([1.7e308, 1.7e308]), np.array([[0, 1.7e308], [-1.7e308, 0]])):
        with pytest.raises(ValueError):
            q.DensityMatrix(m)


def state_with_spectrum(d: int, lam_min: float, rng: np.random.Generator,
                        zeros: int = 0) -> np.ndarray:
    """U diag(lam_min, 0 (x zeros), rest) U^dag with a seeded unitary and unit trace."""
    rest = rng.dirichlet(np.ones(d - 1 - zeros)) * (1.0 - lam_min)
    spectrum = np.concatenate(([lam_min], np.zeros(zeros), rest))
    u = q.random_unitary(d, rng)
    return (u * spectrum) @ u.conj().T


@pytest.mark.parametrize("d", [2, 3, 4, 8, 64, 256])
def test_psd_decision_boundary(d, monkeypatch):
    """Accepted exactly when lambda_min >= -1e-9; only a rejection computes the spectrum."""
    rng = np.random.default_rng(d)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(q.states.np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
    for lam_min in (-5e-9, -1.01e-9, -0.99e-9, -0.5e-9, 0.0, 1e-12):
        m = state_with_spectrum(d, lam_min, rng)
        calls.clear()
        if lam_min >= -1e-9:
            q.DensityMatrix(m)
            assert not calls
        else:
            with pytest.raises(ValueError, match="matrix has negative eigenvalue -"):
                q.DensityMatrix(m)


def test_valid_inputs_are_accepted_without_a_spectrum(monkeypatch):
    """Only a rejection runs eigvalsh; the shifted Cholesky accepts rank-deficient inputs."""
    rng = np.random.default_rng(3)
    full_rank = q.random_density_matrix(16, rng).mat
    pure = [q.random_pure_state((2,) * n, rng).amps for n in range(1, 9)]
    povm = qutrit_povm().elements

    def no_spectrum(*args, **kwargs):
        raise AssertionError("eigvalsh called")
    monkeypatch.setattr(q.states.np.linalg, "eigvalsh", no_spectrum)
    with pytest.raises(AssertionError, match="eigvalsh called"):  # the patch is seen
        q.DensityMatrix(np.diag([1.5, -0.5]))
    q.DensityMatrix(full_rank)
    for amps in pure:
        psi = q.PureState(amps)
        rho = psi.density()
        psi.marginal([0])
        rho.marginal([0])
    q.Povm(povm)
    q.tetrahedron_povm()


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 32), st.integers(0, 2**32 - 1), st.integers(0, 30),
       st.one_of(st.floats(-3e-9, 1e-9), st.floats(-0.5, 0.5)))
def test_psd_check_agrees_with_eigvalsh(d, seed, zeros, lam_min):
    m = state_with_spectrum(d, lam_min, np.random.default_rng(seed), min(zeros, d - 2))
    lo = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)))
    assume(abs(lo + 1e-9) >= 1e-12)
    try:
        q.DensityMatrix(m)
        accepted = True
    except ValueError as exc:
        assert "negative eigenvalue" in str(exc)
        accepted = False
    assert accepted == (lo >= -1e-9)


def test_pure_state_validation():
    with pytest.raises(ValueError):
        q.PureState(np.array([1.0, 1.0]))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            q.PureState(np.array([1.0, bad]))
        with pytest.raises(ValueError):
            q.PureState(np.array([complex(0.0, bad), 0.0]))
    with pytest.raises(ValueError, match="norm inf"):  # overflows without a warning
        q.PureState(np.array([1e300, 0.0]))
    for dims in ((-2, -2), (-1, -4)):  # the product matches the size
        with pytest.raises(ValueError, match="positive"):
            q.PureState(np.array([1.0, 0.0, 0.0, 0.0]), dims)
    psi = q.PureState(np.array([1.0, 0.0]))
    assert psi.dims == (2,)


def test_from_ensemble_and_born():
    psis = [q.random_pure_state(2, RNG) for _ in range(3)]
    rho = q.from_ensemble([0.5, 0.3, 0.2], psis)
    for bad in ([math.nan, 0.5, 0.5], [1.0, math.nan, 0.0], [math.inf, 0.0, 0.0],
                [1.0, -math.inf, math.inf]):
        with pytest.raises(ValueError):
            q.from_ensemble(bad, psis)
    povm = q.tetrahedron_povm()
    p = q.born_probabilities(rho, povm)
    assert abs(p.sum() - 1) < 1e-12
    manual = [np.trace(e @ rho.mat).real for e in povm.elements]
    assert np.allclose(p, manual)


def test_post_measurement_and_zero_probability():
    rho = q.maximally_mixed(2)
    proj = np.diag([1.0, 0.0]).astype(complex)
    p, out = q.post_measurement(rho, proj)
    assert abs(p - 0.5) < 1e-12
    assert np.allclose(out.mat, proj)
    zero = q.PureState([0.0, 1.0]).density()
    with pytest.raises(q.ZeroProbabilityError):
        q.post_measurement(zero, proj)
    with pytest.raises(ValueError):
        q.post_measurement(rho, np.array([[0.5, 0], [0, 0.5]], dtype=complex))


def qutrit_povm():
    """A random element 0 <= A <= (2/3) I and the three weighted eigenprojectors
    of I - A: a four-outcome POVM on a qutrit."""
    g = np.random.default_rng(5).normal(size=(3, 3, 2)) @ [1, 1j]
    a = g @ g.conj().T
    a /= 1.5 * np.max(np.linalg.eigvalsh(a))
    vals, vecs = np.linalg.eigh(np.eye(3) - a)
    rest = [vals[i] * np.outer(vecs[:, i], vecs[:, i].conj()) for i in range(3)]
    return q.Povm((a, *rest))


def test_naimark_dilation_reproduces_statistics():
    projective = q.Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    for povm in (q.tetrahedron_povm(), projective, qutrit_povm()):
        dil = q.naimark_dilate(povm)
        u = dil.unitary
        dim = povm.dim * len(povm)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-9
        for p in dil.projectors:
            assert np.max(np.abs(p @ p - p)) < 1e-9
        for _ in range(10):
            rho = q.random_density_matrix(povm.dim, RNG)
            want = q.born_probabilities(rho, povm)
            got = dil.probabilities(rho)
            assert np.allclose(want, got, atol=1e-9)
        assert np.array_equal(q.naimark_dilate(povm).unitary, u)  # deterministic


def dilation_probabilities_on_full_space(dil, rho):
    """tr P_i (rho x |0><0|) with the system-ancilla operator built out."""
    anc = np.zeros((dil.ancilla_dim, dil.ancilla_dim), dtype=complex)
    anc[0, 0] = 1.0
    big = tensor(rho.mat, anc)
    return np.array([np.trace(p @ big).real for p in dil.projectors])


def test_dilation_probabilities_match_the_full_space_and_born_rule():
    for povm in (q.tetrahedron_povm(), qutrit_povm()):
        dil = q.naimark_dilate(povm)
        for _ in range(10):
            rho = q.random_density_matrix(povm.dim, RNG)
            got = dil.probabilities(rho)
            assert np.max(np.abs(got - dilation_probabilities_on_full_space(dil, rho))) < 1e-14
            assert np.max(np.abs(got - q.born_probabilities(rho, povm))) < 1e-12


def depolarizing_kraus_by_matrix_powers(p, d):
    """The Weyl Kraus set as products of powers of the shift and clock matrices."""
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    ops = []
    for a in range(d):
        for b in range(d):
            w = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            coeff = math.sqrt(1 - p + p / d**2) if (a, b) == (0, 0) else math.sqrt(p) / d
            ops.append(coeff * w)
    return ops


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
def test_depolarizing_kraus_set_matches_matrix_powers(p, d):
    got = q.depolarizing_channel(p, d).kraus
    want = depolarizing_kraus_by_matrix_powers(p, d)
    assert len(got) == d * d
    assert max(np.max(np.abs(g - w)) for g, w in zip(got, want)) <= 1e-14


@pytest.mark.parametrize("module, name", [
    ("qilab", "standard_state"), ("qilab.states", "standard_state"),
    ("qilab", "unitary_channel"), ("qilab.states", "unitary_channel"),
    ("qilab.chsh", "measurement_basis"),
])
def test_removed_names_are_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("d", [2, 3])
def test_depolarizing_channel_action(d):
    ch = q.depolarizing_channel(0.37, d)
    rho = q.random_density_matrix(d, RNG)
    out = q.apply_channel(ch, rho)
    want = 0.63 * rho.mat + 0.37 * np.eye(d) / d
    assert np.allclose(out.mat, want, atol=1e-10)


def test_quantum_instrument_averages_to_channel():
    ch = q.depolarizing_channel(0.5, 2)
    rho = q.random_density_matrix(2, RNG)
    branches = q.quantum_instrument(ch, rho)
    avg = sum(p * s.mat for p, s in branches)
    assert np.allclose(avg, q.apply_channel(ch, rho).mat, atol=1e-10)
    assert abs(sum(p for p, _ in branches) - 1) < 1e-10


def test_bloch_roundtrip_and_purity():
    for _ in range(10):
        v = RNG.normal(size=3)
        v = v / np.linalg.norm(v) * RNG.uniform(0, 1)
        rho = q.bloch_state(v)
        assert np.allclose(q.bloch_vector(rho), v, atol=1e-12)
    psi = q.random_pure_state(2, RNG)
    assert abs(np.linalg.norm(q.bloch_vector(psi.density())) - 1) < 1e-10
    for bad in ([1.0, 1.0, 1.0], [0.0, math.nan, 0.0], [math.inf, 0.0, 0.0]):
        with pytest.raises(ValueError):
            q.bloch_state(bad)


def test_state_zoo():
    d = 3
    f = swap_operator(d)
    assert np.allclose(q.werner_symmetric(d).mat, (np.eye(9) + f) / (d * (d + 1)))
    assert np.allclose(q.werner_antisymmetric(d).mat, (np.eye(9) - f) / (d * (d - 1)))
    rho = q.noisy_epr(0.25)
    phi = q.phi_plus().density().mat
    assert np.allclose(rho.mat, 0.25 * phi + 0.75 * np.eye(4) / 4)
    basis = q.bell_basis()
    gram = np.array([[abs(np.vdot(a.amps, b.amps)) for a in basis] for b in basis])
    assert np.allclose(gram, np.eye(4), atol=1e-12)
    # GHZ and W single-party marginals
    ghz_m = q.ghz_state().marginal([0]).mat
    assert np.allclose(ghz_m, np.eye(2) / 2)
    w_m = q.w_state().marginal([0]).mat
    assert np.allclose(w_m, np.diag([2 / 3, 1 / 3]))


@pytest.mark.parametrize("keep", [[0], [2, 0], [1, 1, 3], [3, 1, 0, 2], []])
def test_pure_marginal_matches_partial_trace_of_density(keep):
    dims = (2, 3, 2, 2)
    psi = q.random_pure_state(dims, RNG)
    got = psi.marginal(keep)
    want = partial_trace(psi.density().mat, dims, keep)
    assert got.dims == tuple(dims[k] for k in sorted(set(keep)))
    assert np.max(np.abs(got.mat - want)) < 1e-14
    with pytest.raises(IndexError):
        psi.marginal([0, 4])


def test_marginals_read_a_single_subsystem_index():
    psi = q.random_pure_state((2, 3), RNG)
    for i in range(2):
        assert np.array_equal(psi.marginal(i).mat, psi.marginal([i]).mat)
        assert np.array_equal(psi.density().marginal(i).mat, psi.density().marginal([i]).mat)
    assert psi.marginal(1).dims == psi.density().marginal(1).dims == (3,)


def test_tetrahedron_povm_is_valid():
    povm = q.tetrahedron_povm()
    total = sum(povm.elements)
    assert np.allclose(total, np.eye(2), atol=1e-12)
    for e in povm.elements:
        assert np.min(np.linalg.eigvalsh(e)) > -1e-12


def test_pauli_rotation_matches_expm():
    axis = RNG.normal(size=3)
    angle = 1.234
    u = q.pauli_rotation(axis, angle)
    n = axis / np.linalg.norm(axis)
    h = n[0] * q.states.PAULI_X + n[1] * q.states.PAULI_Y + n[2] * q.states.PAULI_Z
    assert np.allclose(u, scipy.linalg.expm(1j * angle / 2 * h), atol=1e-12)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_pauli_rotation_reads_a_huge_axis_as_its_direction():
    assert np.array_equal(q.pauli_rotation([1e200, 0, 0], 1.0), q.pauli_rotation([1, 0, 0], 1.0))
    for axis in ([1.0, 2.0, 2.0], [0.0, -3.0, 4.0]):  # scaling by 2^660 is exact
        assert np.array_equal(q.pauli_rotation(np.multiply(axis, 2.0**660), 1.0),
                              q.pauli_rotation(axis, 1.0))


def test_random_unitary_and_separable_sampler():
    u = q.random_unitary(4, RNG)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10
    s = q.random_separable_state(2, 3, RNG)
    assert s.dims == (2, 3)
    assert abs(np.trace(s.mat) - 1) < 1e-10


def test_kraus_channel_validation():
    with pytest.raises(ValueError):
        q.KrausChannel((np.eye(2) * 0.5,))
    for bad in (math.nan, math.inf, -math.inf):
        for k in (np.array([[bad, 0], [0, 1]]), np.array([[1, bad], [0, 1]])):
            with pytest.raises(ValueError):
                q.KrausChannel((k,))
        with pytest.raises(ValueError):
            q.KrausChannel((np.eye(2) / math.sqrt(2), np.full((2, 2), bad)))
    # K^dag K overflows to inf, and to inf - inf off the diagonal: rejected without a warning
    for k in (np.array([[1e200, 0], [0, 1]]), np.array([[1e200, 1e200], [1e200, -1e200]])):
        with pytest.raises(ValueError):
            q.KrausChannel((k,))
    with pytest.raises(ValueError):
        q.Povm((np.eye(2) * 0.5,))


def test_channels_keep_the_subsystem_split():
    rho = q.random_density_matrix((2, 2), np.random.default_rng(3))
    ch = q.depolarizing_channel(0.3, 4)
    out = q.apply_channel(ch, rho)
    assert out.dims == (2, 2)
    assert np.allclose(out.marginal([1]).mat, 0.7 * rho.marginal([1]).mat + 0.3 * np.eye(2) / 2)
    assert all(branch.dims == (2, 2) for _, branch in q.quantum_instrument(ch, rho))
    # a channel onto another space gives one system of its output dimension
    trace_a = q.KrausChannel([np.kron(np.eye(2)[[i]], np.eye(2)) for i in range(2)])
    assert q.apply_channel(trace_a, rho).dims == (2,)
    assert all(branch.dims == (2,) for _, branch in q.quantum_instrument(trace_a, rho))
