import itertools
import math

import numpy as np
import pytest

import qilab as q
from qilab import chsh as chsh_mod
from qilab.chsh import DeterministicStrategy, QuantumStrategy, _win_probabilities

RNG = np.random.default_rng(17)


def test_classical_enumeration():
    best, achievers = q.chsh_classical_optimum()
    assert best == 0.75
    assert len(achievers) == 8
    # brute-force oracle
    values = []
    for bits in itertools.product((0, 1), repeat=4):
        wins = sum((bits[r] ^ bits[2 + s]) == (r & s)
                   for r in (0, 1) for s in (0, 1))
        values.append(wins / 4)
    assert max(values) == 0.75
    assert sum(v == 0.75 for v in values) == 8


def test_deterministic_strategy_value():
    assert DeterministicStrategy((0, 0), (0, 0)).win_probability() == 0.75
    assert DeterministicStrategy((0, 1), (0, 1)).win_probability() == 0.25


def test_optimal_strategy_hits_quantum_optimum():
    v = q.optimal_strategy().win_probability()
    assert v == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-12)
    assert q.bias(q.optimal_strategy()) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_bell_operator_phi_plus_expectation():
    b = q.bell_operator(*q.optimal_observables())
    phi = q.phi_plus().density().mat
    assert np.trace(b @ phi).real == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    assert np.linalg.norm(b, ord=2) <= q.TSIRELSON + 1e-12


def test_bell_operator_validation():
    with pytest.raises(ValueError):
        q.bell_operator(np.eye(2) * 2, *q.optimal_observables()[1:])
    for bad in (np.full((2, 2), np.nan), np.diag([np.nan, 1.0]), np.diag([np.inf, 1.0]),
                np.array([[0.0, np.inf], [np.inf, 0.0]])):
        with pytest.raises(ValueError):
            q.bell_operator(bad, *q.optimal_observables()[1:])


def random_observable(d=2):
    u = q.random_unitary(d, RNG)
    signs = np.diag(RNG.choice([-1.0, 1.0], size=d))
    return u @ signs @ u.conj().T


def test_tsirelson_bound_random_operators():
    for _ in range(50):
        b = q.bell_operator(random_observable(), random_observable(),
                            random_observable(), random_observable())
        assert np.linalg.norm(b, ord=2) <= q.TSIRELSON + 1e-9


def test_optimizer_reaches_and_never_exceeds():
    res = q.chsh_optimize(starts=8, seed=3)
    assert res.value == pytest.approx(q.QUANTUM_OPTIMUM, abs=1e-9)
    assert res.value <= q.QUANTUM_OPTIMUM + 1e-6


def test_optimizer_product_state_recovers_classical():
    res = q.chsh_optimize(starts=8, seed=5, product_state=True)
    assert res.value == pytest.approx(0.75, abs=1e-9)
    assert res.value <= 0.75 + 1e-6


def test_quantum_strategy_requires_two_qubits():
    with pytest.raises(ValueError):
        QuantumStrategy(q.random_pure_state((2, 2, 2), RNG), (0, 0, 0, 0)).win_probability()


def measurement_basis(theta):
    """Rotated qubit basis: phi_0 = cos t |0> + sin t |1>, phi_1 orthogonal."""
    c, s = math.cos(theta), math.sin(theta)
    return (np.array([c, s], dtype=complex), np.array([-s, c], dtype=complex))


def win_probability_by_questions(angles, psi):
    """Sum over winning (r, s, a, b) of |<phi_a(alice_r)| psi |phi_b(bob_s)>*|^2 / 4."""
    a_bases = [measurement_basis(angles[0]), measurement_basis(angles[1])]
    b_bases = [measurement_basis(angles[2]), measurement_basis(angles[3])]
    total = 0.0
    for r, s in itertools.product((0, 1), repeat=2):
        for a, b in itertools.product((0, 1), repeat=2):
            if (a ^ b) == (r & s):
                total += abs(a_bases[r][a].conj() @ psi @ b_bases[s][b].conj()) ** 2
    return total / 4


def schmidt_state(chi):
    return q.PureState(np.array([math.cos(chi), 0, 0, math.sin(chi)], dtype=complex), (2, 2))


def point_win_probability(x):
    """Objective of chsh_optimize at (alice0, alice1, bob0, bob1, chi), by the loop."""
    return win_probability_by_questions(x[:4], schmidt_state(x[4]).amps.reshape(2, 2))


def test_win_probabilities_match_per_question_loop():
    angles = RNG.uniform(-math.pi, math.pi, size=(40, 4))
    psis = np.array([q.random_pure_state((2, 2), RNG).amps.reshape(2, 2) for _ in range(40)])
    got = _win_probabilities(angles, psis)
    want = [win_probability_by_questions(a, p) for a, p in zip(angles, psis)]
    assert np.max(np.abs(got - want)) <= 1e-12
    strat = QuantumStrategy(q.PureState(psis[0].reshape(-1), (2, 2)), tuple(angles[0]))
    assert strat.win_probability() == pytest.approx(want[0], abs=1e-12)


@pytest.mark.parametrize("seed,product_state", [(0, False), (1, False), (0x5EED, False),
                                                (3, True), (7, True)])
def test_optimizer_angles_attain_the_returned_value(seed, product_state):
    res = q.chsh_optimize(starts=12, seed=seed, product_state=product_state)
    if product_state:
        assert res.schmidt_angle == 0.0
    strat = QuantumStrategy(schmidt_state(res.schmidt_angle), res.angles)
    assert strat.win_probability() == pytest.approx(res.value, abs=1e-12)


def test_optimizer_starts_are_the_per_start_draws(monkeypatch):
    # with no sweeps the result is the first best of the start points themselves
    monkeypatch.setattr(chsh_mod, "MAX_SWEEPS", 0)
    starts, seed = 9, 11
    rng = np.random.default_rng(seed)
    points = [rng.uniform(0, math.pi, size=5) for _ in range(starts)]
    values = [point_win_probability(p) for p in points]
    best = int(np.argmax(values))
    res = q.chsh_optimize(starts=starts, seed=seed)
    assert res.angles == tuple(points[best][:4])
    assert res.schmidt_angle == points[best][4]
    assert res.value == pytest.approx(values[best], abs=1e-12)


def chsh_optimize_per_start(starts, seed, sweep_tol, max_sweeps):
    """Coordinate ascent run one start at a time; (value, params) of each start."""
    rng = np.random.default_rng(seed)
    ends = []
    for _ in range(starts):
        params = rng.uniform(0, math.pi, size=5)
        val = point_win_probability(params)
        for _ in range(max_sweeps):
            prev = val
            for i in range(5):
                f0, f45, f90 = (point_win_probability(np.where(np.arange(5) == i, t, params))
                                for t in (0.0, math.pi / 4, math.pi / 2))
                a, b_c = (f0 + f90) / 2, (f0 - f90) / 2
                params[i] = 0.5 * math.atan2(f45 - a, b_c)
                val = a + math.hypot(b_c, f45 - a)
            if val - prev < sweep_tol:
                break
        ends.append((val, params))
    return ends


@pytest.mark.parametrize("sweep_tol,max_sweeps", [(1e-3, 200), (1e-6, 3), (1.0, 200)])
def test_optimizer_stops_each_start_like_a_per_start_loop(monkeypatch, sweep_tol, max_sweeps):
    # sweep_tol=1.0 stops every start after one sweep; max_sweeps=3 ends on the budget
    monkeypatch.setattr(chsh_mod, "SWEEP_TOL", sweep_tol)
    monkeypatch.setattr(chsh_mod, "MAX_SWEEPS", max_sweeps)
    for seed in (2, 4):
        res = q.chsh_optimize(starts=6, seed=seed)
        ends = chsh_optimize_per_start(6, seed, sweep_tol, max_sweeps)
        assert res.value == pytest.approx(max(v for v, _ in ends), abs=1e-12)
        # the returned point is where one of the starts stopped (ties may pick any)
        assert any(abs(v - res.value) <= 1e-12
                   and np.allclose(x, res.angles + (res.schmidt_angle,), rtol=0, atol=1e-9)
                   for v, x in ends)


@pytest.mark.parametrize("starts", [0, -1])
def test_optimizer_rejects_no_starts(starts):
    with pytest.raises(ValueError):
        q.chsh_optimize(starts=starts)
