"""The CHSH game: classical strategies, measurement-angle strategies,
Bell operators and Tsirelson's bound."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .states import PAULI_X, PAULI_Z, PureState, phi_plus
from .tensor import INPUT_TOL, _checked_dim, _count, _hermitian, tensor

CLASSICAL_OPTIMUM = 0.75
QUANTUM_OPTIMUM = math.cos(math.pi / 8) ** 2  # 1/2 + 1/(2 sqrt 2)
TSIRELSON = 2 * math.sqrt(2)
SWEEP_TOL = 1e-12
MAX_SWEEPS = 200

#: the textbook measurement angles (Alice r=0,1; Bob s=0,1)
OPTIMAL_ANGLES = (0.0, math.pi / 4, math.pi / 8, -math.pi / 8)


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed answers a_r, b_s for each question pair."""

    a: tuple[int, int]
    b: tuple[int, int]

    def win_probability(self) -> float:
        r, s = np.indices((2, 2))
        return float(_WIN[r, s, np.take(self.a, r), np.take(self.b, s)].mean())


@dataclass(frozen=True)
class QuantumStrategy:
    """A shared two-qubit state plus four measurement angles."""

    state: PureState
    angles: tuple[float, float, float, float]  # (alice0, alice1, bob0, bob1)

    def win_probability(self) -> float:
        if self.state.dims != (2, 2):
            raise ValueError("shared state must be two qubits")
        return float(_win_probabilities(np.array([self.angles], dtype=float),
                                        self.state.amps.reshape(1, 2, 2))[0])


#: WIN[r, s, a, b] = 1 when answers a, b win on questions r, s (a xor b = r and s)
_WIN = np.array([(a ^ b) == (r & s) for r, s, a, b in itertools.product((0, 1), repeat=4)],
                dtype=float).reshape(2, 2, 2, 2)


def _win_probabilities(angles: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Win probability of S angle strategies at once.

    ``angles`` has shape (S, 4) (alice0, alice1, bob0, bob1) and ``psi``
    shape (S, 2, 2), each row a normalized two-qubit amplitude matrix.  The
    amplitude of answers (a, b) on questions (r, s) is
    <phi_a(alice_r)| psi |phi_b(bob_s)>* with the real rotated bases
    phi_0(t) = cos t |0> + sin t |1>, phi_1(t) = -sin t |0> + cos t |1>.
    """
    c, s = np.cos(angles), np.sin(angles)
    # bases[x, i, a, :] is basis vector a of angle i of strategy x
    bases = np.stack([np.stack([c, s], axis=-1), np.stack([-s, c], axis=-1)], axis=2)
    amps = np.einsum("xraj,xjk,xsbk->xrsab", bases[:, :2], psi, bases[:, 2:])
    return np.einsum("xrsab,rsab->x", np.abs(amps) ** 2, _WIN) / 4


def chsh_classical_optimum() -> tuple[float, list[DeterministicStrategy]]:
    """Exhaust the 16 deterministic strategies; 8 of them reach 3/4.

    Each value is an exact multiple of 1/4, so the achievers are found by equality.
    """
    strategies = [DeterministicStrategy(bits[:2], bits[2:])
                  for bits in itertools.product((0, 1), repeat=4)]
    values = [s.win_probability() for s in strategies]
    best = max(values)
    return best, [s for s, v in zip(strategies, values) if v == best]


def optimal_strategy() -> QuantumStrategy:
    """|Phi+> with the textbook angles; wins with probability cos^2(pi/8)."""
    return QuantumStrategy(phi_plus(), OPTIMAL_ANGLES)


def optimal_observables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A0 = Z, A1 = X; B0, B1 the +-pi/8 rotated observables."""
    r = 1 / math.sqrt(2)
    b0 = r * np.array([[1, 1], [1, -1]], dtype=complex)
    b1 = r * np.array([[1, -1], [-1, -1]], dtype=complex)
    return PAULI_Z.copy(), PAULI_X.copy(), b0, b1


def bell_operator(a0: np.ndarray, a1: np.ndarray,
                  b0: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """A0 B0 + A0 B1 + A1 B0 - A1 B1 for +-1-valued observables.

    Every such operator has norm at most 2 sqrt(2) (Tsirelson).
    """
    for o in (a0, a1, b0, b1):
        o = _hermitian(o, "observable")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing O^2 fails the test
            if not np.max(np.abs(o @ o - np.eye(o.shape[0]))) <= INPUT_TOL:
                raise ValueError("observables must be finite and square to the identity")
    return (tensor(a0, b0) + tensor(a0, b1) + tensor(a1, b0) - tensor(a1, b1))


def bias(strategy: DeterministicStrategy | QuantumStrategy) -> float:
    """2 P[win] - 1."""
    return 2 * strategy.win_probability() - 1


@dataclass(frozen=True)
class OptimizationResult:
    value: float
    angles: tuple[float, float, float, float]
    schmidt_angle: float
    starts: int


def _schmidt_win_probabilities(params: np.ndarray) -> np.ndarray:
    """Win probabilities of rows (alice0, alice1, bob0, bob1, chi) on the
    shared state cos(chi)|00> + sin(chi)|11>."""
    chi = params[:, 4]
    psi = np.zeros((len(params), 2, 2))
    psi[:, 0, 0], psi[:, 1, 1] = np.cos(chi), np.sin(chi)
    return _win_probabilities(params[:, :4], psi)


def chsh_optimize(starts: int = 32, seed: int = 0,
                  product_state: bool = False) -> OptimizationResult:
    """Coordinate-ascent search over four angles and a Schmidt angle.

    In each coordinate the objective is exactly a + b cos 2t + c sin 2t, so
    the per-coordinate maximizer is computed in closed form from three
    probes.  With ``product_state`` the shared state is pinned to |00>,
    recovering the classical optimum 3/4.  All starts ascend together; a start
    stops once a sweep gains less than SWEEP_TOL, or after MAX_SWEEPS sweeps.
    ``value`` is the win probability of the returned strategy.
    """
    starts = _checked_dim(_count(starts, 1, "starts"), per=112, name="starts")  # 1.7 kB of probes each
    rng = np.random.default_rng(seed)
    params = rng.uniform(0, math.pi, size=(starts, 5))
    if product_state:
        params[:, 4] = 0.0
    free = 4 if product_state else 5
    vals = _schmidt_win_probabilities(params)
    live = np.arange(starts)
    probe_angles = np.array([0.0, math.pi / 4, math.pi / 2])
    for _ in range(MAX_SWEEPS):
        p, prev = params[live], vals[live]
        for i in range(free):
            probes = np.repeat(p[None], 3, axis=0)
            probes[:, :, i] = probe_angles[:, None]
            f0, f45, f90 = _schmidt_win_probabilities(probes.reshape(-1, 5)).reshape(3, -1)
            a = (f0 + f90) / 2
            b_c = (f0 - f90) / 2
            c_c = f45 - a
            p[:, i] = 0.5 * np.arctan2(c_c, b_c)
            val = a + np.hypot(b_c, c_c)
        params[live], vals[live] = p, val
        live = live[~(val - prev < SWEEP_TOL)]
        if live.size == 0:
            break
    # report the objective at the best start's point, not the closed-form
    # peak of its last coordinate step, which can overshoot by an ulp or two
    best = params[int(np.argmax(vals))]
    chi = float(best[4])
    strategy = QuantumStrategy(
        PureState(np.array([math.cos(chi), 0, 0, math.sin(chi)], dtype=complex), (2, 2)),
        tuple(best[:4]))
    return OptimizationResult(strategy.win_probability(), strategy.angles, chi, starts)
