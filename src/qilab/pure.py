"""Pure-state entanglement: Schmidt form, teleportation, distillation,
three-qubit SLOCC classes and the one-body marginal problem."""
from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .entropy import _entropy_bits
from .states import I2, PAULI_X, PAULI_Z, PureState, bell_basis, phi_plus
from .tensor import (_amplitude_matrix, _checked_distribution, _count, _is_scalar, _normalized,
                     _operator_on, _strict_int, _subsystems, tensor)

RANK_TOL = 1e-7
HYPERDET_TOL = 1e-9
_BAND = (0.1, 10.0)  # undetermined band multipliers around a threshold


@dataclass(frozen=True)
class SchmidtDecomposition:
    coefficients: np.ndarray        # descending, nonnegative
    left_basis: np.ndarray          # columns, orthonormal on side A
    right_basis: np.ndarray         # columns, orthonormal on side B
    cut: tuple[int, ...]            # subsystem indices of side A
    dims: tuple[int, ...]

    def reconstruct(self) -> np.ndarray:
        """Amplitudes in the original subsystem ordering."""
        perm = self.cut + tuple(i for i in range(len(self.dims)) if i not in self.cut)
        mat = (self.left_basis * self.coefficients) @ self.right_basis.T
        shaped = mat.reshape([self.dims[i] for i in perm])
        return shaped.transpose(np.argsort(perm)).reshape(-1)

    def rank(self) -> int:
        return int(np.sum(self.coefficients > 1e-12))


def schmidt(psi: PureState, cut: Sequence[int] | int) -> SchmidtDecomposition:
    """Schmidt decomposition across the bipartition (cut | rest)."""
    n = len(psi.dims)
    cut = _subsystems(range(_strict_int(cut)) if _is_scalar(cut) else cut, n)
    if not cut or len(cut) == n:
        raise ValueError(f"cut {tuple(cut)} is not a proper bipartition of {n} subsystems")
    mat = _amplitude_matrix(psi.amps, psi.dims, cut)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    return SchmidtDecomposition(s, u, vh.T, tuple(cut), psi.dims)


def entanglement_entropy(psi: PureState, cut: Sequence[int] | int) -> float:
    """Entropy of the reduced state across the cut, in bits."""
    s = schmidt(psi, cut).coefficients
    return _entropy_bits(_normalized(s * s))


# ---------------------------------------------------------------------------
# teleportation
# ---------------------------------------------------------------------------

_CORRECTIONS = (I2, PAULI_Z, PAULI_X, PAULI_Z @ PAULI_X)


@dataclass(frozen=True)
class TeleportTranscript:
    outcome: int                 # Bell-basis outcome index (Phi+, Phi-, Psi+, Psi-)
    probability: float
    correction: np.ndarray
    output: PureState            # bystanders + Bob's qubit, in that order


def teleport(psi: PureState, seed: int | None = None,
             force_outcome: int | None = None) -> TeleportTranscript:
    """Teleport the last qubit of ``psi`` through a shared |Phi+> pair.

    Any leading subsystems of ``psi`` ride along as untouched bystanders,
    so teleporting half of an entangled state is the same call.  The
    returned output state carries the bystanders followed by Bob's qubit.
    """
    if psi.dims[-1] != 2:
        raise ValueError("the teleported subsystem (last) must be a qubit")
    bys = psi.dims[:-1]
    d_r = int(np.prod(bys)) if bys else 1
    full = np.kron(psi.amps, phi_plus().amps)  # R, A', A, B
    t = full.reshape(d_r, 2, 2, 2)
    probs = np.empty(4)
    residues = []
    for i, eta in enumerate(bell_basis()):
        e = eta.amps.reshape(2, 2).conj()
        v = np.einsum("rabB,ab->rB", t, e)
        p = float(np.vdot(v, v).real)
        probs[i] = p
        residues.append(v)
    if force_outcome is not None:
        outcome = _count(force_outcome, 0, "force_outcome")
        if outcome > 3:
            raise ValueError("force_outcome must be in 0..3")
    else:
        rng = np.random.default_rng(seed)
        outcome = int(rng.choice(4, p=_normalized(probs)))
    p = probs[outcome]  # every outcome has probability 1/4
    v = residues[outcome] / math.sqrt(p)
    fixed = np.einsum("rB,bB->rb", v, _CORRECTIONS[outcome]).reshape(-1)
    out_dims = bys + (2,) if bys else (2,)
    return TeleportTranscript(outcome, p, _CORRECTIONS[outcome],
                              PureState(fixed, out_dims))


def unconditioned_bob_state(psi: PureState) -> np.ndarray:
    """Bob's state averaged over unknown outcomes: the maximally mixed qubit."""
    if psi.dims != (2,):
        raise ValueError("expects a single-qubit message")
    rho = np.outer(psi.amps, psi.amps.conj())
    out = np.zeros((2, 2), dtype=complex)
    for s in (I2, PAULI_X, PAULI_Z @ PAULI_X, PAULI_Z):
        out += s @ rho @ s.conj().T
    return out / 4


# ---------------------------------------------------------------------------
# distillation / dilution bookkeeping
# ---------------------------------------------------------------------------

def distillation_yield(spectrum: Sequence[float], n: int, seed: int = 0) -> float:
    """log2 of the type-class size drawn from n iid copies of the spectrum.

    Samples a type t ~ Multinomial(n, spectrum) and returns the exact
    log2 binomial weight of its class; divided by n this concentrates at
    the Shannon entropy of the spectrum.
    """
    p, n = _checked_distribution(spectrum, "spectrum"), _count(n, 0, "n")
    rng = np.random.default_rng(seed)
    size = math.factorial(n) // math.prod(math.factorial(int(c)) for c in rng.multinomial(n, p))
    return math.log2(size)


def dilution_rank_bound(psi: PureState, cut: Sequence[int] | int,
                        n: int, delta: float) -> int:
    """ceil(n (S + delta)) qubits suffice per the typical-subspace argument."""
    n = _count(n, 1, "n")
    if not 0 <= delta < math.inf:  # also rejects NaN
        raise ValueError("need finite delta >= 0")
    s = entanglement_entropy(psi, cut)
    return math.ceil(n * (s + delta) - 1e-12)


# ---------------------------------------------------------------------------
# three qubits: SLOCC classes and the hyperdeterminant
# ---------------------------------------------------------------------------

class SloccClass(enum.Enum):
    PRODUCT = "Product"
    BIPARTITE_AB = "BipartiteAB"
    BIPARTITE_AC = "BipartiteAC"
    BIPARTITE_BC = "BipartiteBC"
    W = "W"
    GHZ = "GHZ"
    UNDETERMINED = "Undetermined"


def slocc_apply(ops: Sequence[np.ndarray], psi: PureState) -> PureState:
    """Apply local invertible operators and renormalize."""
    if _is_scalar(ops) or len(ops) != len(psi.dims):
        raise ValueError("one operator per subsystem is required")
    big = tensor(*(_operator_on(op, d) for op, d in zip(ops, psi.dims)))
    v = big @ psi.amps
    nrm = np.linalg.norm(v)
    if nrm < 1e-12:
        raise ValueError("operators annihilate the state")
    return PureState(v / nrm, psi.dims)


def hyperdeterminant(psi: PureState) -> complex:
    """Cayley hyperdeterminant of a three-qubit amplitude tensor.

    It is the discriminant b^2 - 4ac of det(A_0 + x A_1) = c + b x + a x^2,
    where A_i is the 2x2 slice of the tensor at first index i.
    """
    if psi.dims != (2, 2, 2):
        raise ValueError("hyperdeterminant is defined for three qubits")
    a0, a1 = psi.amps.reshape(2, 2, 2)

    def det(m):
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]

    c, a = det(a0), det(a1)
    b = det(a0 + a1) - (a + c)
    return b * b - 4 * a * c


def classify_three_qubit(psi: PureState) -> SloccClass:
    """SLOCC class from marginal ranks plus the hyperdeterminant.

    Returns UNDETERMINED (never a silent guess) when a marginal eigenvalue
    or the hyperdeterminant magnitude falls inside the tolerance band
    around its decision threshold.
    """
    if psi.dims != (2, 2, 2):
        raise ValueError("classification is defined for three qubits")
    # the smaller eigenvalue of each one-qubit marginal
    seconds = [float(np.linalg.eigvalsh(psi.marginal([k]).mat)[0]) for k in range(3)]
    if any(_BAND[0] * RANK_TOL <= s <= _BAND[1] * RANK_TOL for s in seconds):
        return SloccClass.UNDETERMINED
    pure_marginals = [s < RANK_TOL for s in seconds]
    n_pure = sum(pure_marginals)
    if n_pure >= 2:
        return SloccClass.PRODUCT
    if n_pure == 1:
        idx = pure_marginals.index(True)
        return (SloccClass.BIPARTITE_BC, SloccClass.BIPARTITE_AC,
                SloccClass.BIPARTITE_AB)[idx]
    hd = abs(hyperdeterminant(psi))
    if _BAND[0] * HYPERDET_TOL <= hd <= _BAND[1] * HYPERDET_TOL:
        return SloccClass.UNDETERMINED
    return SloccClass.GHZ if hd > HYPERDET_TOL else SloccClass.W


# ---------------------------------------------------------------------------
# one-body marginal problem for three qubits
# ---------------------------------------------------------------------------

def three_qubit_spectra_compatible(lmax: Sequence[float]) -> bool:
    """Can (lmax_A, lmax_B, lmax_C) arise as largest marginal eigenvalues?

    Each lambda must lie in [1/2, 1] and satisfy the three polygon-type
    inequalities lambda_i + lambda_j <= 1 + lambda_k, both within 1e-12.
    """
    l = [] if _is_scalar(lmax) else [float(x) for x in lmax]
    if len(l) != 3 or not all(0.5 - 1e-12 <= x <= 1 + 1e-12 for x in l):  # also rejects NaN
        raise ValueError("largest eigenvalues must lie in [1/2, 1]")
    for k in range(3):
        i, j = [x for x in range(3) if x != k]
        if l[i] + l[j] > 1 + l[k] + 1e-12:
            return False
    return True


def three_qubit_state_from_spectra(lmax: Sequence[float]) -> PureState:
    """A pure state a|000> + b|011> + c|101> + d|110> with given marginals.

    Solves a^2 = (l1 + l2 + l3 - 1)/2, b^2 = l1 - a^2, c^2 = l2 - a^2,
    d^2 = l3 - a^2; raises for incompatible spectra.
    """
    if not three_qubit_spectra_compatible(lmax):
        raise ValueError("spectra violate a compatibility inequality")
    l1, l2, l3 = (float(x) for x in lmax)
    a2 = (l1 + l2 + l3 - 1) / 2
    coeffs = [a2, l1 - a2, l2 - a2, l3 - a2]
    coeffs = [max(x, 0.0) for x in coeffs]
    amps = np.zeros(8, dtype=complex)
    amps[[0b000, 0b011, 0b101, 0b110]] = np.sqrt(coeffs)
    amps /= np.linalg.norm(amps)
    return PureState(amps, (2, 2, 2))


def w_polytope_check(lmax: Sequence[float]) -> bool:
    """lambda_A + lambda_B + lambda_C >= 2 (within 1e-9) characterizes W-class marginals."""
    l = [] if _is_scalar(lmax) else [float(x) for x in lmax]
    if len(l) != 3 or not all(map(math.isfinite, l)):
        raise ValueError("need three largest eigenvalues, all finite")
    return sum(l) >= 2 - 1e-9


def largest_marginal_eigenvalues(psi: PureState) -> tuple[float, float, float]:
    return tuple(float(np.linalg.eigvalsh(psi.marginal([k]).mat)[-1])  # type: ignore[return-value]
                 for k in range(len(psi.dims)))
