"""States, measurements, channels and a zoo of standard constructions."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .tensor import (
    _amplitude_matrix,
    _check_dims,
    _check_size,
    hermitian_eig,
    is_hermitian,
    partial_trace,
    swap_operator,
    tensor,
)

PSD_TOL = 1e-9
TRACE_TOL = 1e-9
ZERO_PROB = 1e-12

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, PAULI_X, PAULI_Y, PAULI_Z)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


class ZeroProbabilityError(ValueError):
    """Conditioning on an outcome whose probability is numerically zero."""


def _negative_eigenvalue(m: np.ndarray) -> float | None:
    """The lowest eigenvalue of the exactly Hermitian m if it is below -PSD_TOL, else None.

    A Cholesky factorisation of m + PSD_TOL*I exists exactly when
    lambda_min(m) > -PSD_TOL, up to round-off of order n*u*||m||, the backward
    error of eigvalsh too; it costs n^3/3 flops with no tridiagonal reduction.
    So an accepted m pays one factorisation, and only a failed one runs
    eigvalsh, which applies the -PSD_TOL rule and supplies the eigenvalue.
    """
    shifted = m.copy()
    shifted.flat[:: m.shape[0] + 1] += PSD_TOL
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        lo = float(np.min(np.linalg.eigvalsh(m)))
        return lo if lo < -PSD_TOL else None
    return None


@dataclass(frozen=True)
class PureState:
    """Unit vector on a composite space."""

    amps: np.ndarray
    dims: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "dims", _check_dims(amps.size, self.dims))
        nrm = np.linalg.norm(amps)
        if not abs(nrm - 1.0) <= 1e-10:  # also rejects NaN
            raise ValueError(f"state vector norm {nrm} is not 1 within 1e-10")

    @property
    def dim(self) -> int:
        return self.amps.size

    def density(self) -> "DensityMatrix":
        _check_size(self.dim)
        return DensityMatrix(np.outer(self.amps, self.amps.conj()), self.dims)

    def marginal(self, keep: Sequence[int]) -> "DensityMatrix":
        """Reduced state A A^dag from the (kept x rest) amplitude matrix A."""
        a = _amplitude_matrix(self.amps, self.dims, keep)
        _check_size(a.shape[0])
        kept = tuple(self.dims[k] for k in sorted(set(keep)))
        return DensityMatrix(a @ a.conj().T, kept)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix; validated on construction."""

    mat: np.ndarray
    dims: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        if not is_hermitian(m, PSD_TOL):
            raise ValueError("density matrix is not Hermitian within 1e-9")
        m = (m + m.conj().T) / 2
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} is not 1 within 1e-9")
        lo = _negative_eigenvalue(m)
        if lo is not None:
            raise ValueError(f"matrix has negative eigenvalue {lo}")
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dims", _check_dims(m.shape[0], self.dims))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def marginal(self, keep: Sequence[int]) -> "DensityMatrix":
        sub = partial_trace(self.mat, self.dims, keep)
        kept = tuple(self.dims[k] for k in sorted(set(keep)))
        return DensityMatrix(sub, kept)

    def eigenvalues(self) -> np.ndarray:
        return hermitian_eig(self.mat).eigenvalues


@dataclass(frozen=True)
class Povm:
    """Finite POVM: PSD elements summing to the identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        els = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        if not els:
            raise ValueError("POVM needs at least one element")
        d = els[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for e in els:
            if e.shape != (d, d):
                raise ValueError("POVM elements must share one square shape")
            if not is_hermitian(e, PSD_TOL):
                raise ValueError("POVM element not Hermitian")
            if _negative_eigenvalue((e + e.conj().T) / 2) is not None:
                raise ValueError("POVM element not PSD within 1e-9")
            total += e
        if np.max(np.abs(total - np.eye(d))) > PSD_TOL:
            raise ValueError("POVM elements do not sum to identity within 1e-9")
        object.__setattr__(self, "elements", els)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        shape = ops[0].shape
        acc = np.zeros((shape[1], shape[1]), dtype=complex)
        for k in ops:
            if k.shape != shape:
                raise ValueError("Kraus operators must share one shape")
            # finite entries first: K^dag K on NaN or inf would warn before the check
            if not np.all(np.isfinite(k)):
                raise ValueError("Kraus operators must be finite")
            acc += k.conj().T @ k
        if not np.max(np.abs(acc - np.eye(shape[1]))) <= PSD_TOL:  # also rejects NaN
            raise ValueError("sum of K^dag K is not identity within 1e-9")
        object.__setattr__(self, "kraus", ops)

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]


def from_ensemble(probs: Sequence[float], states: Sequence[PureState | DensityMatrix]) -> DensityMatrix:
    """Mix an ensemble {p_i, rho_i} into a single density matrix."""
    p = np.asarray(probs, dtype=float)
    if len(p) != len(states):
        raise ValueError("probability/state count mismatch")
    if not (np.all(p >= -ZERO_PROB) and abs(p.sum() - 1.0) <= 1e-9):  # also rejects NaN, inf
        raise ValueError("probabilities must be nonnegative and sum to 1")
    dims = states[0].dims
    acc = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    for pi, s in zip(p, states):
        rho = s.density() if isinstance(s, PureState) else s
        if rho.dims != dims:
            raise ValueError("ensemble states live on different spaces")
        acc += pi * rho.mat
    return DensityMatrix(acc, dims)


def born_probabilities(rho: DensityMatrix, povm: Povm) -> np.ndarray:
    """Outcome distribution tr(Q_i rho); clips round-off and renormalizes."""
    if povm.dim != rho.dim:
        raise ValueError("POVM / state dimension mismatch")
    p = np.array([np.trace(q @ rho.mat).real for q in povm.elements])
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def post_measurement(rho: DensityMatrix, projector: np.ndarray) -> tuple[float, DensityMatrix]:
    """Project and renormalize: (p, P rho P / p) for a projector P."""
    p_op = np.asarray(projector, dtype=complex)
    if np.max(np.abs(p_op @ p_op - p_op)) > 1e-9 or not is_hermitian(p_op, 1e-9):
        raise ValueError("projector must satisfy P^2 = P = P^dag within 1e-9")
    prob = float(np.trace(p_op @ rho.mat).real)
    if prob < ZERO_PROB:
        raise ZeroProbabilityError(f"outcome probability {prob} below {ZERO_PROB}")
    return prob, DensityMatrix(p_op @ rho.mat @ p_op / prob, rho.dims)


@dataclass(frozen=True)
class NaimarkDilation:
    """Projective model of a POVM on system x ancilla."""

    unitary: np.ndarray
    projectors: tuple[np.ndarray, ...]
    system_dim: int
    ancilla_dim: int

    def probabilities(self, rho: DensityMatrix) -> np.ndarray:
        anc = np.zeros((self.ancilla_dim, self.ancilla_dim), dtype=complex)
        anc[0, 0] = 1.0
        big = tensor(rho.mat, anc)
        return np.array([np.trace(p @ big).real for p in self.projectors])


def naimark_dilate(povm: Povm) -> NaimarkDilation:
    """Dilate a POVM {Q_i} to projectors P_i = U^dag (I x |i><i|) U.

    The isometry |phi> -> sum_i sqrt(Q_i)|phi> x |i> gives the columns |j>|0>
    of U and one complete QR the rest; measuring the ancilla in the computational
    basis then reproduces the Born statistics of the POVM.
    """
    d, m = povm.dim, len(povm)
    v = np.zeros((d * m, d), dtype=complex)
    for i, q in enumerate(povm.elements):
        eig = hermitian_eig(q)
        vals = np.clip(eig.eigenvalues, 0.0, None)
        # rows of block i (ancilla value i) read sqrt(Q_i)
        v[i::m, :] = (eig.eigenvectors * np.sqrt(vals)) @ eig.eigenvectors.conj().T
    u = np.empty((d * m, d * m), dtype=complex)
    u[:, ::m] = v
    u[:, np.arange(d * m) % m != 0] = np.linalg.qr(v, mode="complete")[0][:, d:]
    # I x |i><i| keeps the rows of ancilla value i
    projs = tuple(u[i::m].conj().T @ u[i::m] for i in range(m))
    return NaimarkDilation(u, projs, d, m)


def apply_channel(channel: KrausChannel, rho: DensityMatrix,
                  dims_out: Sequence[int] | None = None) -> DensityMatrix:
    if channel.dim_in != rho.dim:
        raise ValueError("channel / state dimension mismatch")
    out = sum(k @ rho.mat @ k.conj().T for k in channel.kraus)
    return DensityMatrix(out, dims_out)


def quantum_instrument(channel: KrausChannel, rho: DensityMatrix) -> list[tuple[float, DensityMatrix]]:
    """Per-Kraus branches (p_i, E_i rho E_i^dag / p_i), skipping p_i ~ 0."""
    if channel.dim_in != rho.dim:
        raise ValueError("channel / state dimension mismatch")
    branches = []
    for k in channel.kraus:
        out = k @ rho.mat @ k.conj().T
        p = float(np.trace(out).real)
        if p > ZERO_PROB:
            branches.append((p, DensityMatrix(out / p)))
    return branches


def unitary_channel(u: np.ndarray) -> KrausChannel:
    return KrausChannel((np.asarray(u, dtype=complex),))


def depolarizing_channel(p: float, d: int = 2) -> KrausChannel:
    """Kraus form of rho -> (1-p) rho + p I/d, for p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter {p} outside [0, 1]")
    # Heisenberg-Weyl shift/clock basis gives a Kraus set in any dimension.
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    ops = []
    for a in range(d):
        for b in range(d):
            w = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            coeff = math.sqrt(1 - p + p / d**2) if (a, b) == (0, 0) else math.sqrt(p) / d
            ops.append(coeff * w)
    return KrausChannel(tuple(ops))


def pauli_rotation(axis: Sequence[float], angle: float) -> np.ndarray:
    """exp(i angle/2 n.sigma) for a unit axis n (closed form)."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    s = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    return math.cos(angle / 2) * I2 + 1j * math.sin(angle / 2) * s


def bloch_vector(rho: DensityMatrix) -> np.ndarray:
    """(x, y, z) with rho = (I + x X + y Y + z Z)/2 for a qubit."""
    if rho.dim != 2:
        raise ValueError("Bloch vector is defined for qubits only")
    return np.array([np.trace(s @ rho.mat).real for s in PAULIS[1:]])


def bloch_state(r: Sequence[float]) -> DensityMatrix:
    r = np.asarray(r, dtype=float)
    if r.shape != (3,) or not np.linalg.norm(r) <= 1 + 1e-10:
        raise ValueError("Bloch vector must be length-3 with norm <= 1")
    m = (I2 + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z) / 2
    return DensityMatrix(m)


# ---------------------------------------------------------------------------
# standard state zoo
# ---------------------------------------------------------------------------

def _ket(*bits: int, d: int = 2) -> np.ndarray:
    v = np.zeros(d ** len(bits), dtype=complex)
    idx = 0
    for b in bits:
        idx = idx * d + b
    v[idx] = 1.0
    return v


def bell_basis() -> list[PureState]:
    """[Phi+, Phi-, Psi+, Psi-] on two qubits."""
    r = 1 / math.sqrt(2)
    return [
        PureState(r * (_ket(0, 0) + _ket(1, 1)), (2, 2)),
        PureState(r * (_ket(0, 0) - _ket(1, 1)), (2, 2)),
        PureState(r * (_ket(0, 1) + _ket(1, 0)), (2, 2)),
        PureState(r * (_ket(0, 1) - _ket(1, 0)), (2, 2)),
    ]


def phi_plus(d: int = 2) -> PureState:
    """Maximally entangled state sum_i |ii>/sqrt(d)."""
    v = np.zeros(d * d, dtype=complex)
    for i in range(d):
        v[i * d + i] = 1.0
    return PureState(v / math.sqrt(d), (d, d))


def ghz_state() -> PureState:
    v = (_ket(0, 0, 0) + _ket(1, 1, 1)) / math.sqrt(2)
    return PureState(v, (2, 2, 2))


def w_state() -> PureState:
    v = (_ket(0, 0, 1) + _ket(0, 1, 0) + _ket(1, 0, 0)) / math.sqrt(3)
    return PureState(v, (2, 2, 2))


def maximally_mixed(d: int) -> DensityMatrix:
    return DensityMatrix(np.eye(d) / d, (d,))


def werner_symmetric(d: int) -> DensityMatrix:
    """Normalized projector onto the symmetric subspace of C^d x C^d."""
    f = swap_operator(d)
    return DensityMatrix((np.eye(d * d) + f) / (d * (d + 1)), (d, d))


def werner_antisymmetric(d: int) -> DensityMatrix:
    """Normalized projector onto the antisymmetric subspace of C^d x C^d."""
    if d < 2:
        raise ValueError("antisymmetric state needs d >= 2")
    f = swap_operator(d)
    return DensityMatrix((np.eye(d * d) - f) / (d * (d - 1)), (d, d))


def noisy_epr(p: float) -> DensityMatrix:
    """p |Phi+><Phi+| + (1-p) I/4 on two qubits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter {p} outside [0, 1]")
    phi = phi_plus().density().mat
    return DensityMatrix(p * phi + (1 - p) * np.eye(4) / 4, (2, 2))


def standard_state(name: str, **params):
    """Lookup by name; see the zoo functions for the available states."""
    zoo = {
        "phi_plus": lambda: bell_basis()[0],
        "phi_minus": lambda: bell_basis()[1],
        "psi_plus": lambda: bell_basis()[2],
        "psi_minus": lambda: bell_basis()[3],
        "ghz": ghz_state,
        "w": w_state,
        "maximally_mixed": lambda: maximally_mixed(int(params.get("d", 2))),
        "werner_symmetric": lambda: werner_symmetric(int(params.get("d", 2))),
        "werner_antisymmetric": lambda: werner_antisymmetric(int(params.get("d", 2))),
        "noisy_epr": lambda: noisy_epr(float(params["p"])),
    }
    if name not in zoo:
        raise KeyError(f"unknown state {name!r}; choose from {sorted(zoo)}")
    return zoo[name]()


def tetrahedron_povm() -> Povm:
    """Four-outcome qubit POVM from tetrahedron Bloch vectors."""
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    els = tuple(bloch_state(v).mat / 2 for v in verts)
    return Povm(els)


# ---------------------------------------------------------------------------
# random sampling helpers (deterministic given the generator)
# ---------------------------------------------------------------------------

def random_pure_state(dims: Sequence[int] | int, rng: np.random.Generator) -> PureState:
    if isinstance(dims, (int, np.integer)):
        dims = (int(dims),)
    d = int(np.prod(dims))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(v / np.linalg.norm(v), tuple(dims))


def random_density_matrix(dims: Sequence[int] | int, rng: np.random.Generator,
                          rank: int | None = None) -> DensityMatrix:
    if isinstance(dims, (int, np.integer)):
        dims = (int(dims),)
    d = int(np.prod(dims))
    r = rank or d
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, tuple(dims))


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_separable_state(d_a: int, d_b: int, rng: np.random.Generator,
                           terms: int = 4) -> DensityMatrix:
    """Random mixture of random product pure states."""
    w = rng.dirichlet(np.ones(terms))
    acc = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for wi in w:
        a = random_pure_state(d_a, rng).amps
        b = random_pure_state(d_b, rng).amps
        v = np.kron(a, b)
        acc += wi * np.outer(v, v.conj())
    return DensityMatrix(acc, (d_a, d_b))
