"""States, measurements, channels and a zoo of standard constructions."""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    INPUT_TOL,
    _amplitude_matrix,
    _check_dims,
    _checked_dim,
    _checked_distribution,
    _count,
    _hermitian,
    _is_scalar,
    _ndim,
    _negative_eigenvalue,
    _normalized,
    _operator_on,
    _psd_sqrt,
    _strict_int,
    _subsystems,
    hermitian_eig,
    partial_trace,
    swap_operator,
)

ZERO_PROB = 1e-12

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, PAULI_X, PAULI_Y, PAULI_Z)


class ZeroProbabilityError(ValueError):
    """Conditioning on an outcome whose probability is numerically zero."""


@dataclass(frozen=True)
class PureState:
    """Unit vector on a composite space."""

    amps: np.ndarray
    dims: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "dims", _check_dims(amps.size, self.dims))
        with np.errstate(over="ignore"):  # a huge entry overflows to an inf norm, rejected below
            nrm = np.linalg.norm(amps)
        if not abs(nrm - 1.0) <= 1e-10:  # also rejects NaN
            raise ValueError(f"state vector norm {nrm} is not 1 within 1e-10")

    @property
    def dim(self) -> int:
        return self.amps.size

    def density(self) -> "DensityMatrix":
        _checked_dim(self.dim)
        return DensityMatrix(np.outer(self.amps, self.amps.conj()), self.dims)

    def marginal(self, keep: Sequence[int] | int) -> "DensityMatrix":
        """Reduced state A A^dag from the (kept x rest) amplitude matrix A."""
        keep = _subsystems(keep, len(self.dims))
        a = _amplitude_matrix(self.amps, self.dims, keep)
        _checked_dim(a.shape[0])
        return DensityMatrix(a @ a.conj().T, tuple(self.dims[k] for k in keep))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix; validated on construction."""

    mat: np.ndarray
    dims: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        m = _hermitian(self.mat, "density matrix")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing trace is refused below
            tr = np.trace(m).real
        if not abs(tr - 1.0) <= INPUT_TOL:
            raise ValueError(f"trace {tr} is not 1 within 1e-9")
        lo = _negative_eigenvalue(m, INPUT_TOL)
        if lo is not None:
            raise ValueError(f"matrix has negative eigenvalue {lo}")
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dims", _check_dims(m.shape[0], self.dims))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def marginal(self, keep: Sequence[int] | int) -> "DensityMatrix":
        keep = _subsystems(keep, len(self.dims))
        return DensityMatrix(partial_trace(self.mat, self.dims, keep), tuple(self.dims[k] for k in keep))

    def eigenvalues(self) -> np.ndarray:
        return hermitian_eig(self.mat).eigenvalues


@dataclass(frozen=True)
class Povm:
    """Finite POVM: PSD elements summing to the identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        if _is_scalar(self.elements):
            raise ValueError(f"POVM elements must be a collection of matrices, got {self.elements!r}")
        els = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        if not els:
            raise ValueError("POVM needs at least one element")
        d = els[0].shape[0]
        for e in els:
            if e.shape != (d, d):
                raise ValueError("POVM elements must share one square shape")
            if _negative_eigenvalue(_hermitian(e, "POVM element"), INPUT_TOL) is not None:
                raise ValueError("POVM element not PSD within 1e-9")
        with np.errstate(over="ignore"):  # an overflowing sum is inf, refused below
            total = sum(els)
        if not np.max(np.abs(total - np.eye(d))) <= INPUT_TOL:
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
        if _is_scalar(self.kraus):
            raise ValueError(f"Kraus operators must be a collection of matrices, got {self.kraus!r}")
        ops = tuple(_ndim(np.asarray(k, dtype=complex), 2, "Kraus operator") for k in self.kraus)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        shape = ops[0].shape
        acc = np.zeros((shape[1], shape[1]), dtype=complex)
        for k in ops:
            if k.shape != shape:
                raise ValueError("Kraus operators must share one shape")
            # NaN, inf or huge entries give a NaN or inf sum, which the check rejects
            with np.errstate(over="ignore", invalid="ignore"):
                acc += k.conj().T @ k
        if not np.max(np.abs(acc - np.eye(shape[1]))) <= INPUT_TOL:  # also rejects NaN
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
    p = _checked_distribution(probs, "probs")
    if len(p) != len(states):
        raise ValueError("probability/state count mismatch")
    dims = states[0].dims
    acc = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    for pi, s in zip(p, states):
        rho = s.density() if isinstance(s, PureState) else s
        if rho.dims != dims:
            raise ValueError("ensemble states live on different spaces")
        acc += pi * rho.mat
    return DensityMatrix(acc, dims)


def born_probabilities(rho: DensityMatrix, povm: Povm) -> np.ndarray:
    """Outcome distribution tr(Q_i rho), read through ``tensor._normalized``."""
    if not isinstance(povm, Povm):
        raise ValueError(f"povm must be a Povm, got {povm!r}")
    if povm.dim != rho.dim:
        raise ValueError("POVM / state dimension mismatch")
    return _normalized(np.array([np.trace(q @ rho.mat).real for q in povm.elements]))


def post_measurement(rho: DensityMatrix, projector: np.ndarray) -> tuple[float, DensityMatrix]:
    """Project and renormalize: (p, P rho P / p) for a projector P."""
    p_op = _hermitian(_operator_on(projector, rho.dim), "projector")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing P^2 fails the test
        if not np.max(np.abs(p_op @ p_op - p_op)) <= INPUT_TOL:
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
        """tr P_i (rho x |0><0|), which is tr(P_i[::m, ::m] rho): rho x |0><0| is
        zero off the rows and columns of ancilla value 0, every m-th one."""
        if rho.dim != self.system_dim:
            raise ValueError("POVM / state dimension mismatch")
        m = self.ancilla_dim
        return _normalized(np.array([np.trace(p[::m, ::m] @ rho.mat).real for p in self.projectors]))


def naimark_dilate(povm: Povm) -> NaimarkDilation:
    """Dilate a POVM {Q_i} to projectors P_i = U^dag (I x |i><i|) U.

    The isometry |phi> -> sum_i sqrt(Q_i)|phi> x |i> gives the columns |j>|0>
    of U and one complete QR the rest; measuring the ancilla in the computational
    basis then reproduces the Born statistics of the POVM.
    """
    d, m = povm.dim, len(povm)
    v = np.zeros((d * m, d), dtype=complex)
    for i, q in enumerate(povm.elements):
        v[i::m, :] = _psd_sqrt(q)  # rows of block i (ancilla value i) read sqrt(Q_i)
    u = np.empty((d * m, d * m), dtype=complex)
    u[:, ::m] = v
    u[:, np.arange(d * m) % m != 0] = np.linalg.qr(v, mode="complete")[0][:, d:]
    # I x |i><i| keeps the rows of ancilla value i
    projs = tuple(u[i::m].conj().T @ u[i::m] for i in range(m))
    return NaimarkDilation(u, projs, d, m)


def apply_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """The output state; it keeps rho's subsystem split when its dimension is rho's."""
    if channel.dim_in != rho.dim:
        raise ValueError("channel / state dimension mismatch")
    dims = rho.dims if channel.dim_out == rho.dim else None
    return DensityMatrix(sum(k @ rho.mat @ k.conj().T for k in channel.kraus), dims)


def quantum_instrument(channel: KrausChannel, rho: DensityMatrix) -> list[tuple[float, DensityMatrix]]:
    """Per-Kraus branches (p_i, E_i rho E_i^dag / p_i), skipping p_i ~ 0; dims as in
    ``apply_channel``."""
    if channel.dim_in != rho.dim:
        raise ValueError("channel / state dimension mismatch")
    dims = rho.dims if channel.dim_out == rho.dim else None
    branches = []
    for k in channel.kraus:
        out = k @ rho.mat @ k.conj().T
        p = float(np.trace(out).real)
        if p > ZERO_PROB:
            branches.append((p, DensityMatrix(out / p, dims)))
    return branches


def depolarizing_channel(p: float, d: int = 2) -> KrausChannel:
    """Kraus form of rho -> (1-p) rho + p I/d, for p in [0, 1].

    The Kraus operators are the Weyl operators X^a Z^b, with X^a|j> = |j+a mod d>
    and Z^b|j> = w^{bj}|j> for w = e^{2 pi i/d}: the identity weighted
    sqrt(1 - p + p/d^2) and the other d^2 - 1 weighted sqrt(p)/d.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter {p} outside [0, 1]")
    d = _strict_int(d)
    _checked_dim(d, 2)  # d^2 Kraus operators
    j = np.arange(d)
    a, b = j[:, None, None], j[None, :, None]
    ops = np.zeros((d, d, d, d), dtype=complex)  # ops[a, b] = X^a Z^b
    ops[a, b, (j + a) % d, j] = np.exp(2j * np.pi * (b * j % d) / d)
    ops *= math.sqrt(p) / d
    ops[0, 0] = math.sqrt(1 - p + p / d**2) * np.eye(d)
    return KrausChannel(tuple(ops.reshape(d * d, d, d)))


def pauli_rotation(axis: Sequence[float], angle: float) -> np.ndarray:
    """exp(i angle/2 n.sigma) for the unit axis n along ``axis`` (closed form).

    The axis is divided by its largest |n_i| before its norm is taken, so a
    huge finite axis gives the matrix of its direction.
    """
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"axis must have length 3, got shape {n.shape}")
    scale = np.max(np.abs(n))
    if not (0 < scale < math.inf and math.isfinite(angle)):  # also rejects NaN
        raise ValueError("need a nonzero finite axis and a finite angle")
    n = n / scale
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
    with np.errstate(over="ignore"):  # a huge vector's norm overflows to inf, refused here
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
    d = _strict_int(d)
    v = np.zeros(_checked_dim(d, 2, state=True), dtype=complex)
    v[:: d + 1] = 1.0
    return PureState(v / math.sqrt(d), (d, d))


def ghz_state() -> PureState:
    v = (_ket(0, 0, 0) + _ket(1, 1, 1)) / math.sqrt(2)
    return PureState(v, (2, 2, 2))


def w_state() -> PureState:
    v = (_ket(0, 0, 1) + _ket(0, 1, 0) + _ket(1, 0, 0)) / math.sqrt(3)
    return PureState(v, (2, 2, 2))


def maximally_mixed(d: int) -> DensityMatrix:
    d = _checked_dim(d)
    return DensityMatrix(np.eye(d) / d, (d,))


def werner_symmetric(d: int) -> DensityMatrix:
    """Normalized projector onto the symmetric subspace of C^d x C^d."""
    d = _count(d, 1, "d")
    f = swap_operator(d)
    return DensityMatrix((np.eye(d * d) + f) / (d * (d + 1)), (d, d))


def werner_antisymmetric(d: int) -> DensityMatrix:
    """Normalized projector onto the antisymmetric subspace of C^d x C^d."""
    d = _count(d, 2, "d")
    f = swap_operator(d)
    return DensityMatrix((np.eye(d * d) - f) / (d * (d - 1)), (d, d))


def noisy_epr(p: float) -> DensityMatrix:
    """p |Phi+><Phi+| + (1-p) I/4 on two qubits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter {p} outside [0, 1]")
    phi = phi_plus().density().mat
    return DensityMatrix(p * phi + (1 - p) * np.eye(4) / 4, (2, 2))


def tetrahedron_povm() -> Povm:
    """Four-outcome qubit POVM from tetrahedron Bloch vectors."""
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    els = tuple(bloch_state(v).mat / 2 for v in verts)
    return Povm(els)


# ---------------------------------------------------------------------------
# random sampling helpers (deterministic given the generator)
# ---------------------------------------------------------------------------

def random_pure_state(dims: Sequence[int] | int, rng: np.random.Generator) -> PureState:
    dims = (dims,) if _is_scalar(dims) else tuple(dims)
    d = _checked_dim(math.prod(_strict_int(x) for x in dims), state=True)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(v / np.linalg.norm(v), dims)


def random_density_matrix(dims: Sequence[int] | int, rng: np.random.Generator) -> DensityMatrix:
    dims = (dims,) if _is_scalar(dims) else tuple(dims)
    d = _checked_dim(math.prod(_strict_int(x) for x in dims))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims)


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    d = _checked_dim(d)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_separable_state(d_a: int, d_b: int, rng: np.random.Generator) -> DensityMatrix:
    """Random mixture of four random product pure states."""
    d = _checked_dim(_strict_int(d_a) * _strict_int(d_b))
    w = rng.dirichlet(np.ones(4))
    acc = np.zeros((d, d), dtype=complex)
    for wi in w:
        a = random_pure_state(d_a, rng).amps
        b = random_pure_state(d_b, rng).amps
        v = np.kron(a, b)
        acc += wi * np.outer(v, v.conj())
    return DensityMatrix(acc, (d_a, d_b))
