import itertools
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

import qilab as q
from cli_golden import perfbench_workloads
from qilab.schur import _affine_maps, _schur_weyl_basis
from qilab.separability import (
    MEMORY,
    WITNESS_EVERY,
    WITNESS_TOL,
    FeasibilityReport,
    FeasStatus,
    _marginal_power,
    _max_clique,
    _project_psd_blocks,
)
from qilab.tensor import partial_trace, permutation_operator, tensor, trace_distance
from tests_helpers_schur import (
    from_cc,
    symmetrize_b,
    to_cc,
    to_schur_weyl_blocks,
    u_correction,
    u_marginal,
)

RNG = np.random.default_rng(31)
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_ppt_phi_plus_spectrum():
    v = q.ppt_check(q.phi_plus().density())
    assert not v.is_ppt
    assert np.allclose(v.spectrum, [0.5, 0.5, 0.5, -0.5], atol=1e-12)
    assert v.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)


def test_ppt_on_separable_states():
    for _ in range(20):
        s = q.random_separable_state(2, 2, RNG)
        assert q.ppt_check(s).is_ppt


def test_noisy_epr_ppt_crossover():
    assert q.ppt_check(q.noisy_epr(0.3)).is_ppt
    assert not q.ppt_check(q.noisy_epr(0.4)).is_ppt
    # closed form: min eigenvalue is (1 - p)/4 - p/2
    for p in (0.1, 0.5, 0.9):
        v = q.ppt_check(q.noisy_epr(p))
        assert v.min_eigenvalue == pytest.approx((1 - p) / 4 - p / 2, abs=1e-12)


def test_flip_witness():
    w = q.flip_witness()
    assert q.witness_value(w, q.phi_plus().density()) == pytest.approx(-1.0, abs=1e-12)
    assert q.witness_value(w, q.maximally_mixed(4)) == pytest.approx(0.5, abs=1e-12)


def test_chsh_witness_values():
    w = q.chsh_witness()
    assert q.witness_value(w, q.phi_plus().density()) == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
    for _ in range(50):
        s = q.random_separable_state(2, 2, RNG)
        assert q.witness_value(w, s) >= -1e-9


def test_eigen_witness():
    rho = q.noisy_epr(0.8)
    w = q.eigen_witness(rho)
    assert q.witness_value(w, rho) < 0
    for _ in range(30):
        s = q.random_separable_state(2, 2, RNG)
        assert q.witness_value(w, s) >= -1e-9
    with pytest.raises(ValueError):
        q.eigen_witness(q.noisy_epr(0.1))  # PPT: no negative eigenvector


def test_k_extendibility_phi_plus_matches_sdp_oracle():
    rep = q.k_extendibility(q.phi_plus().density(), 2)
    assert rep.status is FeasStatus.INFEASIBLE_EVIDENCE
    assert rep.residual >= 0.05
    oracle = json.loads((FIXTURES / "phi_plus_k2_sdp_oracle.json").read_text())
    assert rep.residual == pytest.approx(oracle["distance_affine_to_psd"], abs=5e-4)
    assert oracle["max_min_eigenvalue"] < -1e-3  # independent infeasibility proof


def assert_valid_extension(ext, rho, k, tol=1e-6):
    """PSD, unit trace, every A B_j marginal equal to rho, B-swap invariant."""
    d_a, d_b = rho.dims
    dims = (d_a,) + (d_b,) * k
    assert np.min(np.linalg.eigvalsh((ext + ext.conj().T) / 2)) >= -tol
    assert abs(np.trace(ext) - 1) < tol
    for j in range(1, k + 1):
        marg = partial_trace(ext, dims, [0, j])
        assert np.max(np.abs(marg - rho.mat)) < tol
    for perm in itertools.permutations(range(k)):
        p = tensor(np.eye(d_a), permutation_operator(d_b, perm))
        assert np.max(np.abs(p @ ext @ p.conj().T - ext)) < tol


def random_operator(dim):
    return RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))


@pytest.mark.parametrize("d_a,d_b,k", [(2, 2, 3), (2, 3, 2), (3, 2, 4)])
def test_symmetrize_b_is_the_average_over_all_b_permutations(d_a, d_b, k):
    x = random_operator(d_a * d_b**k)
    perms = [tensor(np.eye(d_a), permutation_operator(d_b, perm))
             for perm in itertools.permutations(range(k))]
    expected = sum(p @ x @ p.conj().T for p in perms) / len(perms)
    assert np.max(np.abs(symmetrize_b(x, d_a, d_b, k) - expected)) <= 1e-12


@pytest.mark.parametrize("d_a,d_b,k", [(2, 2, 3), (2, 3, 2), (3, 2, 4)])
def test_marginal_inverse_matches_pinv_of_probed_map(d_a, d_b, k):
    # probe L(D) = tr_{B2..Bk} sym(D x I/d^{k-1}) on the A B_1 basis
    d_ab = d_a * d_b
    dims = (d_a,) + (d_b,) * k
    eye_rest = np.eye(d_b ** (k - 1)) / d_b ** (k - 1)
    images = np.empty((d_ab * d_ab, d_ab * d_ab), dtype=complex)
    for col in range(d_ab * d_ab):
        e = np.zeros(d_ab * d_ab, dtype=complex)
        e[col] = 1.0
        big = symmetrize_b(tensor(e.reshape(d_ab, d_ab), eye_rest), d_a, d_b, k)
        images[:, col] = partial_trace(big, dims, [0, 1]).reshape(-1)
    l_inv = np.linalg.pinv(images)
    for _ in range(3):
        m = random_operator(d_ab)
        expected = (l_inv @ m.reshape(-1)).reshape(d_ab, d_ab)
        got = from_cc(_marginal_power(to_cc(m, d_a, d_b), k, -1), d_a, d_b)
        assert np.max(np.abs(got - expected)) <= 1e-12
        # L^{1/2} applied twice is L
        root = _marginal_power(_marginal_power(to_cc(m, d_a, d_b), k, 0.5), k, 0.5)
        expected = (images @ m.reshape(-1)).reshape(d_ab, d_ab)
        assert np.max(np.abs(from_cc(root, d_a, d_b) - expected)) <= 1e-12


def test_k_extendibility_feasible_returns_valid_extension():
    s = q.random_separable_state(2, 2, RNG)
    rho = q.DensityMatrix(0.85 * s.mat + 0.15 * np.eye(4) / 4, (2, 2))
    rep = q.k_extendibility(rho, 3)
    assert rep.status is FeasStatus.FEASIBLE
    assert_valid_extension(rep.extension, rho, 3)


def test_k_extendibility_valid_extension_qutrit_b():
    s = q.random_separable_state(2, 3, RNG)
    rho = q.DensityMatrix(0.7 * s.mat + 0.3 * np.eye(6) / 6, (2, 3))
    rep = q.k_extendibility(rho, 3)
    assert rep.status is FeasStatus.FEASIBLE
    assert_valid_extension(rep.extension, rho, 3)


def test_k_extendibility_large_k_stays_small():
    # 7! dense 256 x 256 permutation operators would need about 5 GB
    tracemalloc.start()
    try:
        rep = q.k_extendibility(q.noisy_epr(0.5), 7, max_iterations=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.iterations == 1  # certified at the first check
    assert rep.status is FeasStatus.INFEASIBLE_EVIDENCE  # p = 0.5 > 3/7, the k = 7 threshold
    assert peak < 64 * 2**20
    assert q.check_extendibility_witness(rep.witness, q.noisy_epr(0.5), 7)


def test_k_extendibility_without_a_positive_bound_is_undetermined():
    # p = 0.3 < 3/7: 7-extendible, and two iterations neither converge nor certify
    rep = q.k_extendibility(q.noisy_epr(0.3), 7, max_iterations=2)
    assert (rep.status, rep.iterations, rep.witness) == (FeasStatus.UNDETERMINED, 2, None)


def lift_min_eigenvalue(w, d_a, d_b, k):
    """lam_min of sym(w x I_{B2..Bk}), from its Schur-Weyl blocks."""
    correction = _affine_maps(d_b, k)[1]
    return float(np.linalg.eigvalsh(d_b ** (k - 1) * correction(to_cc(w, d_a, d_b))).min())


def witness_bound(w, rho, k):
    """-tr(W rho) / |sym(W x I_{B2..Bk})|_F: the distance from the PSD cone to the affine
    set that the witness W alone certifies, with the lift built in full space."""
    d_a, d_b = rho.dims
    lift = symmetrize_b(tensor(w, np.eye(d_b ** (k - 1))), d_a, d_b, k)
    return -q.witness_value(w, rho) / np.linalg.norm(lift)


def assert_certified(rep, rho, k):
    """A report that ends at a passing witness and reports the bound that witness gives."""
    assert rep.status is FeasStatus.INFEASIBLE_EVIDENCE
    assert q.check_extendibility_witness(rep.witness, rho, k)
    assert abs(rep.residual - witness_bound(rep.witness, rho, k)) <= 1e-12 + 1e-9 * rep.residual


def test_grid_infeasible_evidence_carries_a_passing_witness():
    infeasible = 0
    for c in perfbench_workloads().extend_cases(1):
        rho = q.DensityMatrix(c.rho, (c.d_a, c.d_b))
        rep = q.k_extendibility(rho, c.k)
        if rep.status is FeasStatus.INFEASIBLE_EVIDENCE:
            infeasible += 1
            assert rep.iterations == 1
            assert_certified(rep, rho, c.k)
            assert not q.check_extendibility_witness(-rep.witness, rho, c.k)
        else:
            assert rep.witness is None
    assert infeasible == 10


@pytest.mark.parametrize("d_a,d_b,k", [(3, 3, 2), (3, 2, 3)])
def test_noisy_random_pure_states_are_certified_early(d_a, d_b, k):
    # 30 % white noise leaves these entangled states outside the k-extendible set; the
    # dual bound turns positive within a few checks, long before the primal residual settles
    rng = np.random.default_rng(7)
    for _ in range(3):
        psi = q.random_pure_state(d_a * d_b, rng).amps
        rho = q.DensityMatrix(0.7 * np.outer(psi, psi.conj()) + 0.3 * np.eye(d_a * d_b) / (d_a * d_b),
                              (d_a, d_b))
        rep = q.k_extendibility(rho, k)
        assert rep.iterations <= 100
        assert_certified(rep, rho, k)


def test_unshifted_witness_fails():
    # W = mu I - d_B^{1-k} D from the first iteration, rebuilt here from the affine maps
    rho = q.phi_plus().density()
    rep = q.k_extendibility(rho, 2, max_iterations=1)
    assert rep.status is FeasStatus.INFEASIBLE_EVIDENCE
    marginal, correction, _ = _affine_maps(2, 2)
    rho_cc = to_cc(rho.mat, 2, 2)
    y = _project_psd_blocks(correction(_marginal_power(rho_cc, 2, -1)))
    d = from_cc(_marginal_power(rho_cc - marginal(y), 2, -1), 2, 2) / 2
    mu = -lift_min_eigenvalue(-d, 2, 2, 2)  # lam_max of step = sym(d x I)
    assert mu == pytest.approx(0.0208, abs=1e-4)
    assert np.max(np.abs(rep.witness - (mu * np.eye(4) - d))) <= 1e-12
    assert lift_min_eigenvalue(rep.witness, 2, 2, 2) >= -1e-15
    assert q.check_extendibility_witness(rep.witness, rho, 2)
    assert not q.check_extendibility_witness(rep.witness - mu * np.eye(4), rho, 2)


def test_witness_is_nonnegative_on_separable_and_extendible_states():
    w = q.k_extendibility(q.phi_plus().density(), 2).witness
    rng = np.random.default_rng(41)
    for _ in range(50):
        assert q.witness_value(w, q.random_separable_state(2, 2, rng)) >= -1e-12
    for p in np.linspace(0, 2 / 3, 9):  # noisy EPR is 2-extendible up to p = 2/3
        assert q.witness_value(w, q.noisy_epr(p)) >= -1e-12


def isotropic_state(d, fidelity):
    phi = q.phi_plus(d).density().mat
    return q.DensityMatrix(fidelity * phi + (1 - fidelity) * (np.eye(d * d) - phi) / (d * d - 1),
                           (d, d))


@pytest.mark.parametrize("d,k,offset", [
    pytest.param(d, k, offset, id=f"{d}-{k}" if offset == 0.01 else f"{d}-{k}-near")
    for offset in (0.01, 1e-7) for d, k in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4), (2, 5)]])
def test_isotropic_state_is_k_extendible_up_to_its_threshold(d, k, offset):
    threshold = (k + d - 1) / (k * d)  # of the fidelity with Phi+_d
    below = q.k_extendibility(isotropic_state(d, threshold - offset), k)
    assert below.status is FeasStatus.FEASIBLE
    # above it the first bound is already positive, however small the distance
    rho = isotropic_state(d, threshold + offset)
    above = q.k_extendibility(rho, k)
    assert (above.status, above.iterations) == (FeasStatus.INFEASIBLE_EVIDENCE, 1)
    assert q.check_extendibility_witness(above.witness, rho, k)


def tiles_state():
    """The bound entangled state (I - sum of the five tiles UPB projectors)/4 on C^3 x C^3."""
    e = np.eye(3)
    minus = [(e[0] - e[1]) / math.sqrt(2), (e[1] - e[2]) / math.sqrt(2)]
    uniform = e.sum(axis=0) / math.sqrt(3)
    upb = [np.kron(e[0], minus[0]), np.kron(minus[0], e[2]), np.kron(e[2], minus[1]),
           np.kron(minus[1], e[0]), np.kron(uniform, uniform)]
    return q.DensityMatrix((np.eye(9) - sum(np.outer(v, v) for v in upb)) / 4, (3, 3))


def test_tiles_state_is_ppt_and_certified_not_three_extendible():
    rho = tiles_state()
    assert q.ppt_check(rho).is_ppt
    assert_certified(q.k_extendibility(rho, 3, max_iterations=200), rho, 3)


def k_extendibility_full_space(rho, k, eps_feasible=1e-7, max_iterations=5000):
    """The solver's loop on the full d_A d_B^k operator, as the block solver's oracle:
    Dykstra's x + p as one iterate z, the dual bound on step = x - y, which ends the run
    with that bound once positive, and the safeguarded Anderson step on z with the
    full-space step as its residual."""
    d_a, d_b = rho.dims
    dim = d_a * d_b**k
    dims_ext = (d_a,) + (d_b,) * k
    eye_rest = np.eye(d_b ** (k - 1)) / d_b ** (k - 1)

    def project_affine(x):
        y = symmetrize_b(x, d_a, d_b, k)
        marg = to_cc(rho.mat - partial_trace(y, dims_ext, [0, 1]), d_a, d_b)
        delta = from_cc(_marginal_power(marg, k, -1), d_a, d_b)
        return y + symmetrize_b(tensor(delta, eye_rest), d_a, d_b, k)

    def project_psd(x):
        vals, vecs = np.linalg.eigh((x + x.conj().T) / 2)
        return (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T

    def reals(x):
        return np.ascontiguousarray(x).reshape(-1).view(float)

    z = project_affine(tensor(rho.mat, eye_rest))
    zs, steps = [], []  # Anderson memory: T(z) = z + step and step of accepted iterates
    plain, accepted = None, math.inf
    for it in itertools.count(1):
        y = project_psd(z)
        x = project_affine(y)
        step = x - y
        residual = float(np.linalg.norm(step))
        if plain is not None and residual > (1 - 1e-12) * accepted:
            z, plain, residual = plain, None, accepted
            zs.clear()
            steps.clear()
            if it == max_iterations:
                break
            continue
        accepted = residual
        if residual <= eps_feasible and np.min(np.linalg.eigvalsh((x + x.conj().T) / 2)) >= -1e-6:
            return FeasibilityReport(FeasStatus.FEASIBLE, residual, it, x)
        if it == 1 or it % WITNESS_EVERY == 0 or it == max_iterations:
            mu = max(0.0, float(np.max(np.linalg.eigvalsh((step + step.conj().T) / 2))))
            gap = np.vdot(step, x).real - mu
            if gap > WITNESS_TOL:
                bound = gap / np.linalg.norm(step - mu * np.eye(dim))
                return FeasibilityReport(FeasStatus.INFEASIBLE_EVIDENCE, bound, it, None)
        if it == max_iterations:
            break
        t = z + step
        z, plain = t, None
        zs.append(t)
        steps.append(step)
        del zs[:-MEMORY - 1], steps[:-MEMORY - 1]
        if len(zs) > 1:
            dg = np.diff([reals(s) for s in steps], axis=0)
            gamma = np.linalg.lstsq(dg.T, reals(step), rcond=1e-10)[0]
            z, plain = t - np.tensordot(gamma, np.diff(zs, axis=0), axes=1), t
    return FeasibilityReport(FeasStatus.UNDETERMINED, residual, it, None)


def extension_inputs(d_a, d_b):
    """Maximally entangled, noisy maximally entangled and separable states on C^d_a x C^d_b."""
    r = min(d_a, d_b)
    v = np.zeros(d_a * d_b)
    v[[i * d_b + i for i in range(r)]] = 1 / math.sqrt(r)
    phi = np.outer(v, v)
    sep_state = q.random_separable_state(d_a, d_b, np.random.default_rng(d_a * 10 + d_b))
    return [phi, 0.5 * phi + 0.5 * np.eye(d_a * d_b) / (d_a * d_b),
            0.8 * sep_state.mat + 0.2 * np.eye(d_a * d_b) / (d_a * d_b)]


FULL_SPACE_CELLS = [(2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 3, 2),
                    (2, 3, 3), (3, 2, 4), (2, 4, 2), (3, 3, 2)]


@pytest.mark.parametrize("d_a,d_b,k", FULL_SPACE_CELLS)
def test_k_extendibility_matches_full_space_loop(d_a, d_b, k):
    for mat in extension_inputs(d_a, d_b):
        rho = q.DensityMatrix(mat, (d_a, d_b))
        got, want = q.k_extendibility(rho, k), k_extendibility_full_space(rho, k)
        assert (got.status, got.iterations) == (want.status, want.iterations)
        assert abs(got.residual - want.residual) <= 1e-12 + 1e-9 * want.residual
        if want.extension is None:
            assert got.extension is None
        else:
            assert np.max(np.abs(got.extension - want.extension)) <= 1e-10


@pytest.mark.parametrize("d_a,d_b,k", [(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 2)])
def test_k_extendibility_real_and_complex_arithmetic_agree(d_a, d_b, k, monkeypatch):
    # a local phase unitary makes a real state complex and leaves k-extendibility alone
    u = tensor(np.diag(1j ** np.arange(d_a)), np.eye(d_b))
    u_ext = tensor(np.diag(1j ** np.arange(d_a)), np.eye(d_b ** k))
    dtypes = []
    psd_step = q.separability._project_psd_blocks

    def recording_psd_step(z):
        dtypes.append(z.dtype)
        return psd_step(z)

    monkeypatch.setattr(q.separability, "_project_psd_blocks", recording_psd_step)
    for mat in extension_inputs(d_a, d_b)[:2]:  # Phi+ and noisy Phi+, both real
        assert not mat.imag.any()
        real = q.k_extendibility(q.DensityMatrix(mat, (d_a, d_b)), k)
        assert set(dtypes) == {np.dtype(float)}
        dtypes.clear()
        cplx = q.k_extendibility(q.DensityMatrix(u @ mat @ u.conj().T, (d_a, d_b)), k)
        assert set(dtypes) == {np.dtype(complex)}
        dtypes.clear()
        assert (cplx.status, cplx.iterations) == (real.status, real.iterations)
        assert abs(cplx.residual - real.residual) <= 1e-12 + 1e-9 * real.residual
        if real.extension is None:
            assert cplx.extension is None
        else:
            assert real.extension.dtype == cplx.extension.dtype == np.complex128
            undone = u_ext.conj().T @ cplx.extension @ u_ext
            assert np.max(np.abs(undone - real.extension)) <= 1e-10


def test_feasible_extension_is_psd_up_to_its_residual():
    # the Weyl bound that lets k_extendibility skip an eigenvalue check of its extension
    inputs = [(mat, (d_a, d_b), k) for d_a, d_b, k in FULL_SPACE_CELLS
              for mat in extension_inputs(d_a, d_b)]
    feasible = 0
    grid = [(c.rho, (c.d_a, c.d_b), c.k) for c in perfbench_workloads().extend_cases(1)]
    for mat, dims, k in inputs + grid:
        rep = q.k_extendibility(q.DensityMatrix(mat, dims), k)
        if rep.status is FeasStatus.FEASIBLE:
            feasible += 1
            assert np.min(np.linalg.eigvalsh(rep.extension)) >= -rep.residual - 1e-12
    assert feasible >= 120


@pytest.mark.parametrize("d_a,d_b,k", [(2, 2, 7), (1, 2, 9), (2, 3, 4), (1, 4, 4), (2, 5, 2)])
def test_block_psd_step_matches_full_eigh_projection(d_a, d_b, k):
    dim = d_a * d_b**k
    for _ in range(2):
        g = random_operator(dim)
        x = symmetrize_b((g + g.conj().T) / (2 * dim), d_a, d_b, k)
        y = _project_psd_blocks(to_schur_weyl_blocks(x, d_a, d_b, k))
        vals, vecs = np.linalg.eigh(x)
        full = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
        assert np.max(np.abs(_affine_maps(d_b, k)[2](y) - full)) <= 1e-12


# tracemalloc peaks of the full-space loop with max_iterations=2, in MB
FULL_SPACE_PEAK_MB = {(2, 16, 2): 32.0, (2, 2, 9): 128.5, (2, 3, 5): 28.9}


def cold_cache_peak(d_a, d_b, k):
    """tracemalloc peak of a two-iteration k_extendibility with every cache cleared."""
    rho = q.random_density_matrix(d_a * d_b, np.random.default_rng(0))
    rho = q.DensityMatrix(rho.mat, (d_a, d_b))
    _affine_maps.cache_clear()
    tracemalloc.start()
    try:
        rep = q.k_extendibility(rho, k, max_iterations=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.iterations == 2
    return peak


@pytest.mark.parametrize("d_a,d_b,k", sorted(FULL_SPACE_PEAK_MB))
def test_k_extendibility_peak_memory_from_a_cold_cache(d_a, d_b, k):
    assert cold_cache_peak(d_a, d_b, k) <= FULL_SPACE_PEAK_MB[d_a, d_b, k] * 2**20


def test_k_extendibility_affine_step_peak_memory_from_a_cold_cache():
    # the affine step reads only the gl(d_B) generators, nothing of d_B^k rows
    assert cold_cache_peak(2, 16, 2) <= 24 * 2**20


AFFINE_CELLS = [(2, 2, 2), (2, 3, 3), (3, 2, 4), (3, 3, 3), (1, 4, 3), (2, 2, 5)]


def padding_mask(d_a, d_b, k):
    """True on the padding of a block stack, whose rows and columns are (a, s), padded in s."""
    _, fills, w = _schur_weyl_basis(d_b, k)
    q_dims = np.array([fill.size for fill in fills])
    keep = np.arange(d_a * w.shape[2]) % w.shape[2] < q_dims[:, None]
    return ~(keep[:, :, None] & keep[:, None, :])


def random_blocks(d_a, d_b, k, rng):
    _, _, w = _schur_weyl_basis(d_b, k)
    n, _, q_max = w.shape
    x = rng.normal(size=(n, d_a * q_max, d_a * q_max)) \
        + 1j * rng.normal(size=(n, d_a * q_max, d_a * q_max))
    return x * ~padding_mask(d_a, d_b, k)


@pytest.mark.parametrize("d_a,d_b,k", AFFINE_CELLS)
def test_generator_maps_match_the_basis_contractions(d_a, d_b, k):
    rng = np.random.default_rng(d_a * 100 + d_b * 10 + k)
    marginal, correction, _ = _affine_maps(d_b, k)
    for _ in range(2):
        x = random_blocks(d_a, d_b, k, rng)
        want = u_marginal(x, d_a, d_b, k)
        assert np.max(np.abs(from_cc(marginal(x), d_a, d_b) - want)) <= 1e-12
        delta = random_operator(d_a * d_b)
        want = u_correction(delta, d_a, d_b, k)
        assert np.max(np.abs(correction(to_cc(delta, d_a, d_b)) - want)) <= 1e-12


@pytest.mark.parametrize("d_a,d_b,k", AFFINE_CELLS)
def test_marginal_of_correction_is_inverted_by_marginal_inverse(d_a, d_b, k):
    marginal, correction, _ = _affine_maps(d_b, k)
    for _ in range(3):
        delta = to_cc(random_operator(d_a * d_b), d_a, d_b)
        assert np.max(np.abs(_marginal_power(marginal(correction(delta)), k, -1) - delta)) <= 1e-12


@pytest.mark.parametrize("d_a,d_b,k", AFFINE_CELLS + [(2, 4, 4), (2, 2, 6), (2, 3, 5)])
def test_embed_matches_the_permutation_average(d_a, d_b, k):
    # embed(X) = sum_lam f_lam sym(W_lam X_lam W_lam^T), sym the average over B permutations
    rng = np.random.default_rng(d_a * 100 + d_b * 10 + k)
    f, _, w = _schur_weyl_basis(d_b, k)
    n, dim, q_max = w.shape
    embed = _affine_maps(d_b, k)[2]
    x = random_blocks(d_a, d_b, k, rng)
    for blocks in (x, x.real.copy()):
        full = np.einsum("lxs,lasAt,lyt->axAy", w * f[:, None, None],
                         blocks.reshape(n, d_a, q_max, d_a, q_max), w, optimize=True)
        want = symmetrize_b(full.reshape(d_a * dim, d_a * dim), d_a, d_b, k)
        got = embed(blocks)
        assert got.dtype == blocks.dtype
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("d_a,d_b,k", AFFINE_CELLS + [(2, 4, 4)])
def test_padding_is_never_read(d_a, d_b, k):
    rng = np.random.default_rng(d_a * 100 + d_b * 10 + k)
    marginal, correction, embed = _affine_maps(d_b, k)
    pad = padding_mask(d_a, d_b, k)
    x = random_blocks(d_a, d_b, k, rng)
    garbage = np.where(pad, 1e3 * (rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape)), x)
    assert np.array_equal(marginal(garbage), marginal(x))
    assert np.array_equal(embed(garbage), embed(x))
    z = correction(to_cc(random_operator(d_a * d_b), d_a, d_b))
    assert not np.any(z[pad])


@pytest.mark.parametrize("d,k", [(2, 2), (2, 5), (3, 3), (4, 3), (3, 4)])
def test_generators_satisfy_the_gl_commutation_relations(d, k):
    _, fills, _ = _schur_weyl_basis(d, k)
    q_dims = [fill.size for fill in fills]
    correction = _affine_maps(d, k)[1]
    # G_lam[c, C] = k d^{k-1} correction(E_cC) at d_A = 1, E_cC kept as in to_cc
    e = np.array([k * d ** (k - 1) * correction(e_cc.reshape(d * d, 1, 1)) for e_cc in np.eye(d * d)])
    e = e.reshape((d, d) + e.shape[1:])
    for l, q_l in enumerate(q_dims):
        g = e[:, :, l, :q_l, :q_l]
        for a, b, c, dd in itertools.product(range(d), repeat=4):
            want = (b == c) * g[a, dd] - (a == dd) * g[c, b]
            assert np.max(np.abs(g[a, b] @ g[c, dd] - g[c, dd] @ g[a, b] - want)) <= 1e-12


def test_k_extendibility_input_validation():
    with pytest.raises(ValueError):
        q.k_extendibility(q.maximally_mixed(4), 2)  # no bipartite dims
    with pytest.raises(ValueError):
        q.k_extendibility(q.phi_plus().density(), 1)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_slater_state_marginal_is_antisymmetric_state(d):
    psi = q.slater_state(d)
    marg = psi.marginal([0, 1]).mat
    assert np.max(np.abs(marg - q.werner_antisymmetric(d).mat)) < 1e-12


def slater_amplitudes_by_loop(d):
    """Oracle: sign by counting inversions pair by pair, index digit by digit."""
    amps = np.zeros(d**d, dtype=complex)
    for perm in itertools.permutations(range(d)):
        idx = 0
        for p in perm:
            idx = idx * d + p
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        amps[idx] = (-1) ** inversions
    amps /= math.sqrt(math.factorial(d))
    return amps


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_slater_state_matches_loop_oracle(d):
    psi = q.slater_state(d)
    assert psi.dims == (d,) * d
    assert psi.amps.tobytes() == slater_amplitudes_by_loop(d).tobytes()  # bit for bit


def test_antisymmetric_pair_is_two_extendible_via_slater():
    # rho_anti x rho_anti on (C3 x C3) admits the explicit 2-extension built
    # from two copies of the Slater state, pairing copies across parties.
    d = 3
    psi = q.slater_state(d)
    big = np.kron(psi.amps, psi.amps)  # systems q1 q2 q3 q1' q2' q3'
    t = big.reshape((d,) * 6)
    # regroup as A=(q1,q1'), B1=(q2,q2'), B2=(q3,q3')
    reordered = t.transpose(0, 3, 1, 4, 2, 5).reshape(d * d, d * d, d * d).reshape(-1)
    ext = np.outer(reordered, reordered.conj())
    dims = (d * d, d * d, d * d)
    target = np.kron(q.werner_antisymmetric(d).mat, q.werner_antisymmetric(d).mat)
    # note A and B1 interleave as (q1,q1',q2,q2') = A x B1 after the regroup
    marg = partial_trace(ext, dims, [0, 1])
    # target lives on (q1,q2,q1',q2'); permute to (q1,q1',q2,q2')
    tt = target.reshape((d,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(d**4, d**4)
    assert np.max(np.abs(marg - tt)) < 1e-12
    swap = permutation_operator(d * d, [1, 0])
    full_swap = tensor(np.eye(d * d), swap)
    assert np.max(np.abs(full_swap @ ext @ full_swap.conj().T - ext)) < 1e-12


def test_h_n_ext_sandwich():
    m = q.phi_plus().density().mat  # h_Sep = 1/2 (max product overlap)
    lower = q.h_sep_sampled(m, (2, 2), starts=16, seed=2)
    assert lower == pytest.approx(0.5, abs=1e-8)
    prev = math.inf
    for n in (1, 2, 3, 4):
        hn = q.h_n_ext(m, (2, 2), n)
        assert lower - 1e-9 <= hn <= 0.5 + 2 / n + 1e-9
        assert hn <= prev + 1e-12
        prev = hn
    assert q.h_n_ext(m, (2, 2), 1) == pytest.approx(1.0, abs=1e-10)


def h_n_ext_dense(m, dims, n):
    """The sandwich (I x Pi_sym) (M x I) (I x Pi_sym) built in full."""
    d_a, d_b = dims
    sand = tensor(np.eye(d_a), q.symmetric_projector(d_b, n))
    op = sand @ tensor(m, np.eye(d_b ** (n - 1))) @ sand
    return float(np.max(np.linalg.eigvalsh((op + op.conj().T) / 2)))


@pytest.mark.parametrize("dims, n_max", [((2, 2), 8), ((2, 3), 5), ((3, 2), 6), ((2, 4), 4)])
def test_h_n_ext_matches_dense_sandwich(dims, n_max):
    dim = dims[0] * dims[1]
    for n in range(1, n_max + 1):
        g = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
        # Hermitian, non-Hermitian, and negative definite (the top eigenvalue
        # of the full sandwich is then the 0 off A x Sym^n once n >= 2)
        for m in ((g + g.conj().T) / 2, g, -g @ g.conj().T - np.eye(dim)):
            assert abs(q.h_n_ext(m, dims, n) - h_n_ext_dense(m, dims, n)) < 1e-12


@pytest.mark.parametrize("d, ns", [(2, (1, 2, 7, 100, 500)), (3, (1, 2, 5, 12))])
def test_h_n_ext_phi_plus_closed_form(d, ns):
    m = q.phi_plus(d).density().mat
    for n in ns:
        assert abs(q.h_n_ext(m, (d, d), n) - (n + d - 1) / (n * d)) < 1e-13


def test_h_n_ext_builds_only_the_symmetric_block():
    m = q.random_density_matrix(8, RNG).mat
    tracemalloc.start()
    try:
        q.h_n_ext(m, (2, 4), 5)  # 2 * 4^5 = 2048 rows in full, 2 * 56 on A x Sym^5
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_h_n_ext_input_validation():
    m = q.phi_plus().density().mat
    for n in (0, -1):
        with pytest.raises(ValueError):
            q.h_n_ext(m, (2, 2), n)
    for bad_m, dims in ((m, (2, 3)), (m[:3], (2, 2)), (m.reshape(-1), (2, 2)), (m, (4, 1, 1))):
        with pytest.raises(ValueError):
            q.h_n_ext(bad_m, dims, 2)


def test_h_sep_sampled_is_lower_bound():
    for _ in range(5):
        g = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        m = (g + g.conj().T) / 2
        lo = q.h_sep_sampled(m, (2, 2), starts=8, seed=4)
        assert lo <= q.h_n_ext(m, (2, 2), 3) + 1e-8


def h_sep_sampled_loop(m, dims, starts=32, seed=0):
    """The alternating ascent one start at a time, two eigh calls per sweep."""
    d_a, d_b = dims
    m = np.asarray(m, dtype=complex).reshape(d_a, d_b, d_a, d_b)

    def ascend(spec, v):
        c = np.einsum(spec, m, v.conj(), v)
        vals, vecs = np.linalg.eigh((c + c.conj().T) / 2)
        return vecs[:, -1], float(vals[-1])

    rng = np.random.default_rng(seed)
    best = -math.inf
    for _ in range(starts):
        b = q.random_pure_state(d_b, rng).amps
        val = -math.inf
        for _ in range(200):
            a, _ = ascend("aBAb,B,b->aA", b)
            b, top = ascend("aBAb,a,A->Bb", a)
            gain, val = top - val, top
            if gain < 1e-12:
                break
        best = max(best, val)
    return best


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (3, 2), (3, 4), (4, 4)])
def test_h_sep_sampled_is_the_per_start_loop(d_a, d_b):
    rng = np.random.default_rng(d_a * 10 + d_b)
    for seed in range(3):
        g = rng.normal(size=(d_a * d_b,) * 2) + 1j * rng.normal(size=(d_a * d_b,) * 2)
        for m in ((g + g.conj().T) / 2, g):
            for starts in (1, 2, 7, 32):
                got = q.h_sep_sampled(m, (d_a, d_b), starts=starts, seed=seed)
                assert got == h_sep_sampled_loop(m, (d_a, d_b), starts, seed)


@pytest.mark.parametrize("starts", [0, -2])
def test_h_sep_sampled_rejects_no_starts(starts):
    with pytest.raises(ValueError, match="starts"):
        q.h_sep_sampled(np.eye(4), (2, 2), starts=starts)


GRAPHS = [
    (3, [(0, 1), (1, 2), (0, 2)], 3),          # triangle
    (3, [(0, 1), (1, 2)], 2),                  # path
    (4, [], 1),                                # empty
    (4, list(itertools.combinations(range(4), 2)), 4),  # K4
    (5, [(i, (i + 1) % 5) for i in range(5)], 2),       # 5-cycle
]


@pytest.mark.parametrize("n,edges,w", GRAPHS)
def test_motzkin_straus(n, edges, w):
    rep = q.motzkin_straus(n, edges)
    assert rep.clique_number == w
    assert rep.optimization_value == pytest.approx(1 - 1 / w, abs=1e-6)


def random_graphs(rng, count, n_max):
    graphs = []
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        density = rng.uniform(0.0, 1.0)
        graphs.append((n, [e for e in itertools.combinations(range(n), 2)
                           if rng.random() < density]))
    return graphs


def test_max_clique_matches_brute_force():
    for n, edges in random_graphs(np.random.default_rng(12), 60, 10):
        eset = set(edges)
        w, clique = _max_clique(n, eset)
        # the largest vertex subset whose pairs are all edges
        want = max(r for r in range(1, n + 1) for c in itertools.combinations(range(n), r)
                   if all(e in eset for e in itertools.combinations(c, 2)))
        assert w == want == len(clique)
        assert all(e in eset for e in itertools.combinations(sorted(clique), 2))


def replicator_ascent(n, edges, p, iterations):
    """Replicator dynamics p_i <- p_i (A p)_i / p^T A p from one start, which
    never decreases p^T A p; returns the value it reaches."""
    adj = np.zeros((n, n))
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1.0
    for _ in range(iterations):
        q_ = p * (adj @ p)
        tot = q_.sum()
        if tot < 1e-15:
            break
        p = q_ / tot
    return float(p @ adj @ p)


def test_motzkin_straus_value_is_not_exceeded_by_replicator_ascent():
    rng = np.random.default_rng(8)
    graphs = [(1, []), (6, []), (2, [(0, 1)]), (20, list(itertools.combinations(range(20), 2)))]
    for n, edges in graphs + random_graphs(rng, 32, 20):
        rep = q.motzkin_straus(n, edges)
        assert rep.optimization_value == pytest.approx(1 - 1 / rep.clique_number, abs=1e-14)
        for p in rng.dirichlet(np.ones(n), size=10):
            assert replicator_ascent(n, edges, p, 300) <= rep.optimization_value + 1e-12
    with pytest.raises(TypeError):
        q.motzkin_straus(3, [(0, 1)], seed=0)


def data_hiding_bound_matrix(d):
    """The bound operator I/(d(d^2-1)) - Phi+/(d^2-1), materialized."""
    phi = q.phi_plus(d).density().mat
    return np.eye(d * d) / (d * (d * d - 1)) - phi / (d * d - 1)


def test_data_hiding_closed_form_matches_matrix():
    for d in (2, 3, 4):
        rep = q.data_hiding_bias(d)
        mat = data_hiding_bound_matrix(d)
        half_norm = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(mat)))
        assert rep.ppt_bias_bound == pytest.approx(half_norm, abs=1e-12)
        assert rep.ppt_bias_bound <= 1 / d + 1e-12
        dist = trace_distance(q.werner_symmetric(d).mat, q.werner_antisymmetric(d).mat)
        assert dist == pytest.approx(rep.global_distance, abs=1e-10)
    assert q.data_hiding_bias(2).ppt_bias_bound == pytest.approx(1 / 3, abs=1e-12)


def test_bcy_inequality_check():
    povm = q.tetrahedron_povm()
    # 1-LOCC style effect: Alice's POVM steers Bob's aligned projector
    m = sum(np.kron(a, q.bloch_state(v).mat)
            for a, v in zip(povm.elements,
                            np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)))
    for k in (1, 2, 4, 8):
        out = q.bcy_inequality_check(q.phi_plus().density(), m, k, samples=100, seed=k)
        assert out["holds"]
        assert out["rhs"] == pytest.approx(math.sqrt(2 * math.log(2) / k))


def test_bcy_biases_match_per_sample_density_loop():
    rho = q.random_density_matrix((2, 3), RNG)
    g = RNG.normal(size=(6, 6)) + 1j * RNG.normal(size=(6, 6))
    m = g @ g.conj().T
    m /= np.linalg.eigvalsh(m)[-1]  # 0 <= M <= I
    out = q.bcy_inequality_check(rho, m, 3, samples=50, seed=9)
    rng = np.random.default_rng(9)  # the same stream: a, then b, per sample
    best = math.inf
    for _ in range(50):
        v = np.kron(q.random_pure_state(2, rng).amps, q.random_pure_state(3, rng).amps)
        best = min(best, abs(float(np.trace(m @ (rho.mat - np.outer(v, v.conj()))).real)))
    assert out["lhs"] == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize("samples", [0, -1])
def test_bcy_inequality_check_rejects_no_samples(samples):
    with pytest.raises(ValueError, match="samples"):
        q.bcy_inequality_check(q.phi_plus().density(), np.eye(4), 2, samples=samples)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must"):
            q.bcy_inequality_check(q.phi_plus().density(), np.eye(4), k)


@pytest.mark.parametrize("eps", [5e-10, 5e-11])
def test_ppt_certificate_allows_for_the_validation_slack(eps):
    # a diagonal, hence separable, state that validation accepts; its partial
    # transpose is itself, so the negative eigenvalue is rho's own, not evidence
    rho = q.DensityMatrix(np.diag([0.5 + eps, 0.5, 0.0, -eps]), (2, 2))
    assert q.ppt_check(rho).is_ppt
    with pytest.raises(ValueError, match="PPT"):
        q.eigen_witness(rho)
