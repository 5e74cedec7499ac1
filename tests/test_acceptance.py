"""End-to-end acceptance checks. Each test prints one PASS/FAIL line."""
import itertools
import json
import math
import pathlib
from fractions import Fraction

import numpy as np

import qilab as q
from qilab.separability import FeasStatus
from qilab.tensor import trace_distance
from tests_helpers_schur import spin_multiplicity_recursive

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def record(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {tag}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_01_ppt_spectrum_of_phi_plus():
    spec = q.ppt_check(q.phi_plus().density()).spectrum
    ok = np.max(np.abs(spec - np.array([0.5, 0.5, 0.5, -0.5]))) < 1e-10
    record("01 ppt-spectrum-phi-plus", ok, f"spectrum={np.round(spec, 12)}")


def test_02_noisy_epr_threshold_bisection():
    lo, hi = 0.0, 1.0  # PPT at lo, not PPT at hi
    for _ in range(60):
        mid = (lo + hi) / 2
        if q.ppt_check(q.noisy_epr(mid)).is_ppt:
            lo = mid
        else:
            hi = mid
    thresh = (lo + hi) / 2
    ok = abs(thresh - 1 / 3) < 1e-9
    record("02 noisy-epr-threshold", ok, f"threshold={thresh:.12f}")


def test_03_chsh_classical_quantum_tsirelson():
    rng = np.random.default_rng(303)
    classical, achievers = q.chsh_classical_optimum()
    ok = classical == 0.75 and len(achievers) == 8
    vq = q.optimal_strategy().win_probability()
    ok &= abs(vq - q.QUANTUM_OPTIMUM) < 1e-10
    res = q.chsh_optimize(starts=32, seed=303)
    ok &= res.value <= q.QUANTUM_OPTIMUM + 1e-6
    ok &= res.value >= q.QUANTUM_OPTIMUM - 1e-6

    def random_obs():
        u = q.random_unitary(2, rng)
        return u @ np.diag(rng.choice([-1.0, 1.0], size=2)) @ u.conj().T

    worst = 0.0
    for _ in range(500):
        b = q.bell_operator(random_obs(), random_obs(), random_obs(), random_obs())
        worst = max(worst, float(np.linalg.norm(b, ord=2)))
    ok &= worst <= q.TSIRELSON + 1e-9
    record("03 chsh-optima-and-tsirelson", ok,
           f"classical={classical}, quantum={res.value:.12f}, max-norm={worst:.12f}")


def test_04_witnesses():
    rng = np.random.default_rng(404)
    flip = q.flip_witness()
    cw = q.chsh_witness()
    phi = q.phi_plus().density()
    ok = abs(q.witness_value(flip, phi) + 1.0) < 1e-10
    ok &= abs(q.witness_value(cw, phi) + 1 / math.sqrt(2)) < 1e-10
    worst_flip = worst_chsh = 0.0
    for _ in range(500):
        s = q.random_separable_state(2, 2, rng)
        worst_flip = min(worst_flip, q.witness_value(flip, s))
        worst_chsh = min(worst_chsh, q.witness_value(cw, s))
    ok &= worst_flip >= -1e-9 and worst_chsh >= -1e-9
    record("04 entanglement-witnesses", ok,
           f"min-sep flip={worst_flip:.2e}, chsh={worst_chsh:.2e}")


def test_05_overlap_ratio_exact_grid():
    ok = True
    for d in range(2, 6):
        for n in range(1, 201):
            for k in range(0, 21):
                ratio = q.estimation_overlap_exact(d, n, k)
                if ratio < 1 - Fraction(d * k, n):
                    ok = False
    record("05 symmetric-overlap-grid", ok, "d<=5, n<=200, k<=20, exact rationals")


def test_06_schur_weyl_multiplicities_and_spectrum():
    ok = True
    for n in range(1, 65):
        total = 0
        for m in range(n // 2 + 1):
            j = n / 2 - m
            mj = q.spin_multiplicity(n, j)
            ok &= mj == spin_multiplicity_recursive(n, j)
            ok &= mj <= q.spin_multiplicity_bound(n, j) * (1 + 1e-12)
            total += round(2 * j + 1) * mj
        ok &= total == 2**n
    for n in range(2, 9):
        blocks = q.spin_projectors(n)
        for r in (0.0, 0.1, 0.25, 0.4, 0.5):
            dist = q.spectrum_estimation_distribution(r, n)
            ok &= abs(sum(dist.values()) - 1.0) < 1e-10
            rho = np.diag([0.5 + r, 0.5 - r]).astype(complex)
            big = rho
            for _ in range(n - 1):
                big = np.kron(big, rho)
            for b in blocks:
                ok &= abs(dist[b.j] - np.trace(b.projector @ big).real) < 1e-10
                if r > 0:
                    ok &= dist[b.j] <= q.spectrum_tail_bound(r, n, b.j) + 1e-12
    record("06 schur-weyl-spectrum", ok, "n<=64 multiplicities; n=2..8 distributions")


def test_07_marginal_problem_grid():
    ok = True
    grid = np.round(np.arange(0.5, 1.0 + 1e-9, 0.05), 10)
    n_compat = 0
    for lams in itertools.product(grid, repeat=3):
        if q.three_qubit_spectra_compatible(lams):
            n_compat += 1
            psi = q.three_qubit_state_from_spectra(lams)
            got = q.largest_marginal_eigenvalues(psi)
            ok &= max(abs(g - l) for g, l in zip(got, lams)) < 1e-9
        else:
            violated = any(
                lams[i] + lams[j] > 1 + lams[k] + 1e-12
                for k in range(3)
                for i, j in [tuple(x for x in range(3) if x != k)[:2]]
            )
            ok &= violated
    record("07 marginal-problem-grid", ok,
           f"{n_compat} compatible triples reconstructed (step 0.05)")


def test_08_slocc_classification():
    from tests_helpers_slocc import representatives  # local helper below

    rng = np.random.default_rng(808)
    ok = True
    reps = representatives()
    for cls, psi in reps.items():
        ok &= q.classify_three_qubit(psi) is cls
        for _ in range(50):
            ops = []
            for _ in range(3):
                g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                det = np.linalg.det(g)
                while abs(det) < 0.3:  # keep conditioning sane
                    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                    det = np.linalg.det(g)
                ops.append(g / np.sqrt(det))
            img = q.slocc_apply(ops, psi)
            ok &= q.classify_three_qubit(img) is cls
            if cls is q.SloccClass.W:
                ok &= abs(q.hyperdeterminant(img)) <= 1e-9
    ok &= abs(q.hyperdeterminant(q.ghz_state()) - 0.25) < 1e-12
    record("08 slocc-classes", ok, "6 representatives x 50 invertible images")


def test_09_teleportation():
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(100):
        psi = q.random_pure_state(2, rng)
        for out in range(4):
            t = q.teleport(psi, force_outcome=out)
            ok &= abs(t.probability - 0.25) < 1e-10
            ok &= abs(abs(np.vdot(t.output.amps, psi.amps)) ** 2 - 1.0) < 1e-10
        ok &= np.max(np.abs(q.unconditioned_bob_state(psi) - np.eye(2) / 2)) < 1e-10
    record("09 teleportation", ok, "100 random inputs, all outcomes")


def test_10_compression_phase_transition():
    hi = q.compression_trial([0.11, 0.89], 1000, 0.6, trials=200, seed=1010)
    lo = q.compression_trial([0.11, 0.89], 1000, 0.4, trials=200, seed=1010)
    ok = hi.success_rate >= 0.95 and lo.success_rate <= 0.05
    record("10 compression-transition", ok,
           f"R=0.6 -> {hi.success_rate:.3f}, R=0.4 -> {lo.success_rate:.3f}")


def test_11_data_hiding():
    ok = abs(q.data_hiding_bias(2).ppt_bias_bound - 1 / 3) < 1e-12
    for d in range(2, 9):
        rep = q.data_hiding_bias(d)
        ok &= rep.ppt_bias_bound <= 1 / d + 1e-12
        dist = trace_distance(q.werner_symmetric(d).mat, q.werner_antisymmetric(d).mat)
        ok &= abs(dist - 1.0) < 1e-10
    record("11 data-hiding", ok, "exact 1/3 at d=2; <=1/d and global distance 1 for d=2..8")


def test_12_k_extendibility():
    rng = np.random.default_rng(1212)
    ok = True
    for _ in range(20):
        s = q.random_separable_state(2, 2, rng)
        rho = q.DensityMatrix(0.85 * s.mat + 0.15 * np.eye(4) / 4, (2, 2))
        rep = q.k_extendibility(rho, 3)
        ok &= rep.status is FeasStatus.FEASIBLE and rep.residual <= 1e-6
    rep = q.k_extendibility(q.phi_plus().density(), 2)
    oracle = json.loads((FIXTURES / "phi_plus_k2_sdp_oracle.json").read_text())
    ok &= rep.status is FeasStatus.INFEASIBLE_EVIDENCE
    ok &= rep.residual >= 0.05
    ok &= abs(rep.residual - oracle["distance_affine_to_psd"]) < 5e-4
    for d in range(2, 6):
        marg = q.slater_state(d).marginal([0, 1]).mat
        ok &= np.max(np.abs(marg - q.werner_antisymmetric(d).mat)) < 1e-10
    record("12 k-extendibility", ok,
           f"phi+ k=2 residual={rep.residual:.6f} vs SDP {oracle['distance_affine_to_psd']:.6f}")


def test_13_entropy_inequalities():
    rng = np.random.default_rng(1313)
    ok = True
    for _ in range(100):
        pxy = rng.dirichlet(np.ones(12)).reshape(3, 4)
        ok &= q.classical_mutual_information(pxy) >= q.classical_pinsker_bound(pxy) - 1e-10
    for _ in range(100):
        rho = q.random_density_matrix((2, 2), rng)
        m = q.information_measures(rho, [(0,), (1,)])
        ok &= m["I_AB"] >= q.quantum_pinsker_bound(rho, [(0,), (1,)]) - 1e-10
    for _ in range(100):
        rho = q.random_density_matrix((2, 2, 2), rng)
        m = q.information_measures(rho, [(0,), (1,), (2,)])
        ok &= m["I_AB_given_C"] >= -1e-9
        ok &= abs(m["I_A_BC"] - (m["I_A_C"] + m["I_AB_given_C"])) < 1e-9
    ok &= abs(q.information_measures(q.phi_plus().density(), [(0,), (1,)])["I_AB"] - 2.0) < 1e-10
    record("13 entropy-inequalities", ok, "Pinsker x200, SSA+chain x100, I(A:B)=2 on Phi+")


def test_14_concentration_and_one_sided_bounds():
    # distillation yield per copy concentrates at the spectrum entropy
    spec = [0.75, 0.25]
    h = q.shannon_entropy(spec)
    n = 2000
    vals = [q.distillation_yield(spec, n, seed=s) / n for s in range(100)]
    mean = float(np.mean(vals))
    ok = abs(mean - h) < 0.02
    # one-sided extendibility distance bound on constructed 1-LOCC effects
    povm = q.tetrahedron_povm()
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    m = sum(np.kron(a, q.bloch_state(v).mat) for a, v in zip(povm.elements, verts))
    for k in (1, 2, 4, 8, 16):
        out = q.bcy_inequality_check(q.phi_plus().density(), m, k, samples=200, seed=k)
        ok &= bool(out["holds"])
    record("14 concentration-and-bounds", ok,
           f"mean yield/n={mean:.4f} vs H={h:.4f}")
