"""Refusals and borderline verdicts that the module tests do not reach.

Each refusal is a call that must raise ValueError (FormatError is one) with
the given message; the verdicts pin where a solver or classifier declines
to decide.
"""
import dataclasses
import json
import math
import time

import numpy as np
import pytest

import qilab as q
from qilab.cli import main
from qilab.serialize import matrix_to_json
from qilab.tensor import basis_digits, trace_distance, trace_norm

QUTRIT = np.eye(3) / 3
M23 = np.eye(6) / 6  # an operator on C^2 x C^3
NAN4, INF4 = (np.diag([x, 1.0, 1.0, 1.0]) for x in (math.nan, math.inf))
HUGE4 = np.zeros((4, 4))
HUGE4[0, 1] = HUGE4[1, 0] = 1.7e308  # Hermitian, with a Hermitian part that overflows

# name: (call, expected message)
REFUSALS = {
    # tensor
    "tensor()": (lambda: q.tensor(), "at least one operand"),
    "tensor(two 65 x 65)": (lambda: q.tensor(np.eye(65), np.eye(65)),
                            "^operator size 4225 exceeds cap 4096$"),
    "tensor(two 4097-vectors)": (lambda: q.tensor(np.ones(4097), np.ones(4097)),
                                 r"^state of 16785409 amplitudes exceeds cap 4096\^2$"),
    "basis_digits(2, 13)": (lambda: basis_digits(2, 13), r"^operator size 2\^13 exceeds cap 4096$"),
    "basis_digits(1, 64)": (lambda: basis_digits(1, 64), "^64 factors of dimension 1 need 65 array axes"),
    "trace_norm(vector)": (lambda: trace_norm(np.ones(3)), "expected a matrix"),
    "trace_distance(shape mismatch)": (lambda: trace_distance(np.eye(2) / 2, QUTRIT), "shape mismatch"),
    "trace_norm(sum overflows)": (lambda: trace_norm(np.diag([1e308, 1e308])), "trace norm overflows"),
    "trace_distance(norm overflows)": (lambda: trace_distance(np.diag([8e307] * 3), -np.diag([8e307] * 3)),
                                       "trace norm overflows"),
    # states
    "DensityMatrix(non-square)": (lambda: q.DensityMatrix(np.ones((2, 3)) / 2), "must be square"),
    "Povm(empty)": (lambda: q.Povm(()), "at least one element"),
    "Povm(mixed shapes)": (lambda: q.Povm((np.eye(2), np.eye(3))), "one square shape"),
    "Povm(non-Hermitian)": (lambda: q.Povm((np.array([[1, 1], [0, 0]]), np.array([[0, -1], [0, 1]]))),
                            "not Hermitian"),
    "Povm(non-PSD)": (lambda: q.Povm((np.diag([1.5, 0.0]), np.diag([-0.5, 1.0]))), "not PSD"),
    "KrausChannel(empty)": (lambda: q.KrausChannel(()), "at least one Kraus operator"),
    "KrausChannel(mixed shapes)": (lambda: q.KrausChannel((np.eye(2), np.eye(3))), "share one shape"),
    "KrausChannel(vector)": (lambda: q.KrausChannel([np.ones(2)]),
                             r"^Kraus operator must be 2-dimensional, got shape \(2,\)$"),
    "KrausChannel(3-d operator)": (lambda: q.KrausChannel([np.ones((2, 2, 2))]),
                                   r"^Kraus operator must be 2-dimensional, got shape \(2, 2, 2\)$"),
    "from_ensemble(count mismatch)": (lambda: q.from_ensemble([0.5, 0.5], [q.phi_plus()]),
                                      "count mismatch"),
    "from_ensemble(mixed spaces)": (lambda: q.from_ensemble([0.5, 0.5], [q.phi_plus(), q.ghz_state()]),
                                    "different spaces"),
    "born_probabilities(dimension mismatch)": (
        lambda: q.born_probabilities(q.DensityMatrix(QUTRIT), q.tetrahedron_povm()), "dimension mismatch"),
    "apply_channel(dimension mismatch)": (
        lambda: q.apply_channel(q.depolarizing_channel(0.5), q.DensityMatrix(QUTRIT)), "dimension mismatch"),
    "quantum_instrument(dimension mismatch)": (
        lambda: q.quantum_instrument(q.depolarizing_channel(0.5), q.DensityMatrix(QUTRIT)),
        "dimension mismatch"),
    "depolarizing_channel(p > 1)": (lambda: q.depolarizing_channel(1.5), r"outside \[0, 1\]"),
    "noisy_epr(p < 0)": (lambda: q.noisy_epr(-0.1), r"outside \[0, 1\]"),
    "bloch_vector(qutrit)": (lambda: q.bloch_vector(q.DensityMatrix(QUTRIT)), "qubits only"),
    "werner_antisymmetric(1)": (lambda: q.werner_antisymmetric(1), "^d must be an integer >= 2, got 1$"),
    # entropy
    "binary_entropy(1.5)": (lambda: q.binary_entropy(1.5), r"outside \[0, 1\]"),
    "binary_relative_entropy(1.5, 0.5)": (lambda: q.binary_relative_entropy(1.5, 0.5), r"in \[0, 1\]"),
    "classical_mutual_information(vector)": (lambda: q.classical_mutual_information([0.5, 0.5]),
                                             r"^pxy must be 2-dimensional, got shape \(2,\)$"),
    "classical_mutual_information(3-d)": (lambda: q.classical_mutual_information(np.ones((2, 2, 2)) / 8),
                                          r"^pxy must be 2-dimensional, got shape \(2, 2, 2\)$"),
    "classical_pinsker_bound(vector)": (lambda: q.classical_pinsker_bound([0.5, 0.5]),
                                        r"^pxy must be 2-dimensional, got shape \(2,\)$"),
    "typical_set(matrix p)": (lambda: q.typical_set([[0.5, 0.5]], 4, 0.1),
                              r"^p must be 1-dimensional, got shape \(1, 2\)$"),
    "typical_mass_lower_bound(matrix p)": (lambda: q.typical_mass_lower_bound([[0.5, 0.5]], 4, 0.1),
                                           r"^p must be 1-dimensional, got shape \(1, 2\)$"),
    "compression_trial(matrix p)": (lambda: q.compression_trial([[0.5, 0.5]], 4, 0.5, 3),
                                    r"^p must be 1-dimensional, got shape \(1, 2\)$"),
    "information_measures(one party)": (
        lambda: q.information_measures(q.ghz_state().density(), [[0, 1, 2]]), "two or three parties"),
    "information_measures(overlapping parties)": (
        lambda: q.information_measures(q.ghz_state().density(), [[0, 1], [1, 2]]), "parties overlap"),
    "quantum_pinsker_bound(one party)": (lambda: q.quantum_pinsker_bound(q.noisy_epr(0.5), [[0]]),
                                         "^need two parties$"),
    "quantum_pinsker_bound(three parties)": (
        lambda: q.quantum_pinsker_bound(q.ghz_state().density(), [[0], [1], [2]]), "^need two parties$"),
    # pure
    "teleport(force_outcome=4)": (lambda: q.teleport(q.PureState(np.array([1, 0])), force_outcome=4),
                                  r"outcome must be in 0\.\.3"),
    "unconditioned_bob_state(two qubits)": (lambda: q.unconditioned_bob_state(q.phi_plus()),
                                            "single-qubit message"),
    "dilution_rank_bound(n=0)": (lambda: q.dilution_rank_bound(q.phi_plus(), [0], 0, 0.1),
                                 "^n must be a positive integer, got 0$"),
    "dilution_rank_bound(delta<0)": (lambda: q.dilution_rank_bound(q.phi_plus(), [0], 10, -0.1),
                                     "delta >= 0"),
    "distillation_yield(matrix spectrum)": (lambda: q.distillation_yield([[0.5, 0.5]], 4),
                                            r"^spectrum must be 1-dimensional, got shape \(1, 2\)$"),
    "slocc_apply(two operators, three qubits)": (lambda: q.slocc_apply([np.eye(2)] * 2, q.ghz_state()),
                                                 "one operator per subsystem"),
    "w_polytope_check(two values)": (lambda: q.w_polytope_check([1.0, 1.0]), "three largest eigenvalues"),
    # schur
    "symmetric_purification(unequal subsystems)": (
        lambda: q.symmetric_purification(q.DensityMatrix(np.eye(6) / 6, (2, 3))), "equal subsystems"),
    "spin_multiplicity_bound(j > n/2)": (lambda: q.spin_multiplicity_bound(4, 3), "out of range"),
    "keyl_werner_estimate([])": (lambda: q.keyl_werner_estimate([], 4), "at least one outcome"),
    # d = 1 keeps d^n within the size cap for every n, so the axis count refuses it
    "symmetric_projector(1, 70)": (lambda: q.symmetric_projector(1, 70),
                                   "^70 factors of dimension 1 need 71 array axes, more than numpy's"),
    "permutation_operator(1, range(70))": (lambda: q.permutation_operator(1, range(70)),
                                           "^70 factors of dimension 1 need 71 array axes"),
    "typical_subspace_projector(d=1, n=70)": (
        lambda: q.typical_subspace_projector(q.DensityMatrix(np.eye(1)), 70, 0.1),
        "^70 factors of dimension 1 need 71 array axes"),
    "k_extendibility(d_B=1, k=70)": (
        lambda: q.k_extendibility(q.DensityMatrix(np.eye(2) / 2, (2, 1)), 70),
        "^70 factors of dimension 1 need 71 array axes"),
    # separability, serialize, chsh
    "bcy_inequality_check(three parties)": (
        lambda: q.bcy_inequality_check(q.ghz_state().density(), np.eye(8), 2), "bipartite"),
    "matrix_to_json(vector)": (lambda: matrix_to_json(np.ones(3)), "2-dimensional"),
    # squares to the identity but is not Hermitian
    "bell_operator(non-Hermitian involution)": (
        lambda: q.bell_operator(np.array([[0, 2], [0.5, 0]]), np.eye(2), np.eye(2), np.eye(2)),
        "^observable is not Hermitian"),
    # subsystem indices, counts and dimensions are integers, never truncated
    "partial_trace(keep [0.7])": (lambda: q.partial_trace(M23, (2, 3), [0.7]), "expected an integer"),
    "partial_trace(keep [True])": (lambda: q.partial_trace(M23, (2, 3), [True]), "expected an integer"),
    "partial_transpose([1.9])": (lambda: q.partial_transpose(M23, (2, 3), [1.9]), "expected an integer"),
    "partial_transpose(1.9)": (lambda: q.partial_transpose(M23, (2, 3), 1.9), "expected an integer"),
    "DensityMatrix.marginal([True])": (lambda: q.DensityMatrix(M23, (2, 3)).marginal([True]),
                                       "expected an integer"),
    "DensityMatrix.marginal([0.5])": (lambda: q.DensityMatrix(M23, (2, 3)).marginal([0.5]),
                                      "expected an integer"),
    "PureState.marginal([0.5])": (lambda: q.phi_plus().marginal([0.5]), "expected an integer"),
    "schmidt([0.5])": (lambda: q.schmidt(q.phi_plus(), [0.5]), "expected an integer"),
    "schmidt(True)": (lambda: q.schmidt(q.phi_plus(), True), "expected an integer"),
    "ppt_check(True)": (lambda: q.ppt_check(q.noisy_epr(0.5), True), "expected an integer"),
    "ppt_check([0.9])": (lambda: q.ppt_check(q.noisy_epr(0.5), [0.9]), "expected an integer"),
    "information_measures([(0.2,), (1,)])": (
        lambda: q.information_measures(q.noisy_epr(0.5), [(0.2,), (1,)]), "expected an integer"),
    "k_extendibility(k=2.5)": (lambda: q.k_extendibility(q.noisy_epr(0.5), 2.5), "expected an integer"),
    "spin_projectors(2.5)": (lambda: q.spin_projectors(2.5), "expected an integer"),
    "symmetric_projector(True, 3)": (lambda: q.symmetric_projector(True, 3), "expected an integer"),
    "phi_plus(2.5)": (lambda: q.phi_plus(2.5), "expected an integer"),
    "maximally_mixed(2.5)": (lambda: q.maximally_mixed(2.5), "expected an integer"),
    "permutation_operator([True, False])": (lambda: q.permutation_operator(2, [True, False]),
                                            "expected an integer"),
    "motzkin_straus(edge (0, 1.5))": (lambda: q.motzkin_straus(3, [(0, 1.5)]),
                                      "^expected an integer, got 1.5$"),
    "motzkin_straus(edge ('a', 1))": (lambda: q.motzkin_straus(3, [("a", 1)]),
                                      "^expected an integer, got 'a'$"),
    "motzkin_straus(edge (0, True))": (lambda: q.motzkin_straus(3, [(0, True)]),
                                       "^expected an integer, got True$"),
    "motzkin_straus(edge (0, 1, 2))": (lambda: q.motzkin_straus(3, [(0, 1, 2)]),
                                       r"^edge \(0, 1, 2\) is not a pair of vertices$"),
    "motzkin_straus(edge (0,))": (lambda: q.motzkin_straus(3, [(0,)]),
                                  r"^edge \(0,\) is not a pair of vertices$"),
    "motzkin_straus(edge 5)": (lambda: q.motzkin_straus(3, [5]), "^edge 5 is not a pair of vertices$"),
    "motzkin_straus(edge 0-d array)": (lambda: q.motzkin_straus(3, [np.array(5)]),
                                       r"^edge array\(5\) is not a pair of vertices$"),
    "motzkin_straus(21 vertices)": (lambda: q.motzkin_straus(21, []), r"^vertex count must be in 1\.\.20$"),
    "depolarizing_channel(d=0)": (lambda: q.depolarizing_channel(0.5, 0), "positive integer"),
    "phi_plus(-1)": (lambda: q.phi_plus(-1), "positive integer"),
    "maximally_mixed(0)": (lambda: q.maximally_mixed(0), "positive integer"),
    "werner_symmetric(0)": (lambda: q.werner_symmetric(0), "positive integer"),
    "random_density_matrix(0)": (lambda: q.random_density_matrix(0, np.random.default_rng(0)),
                                 "positive integer"),
    "swap_operator(0)": (lambda: q.swap_operator(0), "positive integer"),
    "symmetric_projector(0, 3)": (lambda: q.symmetric_projector(0, 3), "positive integer"),
    "random_unitary(0)": (lambda: q.random_unitary(0, np.random.default_rng(0)), "positive integer"),
    "slater_state(0)": (lambda: q.slater_state(0), "positive integer"),
    # a NaN or infinite operator entry, where a number is read off the operator
    "hermitian_eig(NaN)": (lambda: q.hermitian_eig(NAN4), "not Hermitian"),
    "hermitian_eig(inf)": (lambda: q.hermitian_eig(INF4), "not Hermitian"),
    "trace_distance(inf)": (lambda: trace_distance(INF4, np.eye(4) / 4), "^first operand is not Hermitian"),
    "trace_norm(NaN)": (lambda: trace_norm(NAN4), "NaN or infinite"),
    "h_sep_sampled(NaN)": (lambda: q.h_sep_sampled(NAN4, (2, 2)), "NaN or infinite"),
    "h_sep_sampled(conditioned operator overflows)": (lambda: q.h_sep_sampled(HUGE4, (2, 2)),
                                                      "conditioned operator overflows"),
    "h_sep_sampled(5 x 5)": (lambda: q.h_sep_sampled(np.eye(5), (2, 2)), "imply size 4"),
    "h_sep_sampled(dims (2.5, 1.6))": (lambda: q.h_sep_sampled(np.eye(4), (2.5, 1.6)), "expected an integer"),
    "h_n_ext(NaN)": (lambda: q.h_n_ext(NAN4, (2, 2), 2), "NaN or infinite"),
    "h_n_ext(dims (2, 2, 2))": (lambda: q.h_n_ext(np.eye(8), (2, 2, 2), 2),
                                r"^dims \(2, 2, 2\) must name exactly two subsystems$"),
    "h_sep_sampled(dims (2, 2, 2))": (lambda: q.h_sep_sampled(np.eye(8), (2, 2, 2)),
                                      r"^dims \(2, 2, 2\) must name exactly two subsystems$"),
    "witness_value(NaN)": (lambda: q.witness_value(NAN4, q.noisy_epr(0.5)), "NaN or infinite"),
    "witness_value(inf)": (lambda: q.witness_value(INF4, q.noisy_epr(0.5)), "NaN or infinite"),
    "check_extendibility_witness(NaN)": (
        lambda: q.check_extendibility_witness(NAN4, q.noisy_epr(0.5), 2), "NaN or infinite"),
    "bcy_inequality_check(NaN)": (lambda: q.bcy_inequality_check(q.noisy_epr(0.5), NAN4, 2),
                                  "NaN or infinite"),
    "bcy_inequality_check(inf)": (lambda: q.bcy_inequality_check(q.noisy_epr(0.5), INF4, 2),
                                  "NaN or infinite"),
    "h_n_ext(Hermitian part overflows)": (lambda: q.h_n_ext(HUGE4, (2, 2), 2), "Hermitian part overflows"),
    # entries that are finite but whose sum overflows
    "DensityMatrix(trace overflows)": (lambda: q.DensityMatrix(np.diag([8e307] * 3)), "^trace inf is not 1"),
    "Povm(sum overflows)": (lambda: q.Povm((np.diag([8e307, 0.0]),) * 3), "do not sum to identity"),
    # an operator of another size than the state
    "witness_value(2 x 2 on two qubits)": (
        lambda: q.witness_value(np.eye(2), q.noisy_epr(0.5)),
        r"^operator of shape \(2, 2\) does not act on a state of dimension 4$"),
    "check_extendibility_witness(2 x 2 on two qubits)": (
        lambda: q.check_extendibility_witness(np.eye(2), q.noisy_epr(0.5), 2),
        r"^operator of shape \(2, 2\) does not act on a state of dimension 4$"),
    "check_extendibility_witness(not bipartite)": (
        lambda: q.check_extendibility_witness(np.eye(4), q.maximally_mixed(4), 2),
        "^state must be explicitly bipartite$"),
    "bcy_inequality_check(3 x 3 on two qubits)": (
        lambda: q.bcy_inequality_check(q.noisy_epr(0.5), np.eye(3), 2),
        r"^operator of shape \(3, 3\) does not act on a state of dimension 4$"),
    "post_measurement(2 x 2 on two qubits)": (
        lambda: q.post_measurement(q.noisy_epr(0.5), np.eye(2)),
        r"^operator of shape \(2, 2\) does not act on a state of dimension 4$"),
    "NaimarkDilation.probabilities(two qubits)": (
        lambda: q.naimark_dilate(q.tetrahedron_povm()).probabilities(q.noisy_epr(0.5)),
        "^POVM / state dimension mismatch$"),
    "naimark_dilate(65 outcomes on C^64)": (lambda: q.naimark_dilate(q.Povm([np.eye(64) / 65] * 65)),
                                            "^operator size 4160 exceeds cap 4096$"),
    "slocc_apply(3 x 3 on a qubit)": (
        lambda: q.slocc_apply([np.eye(3), np.eye(2)], q.phi_plus()),
        r"^operator of shape \(3, 3\) does not act on a state of dimension 2$"),
    "slocc_apply(vector)": (
        lambda: q.slocc_apply([np.ones(2), np.eye(2)], q.phi_plus()),
        r"^operator of shape \(2,\) does not act on a state of dimension 2$"),
    "slocc_apply(NaN)": (lambda: q.slocc_apply([np.full((2, 2), math.nan), np.eye(2)], q.phi_plus()),
                         "NaN or infinite"),
    # a NaN, infinite or degenerate real parameter
    "three_qubit_spectra_compatible(NaN)": (lambda: q.three_qubit_spectra_compatible([math.nan] * 3),
                                            r"must lie in \[1/2, 1\]"),
    "three_qubit_state_from_spectra(NaN)": (lambda: q.three_qubit_state_from_spectra([math.nan] * 3),
                                            r"must lie in \[1/2, 1\]"),
    "w_polytope_check(NaN)": (lambda: q.w_polytope_check([math.nan] * 3), "all finite"),
    "w_polytope_check(inf)": (lambda: q.w_polytope_check([1.0, 1.0, math.inf]), "all finite"),
    "pauli_rotation(zero axis)": (lambda: q.pauli_rotation([0, 0, 0], 0.3), "nonzero finite axis"),
    "pauli_rotation(NaN axis)": (lambda: q.pauli_rotation([math.nan, 0, 1], 0.3), "nonzero finite axis"),
    "pauli_rotation(inf axis)": (lambda: q.pauli_rotation([math.inf, 0, 1], 0.3), "nonzero finite axis"),
    "pauli_rotation(NaN angle)": (lambda: q.pauli_rotation([0, 0, 1], math.nan), "finite angle"),
    "pauli_rotation(length-2 axis)": (lambda: q.pauli_rotation([1, 0], 1.0), "^axis must have length 3"),
    "bloch_state(huge)": (lambda: q.bloch_state([1e200, 0, 0]), "norm <= 1"),
    "spin_multiplicity(j inf)": (lambda: q.spin_multiplicity(4, math.inf), "^j must be finite, got inf$"),
    "spectrum_tail_bound(j > n/2)": (lambda: q.spectrum_tail_bound(0.2, 10, 100), "^j/n out of range$"),
    "spectrum_tail_bound(j inf)": (lambda: q.spectrum_tail_bound(0.2, 10, math.inf), "^j/n out of range$"),
    "keyl_werner_estimate(r_true NaN)": (lambda: q.keyl_werner_estimate([1.0], 4, math.nan),
                                         "r_true must be finite"),
    "keyl_werner_estimate([NaN])": (lambda: q.keyl_werner_estimate([math.nan], 4),
                                    "outcomes and r_true must be finite"),
    "dilution_rank_bound(delta NaN)": (lambda: q.dilution_rank_bound(q.phi_plus(), [0], 10, math.nan),
                                       "finite delta >= 0"),
    "dilution_rank_bound(delta inf)": (lambda: q.dilution_rank_bound(q.phi_plus(), [0], 10, math.inf),
                                       "finite delta >= 0"),
    "typical_mass_lower_bound(delta 0)": (lambda: q.typical_mass_lower_bound([0.3, 0.7], 4, 0.0),
                                          "delta > 0"),
    "typical_mass_lower_bound(delta NaN)": (lambda: q.typical_mass_lower_bound([0.3, 0.7], 4, math.nan),
                                            "delta > 0"),
    # a single value where a collection is read
    "DensityMatrix(dims 4)": (lambda: q.DensityMatrix(np.eye(4) / 4, 4),
                              "^dims must be a sequence of subsystem dimensions, got 4$"),
    "PureState(dims 2)": (lambda: q.PureState(np.array([1, 0]), 2),
                          "^dims must be a sequence of subsystem dimensions, got 2$"),
    "partial_trace(dims 4)": (lambda: q.partial_trace(np.eye(4) / 4, 4, [0]),
                              "^dims must be a sequence of subsystem dimensions, got 4$"),
    "h_n_ext(dims 4)": (lambda: q.h_n_ext(np.eye(4), 4, 2),
                        "^dims must be a sequence of subsystem dimensions, got 4$"),
    "h_sep_sampled(dims 4)": (lambda: q.h_sep_sampled(np.eye(4), 4),
                              "^dims must be a sequence of subsystem dimensions, got 4$"),
    "permutation_operator(2, 3)": (lambda: q.permutation_operator(2, 3),
                                   "^perm must be a sequence of images, got 3$"),
    "motzkin_straus(3, 5)": (lambda: q.motzkin_straus(3, 5),
                             "^edges must be a collection of vertex pairs, got 5$"),
    "slocc_apply(1, GHZ)": (lambda: q.slocc_apply(1, q.ghz_state()), "^one operator per subsystem is required$"),
    "Povm(1.0)": (lambda: q.Povm(1.0), "^POVM elements must be a collection of matrices, got 1.0$"),
    "KrausChannel(1.0)": (lambda: q.KrausChannel(1.0), "^Kraus operators must be a collection of matrices, got 1.0$"),
    "from_ensemble(1, [psi])": (lambda: q.from_ensemble(1, [q.phi_plus()]),
                                r"^probs must be 1-dimensional, got shape \(\)$"),
    "from_ensemble(matrix probs)": (lambda: q.from_ensemble([[0.5, 0.5]], [q.phi_plus()]),
                                    r"^probs must be 1-dimensional, got shape \(1, 2\)$"),
    "three_qubit_spectra_compatible(0.7)": (lambda: q.three_qubit_spectra_compatible(0.7),
                                            r"must lie in \[1/2, 1\]"),
    "three_qubit_state_from_spectra(0.7)": (lambda: q.three_qubit_state_from_spectra(0.7),
                                            r"must lie in \[1/2, 1\]"),
    "w_polytope_check(0.7)": (lambda: q.w_polytope_check(0.7), "three largest eigenvalues"),
    "spin_multiplicity(j None)": (lambda: q.spin_multiplicity(4, None), "^j must be finite, got None$"),
    "born_probabilities(povm 3)": (lambda: q.born_probabilities(q.maximally_mixed(2), 3),
                                   "^povm must be a Povm, got 3$"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refused(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError, match=message):
        call()


# counts that size an array, checked against the one budget of 4096^2 entries before anything
# is drawn or built: (call, the count's name in the refusal)
OVERSIZED_COUNTS = {
    "chsh_optimize(starts)": (lambda: q.chsh_optimize(starts=10**12), "starts"),
    "h_sep_sampled(starts)": (lambda: q.h_sep_sampled(np.eye(4), (2, 2), starts=10**12), "starts"),
    "bcy_inequality_check(samples)": (
        lambda: q.bcy_inequality_check(q.noisy_epr(0.5), np.eye(4) / 2, 2, samples=10**12), "samples"),
    "sample_spin_outcomes(size)": (lambda: q.sample_spin_outcomes(0.2, 4, 10**12), r"outcomes \(size\)"),
    # within the operator cap, but the unitary and 64 projectors take 65 x 4096^2 entries
    "naimark_dilate(64 outcomes on C^64)": (lambda: q.naimark_dilate(q.Povm([np.eye(64) / 64] * 64)),
                                            "operators, the unitary and one projector per outcome,"),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED_COUNTS))
def test_count_sized_arrays_are_refused_at_once(name):
    call, counted = OVERSIZED_COUNTS[name]
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^\d+ {counted} of \d+ entries each exceed cap 4096\^2 entries$"):
        call()
    assert time.perf_counter() - start < 0.5


# operators at the float limit: the Hermiticity defect overflows, or the Hermitian part does
FLOAT_LIMIT = {
    "defect": (np.array([[0, 1e308], [-1e308, 0]]), "not Hermitian"),
    "Hermitian part": (np.diag([1.7e308, 1.7e308]), "Hermitian part overflows"),
}
# every reader of a Hermitian-operator argument, on a 2 x 2 operator m
HERMITIAN_ARGUMENTS = {
    "hermitian_eig": q.hermitian_eig,
    "trace_distance": lambda m: trace_distance(m, np.eye(2) / 2),
    "DensityMatrix": q.DensityMatrix,
    "Povm": lambda m: q.Povm((m, np.eye(2) - m)),
    "post_measurement": lambda m: q.post_measurement(q.maximally_mixed(2), m),
    "bell_operator": lambda m: q.bell_operator(m, np.eye(2), np.eye(2), np.eye(2)),
    "check_extendibility_witness": lambda m: q.check_extendibility_witness(
        m, q.DensityMatrix(np.eye(2) / 2, (1, 2)), 2),
}


@pytest.mark.parametrize("overflow", sorted(FLOAT_LIMIT))
def test_float_limit_operator_is_not_hermitian(overflow):
    assert q.is_hermitian(FLOAT_LIMIT[overflow][0]) is False


@pytest.mark.parametrize("reader", sorted(HERMITIAN_ARGUMENTS))
@pytest.mark.parametrize("overflow", sorted(FLOAT_LIMIT))
def test_float_limit_operator_is_refused(overflow, reader):
    m, message = FLOAT_LIMIT[overflow]
    with pytest.raises(ValueError, match=message):
        HERMITIAN_ARGUMENTS[reader](m)


# every count argument, read by tensor._count: (call on the count x, least value, a valid value)
COUNTS = {
    "typical_set(n)": (lambda x: q.typical_set([0.5, 0.5], x, 0.1), 1, 4),
    "typical_set(mc_samples)": (lambda x: q.typical_set([0.5, 0.5], 30, 0.1, mc_samples=x), 1, 3),
    "typical_mass_lower_bound(n)": (lambda x: q.typical_mass_lower_bound([0.3, 0.7], x, 0.1), 1, 4),
    "typical_subspace_projector(n)": (
        lambda x: q.typical_subspace_projector(q.DensityMatrix(np.diag([0.3, 0.7])), x, 0.1), 1, 2),
    "compression_trial(n)": (lambda x: q.compression_trial([0.9, 0.1], x, 0.5, 5), 1, 10),
    "compression_trial(trials)": (lambda x: q.compression_trial([0.9, 0.1], 10, 0.5, x), 1, 5),
    "symmetric_dimension(d)": (lambda x: q.symmetric_dimension(x, 3), 1, 2),
    "symmetric_dimension(n)": (lambda x: q.symmetric_dimension(2, x), 0, 3),
    "estimation_overlap_exact(d)": (lambda x: q.estimation_overlap_exact(x, 3, 1), 1, 2),
    "estimation_overlap_exact(n)": (lambda x: q.estimation_overlap_exact(2, x, 1), 1, 3),
    "estimation_overlap_exact(k)": (lambda x: q.estimation_overlap_exact(2, 3, x), 0, 1),
    "estimation_overlap(d)": (lambda x: q.estimation_overlap(x, 3, 1), 1, 2),
    "definetti_error_bound(k)": (lambda x: q.definetti_error_bound(2, 3, x), 0, 1),
    "spin_multiplicity(n)": (lambda x: q.spin_multiplicity(x, 0.5), 0, 3),
    "spin_multiplicity_bound(n)": (lambda x: q.spin_multiplicity_bound(x, 0), 1, 4),
    "spectrum_estimation_distribution(n)": (lambda x: q.spectrum_estimation_distribution(0.2, x), 0, 4),
    "spectrum_tail_bound(n)": (lambda x: q.spectrum_tail_bound(0.1, x, 0), 1, 4),
    "sample_spin_outcomes(size)": (lambda x: q.sample_spin_outcomes(0.2, 4, x, seed=1), 0, 5),
    "keyl_werner_estimate(n)": (lambda x: q.keyl_werner_estimate([0.5, 1.5], x, 0.2), 1, 4),
    "k_extendibility(k)": (lambda x: q.k_extendibility(q.noisy_epr(0.5), x), 2, 2),
    "check_extendibility_witness(k)": (
        lambda x: q.check_extendibility_witness(np.eye(4), q.noisy_epr(0.5), x), 2, 2),
    "k_extendibility(max_iterations)": (
        lambda x: q.k_extendibility(q.noisy_epr(0.5), 2, max_iterations=x), 1, 3),
    "data_hiding_bias(d)": (lambda x: q.data_hiding_bias(x), 2, 3),
    "bcy_inequality_check(k)": (lambda x: q.bcy_inequality_check(q.noisy_epr(0.5), np.eye(4) / 2, x), 1, 2),
    "bcy_inequality_check(samples)": (
        lambda x: q.bcy_inequality_check(q.noisy_epr(0.5), np.eye(4) / 2, 2, samples=x), 1, 5),
    "h_n_ext(n)": (lambda x: q.h_n_ext(q.phi_plus().density().mat, (2, 2), x), 1, 2),
    "h_sep_sampled(starts)": (lambda x: q.h_sep_sampled(q.phi_plus().density().mat, (2, 2), starts=x), 1, 2),
    "motzkin_straus(n)": (lambda x: q.motzkin_straus(x, [(0, 1)]), 1, 3),
    "werner_symmetric(d)": (lambda x: q.werner_symmetric(x), 1, 2),
    "werner_antisymmetric(d)": (lambda x: q.werner_antisymmetric(x), 2, 2),
    "distillation_yield(n)": (lambda x: q.distillation_yield([0.5, 0.5], x), 0, 6),
    "dilution_rank_bound(n)": (lambda x: q.dilution_rank_bound(q.phi_plus(), [0], x, 0.1), 1, 10),
    "teleport(force_outcome)": (lambda x: q.teleport(q.PureState(np.array([1, 0])), force_outcome=x), 0, 2),
    "chsh_optimize(starts)": (lambda x: q.chsh_optimize(starts=x), 1, 2),
}


def same(a, b) -> bool:
    """Equal values of equal types, through dataclasses, dicts, sequences and arrays;
    callables (a report's predicate) are not compared."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return type(b) is dict and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return callable(a) or (type(a) is type(b) and a == b)


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_count_is_read_by_one_rule(name):
    call, least, valid = COUNTS[name]
    # None is refused except where it means "not given": teleport then draws the outcome
    for bad in (True, 2.5, math.nan, "3") + (() if name == "teleport(force_outcome)" else (None,)):
        with pytest.raises(ValueError, match="^expected an integer, got "):
            call(bad)
    param = name[name.index("(") + 1:-1]
    bound = "a positive integer" if least == 1 else f"an integer >= {least}"
    with pytest.raises(ValueError, match=f"^{param} must be {bound}, got {least - 1}$"):
        call(least - 1)
    assert same(call(float(valid)), call(valid))


def test_motzkin_straus_reads_an_integral_float_endpoint():
    # edge endpoints follow the subsystem-index rule: 1.0 is the vertex 1
    assert same(q.motzkin_straus(3, [(0, 1.0)]), q.motzkin_straus(3, [(0, 1)]))


# a single value given as a 0-d array: (call on the value x, the value)
ZERO_D = {
    "partial_trace(keep)": (lambda x: q.partial_trace(np.eye(4) / 4, (2, 2), x), 0),
    "ppt_check(transpose_on)": (lambda x: q.ppt_check(q.noisy_epr(0.5), x), 0),
    "eigen_witness(transpose_on)": (lambda x: q.eigen_witness(q.phi_plus().density(), x), 1),
    "random_pure_state(dims)": (lambda x: q.random_pure_state(x, np.random.default_rng(0)), 4),
    "random_density_matrix(dims)": (lambda x: q.random_density_matrix(x, np.random.default_rng(0)), 4),
    "schmidt(cut)": (lambda x: q.schmidt(q.ghz_state(), x), 1),
    "chsh_optimize(starts)": (lambda x: q.chsh_optimize(x), 2),
}


@pytest.mark.parametrize("name", sorted(ZERO_D))
def test_zero_d_array_reads_as_its_scalar(name):
    call, value = ZERO_D[name]
    assert same(call(np.array(value)), call(value))


def test_a_single_index_is_a_party():
    rho = q.random_density_matrix((2, 3), np.random.default_rng(5))
    assert same(q.information_measures(rho, [0, 1]), q.information_measures(rho, [(0,), (1,)]))
    assert same(q.quantum_pinsker_bound(rho, [0, 1]), q.quantum_pinsker_bound(rho, [(0,), (1,)]))


def test_one_probability_rule_accepts_round_off():
    # an eigvalsh spectrum may hold -1e-17; every reader clips it as shannon_entropy does
    assert q.distillation_yield([0.5 + 1e-17, 0.5, -1e-17], 10) == q.distillation_yield([0.5, 0.5], 10)
    psi = q.phi_plus()
    assert same(q.from_ensemble([1 + 1e-10, -1e-10], [psi, psi]).dims, (2, 2))


def test_kraus_channel_output_dimension():
    isometry = np.eye(3)[:, :2]  # C^2 -> C^3
    ch = q.KrausChannel((isometry,))
    assert (ch.dim_in, ch.dim_out) == (2, 3)


def test_spin_multiplicity_is_zero_off_the_allowed_spins():
    assert q.spin_multiplicity(3, 1) == 0  # n - 2j odd
    assert q.spin_multiplicity(2, 2) == 0  # j > n/2
    assert q.spin_multiplicity(2, 1) == 1


def test_k_extendibility_stops_on_a_flat_small_plateau():
    # just above the k = 2 threshold 2/3 the primal residual would flatten out near 4.5e-5;
    # the dual bound is already positive at iteration 1, so the run ends there and reports
    # that certified distance, 4.52e-5, with its witness
    rho = q.noisy_epr(2 / 3 + 1e-4)
    rep = q.k_extendibility(rho, 2)
    assert rep.status is q.FeasStatus.INFEASIBLE_EVIDENCE
    assert rep.iterations == 1
    assert rep.residual == pytest.approx(4.52e-5, rel=1e-3)
    assert q.check_extendibility_witness(rep.witness, rho, 2)


def test_classify_three_qubit_declines_inside_both_bands():
    # a marginal eigenvalue eps = 1e-7 lies in the rank band [1e-8, 1e-6]
    eps = 1e-7
    amps = np.zeros(8, dtype=complex)
    amps[0b000], amps[0b111] = math.sqrt(1 - eps), math.sqrt(eps)
    assert q.classify_three_qubit(q.PureState(amps, (2, 2, 2))) is q.SloccClass.UNDETERMINED
    # |001> + |010> + |100> + t|111>, normalised, has |hyperdet| ~ 4t/9 = 1e-9
    t = 2.25e-9
    amps = np.zeros(8, dtype=complex)
    amps[[0b001, 0b010, 0b100]], amps[0b111] = 1, t
    psi = q.PureState(amps / np.linalg.norm(amps), (2, 2, 2))
    assert abs(q.hyperdeterminant(psi)) == pytest.approx(4 * t / 9, rel=1e-6)
    assert q.classify_three_qubit(psi) is q.SloccClass.UNDETERMINED


def test_cli_compress_refuses_p0_outside_the_unit_interval(capsys):
    assert main(["compress", "--p0", "1.5", "--n", "10", "--rate", "0.5", "--trials", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "p0 must lie strictly inside (0, 1)" in captured.err


def test_cli_timing_adds_elapsed_ms_and_nothing_else(capsys):
    assert main(["chsh"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(["--timing", "chsh"]) == 0
    timed = json.loads(capsys.readouterr().out)
    assert timed.pop("elapsed_ms") >= 0
    assert timed == plain
