"""Core state container and fidelity functional tests."""

import numpy as np
import pytest

from mddsim.states import (
    ATOL,
    EIG_FLOOR,
    DensityMatrix,
    PAULI_X,
    PAULI_Z,
    PauliExpectations,
    PureState,
    bloch_vector,
    entanglement_fidelity,
    haar_random_state,
    reduced_density,
)
from mddsim.analysis import _haar_batch
from mddsim.noise import KrausChannel, apply_local

from helpers import (basis_state, channel_from_p_gamma, density_from_bloch, embed_operator,
                     fidelity, naive_reduced, pure_density)

BELL = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))


class TestContainers:
    def test_pure_state_norm_validation(self):
        with pytest.raises(ValueError, match="norm"):
            PureState([1.0, 1.0])

    def test_pure_state_dimension_validation(self):
        with pytest.raises(ValueError):
            PureState([1.0, 0.0, 0.0])

    def test_pure_state_immutable(self):
        psi = PureState([1.0, 0.0])
        with pytest.raises(AttributeError):
            psi.num_qubits = 3
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.5

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix([[0.9, 0.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix([[1.5, 0.0], [0.0, -0.5]])

    def test_qubit_zero_is_leftmost_factor(self):
        psi = basis_state("01")
        assert psi.amplitudes[1] == 1.0
        np.testing.assert_allclose(reduced_density(psi, [0]).entries, [[1, 0], [0, 0]], atol=1e-14)
        np.testing.assert_allclose(reduced_density(psi, [1]).entries, [[0, 0], [0, 1]], atol=1e-14)

    def test_bloch_vector_norm_validation(self):
        with pytest.raises(ValueError, match="norm"):
            PauliExpectations(1.0, 1.0, 0.0)

    def test_state_at_the_eigenvalue_floor_measures(self):
        # eigenvalues 1 + 5e-11 and -5e-11: a valid state whose Bloch norm is 1 + 1e-10
        b = bloch_vector(DensityMatrix(0.5 * (np.eye(2) + (1 + 1e-10) * PAULI_Z)))
        assert b.ez == pytest.approx(1 + 1e-10, abs=1e-15)
        for norm in (1 + 1e-6, np.nan):
            with pytest.raises(ValueError, match="norm"):
                PauliExpectations(0.0, 0.0, norm)

    @pytest.mark.parametrize("seed", range(8))
    def test_every_valid_state_measures(self, seed):
        # trace, lower eigenvalue and off-diagonal asymmetry all near their tolerances
        u = _haar_batch(1, np.random.default_rng(seed))[0]
        lam = 0.99 * EIG_FLOOR
        rho = u @ np.diag([1 + 0.99 * ATOL + lam, -lam]) @ u.conj().T
        rho[0, 1] += 0.49 * ATOL * rho[0, 1] / abs(rho[0, 1])
        assert bloch_vector(DensityMatrix(rho)).r > 1 + EIG_FLOOR

    @pytest.mark.parametrize("build", [
        lambda: PureState([np.nan, 0.0]),
        lambda: DensityMatrix(np.full((2, 2), np.nan)),
        lambda: PauliExpectations(np.nan, 0.0, 0.0),
        lambda: PauliExpectations(1e200, 0.0, 0.0),
        lambda: PauliExpectations(0.0, 0.0, -1e200),
        lambda: KrausChannel([np.full((2, 2), np.nan)]),
    ], ids=["pure", "density", "bloch", "bloch-huge-x", "bloch-huge-z", "kraus"])
    def test_non_finite_entries_rejected(self, build):
        # a NaN compares false with every bound, so a check written as `x > tol` lets it through;
        # a huge finite component must not overflow the norm check into an OverflowError
        with pytest.raises(ValueError):
            build()


class TestReducedDensity:
    def test_product_state(self):
        psi = basis_state("00")
        np.testing.assert_allclose(reduced_density(psi, [0]).entries, [[1, 0], [0, 0]], atol=1e-14)

    def test_bell_state_maximally_mixed(self):
        np.testing.assert_allclose(reduced_density(BELL, [0]).entries, np.eye(2) / 2, atol=1e-14)

    def test_against_nested_loop_partial_trace(self):
        psi = haar_random_state(3, seed=11)
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        for keep in ([1], [0, 2], [2], [0, 1]):
            expected = naive_reduced(rho, 3, keep)
            np.testing.assert_allclose(reduced_density(psi, keep).entries, expected, atol=1e-12)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            psi = haar_random_state(4, seed=rng.integers(1 << 31))
            red = reduced_density(psi, [0, 2])
            assert abs(np.trace(red.entries) - 1) < 1e-12
            np.testing.assert_allclose(red.entries, red.entries.conj().T, atol=1e-12)

    def test_index_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            reduced_density(BELL, [2])
        with pytest.raises(ValueError, match="distinct"):
            reduced_density(BELL, [0, 0])

    def test_generator_argument(self):
        psi = haar_random_state(3, seed=1)
        red = reduced_density(psi, (q for q in [0, 1]))
        np.testing.assert_array_equal(red.entries, reduced_density(psi, [0, 1]).entries)
        with pytest.raises(ValueError, match="distinct"):
            reduced_density(psi, (q for q in [1, 1]))

    def test_pure_branch_matches_density_branch(self):
        rng = np.random.default_rng(12)
        for n in range(1, 8):
            psi = haar_random_state(n, seed=int(rng.integers(1 << 31)))
            rho = pure_density(psi)
            for _ in range(4):
                keep = sorted(rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False))
                np.testing.assert_allclose(reduced_density(psi, keep).entries,
                                           reduced_density(rho, keep).entries, rtol=0, atol=1e-12)


class TestBlochVector:
    def test_ground_state(self):
        b = bloch_vector(DensityMatrix([[1, 0], [0, 0]]))
        assert (b.ex, b.ey, b.ez) == (0.0, 0.0, 1.0)

    def test_maximally_mixed(self):
        b = bloch_vector(DensityMatrix(np.eye(2) / 2))
        assert b.r < 1e-14

    def test_direct_trace_evaluation(self):
        rho = DensityMatrix(0.5 * (np.eye(2) + 0.3 * PAULI_X + 0.4 * PAULI_Z))
        b = bloch_vector(rho)
        np.testing.assert_allclose([b.ex, b.ey, b.ez], [0.3, 0.0, 0.4], atol=1e-14)
        assert abs(b.r - 0.5) < 1e-14

    def test_round_trip_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            v = rng.standard_normal(3)
            v *= rng.uniform(0, 1) / np.linalg.norm(v)
            rho = density_from_bloch(PauliExpectations(*v))
            b = bloch_vector(rho)
            np.testing.assert_allclose([b.ex, b.ey, b.ez], v, atol=1e-12)

    def test_requires_single_qubit(self):
        with pytest.raises(ValueError, match="single-qubit"):
            bloch_vector(reduced_density(haar_random_state(3, 1), [0, 1]))


class TestFidelity:
    def test_self_fidelity(self):
        rho = reduced_density(haar_random_state(2, seed=3), [0])
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        zero = DensityMatrix([[1, 0], [0, 0]])
        one = DensityMatrix([[0, 0], [0, 1]])
        assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        zero = DensityMatrix([[1, 0], [0, 0]])
        assert fidelity(zero, DensityMatrix(np.eye(2) / 2)) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry_and_unitary_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = reduced_density(haar_random_state(3, seed=rng.integers(1 << 31)), [0])
            y = reduced_density(haar_random_state(3, seed=rng.integers(1 << 31)), [1])
            f = fidelity(x, y)
            assert f == pytest.approx(fidelity(y, x), abs=1e-10)
            u = _haar_batch(1, rng, 2)[0]
            xu = DensityMatrix(u @ x.entries @ u.conj().T)
            yu = DensityMatrix(u @ y.entries @ u.conj().T)
            assert fidelity(xu, yu) == pytest.approx(f, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(4) / 4))


class TestEntanglementFidelity:
    def test_identity_channel(self):
        psi = haar_random_state(3, seed=2)
        assert entanglement_fidelity(psi, pure_density(psi)) == pytest.approx(1.0, abs=1e-12)

    def test_bit_flip_on_ground_state(self):
        psi = PureState([1.0, 0.0])
        flipped = DensityMatrix(PAULI_X @ pure_density(psi).entries @ PAULI_X)
        assert entanglement_fidelity(psi, flipped) == pytest.approx(0.0, abs=1e-14)

    def test_bell_state_combined_channel_closed_form(self):
        channel = channel_from_p_gamma(p=0.2, gamma_p=0.9)
        out = apply_local(channel, BELL, qubit=0)
        brute = entanglement_fidelity(BELL, out)
        sigma = np.eye(2) / 2
        closed = sum(abs(np.trace(m @ sigma)) ** 2 for m in channel.operators)
        assert brute == pytest.approx(closed, abs=1e-12)

    def test_sandwiched_by_fidelity(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            psi = haar_random_state(2, seed=rng.integers(1 << 31))
            channel = channel_from_p_gamma(p=rng.uniform(0, 0.9), gamma_p=rng.uniform(0.1, 1))
            rho = apply_local(channel, psi, qubit=0)
            fe = entanglement_fidelity(psi, rho)
            f = fidelity(pure_density(psi), rho)
            assert fe <= f + 1e-10
            assert f <= 1 + 1e-12


class TestHaarRandomState:
    def test_deterministic_for_fixed_seed(self):
        a = haar_random_state(1, seed=7)
        b = haar_random_state(1, seed=7)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_normalized(self):
        psi = haar_random_state(2, seed=1)
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12

    def test_first_moment_and_rotation_invariance(self):
        probs, probs_rot = [], []
        u = _haar_batch(1, np.random.default_rng(99), 2)[0]
        for seed in range(10_000):
            amps = haar_random_state(1, seed=seed).amplitudes
            probs.append(abs(amps[0]) ** 2)
            probs_rot.append(abs((u @ amps)[0]) ** 2)
        assert np.mean(probs) == pytest.approx(0.5, abs=0.02)
        assert np.mean(probs_rot) == pytest.approx(0.5, abs=0.02)

    def test_qubit_count_validation(self):
        with pytest.raises(ValueError):
            haar_random_state(0, seed=1)
        with pytest.raises(ValueError):
            haar_random_state(13, seed=1)


class TestEmbedOperator:
    def test_single_target_matches_kron(self):
        np.testing.assert_allclose(embed_operator(PAULI_X, [1], 2), np.kron(np.eye(2), PAULI_X))
        np.testing.assert_allclose(embed_operator(PAULI_X, [0], 2), np.kron(PAULI_X, np.eye(2)))

    def test_reversed_two_qubit_targets(self):
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        # control on qubit 1, target on qubit 0: |01> -> |11>
        full = embed_operator(cnot, [1, 0], 2)
        state = np.zeros(4)
        state[1] = 1.0
        out = full @ state
        assert abs(out[3]) == pytest.approx(1.0)

    def test_nonadjacent_targets(self):
        cz = np.diag([1, 1, 1, -1]).astype(complex)
        full = embed_operator(cz, [0, 2], 3)
        # |101> picks up the phase, |100> does not
        assert full[0b101, 0b101] == pytest.approx(-1.0)
        assert full[0b100, 0b100] == pytest.approx(1.0)
        assert full[0b011, 0b011] == pytest.approx(1.0)
