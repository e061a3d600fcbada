"""Closed-form fidelity, optimality verifier, and crosstalk optimizer tests."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mddsim.analysis import (
    DecayRates,
    TwoQubitRates,
    c3_section_feasible,
    dd_entanglement_fidelity,
    decay_rate,
    decay_rate_quadratic,
    grid_minimum_two_qubit,
    lemma_check,
    local_entanglement_fidelity,
    mixed_state_bounds,
    optimize_two_qubit_mdd,
    _haar_batch,
)
from mddsim.experiments import colored_noise_fidelity
from mddsim.noise import (NoiseParams, PhaseCovariantChannel, SpectralDensity, apply_local,
                          combined_channel)
from mddsim.sequences import PulseSchedule, mdd_unitary, udd_times
from mddsim.states import (
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

from helpers import (FeasibilityError, QuadraticFidelity, ansatz_margins, apply_unitary,
                     channel_from_p_gamma, covariant_from_p_gamma, first_order_gap, first_order_residual,
                     gate_error_delta, multi_dd_fidelity, multi_subsystem_bound_check, purification,
                     quadratic_f, random_single_qubit_density, two_qubit_decay_rate)

DEFAULT_NOISE = NoiseParams(t1=250.0, t2=170.0)
LOWER2 = np.array([[0, 1], [0, 0]], dtype=complex)


def random_mixed_sigma(rng):
    return DensityMatrix(random_single_qubit_density(rng))


class TestLocalEntanglementFidelity:
    def test_identity_channel_gives_one(self):
        rng = np.random.default_rng(1)
        ch = combined_channel(DEFAULT_NOISE, 0.0)
        for _ in range(5):
            sigma = random_mixed_sigma(rng)
            u = _haar_batch(1, rng)[0]
            assert local_entanglement_fidelity(sigma, ch, u) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_closed_form(self):
        ch = channel_from_p_gamma(p=0.3, gamma_p=0.8)
        cov = covariant_from_p_gamma(p=0.3, gamma_p=0.8)
        sigma = DensityMatrix(np.eye(2) / 2)
        u = mdd_unitary(PauliExpectations(0, 0, 0))
        # alpha a^2 + beta b^2 = (P00 + P11) / 4 + Re(c) / 2
        expected = (cov.populations[0, 0] + cov.populations[1, 1]) / 4 + cov.coherence.real / 2
        assert local_entanglement_fidelity(sigma, ch, u) == pytest.approx(expected, abs=1e-14)

    def test_matches_purification_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            sigma = random_mixed_sigma(rng)
            u = _haar_batch(1, rng)[0]
            ch = channel_from_p_gamma(p=rng.uniform(0, 0.9), gamma_p=rng.uniform(0.1, 1.0))
            psi = PureState(purification(sigma.entries))
            rotated = apply_unitary(u, psi, [0])
            noisy = apply_local(ch, rotated, qubit=0)
            out = apply_unitary(u.conj().T, noisy, [0])
            brute = entanglement_fidelity(psi, out)
            closed = local_entanglement_fidelity(sigma, ch, u)
            assert closed == pytest.approx(brute, abs=1e-10)

    def test_matches_full_simulation_up_to_six_qubits(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 6):
            psi = haar_random_state(n, seed=int(rng.integers(1 << 31)))
            qubit = int(rng.integers(n))
            sigma = reduced_density(psi, [qubit])
            u = _haar_batch(1, rng)[0]
            ch = combined_channel(DEFAULT_NOISE, 90.0)
            state = apply_unitary(u, psi, [qubit])
            state = apply_local(ch, state, qubit=qubit)
            state = apply_unitary(u.conj().T, state, [qubit])
            brute = entanglement_fidelity(psi, state)
            assert local_entanglement_fidelity(sigma, ch, u) == pytest.approx(brute, abs=1e-10)


class TestQuadraticFidelity:
    def test_pure_input_reaches_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            ch = covariant_from_p_gamma(p=rng.uniform(0, 1), gamma_p=rng.uniform(0, 1))
            assert quadratic_f(1.0, 1.0, ch) == pytest.approx(1.0, abs=1e-12)

    def test_pure_dephasing_degenerate_maxima(self):
        # without damping (s = 1) the quadratic is even in r_z, so both ends
        # of the domain attain the maximum and the extreme point sits at 0
        ch = covariant_from_p_gamma(p=0.0, gamma_p=0.5)
        assert ch.populations[1, 1] == 1.0
        r = 0.7
        assert quadratic_f(r, r, ch) == pytest.approx(quadratic_f(-r, r, ch), abs=1e-12)
        quad = QuadraticFidelity.from_channel(ch, r)
        assert quad.case() == "C1"
        assert quad.extreme_point() == pytest.approx(0.0, abs=1e-14)

    def test_grid_argmax_is_at_r(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            ch = covariant_from_p_gamma(p=rng.uniform(0, 1), gamma_p=rng.uniform(0, 1))
            r = rng.uniform(0, 1)
            quad = QuadraticFidelity.from_channel(ch, r)
            grid = np.linspace(-r, r, 501)
            vals = [quad(rz) for rz in grid]
            assert grid[int(np.argmax(vals))] >= r - 2 * r / 500 - 1e-12
            # the library's fidelity is this quadratic, read from P and c
            assert np.max(np.abs(ch.fidelity(grid, r) - vals)) <= 1e-14

    def test_case_classification_exhaustive_and_consistent(self):
        rng = np.random.default_rng(6)
        seen = set()
        for _ in range(500):
            ch = covariant_from_p_gamma(p=rng.uniform(0, 1), gamma_p=rng.uniform(0, 1))
            case = QuadraticFidelity.from_channel(ch, 1.0).case()
            assert case in ("C1", "C2", "C3")
            seen.add(case)
            quad = QuadraticFidelity.from_channel(ch, 1.0)
            ext = quad.extreme_point()
            if case == "C1":
                assert ext <= 1e-12
            elif case == "C2":
                assert ext >= 1.0 - 1e-12
            else:
                assert 2 * quad.a * quad.b >= -1e-15
        assert "C1" in seen and "C2" in seen

    def test_second_derivative_closed_form(self):
        ch = covariant_from_p_gamma(p=0.4, gamma_p=0.5)
        quad = QuadraticFidelity.from_channel(ch, 0.9)
        # s (s - gamma_p) = P11 - Re(c)
        assert quad.second_derivative() == pytest.approx(ch.populations[1, 1] - ch.coherence.real,
                                                         abs=1e-14)

    def test_domain_validation(self):
        ch = covariant_from_p_gamma(p=0.4, gamma_p=0.5)
        with pytest.raises(ValueError, match="exceeds"):
            quadratic_f(0.8, 0.5, ch)


class TestLemmaCheck:
    def test_pure_sigma_reaches_one(self):
        sigma = DensityMatrix([[1, 0], [0, 0]])
        report = lemma_check(sigma, DEFAULT_NOISE, t=50.0, trials=200, seed=0)
        assert report["mdd_value"] == pytest.approx(1.0, abs=1e-12)
        assert report["violations"] == 0

    def test_maximally_mixed_degenerate_equality(self):
        sigma = DensityMatrix(np.eye(2) / 2)
        report = lemma_check(sigma, DEFAULT_NOISE, t=50.0, trials=500, seed=1)
        assert abs(report["margin"]) < 1e-12
        assert report["violations"] == 0

    def test_random_mixed_states_no_violations(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            sigma = random_mixed_sigma(rng)
            report = lemma_check(sigma, DEFAULT_NOISE, t=float(rng.uniform(1, 400)),
                                 trials=2000, seed=int(rng.integers(1 << 31)))
            assert report["violations"] == 0

    def test_report_serializes(self):
        import json
        report = lemma_check(DensityMatrix(np.eye(2) / 2), DEFAULT_NOISE, 10.0, 50, 3)
        json.dumps(report)

    def test_rotation_grid_argmax_at_aligning_angles(self):
        # argmax of the closed-form fidelity over a fine (theta, phi) grid of
        # rotations aligns the state within grid resolution, and the aligning
        # rotation itself leaves it diagonal with the larger eigenvalue first
        from mddsim.sequences import rot_y, rot_z
        rng = np.random.default_rng(55)
        channel = combined_channel(DEFAULT_NOISE, 150.0)
        # a step of pi/60 in theta and in phi tilts the rotated Bloch vector by at most this
        tilt = math.sqrt(2) * math.pi / 60
        for _ in range(3):
            sigma = random_mixed_sigma(rng)
            b = bloch_vector(sigma)
            u_d = mdd_unitary(b)
            aligned = u_d @ sigma.entries @ u_d.conj().T
            assert abs(aligned[0, 1]) < 1e-12
            assert aligned[0, 0].real - aligned[1, 1].real == pytest.approx(b.r, abs=1e-12)
            thetas = np.linspace(0.0, math.pi, 61)
            phis = np.linspace(-math.pi, math.pi, 121)
            best_val, best_u = -1.0, None
            for theta in thetas:
                for phi in phis:
                    u = rot_y(-theta) @ rot_z(-phi)
                    val = local_entanglement_fidelity(sigma, channel, u)
                    if val > best_val:
                        best_val, best_u = val, u
            rotated = best_u @ sigma.entries @ best_u.conj().T
            assert 2 * abs(rotated[0, 1]) <= b.r * math.sin(tilt) + 1e-12
            assert rotated[0, 0].real - rotated[1, 1].real >= b.r * math.cos(tilt) - 1e-12
            assert best_val <= local_entanglement_fidelity(sigma, channel, u_d) + 1e-12


class TestFirstOrderGap:
    def test_none_with_pure_subsystem(self):
        single = haar_random_state(1, seed=20)
        rest = haar_random_state(1, seed=21)
        psi = PureState(np.kron(single.amplitudes, rest.amplitudes))
        grid = [0.05, 0.1, 0.2, 0.4]
        report = first_order_gap(psi, "none", DEFAULT_NOISE, grid)
        for f_mdd, gap, t in zip(report.mdd_fidelity, report.gap, grid):
            assert f_mdd == pytest.approx(1.0, abs=1e-10)
            assert gap >= -1e-12
            assert gap > 0  # free evolution strictly loses fidelity

    def test_mdd_dominates_xx_small_time(self):
        rng = np.random.default_rng(8)
        grid = [0.1, 0.2, 0.5, 1.0, 2.0, 3.0]
        for _ in range(3):
            psi = haar_random_state(4, seed=int(rng.integers(1 << 31)))
            report = first_order_gap(psi, "xx", DEFAULT_NOISE, grid)
            assert report.margin >= -1e-10

    def test_rejects_large_time_grid(self):
        psi = haar_random_state(2, seed=22)
        with pytest.raises(ValueError, match="small-time"):
            first_order_gap(psi, "xx", DEFAULT_NOISE, [10.0])

    def test_first_order_residual_quadratic(self):
        psi = haar_random_state(3, seed=23)
        grid = np.geomspace(0.05, 3.0, 8)
        for kind in ("xx", "xy4"):
            _, slope = first_order_residual(psi, kind, DEFAULT_NOISE, grid)
            assert slope >= 2.0 - 0.2


class TestGateErrorDelta:
    def test_zero_tilt(self):
        ch = covariant_from_p_gamma(0.2, 0.9)
        assert gate_error_delta(0.7, 0.0, ch) == 0.0

    def test_maximally_mixed_insensitive(self):
        ch = covariant_from_p_gamma(0.2, 0.9)
        assert gate_error_delta(0.0, 0.3, ch) == 0.0

    def test_matches_exact_difference_to_fourth_order(self):
        ch = covariant_from_p_gamma(p=0.2, gamma_p=0.9)
        r = 1.0
        quad = QuadraticFidelity.from_channel(ch, r)
        residual_ratio = []
        for delta in (0.1, 0.05, 0.025):
            exact = quad(r) - quad(r * math.cos(delta))
            approx = gate_error_delta(r, delta, ch)
            assert abs(approx - exact) < delta**4
            residual_ratio.append(abs(approx - exact) / delta**4)
        assert max(residual_ratio) < 10 * max(min(residual_ratio), 1e-6)


class TestMixedStateBounds:
    def test_pure_subsystem_bounds_collapse_to_one(self):
        sigma = DensityMatrix([[1, 0], [0, 0]])
        upper, lower = mixed_state_bounds(sigma, covariant_from_p_gamma(0.3, 0.7))
        assert upper == pytest.approx(1.0, abs=1e-12)
        assert lower == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_closed_forms(self):
        p, gp = 0.35, 0.6
        ch = covariant_from_p_gamma(p, gp)
        upper, lower = mixed_state_bounds(DensityMatrix(np.eye(2) / 2), ch)
        assert upper == pytest.approx((1 + math.sqrt(1 - p**2)) / 2, abs=1e-12)
        assert lower == pytest.approx((2 - p + 2 * gp * math.sqrt(1 - p)) / 4, abs=1e-12)

    def test_simulated_fidelity_between_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            sigma = random_single_qubit_density(rng)
            vals, vecs = np.linalg.eigh(sigma)
            diag = DensityMatrix(np.diag(np.maximum(vals[::-1], 0) / np.maximum(vals, 0).sum()))
            p, gp = rng.uniform(0, 0.9), rng.uniform(0.1, 1.0)
            upper, lower = mixed_state_bounds(diag, covariant_from_p_gamma(p, gp))
            psi = PureState(purification(diag.entries))
            # already aligned: conjugation is trivial
            out = apply_local(channel_from_p_gamma(p, gp), psi, qubit=0)
            fe = entanglement_fidelity(psi, out)
            assert lower - 1e-10 <= fe <= upper + 1e-10

    def test_rejects_non_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            mixed_state_bounds(DensityMatrix(0.5 * (np.eye(2) + 0.5 * np.array([[0, 1], [1, 0]]))),
                               covariant_from_p_gamma(0.1, 0.9))


class TestDecayRate:
    def test_aligned_pure_state_is_steady(self):
        rates = DecayRates.from_noise(DEFAULT_NOISE)
        sigma = DensityMatrix([[1, 0], [0, 0]])
        assert decay_rate(sigma, np.eye(2), rates) == pytest.approx(0.0, abs=1e-14)

    def test_non_finite_unitary_rejected(self):
        rates = DecayRates.from_noise(DEFAULT_NOISE)
        with pytest.raises(ValueError, match="unitary"):
            decay_rate(DensityMatrix(np.eye(2) / 2), np.full((2, 2), np.nan), rates)

    def test_maximally_mixed_rate(self):
        rates = DecayRates.from_noise(DEFAULT_NOISE)
        sigma = DensityMatrix(np.eye(2) / 2)
        rng = np.random.default_rng(10)
        expected = rates.gamma1 / 2 + rates.gamma2
        for u in _haar_batch(5, rng):
            assert decay_rate(sigma, u, rates) == pytest.approx(expected, abs=1e-12)

    def test_matches_finite_difference_of_fidelity(self):
        rng = np.random.default_rng(11)
        rates = DecayRates.from_noise(DEFAULT_NOISE)
        for _ in range(25):
            sigma = random_mixed_sigma(rng)
            u = _haar_batch(1, rng)[0]
            formula = decay_rate(sigma, u, rates)

            def fid(t):
                return local_entanglement_fidelity(sigma, combined_channel(DEFAULT_NOISE, t), u)

            h = 1e-3
            r1 = (fid(0.0) - fid(h)) / h
            r2 = (fid(0.0) - fid(2 * h)) / (2 * h)
            fd = 2 * r1 - r2  # Richardson extrapolation, O(h^2)
            assert formula == pytest.approx(fd, rel=1e-6, abs=1e-12)

    def test_minimized_by_aligning_rotation(self):
        rng = np.random.default_rng(12)
        rates = DecayRates.from_noise(DEFAULT_NOISE)
        for _ in range(5):
            sigma = random_mixed_sigma(rng)
            b = bloch_vector(sigma)
            u_d = mdd_unitary(b)
            best = decay_rate(sigma, u_d, rates)
            for u in _haar_batch(2000, rng):
                assert decay_rate(sigma, u, rates) >= best - 1e-12


class TestTwoQubitDecayRate:
    def rates(self, rng=None, gamma_zz=0.02):
        return TwoQubitRates(DecayRates(0.004, 0.002), DecayRates(0.005, 0.0015), gamma_zz)

    def test_pure_aligned_rate_is_zero(self):
        rate = two_qubit_decay_rate((1, 1, 1), 1.0, 1.0, self.rates())
        assert rate == pytest.approx(0.0, abs=1e-14)

    def test_decoupled_limit_is_sum_of_singles(self):
        rates = TwoQubitRates(DecayRates(0.004, 0.002), DecayRates(0.005, 0.0015), 0.0)
        c = (0.3, -0.2, 0.1)
        total = two_qubit_decay_rate(c, 0.8, 0.6, rates)
        split = (decay_rate_quadratic(0.8, 0.3, rates.qubit_i)
                 + decay_rate_quadratic(0.6, -0.2, rates.qubit_j))
        assert total == pytest.approx(split, abs=1e-15)

    def test_matches_variance_oracle_on_diagonal_ansatz(self):
        # independent re-derivation: explicit 4x4 ansatz state and jump
        # operator variances, evaluated with the subsystem norms the diagonal
        # state actually has (|c1|, |c2|)
        rng = np.random.default_rng(13)
        rates = self.rates()
        eye = np.eye(2)
        jumps = [
            (np.kron(LOWER2, eye), rates.qubit_i.gamma1),
            (np.kron(PAULI_Z, eye), rates.qubit_i.gamma2),
            (np.kron(eye, LOWER2), rates.qubit_j.gamma1),
            (np.kron(eye, PAULI_Z), rates.qubit_j.gamma2),
            (np.kron(PAULI_Z, PAULI_Z), rates.gamma_zz),
        ]
        found = 0
        while found < 20:
            c = rng.uniform(-1, 1, size=3)
            if not min(ansatz_margins(c)) > 0:
                continue
            found += 1
            sigma = 0.25 * (np.eye(4) + c[0] * np.kron(PAULI_Z, eye)
                            + c[1] * np.kron(eye, PAULI_Z) + c[2] * np.kron(PAULI_Z, PAULI_Z))
            oracle = 0.0
            for op, gamma in jumps:
                var = (np.trace(sigma @ op.conj().T @ op) - abs(np.trace(sigma @ op)) ** 2).real
                oracle += gamma * var
            formula = two_qubit_decay_rate(c, abs(c[0]), abs(c[1]), rates)
            assert formula == pytest.approx(oracle, abs=1e-12)

    def test_infeasible_coefficients_rejected(self):
        with pytest.raises(FeasibilityError):
            two_qubit_decay_rate((1.0, -1.0, 0.5), 1.0, 1.0, self.rates())


class TestC3Section:
    def test_pinning_c3_to_one_is_infeasible(self):
        assert not c3_section_feasible(1)
        assert not c3_section_feasible(Fraction(1))

    def test_interior_sections_feasible(self):
        assert c3_section_feasible(Fraction(1, 2))
        assert c3_section_feasible(0)
        assert not c3_section_feasible(-1)


class TestOptimizer:
    def test_pure_inputs_return_unit_coefficients(self):
        rates = TwoQubitRates(DecayRates(0.004, 0.002), DecayRates(0.005, 0.0015), 0.02)
        coeffs, rate = optimize_two_qubit_mdd(1.0, 1.0, rates)
        assert coeffs == (1.0, 1.0, 1.0)
        assert rate == 0.0

    def test_beats_grid_oracle_on_random_instances(self):
        rng = np.random.default_rng(14)
        for trial in range(4):
            rates = TwoQubitRates(
                DecayRates(rng.uniform(0.001, 0.01), rng.uniform(0.0005, 0.005)),
                DecayRates(rng.uniform(0.001, 0.01), rng.uniform(0.0005, 0.005)),
                rng.uniform(0.0, 0.02),
            )
            r_i, r_j = rng.uniform(0, 1), rng.uniform(0, 1)
            _, opt_rate = optimize_two_qubit_mdd(r_i, r_j, rates, seed=trial)
            _, grid_rate = grid_minimum_two_qubit(r_i, r_j, rates, points=101)
            assert opt_rate <= grid_rate + 1e-9

    def test_grid_needs_two_points(self):
        rates = TwoQubitRates(DecayRates(0.004, 0.002), DecayRates(0.005, 0.0015), 0.02)
        with pytest.raises(ValueError, match="at least 2 points"):
            grid_minimum_two_qubit(0.7, 0.4, rates, points=1)
        best, rate = grid_minimum_two_qubit(0.7, 0.4, rates, points=2)
        assert best == (1.0, 1.0, 1.0)
        assert rate == two_qubit_decay_rate(best, 0.7, 0.4, rates)

    def test_optimizer_point_is_feasible(self):
        rates = TwoQubitRates(DecayRates(0.004, 0.002), DecayRates(0.005, 0.0015), 0.02)
        coeffs, _ = optimize_two_qubit_mdd(0.7, 0.4, rates, seed=5)
        assert min(ansatz_margins(coeffs)) >= -1e-9


class TestMultiSubsystem:
    def test_single_qubit_reduces_to_gap(self):
        psi = haar_random_state(3, seed=30)
        report = multi_subsystem_bound_check(psi, [0], ["xx"], [2.0], DEFAULT_NOISE)
        assert report.passed()

    def test_ghz_two_noisy_qubits(self):
        amps = np.zeros(16)
        amps[0] = amps[15] = 1 / math.sqrt(2)
        ghz = PureState(amps)
        report = multi_subsystem_bound_check(ghz, [0, 2], ["xx", "xx"], [3.0, 2.0], DEFAULT_NOISE)
        assert report.passed()
        assert report.margin >= -1e-10

    def test_zero_noise_fidelities_are_one(self):
        from mddsim.noise import NOISELESS
        psi = haar_random_state(3, seed=31)
        f_mdd = multi_dd_fidelity(psi, [0, 1], ["mdd", "mdd"], [5.0, 5.0], NOISELESS)
        f_bb = multi_dd_fidelity(psi, [0, 1], ["xx", "xy4"], [5.0, 5.0], NOISELESS)
        assert f_mdd == pytest.approx(1.0, abs=1e-12)
        assert f_bb == pytest.approx(1.0, abs=1e-12)

    def test_overlapping_qubits_rejected(self):
        psi = haar_random_state(3, seed=32)
        with pytest.raises(ValueError, match="distinct"):
            multi_dd_fidelity(psi, [0, 0], ["xx", "xx"], [1.0, 1.0], DEFAULT_NOISE)


NAN_PSI = haar_random_state(2, seed=5)
NAN_CASES = {
    **{f"dd-{kind}": lambda kind=kind: dd_entanglement_fidelity(NAN_PSI, kind, DEFAULT_NOISE, math.nan)
       for kind in ("none", "xx", "udd8", "mdd")},
    **{f"colored-{kind}": lambda kind=kind: colored_noise_fidelity(
        NAN_PSI, kind, 250.0, SpectralDensity("ohmic", omega_c=0.1), math.nan, chi=0.1)
       for kind in ("none", "xx", "udd8", "mdd")},
    "schedule-total": lambda: PulseSchedule(math.nan, ()),
    "schedule-first": lambda: PulseSchedule(1.0, ((math.nan, PAULI_X), (0.5, PAULI_X))),
    "schedule-inner": lambda: PulseSchedule(1.0, ((0.2, PAULI_X), (math.nan, PAULI_X), (0.8, PAULI_X))),
    "schedule-last": lambda: PulseSchedule(1.0, ((0.5, PAULI_X), (math.nan, PAULI_X))),
    "relaxation": lambda: PhaseCovariantChannel.relaxation(DEFAULT_NOISE, math.nan),
    "combined": lambda: combined_channel(DEFAULT_NOISE, math.nan),
    "udd-times": lambda: udd_times(4, math.nan),
    "lemma": lambda: lemma_check(reduced_density(NAN_PSI, [0]), DEFAULT_NOISE, math.nan, 10, 0),
}


@pytest.mark.parametrize("case", NAN_CASES)
def test_nan_duration_rejected(case):
    # NaN fails every comparison, so a check written as `t < 0` lets it through: a NaN
    # duration used to skip every gap and report fidelity 1, and combined_channel to fail
    # its completeness check instead of naming the duration
    with pytest.raises(ValueError, match="duration|total time|pulse times"):
        NAN_CASES[case]()
