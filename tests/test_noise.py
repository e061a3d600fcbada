"""Combined channel, Lindblad generator, and filter-function tests."""

import math
import warnings

import numpy as np
import pytest

from mddsim.noise import (
    JumpOperator,
    KrausChannel,
    NoiseParams,
    PhaseCovariantChannel,
    QuadratureError,
    SpectralDensity,
    apply_local,
    chi_integral,
    combined_channel,
    filter_function,
    lindblad_derivative,
    relaxation_dephasing_jumps,
)
from mddsim.sequences import udd_times
from mddsim.states import DensityMatrix, PAULI_X, PAULI_Z, PureState, haar_random_state

from helpers import (basis_state, dephasing_channel_from_chi, pure_density,
                     random_single_qubit_density)

DEFAULT_NOISE = NoiseParams(t1=250.0, t2=170.0)


def loglog_slope(x, y):
    return np.polyfit(np.log(x), np.log(y), 1)[0]


class TestNoiseParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseParams(t1=-1.0, t2=1.0)
        with pytest.raises(ValueError):
            NoiseParams(t1=100.0, t2=250.0)  # T2 > 2 T1

    def test_pure_dephasing_time(self):
        assert DEFAULT_NOISE.tp == pytest.approx(1.0 / (1.0 / 170.0 - 1.0 / 500.0))
        assert NoiseParams(t1=100.0, t2=200.0).tp == math.inf

    def test_scalar_factorization(self):
        # the coherence c = s * gamma_p must reproduce the total off-diagonal factor e^{-t/T2}
        for t in (0.0, 1.0, 37.5, 400.0):
            c = PhaseCovariantChannel.relaxation(DEFAULT_NOISE, t).coherence
            assert c == pytest.approx(math.exp(-t / 170.0), rel=1e-12)


class TestCombinedChannel:
    def test_zero_duration_is_identity(self):
        ch = combined_channel(DEFAULT_NOISE, 0.0)
        np.testing.assert_allclose(ch.operators[0], np.eye(2), atol=1e-15)
        rho = random_single_qubit_density(np.random.default_rng(0))
        np.testing.assert_allclose(ch.apply(rho), rho, atol=1e-14)

    def test_ground_state_invariant(self):
        rng = np.random.default_rng(42)
        ground = np.array([[1, 0], [0, 0]], dtype=complex)
        for _ in range(50):
            t1 = rng.uniform(10, 500)
            params = NoiseParams(t1=t1, t2=rng.uniform(1, 2 * t1))
            ch = combined_channel(params, rng.uniform(0, 1000))
            np.testing.assert_allclose(ch.apply(ground), ground, atol=1e-14)

    def test_matrix_action(self):
        # E(rho) = [[r00 + p r11, g2 r01], [g2 r10, (1-p) r11]]
        t = 100.0
        ch = combined_channel(NoiseParams(t1=250.0, t2=170.0), t)
        rho = random_single_qubit_density(np.random.default_rng(3))
        out = ch.apply(rho)
        p = 1.0 - math.exp(-t / 250.0)
        g2 = math.exp(-t / 170.0)
        expected = np.array([
            [rho[0, 0] + p * rho[1, 1], g2 * rho[0, 1]],
            [g2 * rho[1, 0], (1 - p) * rho[1, 1]],
        ])
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_off_diagonal_shrinks_by_t2_factor(self):
        ch = combined_channel(DEFAULT_NOISE, 100.0)
        plus = 0.5 * (np.eye(2) + PAULI_X)
        out = ch.apply(plus)
        assert out[0, 1].real == pytest.approx(0.5 * math.exp(-100.0 / 170.0), rel=1e-12)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            combined_channel(DEFAULT_NOISE, -1.0)

    def test_completeness_and_cptp_output(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            t1 = rng.uniform(10, 500)
            params = NoiseParams(t1=t1, t2=rng.uniform(1, 2 * t1))
            ch = combined_channel(params, rng.uniform(0, 600))
            total = sum(m.conj().T @ m for m in ch.operators)
            np.testing.assert_allclose(total, np.eye(2), atol=1e-12)
            out = ch.apply(random_single_qubit_density(rng))
            assert abs(np.trace(out) - 1) < 1e-12
            np.testing.assert_allclose(out, out.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(out).min() > -1e-10

    def test_semigroup_composition(self):
        rho = random_single_qubit_density(np.random.default_rng(21))
        one = combined_channel(DEFAULT_NOISE, 80.0).apply(combined_channel(DEFAULT_NOISE, 45.0).apply(rho))
        direct = combined_channel(DEFAULT_NOISE, 125.0).apply(rho)
        np.testing.assert_allclose(one, direct, atol=1e-10)

    def test_incomplete_kraus_set_rejected(self):
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel(operators=(0.5 * np.eye(2),))

    def test_channels_compare_and_hash_by_identity(self):
        first = combined_channel(DEFAULT_NOISE, 80.0)
        second = combined_channel(DEFAULT_NOISE, 80.0)
        assert first == first and first != second
        assert len({first, second, first}) == 2
        assert hash(first) == hash(first)

    def test_operator_forms_from_scalars(self):
        # the four operators combine the damping pair (aI + bZ, sqrt(p) |0><1|)
        # with the dephasing pair (sqrt(alpha) I, sqrt(beta) Z); the scalars are read
        # off the same channel's P = [[1, p], [0, s^2]] and c = s gamma_p
        ch = combined_channel(DEFAULT_NOISE, 80.0)
        cov = PhaseCovariantChannel.relaxation(DEFAULT_NOISE, 80.0)
        p, s = cov.populations[0, 1], math.sqrt(cov.populations[1, 1])
        gamma_p = cov.coherence.real / s
        a, b = (1 + s) / 2, (1 - s) / 2
        alpha, beta = (1 + gamma_p) / 2, (1 - gamma_p) / 2
        lower = np.array([[0, 1], [0, 0]], dtype=complex)
        expected = (
            math.sqrt(alpha) * (a * np.eye(2) + b * PAULI_Z),
            math.sqrt(alpha) * math.sqrt(p) * lower,
            math.sqrt(beta) * (b * np.eye(2) + a * PAULI_Z),
            math.sqrt(beta) * math.sqrt(p) * lower,
        )
        for op, want in zip(ch.operators, expected):
            np.testing.assert_allclose(op, want, atol=1e-15)


class TestApplyLocal:
    def test_identity_channel_no_op(self):
        psi = haar_random_state(3, seed=5)
        out = apply_local(combined_channel(DEFAULT_NOISE, 0.0), psi, qubit=1)
        np.testing.assert_allclose(out.entries, pure_density(psi).entries, atol=1e-13)

    def test_full_damping_relaxes_to_ground(self):
        psi = basis_state("11")
        out = apply_local(combined_channel(DEFAULT_NOISE, 60.0 * 250.0), psi, qubit=0)
        expected = pure_density(basis_state("01")).entries
        np.testing.assert_allclose(out.entries, expected, atol=1e-12)

    def test_locality_leaves_other_qubit_untouched(self):
        from mddsim.states import reduced_density
        bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))
        before = reduced_density(bell, [1]).entries
        t = -250.0 * math.log(0.7)  # damping probability p = 0.3
        out = apply_local(combined_channel(DEFAULT_NOISE, t), bell, qubit=0)
        after = reduced_density(out, [1]).entries
        np.testing.assert_allclose(after, before, atol=1e-12)

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_local(combined_channel(DEFAULT_NOISE, 1.0), haar_random_state(2, 1), qubit=2)


class TestLindbladDerivative:
    def test_ground_state_is_steady(self):
        rho = DensityMatrix([[1, 0], [0, 0]])
        deriv = lindblad_derivative(rho, None, relaxation_dephasing_jumps(DEFAULT_NOISE))
        np.testing.assert_allclose(deriv, 0, atol=1e-15)

    def test_maximally_mixed_is_dephasing_fixed_point(self):
        rho = DensityMatrix(np.eye(2) / 2)
        jumps = [JumpOperator(PAULI_Z, 0.01, (0,))]
        np.testing.assert_allclose(lindblad_derivative(rho, None, jumps), 0, atol=1e-15)

    def test_dephasing_off_diagonal_rate(self):
        # a Z jump at rate G decays coherences as exp(-2 G t)
        gamma = 0.004
        rho = DensityMatrix(0.5 * (np.eye(2) + PAULI_X))
        deriv = lindblad_derivative(rho, None, [JumpOperator(PAULI_Z, gamma, (0,))])
        assert deriv[0, 1].real == pytest.approx(-2.0 * gamma * 0.5, rel=1e-12)

    def test_traceless_and_hermitian(self):
        rng = np.random.default_rng(31)
        rho = DensityMatrix(random_single_qubit_density(rng))
        h = np.array([[0.3, 0.1], [0.1, -0.3]], dtype=complex)
        deriv = lindblad_derivative(rho, h, relaxation_dephasing_jumps(DEFAULT_NOISE))
        assert abs(np.trace(deriv)) < 1e-12
        np.testing.assert_allclose(deriv, deriv.conj().T, atol=1e-12)

    def test_matches_channel_finite_difference(self):
        rng = np.random.default_rng(77)
        rho = random_single_qubit_density(rng)
        gen = lindblad_derivative(DensityMatrix(rho), None, relaxation_dephasing_jumps(DEFAULT_NOISE))
        errors = {}
        for dt in (1e-3, 1e-4):
            fd = (combined_channel(DEFAULT_NOISE, dt).apply(rho) - rho) / dt
            errors[dt] = np.max(np.abs(fd - gen))
        c_est = errors[1e-3] / 1e-3
        assert errors[1e-4] <= 1.5 * c_est * 1e-4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            lindblad_derivative(DensityMatrix(np.eye(2) / 2), np.eye(4), [])


class TestFilterFunction:
    def test_free_evolution_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            t = rng.uniform(0.1, 1000.0)
            w = rng.uniform(0.0, 5.0)
            assert filter_function([], t, w) == pytest.approx(4 * math.sin(w * t / 2) ** 2, abs=1e-12)

    def test_dc_always_filtered(self):
        for times in ([], [0.5], [0.25, 0.75], list(udd_times(8, 1.0))):
            assert filter_function(times, 1.0, 0.0) == pytest.approx(0.0, abs=1e-24)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            filter_function([0.75, 0.25], 1.0, 1.0)
        with pytest.raises(ValueError, match="inside"):
            filter_function([0.0, 0.5], 1.0, 1.0)
        with pytest.raises(ValueError, match="inside"):
            filter_function([0.5, 1.0], 1.0, 1.0)

    def test_single_echo_low_frequency_slope(self):
        ws = np.geomspace(1e-4, 1e-3, 12)
        fs = [filter_function([0.5], 1.0, w) for w in ws]
        assert loglog_slope(ws, fs) == pytest.approx(4.0, abs=0.01)

    def test_low_frequency_order_matches_uhrig_order(self):
        # n nonuniform pulses suppress to order n: F ~ w^(2n+2). The 25%/75%
        # two-pulse train coincides with the order-2 times, so its exact
        # low-frequency slope is 6.
        ws = np.geomspace(1e-4, 1e-3, 12)
        xx = [filter_function([0.25, 0.75], 1.0, w) for w in ws]
        assert loglog_slope(ws, xx) == pytest.approx(6.0, abs=0.05)
        for n, window in ((2, (1e-4, 1e-3)), (4, (1e-2, 3e-2))):
            ws = np.geomspace(*window, 12)
            fs = [filter_function(list(udd_times(n, 1.0)), 1.0, w) for w in ws]
            assert loglog_slope(ws, fs) == pytest.approx(2 * (n + 1), rel=0.05)


class TestChiIntegral:
    def test_ohmic_free_evolution_closed_form(self):
        # (2/pi) Int e^{-(w/wc)^2} 4 sin^2(wt/2) dw = (2/sqrt(pi)) wc (1 - e^{-(wc t/2)^2})
        spec = SpectralDensity("ohmic", omega_c=0.1)
        for t in (5.0, 50.0, 400.0):
            expected = (2.0 / math.sqrt(math.pi)) * 0.1 * (1.0 - math.exp(-((0.1 * t / 2) ** 2)))
            assert chi_integral(spec, [], t) == pytest.approx(expected, rel=1e-7)

    def test_vanishes_for_vanishing_duration(self):
        spec = SpectralDensity("ohmic", omega_c=0.1)
        assert chi_integral(spec, [], 1e-6) < 1e-8

    def test_monotone_in_duration_free_evolution(self):
        spec = SpectralDensity("ohmic", omega_c=0.1)
        grid = np.linspace(5.0, 500.0, 25)
        chis = [chi_integral(spec, [], t) for t in grid]
        assert all(b >= a - 1e-12 for a, b in zip(chis, chis[1:]))

    def test_pulsed_suppression_beats_free_evolution(self):
        for kind in ("ohmic", "one_over_f"):
            spec = SpectralDensity(kind, omega_c=0.1)
            t = 40.0
            free = chi_integral(spec, [], t)
            udd8 = chi_integral(spec, list(udd_times(8, t)), t)
            assert udd8 < free

    def test_one_over_f_finite(self):
        spec = SpectralDensity("one_over_f", omega_c=0.1)
        val = chi_integral(spec, [], 100.0)
        assert math.isfinite(val) and val > 0

    @pytest.mark.parametrize("kind", ["ohmic", "one_over_f"])
    @pytest.mark.parametrize("flips", [[], [0.25e300, 0.75e300]], ids=["none", "xx"])
    def test_non_finite_estimate_raises(self, kind, flips):
        # omega t overflows in the filter function, so quad returns NaN with a NaN error;
        # the overflow is silent, and the finiteness check is what reports it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="estimate nan"):
                chi_integral(SpectralDensity(kind, omega_c=1e300), flips, 1e300)

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            SpectralDensity("pink", omega_c=0.1)
        with pytest.raises(ValueError):
            SpectralDensity("ohmic", omega_c=0.0)


class TestDephasingFromChi:
    def test_zero_chi_identity(self):
        rho = random_single_qubit_density(np.random.default_rng(2))
        np.testing.assert_allclose(dephasing_channel_from_chi(0.0).apply(rho), rho, atol=1e-14)

    def test_large_chi_kills_coherence(self):
        rho = 0.5 * (np.eye(2) + PAULI_X)
        out = dephasing_channel_from_chi(50.0).apply(rho)
        assert abs(out[0, 1]) < 1e-20

    def test_log_two_halves_coherence(self):
        rho = 0.5 * (np.eye(2) + PAULI_X)
        out = dephasing_channel_from_chi(math.log(2.0)).apply(rho)
        assert out[0, 1].real == pytest.approx(0.25, rel=1e-12)

    def test_negative_chi_rejected(self):
        with pytest.raises(ValueError):
            dephasing_channel_from_chi(-0.1)
