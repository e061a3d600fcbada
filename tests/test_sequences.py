"""Pulse-schedule builders and stroboscopic evolution tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mddsim.noise import NOISELESS, NoiseParams, combined_channel
from mddsim.sequences import (
    PulseSchedule,
    build_schedule,
    evolve_with_schedule,
    is_measurement_driven,
    measure_expectations,
    mdd_unitary,
    qdd_times,
    rot_y,
    rot_z,
    toggling_frames,
    udd_times,
)
from mddsim.states import (
    DensityMatrix,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PauliExpectations,
    PureState,
    entanglement_fidelity,
    haar_random_state,
    reduced_density,
)

from helpers import density_from_bloch, frame_durations, pure_density

DEFAULT_NOISE = NoiseParams(t1=250.0, t2=170.0)


def equal_up_to_phase(a, b, atol=1e-12):
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    phase = a[idx] / b[idx]
    return np.allclose(a, phase * b, atol=atol) and abs(abs(phase) - 1) < atol


class TestPauliExpectations:
    def test_exact_norm_bound(self):
        with pytest.raises(ValueError, match="norm"):
            PauliExpectations(0.9, 0.5, 0.5)

    def test_shot_slack_allows_small_overshoot(self):
        PauliExpectations(1.0, 0.01, 0.0, shots=10_000)
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            PauliExpectations(1.0, -1.5, 0.0, shots=10_000)

    @pytest.mark.parametrize("ex", [math.nan, math.inf, -math.inf])
    def test_non_finite_exact_expectations_rejected(self, ex):
        # mdd_unitary of a NaN triple used to return an all-NaN "unitary"
        with pytest.raises(ValueError, match="norm"):
            mdd_unitary(PauliExpectations(ex, 0.0, 0.0))

    def test_sampled_expectations_of_a_pure_state_never_raise(self):
        # three binomial estimates of a pure state along (1, 1, 1)/sqrt(3) overshoot
        # norm 1 in about 5% of draws at 30 shots; every such draw is a valid estimate
        rho = DensityMatrix(0.5 * (np.eye(2) + (PAULI_X + PAULI_Y + PAULI_Z) / math.sqrt(3)))
        rng = np.random.default_rng(0)
        draws = [measure_expectations(rho, 0, shots=30, rng=rng) for _ in range(200)]
        assert sum(exp.r > 1.0 for exp in draws) > 0
        assert all(abs(e) <= 1.0 for exp in draws for e in (exp.ex, exp.ey, exp.ez))


class TestMddUnitary:
    def test_aligned_state_gives_identity(self):
        exp = PauliExpectations(0.0, 0.0, 0.7)
        u = mdd_unitary(exp)
        # U sigma U^dag is diagonal with the larger eigenvalue (1 + r)/2 first
        out = u @ density_from_bloch(exp).entries @ u.conj().T
        np.testing.assert_allclose(out, [[0.85, 0], [0, 0.15]], atol=1e-12)
        assert equal_up_to_phase(u, np.eye(2))

    def test_equator_state_rotated_to_ground(self):
        u = mdd_unitary(PauliExpectations(1.0, 0.0, 0.0))
        plus = 0.5 * (np.eye(2) + PAULI_X)
        out = u @ plus @ u.conj().T
        np.testing.assert_allclose(out, [[1, 0], [0, 0]], atol=1e-14)

    def test_maximally_mixed_returns_identity(self):
        u = mdd_unitary(PauliExpectations(0.0, 0.0, 0.0))
        np.testing.assert_array_equal(u, np.eye(2))

    def test_diagonalizes_with_descending_eigenvalues(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            v = rng.standard_normal(3)
            v *= rng.uniform(0, 1) / np.linalg.norm(v)
            rho = density_from_bloch(PauliExpectations(*v)).entries
            u = mdd_unitary(PauliExpectations(*v))
            out = u @ rho @ u.conj().T
            assert abs(out[0, 1]) < 1e-12
            assert out[0, 0].real >= out[1, 1].real - 1e-12

    def test_idempotent_on_diagonalized_state(self):
        v = (0.1, -0.4, 0.2)
        u = mdd_unitary(PauliExpectations(*v))
        rho = density_from_bloch(PauliExpectations(*v)).entries
        rotated = u @ rho @ u.conj().T
        from mddsim.states import bloch_vector
        b = bloch_vector(DensityMatrix(rotated))
        again = mdd_unitary(b)
        assert equal_up_to_phase(again, np.eye(2), atol=1e-7)

    def test_rotation_conventions(self):
        np.testing.assert_allclose(rot_y(math.pi), PAULI_Y * -1j, atol=1e-15)
        np.testing.assert_allclose(rot_z(math.pi), np.diag([-1j, 1j]), atol=1e-15)


class TestUddTimes:
    def test_single_echo_at_midpoint(self):
        np.testing.assert_allclose(udd_times(1, 1.0), [0.5])

    def test_order_two_matches_quarter_points(self):
        np.testing.assert_allclose(udd_times(2, 1.0), [0.25, 0.75], atol=1e-15)

    def test_order_eight_symmetry(self):
        times = udd_times(8, 1.0)
        assert len(times) == 8
        np.testing.assert_allclose(times + times[::-1], np.ones(8), atol=1e-15)
        assert np.all(np.diff(times) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            udd_times(0, 1.0)
        with pytest.raises(ValueError):
            udd_times(2, 0.0)


class TestQddTimes:
    def test_count_includes_boundary_gaps(self):
        events = qdd_times(2, 1.0)
        assert len(events) == 2 * (2 + 1) + 2  # n inner pulses in n+1 gaps, plus n outer
        assert sum(1 for _, axis in events if axis == "y") == 2
        assert sum(1 for _, axis in events if axis == "x") == 6

    def test_degenerate_duration_limit(self):
        events = qdd_times(2, 1e-12)
        assert max(tm for tm, _ in events) <= 1e-12

    def test_nesting_strictly_inside_gaps(self):
        events = qdd_times(4, 1.0)
        ys = [tm for tm, axis in events if axis == "y"]
        bounds = [0.0] + ys + [1.0]
        for tm, axis in events:
            if axis != "x":
                continue
            gaps = [(g0, g1) for g0, g1 in zip(bounds[:-1], bounds[1:]) if g0 < tm < g1]
            assert len(gaps) == 1

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            qdd_times(3, 1.0)


class TestBuildSchedule:
    def test_none_is_empty(self):
        assert build_schedule("none", 1.0).pulses == ()

    def test_xx_quarter_points(self):
        sched = build_schedule("xx", 1.0)
        times = [tm for tm, _ in sched.pulses]
        assert times == [0.25, 0.75]
        for _, gate in sched.pulses:
            np.testing.assert_array_equal(gate, PAULI_X)

    def test_mdd_plus_xx_layout(self):
        exp = PauliExpectations(0.6, 0.0, 0.3)
        sched = build_schedule("mdd+xx", 1.0, exp)
        times = [tm for tm, _ in sched.pulses]
        assert times == [0.0, 0.25, 0.75, 1.0]
        u0 = sched.pulses[0][1]
        u3 = sched.pulses[3][1]
        np.testing.assert_allclose(u3, u0.conj().T, atol=1e-14)
        for pulse in (sched.pulses[1][1], sched.pulses[2][1]):
            np.testing.assert_array_equal(pulse, PAULI_X)

    def test_mdd_requires_expectations(self):
        with pytest.raises(ValueError, match="expectations"):
            build_schedule("mdd", 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            build_schedule("cpmg", 1.0)

    def test_udd_odd_order_rejected(self):
        with pytest.raises(ValueError, match="even"):
            build_schedule("udd3", 1.0)

    def test_order_bounded(self):
        assert len(build_schedule("udd64", 1.0).pulses) == 64
        assert len(build_schedule("qdd64", 1.0).pulses) == 64 + 65 * 64
        for kind in ("udd66", "qdd66"):
            with pytest.raises(ValueError, match="at most 64"):
                build_schedule(kind, 1.0)

    def test_pulse_axes(self):
        # nonuniform trains use Y pulses, the quarter-point pair uses X
        for _, gate in build_schedule("udd4", 1.0).pulses:
            np.testing.assert_array_equal(gate, PAULI_Y)
        axes = [gate.tolist() for _, gate in build_schedule("qdd2", 1.0).pulses]
        assert PAULI_Y.tolist() in axes and PAULI_X.tolist() in axes

    def test_closed_sequences_multiply_to_identity_up_to_phase(self):
        for kind in ("xx", "xy4", "udd2", "udd8", "qdd2", "qdd4"):
            sched = build_schedule(kind, 1.0)
            prod = np.eye(2, dtype=complex)
            for _, gate in sched.pulses:
                prod = gate @ prod
            assert equal_up_to_phase(prod, np.eye(2)), kind

    def test_mdd_boundary_pair_closes(self):
        exp = PauliExpectations(0.3, 0.2, -0.1)
        sched = build_schedule("mdd", 1.0, exp)
        u_start = sched.pulses[0][1]
        u_end = sched.pulses[-1][1]
        np.testing.assert_allclose(u_end @ u_start, np.eye(2), atol=1e-14)


class TestTogglingFrames:
    def test_xx_frames(self):
        frames = toggling_frames(build_schedule("xx", 1.0))
        np.testing.assert_array_equal(frames[0], PAULI_X)
        np.testing.assert_allclose(frames[1], np.eye(2), atol=1e-15)

    def test_frame_increments_recover_pulses(self):
        sched = build_schedule("xy4", 1.0)
        frames = toggling_frames(sched)
        prev = np.eye(2, dtype=complex)
        for (_tm, gate), frame in zip(sched.pulses, frames):
            np.testing.assert_allclose(frame @ prev.conj().T, gate, atol=1e-12)
            prev = frame

    def test_mdd_frames(self):
        exp = PauliExpectations(0.5, 0.1, 0.2)
        frames = toggling_frames(build_schedule("mdd", 1.0, exp))
        assert equal_up_to_phase(frames[-1], np.eye(2))

    def test_frame_durations_weights(self):
        pairs = frame_durations(build_schedule("xx", 2.0))
        weights = [(np.allclose(f, np.eye(2)), d) for f, d in pairs]
        assert [d for _, d in pairs] == [0.5, 1.0, 0.5]
        assert weights[0][0] and not weights[1][0] and weights[2][0]


class TestEvolveWithSchedule:
    def test_empty_schedule_is_bare_channel(self):
        psi = haar_random_state(2, seed=4)
        from mddsim.noise import apply_local
        bare = apply_local(combined_channel(DEFAULT_NOISE, 120.0), psi, qubit=0)
        sched = evolve_with_schedule(psi, build_schedule("none", 120.0), DEFAULT_NOISE, qubit=0)
        np.testing.assert_allclose(sched.entries, bare.entries, atol=1e-13)

    def test_mdd_preserves_pure_subsystem_exactly(self):
        # product state: the noisy qubit is pure, so alignment is lossless
        single = haar_random_state(1, seed=8)
        rest = haar_random_state(2, seed=9)
        psi = PureState(np.kron(single.amplitudes, rest.amplitudes))
        for t in (1.0, 50.0, 400.0):
            exp = measure_expectations(psi, 0)
            out = evolve_with_schedule(psi, build_schedule("mdd", t, exp), DEFAULT_NOISE, qubit=0)
            assert entanglement_fidelity(psi, out) == pytest.approx(1.0, abs=1e-12)

    def test_zero_noise_closed_sequences_are_identity(self):
        psi = haar_random_state(2, seed=10)
        exp = measure_expectations(psi, 0)
        for kind in ("none", "xx", "xy4", "udd8", "qdd2", "mdd", "mdd+xx"):
            out = evolve_with_schedule(psi, build_schedule(kind, 100.0, exp), NOISELESS, qubit=0)
            np.testing.assert_allclose(out.entries, pure_density(psi).entries, atol=1e-12)

    def test_concatenated_aligned_blocks_equal_single_block(self):
        psi = haar_random_state(2, seed=12)
        exp = measure_expectations(psi, 0)
        t, m = 160.0, 8
        state = psi
        for _ in range(m):
            state = evolve_with_schedule(state, build_schedule("mdd", t / m, exp), DEFAULT_NOISE, 0)
        single = evolve_with_schedule(psi, build_schedule("mdd", t, exp), DEFAULT_NOISE, 0)
        np.testing.assert_allclose(state.entries, single.entries, atol=1e-10)

    def test_echo_under_pure_dephasing_matches_analytic_composition(self):
        # with T1 infinite the X pulses commute with the dephasing channel,
        # so the echo leaves an equator state with coherence e^{-t/T2}
        params = NoiseParams(t1=math.inf, t2=90.0)
        plus = PureState(np.array([1, 1]) / math.sqrt(2))
        t = 45.0
        out = evolve_with_schedule(plus, build_schedule("xx", t), params, qubit=0)
        expected = 0.5 * (np.eye(2) + math.exp(-t / 90.0) * PAULI_X)
        np.testing.assert_allclose(out.entries, expected, atol=1e-12)

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            PulseSchedule(1.0, ((0.7, mdd_unitary(PauliExpectations(0, 0, 0))),
                                (0.3, mdd_unitary(PauliExpectations(0, 0, 0)))))


class TestMeasureExpectations:
    def test_exact_matches_bloch(self):
        psi = haar_random_state(2, seed=14)
        exp = measure_expectations(psi, 1)
        from mddsim.states import bloch_vector
        b = bloch_vector(reduced_density(psi, [1]))
        assert (exp.ex, exp.ey, exp.ez) == (b.ex, b.ey, b.ez)
        assert exp.shots is None

    def test_shot_mode_deterministic_and_close(self):
        psi = haar_random_state(2, seed=15)
        rng1 = np.random.default_rng(100)
        rng2 = np.random.default_rng(100)
        e1 = measure_expectations(psi, 0, shots=10_000, rng=rng1)
        e2 = measure_expectations(psi, 0, shots=10_000, rng=rng2)
        assert (e1.ex, e1.ey, e1.ez) == (e2.ex, e2.ey, e2.ez)
        exact = measure_expectations(psi, 0)
        assert abs(e1.ex - exact.ex) < 0.05

    def test_shot_mode_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            measure_expectations(haar_random_state(1, 0), 0, shots=100)

    @pytest.mark.parametrize("shots", [0, -1])
    def test_shot_mode_needs_a_shot(self, shots):
        # checked before the draw: zero shots used to divide by zero, and a
        # negative count reached numpy's binomial
        with pytest.raises(ValueError, match="at least one shot"):
            measure_expectations(haar_random_state(1, 0), 0, shots=shots,
                                 rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least one shot"):
            PauliExpectations(0.0, 0.0, 0.0, shots=shots)

    def test_shot_sampled_mdd_fidelity_within_three_sigma(self):
        psi = haar_random_state(3, seed=16)
        t = 80.0
        exact_exp = measure_expectations(psi, 0)
        exact_f = entanglement_fidelity(
            psi, evolve_with_schedule(psi, build_schedule("mdd", t, exact_exp), DEFAULT_NOISE, 0))
        rng = np.random.default_rng(200)
        draws = []
        for _ in range(40):
            exp = measure_expectations(psi, 0, shots=10_000, rng=rng)
            draws.append(entanglement_fidelity(
                psi, evolve_with_schedule(psi, build_schedule("mdd", t, exp), DEFAULT_NOISE, 0)))
        sigma = float(np.std(draws))
        assert abs(draws[0] - exact_f) <= 3.0 * sigma + 1e-12


@pytest.mark.parametrize(("kind", "measured"), [
    ("mdd", True), ("MDD", True), ("mdd+xx", True), ("Mdd+XX", True),
    ("none", False), ("xx", False), ("xy4", False), ("udd8", False), ("qdd2", False),
    ("mddxx", False), ("mdd+", False),
])
def test_measurement_driven_kinds_ignore_case(kind, measured):
    assert is_measurement_driven(kind) is measured


@pytest.mark.parametrize("kind", ["mdd", "MDD", "mdd+xx", "Mdd+XX"])
def test_measurement_driven_schedule_needs_expectations(kind):
    with pytest.raises(ValueError, match="requires Pauli expectations"):
        build_schedule(kind, 1.0)


@pytest.mark.parametrize(("kind", "base"), [("mdd", "none"), ("mdd+xx", "xx"), ("MDD+XX", "xx")])
def test_measured_schedule_is_base_pulses_between_alignment(kind, base):
    # (0, U), the base kind's pulses, (t, U^dag): times and matrices bit for bit
    exp = PauliExpectations(0.3, -0.4, 0.5)
    u = mdd_unitary(exp)
    for t in (0.7, 125.0):
        expected = ((0.0, u), *((tm, g) for tm, g in build_schedule(base, t).pulses),
                    (t, u.conj().T))
        got = build_schedule(kind, t, exp).pulses
        assert [tm for tm, _ in got] == [tm for tm, _ in expected]
        assert [g.tobytes() for _, g in got] == [m.tobytes() for _, m in expected]


def _assert_read_only_unitary(u):
    assert u.shape == (2, 2) and not u.flags.writeable
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12


@st.composite
def exact_expectations(draw):
    """Exact expectations along a drawn direction at a norm drawn near 0, near 1 or
    anywhere in [0, 1], with the transverse part optionally dropped (on axis)."""
    v = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    if draw(st.booleans()):
        v[:2] = draw(st.sampled_from([0.0, 1e-13, -1e-17]))
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return PauliExpectations(0.0, 0.0, 0.0)
    r = draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-14), st.floats(1.0 - 1e-9, 1.0)))
    return PauliExpectations(*(float(c) for c in v * (r / norm)))


@st.composite
def sampled_expectations(draw):
    """Shot-sampled expectations 2 k / shots - 1, each component drawn on its own."""
    shots = draw(st.integers(1, 10_000))
    return PauliExpectations(*(2.0 * draw(st.integers(0, shots)) / shots - 1.0 for _ in range(3)),
                             shots=shots)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(exp=st.one_of(exact_expectations(), sampled_expectations()))
def test_mdd_unitary_is_a_read_only_unitary(exp):
    _assert_read_only_unitary(mdd_unitary(exp))


@pytest.mark.parametrize("kind", ["none", "xx", "xy4", "udd2", "udd4", "udd6", "udd8",
                                  "qdd2", "qdd4", "mdd", "mdd+xx"])
def test_every_pulse_is_a_read_only_unitary(kind):
    # X and Y pulses are the Pauli constants themselves; a measured kind adds U and U^dag
    exp = PauliExpectations(0.3, -0.4, 0.5)
    for t in (0.7, 125.0):
        schedule = build_schedule(kind, t, exp)
        pulses = [pulse for _, pulse in schedule.pulses]
        for pulse in pulses + toggling_frames(schedule):
            _assert_read_only_unitary(pulse)
        train = pulses[1:-1] if is_measurement_driven(kind) else pulses
        assert all(pulse is PAULI_X or pulse is PAULI_Y for pulse in train)


@pytest.mark.parametrize("constant", [ID2, PAULI_X, PAULI_Y, PAULI_Z], ids=["I", "X", "Y", "Z"])
def test_pauli_constants_are_read_only(constant):
    with pytest.raises(ValueError, match="read-only"):
        constant[0, 0] = 1.0
