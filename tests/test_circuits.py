"""Scheduled-circuit, idle-identification, insertion, and scenario tests."""

import math

import numpy as np
import pytest

from mddsim import circuits
from mddsim.circuits import (
    Gate,
    IdleInterval,
    ScheduledCircuit,
    Slice,
    alternating_target,
    identify_idle,
    insert_dd,
    qft_circuit,
    qft_final_state,
    qft_readout,
    qft_success_scenario,
    sample_counts,
    simulate,
    success_probability,
)
from mddsim.noise import NOISELESS, NoiseParams, apply_local, combined_channel
from mddsim.sequences import measure_expectations
from mddsim.states import PAULI_X, DensityMatrix, haar_random_state, reduced_density

from helpers import (basis_state, circuit_key, circuit_unitary, fidelity, h_gate, pure_density,
                     x_gate)

DEFAULT_NOISE = NoiseParams(t1=250.0, t2=170.0)


def two_qubit_toy(durations=(100.0, 100.0, 100.0)):
    """q0 gated in slice 0 and the last slice, idle in between; q1 busy throughout."""
    slices = [Slice(durations[0], (h_gate(0), x_gate(1)))]
    for d in durations[1:-1]:
        slices.append(Slice(d, (x_gate(1),)))
    slices.append(Slice(durations[-1], (h_gate(0), x_gate(1))))
    return ScheduledCircuit(2, tuple(slices))


class TestContainers:
    def test_slice_disjointness(self):
        with pytest.raises(ValueError, match="disjoint"):
            Slice(1.0, (h_gate(0), x_gate(0)))

    def test_gate_range_validation(self):
        with pytest.raises(ValueError, match="range"):
            ScheduledCircuit(1, (Slice(1.0, (h_gate(1),)),))

    def test_negative_duration(self):
        with pytest.raises(ValueError):
            Slice(-1.0)

    @pytest.mark.parametrize("build", [
        lambda: Slice(math.nan),
        lambda: identify_idle(qft_circuit(3), math.nan),
        lambda: insert_dd(qft_circuit(3), "xx", DEFAULT_NOISE, math.nan),
    ], ids=["slice", "identify-idle", "insert-dd"])
    def test_nan_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_occupied_is_gate_qubits_and_shielded(self):
        sl = Slice(1.0, (x_gate(0), Gate((2, 4), np.eye(4))), shielded=(3, 0))
        assert sl.occupied == {0, 2, 3, 4}
        assert Slice(1.0).occupied == frozenset()
        circuit, _ = qft_success_scenario(4)
        dressed = insert_dd(circuit, "xy4", DEFAULT_NOISE, 0.24)
        assert any(sl.shielded for sl in dressed.slices)
        for sl in dressed.slices:
            assert sl.occupied == set(sl.shielded).union(*(g.qubits for g in sl.gates))


class TestIdentifyIdle:
    def test_fully_busy_circuit_has_no_idles(self):
        slices = tuple(Slice(10.0, (x_gate(0), x_gate(1))) for _ in range(3))
        assert identify_idle(ScheduledCircuit(2, slices), 0.0) == []

    def test_contiguous_slices_merge(self):
        slices = (
            Slice(100.0, (x_gate(0), x_gate(1))),
            Slice(100.0, (x_gate(1),)),
            Slice(100.0, (x_gate(1),)),
            Slice(100.0, (x_gate(1),)),
            Slice(100.0, (x_gate(0), x_gate(1))),
        )
        intervals = identify_idle(ScheduledCircuit(2, slices), 0.24)
        assert intervals == [IdleInterval(qubit=0, start=100.0, duration=300.0)]

    def test_leading_idle_excluded_and_trailing_included(self):
        slices = (
            Slice(50.0, (x_gate(1),)),
            Slice(50.0, (x_gate(0),)),
            Slice(50.0, (x_gate(1),)),
        )
        intervals = identify_idle(ScheduledCircuit(2, slices), 0.0)
        assert IdleInterval(0, 100.0, 50.0) in intervals
        assert not any(iv.qubit == 0 and iv.start == 0.0 for iv in intervals)

    def test_threshold_filters_short_runs(self):
        circuit = two_qubit_toy((100.0, 0.1, 100.0))
        assert identify_idle(circuit, 0.24) == []
        assert identify_idle(circuit, 0.05) == [IdleInterval(0, 100.0, 0.1)]

    def test_interval_count_grows_with_width(self):
        counts = [len(identify_idle(qft_circuit(n), 0.24)) for n in range(2, 6)]
        assert all(b > a for a, b in zip(counts, counts[1:]))


class TestSimulate:
    def test_zero_duration_circuit_preserves_state(self):
        psi = haar_random_state(2, seed=1)
        circuit = ScheduledCircuit(2, (Slice(0.0, ()),))
        out = simulate(circuit, DEFAULT_NOISE, initial=psi)
        np.testing.assert_allclose(out.entries, pure_density(psi).entries, atol=1e-14)

    def test_single_idle_slice_equals_bare_channel(self):
        psi = haar_random_state(1, seed=2)
        circuit = ScheduledCircuit(1, (Slice(100.0, ()),))
        out = simulate(circuit, DEFAULT_NOISE, initial=psi)
        bare = apply_local(combined_channel(DEFAULT_NOISE, 100.0), psi, qubit=0)
        np.testing.assert_allclose(out.entries, bare.entries, atol=1e-14)

    def test_gated_qubits_take_no_noise(self):
        circuit = ScheduledCircuit(1, (Slice(100.0, (x_gate(0),)),))
        out = simulate(circuit, DEFAULT_NOISE)
        np.testing.assert_allclose(out.entries, [[0, 0], [0, 1]], atol=1e-14)

    def test_output_valid_density_matrix_each_slice(self):
        circuit, _ = qft_success_scenario(4)
        rho = simulate(circuit, DEFAULT_NOISE)  # constructor validates
        assert abs(np.trace(rho.entries) - 1) < 1e-12

    def test_too_many_qubits_rejected(self):
        with pytest.raises(ValueError, match="at most"):
            simulate(ScheduledCircuit(11, (Slice(1.0, ()),)), DEFAULT_NOISE)


class TestInsertDd:
    def test_none_returns_circuit_unchanged(self):
        circuit = two_qubit_toy()
        assert insert_dd(circuit, "none", DEFAULT_NOISE, 0.24) is circuit

    def test_xx_pulses_at_quarter_points(self):
        circuit = two_qubit_toy()
        dressed = insert_dd(circuit, "xx", DEFAULT_NOISE, 0.24)
        pulse_times = []
        now = 0.0
        for sl in dressed.slices:
            if sl.duration == 0.0 and sl.gates and sl.gates[0].qubits == (0,):
                assert np.array_equal(sl.gates[0].matrix, PAULI_X)
                pulse_times.append(now)
            now += sl.duration
        assert pulse_times == [125.0, 175.0]
        assert dressed.total_duration == pytest.approx(circuit.total_duration)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            insert_dd(two_qubit_toy(), "cpmg", DEFAULT_NOISE, 0.24)

    def test_splitting_preserves_other_qubit_noise(self):
        # pulses on one qubit must not change another qubit's evolution: the
        # gated qubit stays shielded in split tails
        circuit = two_qubit_toy()
        dressed = insert_dd(circuit, "xx", DEFAULT_NOISE, 0.24)
        before = reduced_density(simulate(circuit, DEFAULT_NOISE), [1]).entries
        after = reduced_density(simulate(dressed, DEFAULT_NOISE), [1]).entries
        np.testing.assert_allclose(after, before, atol=1e-12)

    def test_mdd_with_exact_expectations_preserves_pure_interval(self):
        circuit = two_qubit_toy()
        dressed = insert_dd(circuit, "mdd", DEFAULT_NOISE, 0.24)
        # q0 idles in a pure state (Hadamard output), so alignment is lossless:
        # the only remaining error is on q0's final H slice, where q0 is gated
        # and q1 is busy; compare against a circuit with a noiseless idle.
        out = simulate(dressed, DEFAULT_NOISE)
        ideal = simulate(circuit, NOISELESS)
        f_dressed = fidelity(reduced_density(out, [0]), reduced_density(ideal, [0]))
        assert f_dressed == pytest.approx(1.0, abs=1e-10)

    def test_insertion_never_changes_total_duration(self):
        circuit, _ = qft_success_scenario(4)
        for strategy in ("xx", "xy4", "udd4", "qdd2", "mdd", "mdd+xx"):
            dressed = insert_dd(circuit, strategy, DEFAULT_NOISE, 0.24)
            assert dressed.total_duration == pytest.approx(circuit.total_duration, abs=1e-9)

    def test_shot_mode_is_seeded(self):
        circuit = two_qubit_toy()
        a = insert_dd(circuit, "mdd", DEFAULT_NOISE, 0.24, shots=1000, seed=5)
        b = insert_dd(circuit, "mdd", DEFAULT_NOISE, 0.24, shots=1000, seed=5)
        assert circuit_key(a) == circuit_key(b)

    @pytest.mark.parametrize("seed", [11, 25, 28, 29, 31])
    def test_few_shots_overshooting_norm_one_still_insert(self, seed):
        # at these seeds some 30-shot Bloch estimate has norm above 1
        circuit, _ = qft_success_scenario(4)
        dressed = insert_dd(circuit, "mdd", DEFAULT_NOISE, 0.24, shots=30, seed=seed)
        assert dressed.total_duration == pytest.approx(circuit.total_duration, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("shots", [None, 200])
    def test_every_checkpoint_is_a_valid_state(self, n, shots, monkeypatch):
        # insert_dd reads each interval's expectations from the raw carried
        # state; the whole-state check it no longer makes holds at each one
        checked = []

        def measure(state, qubit, **kwargs):
            checked.append(DensityMatrix(state))
            return measure_expectations(state, qubit, **kwargs)

        monkeypatch.setattr(circuits, "measure_expectations", measure)
        circuit, _ = qft_success_scenario(n)
        for strategy in ("mdd", "mdd+xx"):
            insert_dd(circuit, strategy, DEFAULT_NOISE, 0.24, shots=shots, seed=n)
        assert len(checked) == 2 * len(identify_idle(circuit, 0.24))

    @pytest.mark.parametrize("strategy", ["mdd", "xx"])
    def test_shot_mode_needs_a_seed(self, strategy):
        circuit, _ = qft_success_scenario(3)
        with pytest.raises(ValueError, match="seed"):
            insert_dd(circuit, strategy, DEFAULT_NOISE, 0.24, shots=50)

    @pytest.mark.parametrize("shots", [0, -1])
    def test_shot_mode_needs_a_shot(self, shots):
        # zero shots used to divide by zero, and a negative count reached numpy
        circuit, _ = qft_success_scenario(3)
        with pytest.raises(ValueError, match="at least one shot"):
            insert_dd(circuit, "mdd", DEFAULT_NOISE, 0.24, shots=shots, seed=1)
        with pytest.raises(ValueError, match="at least one shot"):
            qft_final_state(3, DEFAULT_NOISE, "mdd", 0.24, measure_shots=shots, seed=1)

    @pytest.mark.parametrize("shots", [0, -5, 2.5, "10"])
    @pytest.mark.parametrize("strategy", ["none", "xx", "udd4", "mdd", "mdd+xx"])
    def test_bad_shots_rejected_for_every_strategy(self, strategy, shots):
        # checked before the strategy is looked at: an unmeasured strategy
        # used to return normally with a shot count that mdd rejects
        circuit, _ = qft_success_scenario(3)
        with pytest.raises(ValueError, match="at least one shot"):
            insert_dd(circuit, strategy, DEFAULT_NOISE, 0.24, shots=shots, seed=1)
        with pytest.raises(ValueError, match="at least one shot"):
            qft_final_state(3, DEFAULT_NOISE, strategy, 0.24, measure_shots=shots, seed=1)

    @pytest.mark.parametrize("strategy", ["none", "xx"])
    def test_whole_shots_accepted_for_unmeasured_strategies(self, strategy):
        circuit, _ = qft_success_scenario(3)
        for shots in (1, np.int64(30)):
            assert (insert_dd(circuit, strategy, DEFAULT_NOISE, 0.24, shots=shots, seed=1).slices
                    == insert_dd(circuit, strategy, DEFAULT_NOISE, 0.24).slices)


class TestSampling:
    def test_all_shots_hit_target(self):
        counts = sample_counts(pure_density(basis_state("01")), 500, seed=1)
        assert counts == {"01": 500}
        assert success_probability(counts, "01") == 100.0

    def test_absent_target_scores_zero(self):
        assert success_probability({"00": 10}, "11") == 0.0

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            success_probability({}, "00")

    def test_seeded_determinism(self):
        rho = simulate(qft_circuit(3), DEFAULT_NOISE)
        assert sample_counts(rho, 1000, seed=9) == sample_counts(rho, 1000, seed=9)


class TestQftScenario:
    def test_two_qubit_core_is_exact_transform(self):
        n = 2
        u = circuit_unitary(qft_circuit(n))
        dim = 2**n
        dft = np.array([[np.exp(2j * np.pi * x * y / dim) for y in range(dim)]
                        for x in range(dim)]) / math.sqrt(dim)
        np.testing.assert_allclose(u, dft, atol=1e-12)

    def test_ideal_success_probability_is_full(self):
        circuit, target = qft_success_scenario(4)
        assert target == "0101"
        rho = simulate(circuit, NOISELESS)
        counts = sample_counts(rho, 2000, seed=0)
        assert success_probability(counts, target) == 100.0

    def test_qubit_count_validation(self):
        with pytest.raises(ValueError):
            qft_circuit(1)
        with pytest.raises(ValueError):
            qft_circuit(11)

    def test_alternating_target(self):
        assert alternating_target(5) == "01010"

    def test_scenario_timing(self):
        # two preparation slices, then H, controlled phases and swaps at 2, 4 and 6 us
        circuit, _ = qft_success_scenario(4)
        assert [sl.duration for sl in circuit.slices] == [
            2.0, 2.0, 2.0, 4.0, 4.0, 4.0, 2.0, 4.0, 4.0, 2.0, 4.0, 2.0, 6.0, 6.0]
        assert circuit.total_duration == 48.0

    def test_strategy_ordering_under_noise(self):
        finals = {s: qft_final_state(4, DEFAULT_NOISE, s, threshold=0.24)
                  for s in ("none", "xx", "mdd")}
        rows = [{s: qft_readout(rho, target, 20_000, seed) for s, (rho, target) in finals.items()}
                for seed in range(3)]
        for row in rows:
            assert row["mdd"] >= row["xx"] >= row["none"]

    def test_idle_statistics_monotone_in_width(self):
        counts, totals = [], []
        for n in range(4, 9):
            circuit, _ = qft_success_scenario(n)
            ivs = identify_idle(circuit, 0.24)
            counts.append(len(ivs))
            totals.append(sum(iv.duration for iv in ivs))
        assert all(b > a for a, b in zip(counts, counts[1:]))
        assert all(b > a for a, b in zip(totals, totals[1:]))
