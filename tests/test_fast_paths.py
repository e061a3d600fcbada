"""Property-based differential tests: the reduced-state fast paths against
the full-space oracles they replace.

Every example is drawn from a fixed derandomized stream, so the suite is
reproducible and writes no example database.
"""

import dataclasses
import math
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mddsim import analysis, circuits, experiments, sequences
from mddsim.analysis import (
    DecayRates,
    TwoQubitRates,
    _rotated_z,
    dd_entanglement_fidelity,
    decay_rate,
    grid_minimum_two_qubit,
    lemma_check,
    local_entanglement_fidelity,
    optimize_two_qubit_mdd,
)
from mddsim.circuits import (
    Gate,
    ScheduledCircuit,
    Slice,
    insert_dd,
    qft_final_state,
    qft_success_scenario,
    simulate,
)
from mddsim.experiments import (
    ExperimentConfig,
    _run_state_tasks,
    colored_noise_fidelity,
    run_filter_noise,
    run_two_qubit_opt,
)
from mddsim.noise import (
    KrausChannel,
    NoiseParams,
    PhaseCovariantChannel,
    SpectralDensity,
    _apply_local_raw,
    chi_integral,
    combined_channel,
)
from mddsim.sequences import (
    MEASURED_BASE,
    PulseSchedule,
    build_schedule,
    evolve_with_schedule,
    flip_times,
    mdd_unitary,
    measure_expectations,
    rot_z,
    schedule_channel,
)
from mddsim.states import (
    DensityMatrix,
    PAULI_X,
    PauliExpectations,
    PureState,
    _as_matrix,
    _haar_batch,
    apply_matrix,
    bloch_vector,
    entanglement_fidelity,
    haar_random_state,
    reduced_density,
)

from helpers import (
    circuit_key,
    conjugate_entrywise,
    conjugate_matmul,
    covariant_fidelity_entrywise,
    covariant_from_superop,
    cp_gate,
    dephasing_channel_from_chi,
    grid_minimum_two_qubit_dense,
    insert_dd_replaying,
    lemma_check_matmul,
    optimize_two_qubit_mdd_rowwise,
    pure_density,
    random_channel,
    random_single_qubit_density,
    schedule_superoperator,
    superoperator,
    superoperator_fidelity,
    superoperator_fidelity_matmul,
    toggled_frame_average,
    toggled_frame_average_loop,
)

KINDS = ["none", "mdd", "xx", "xy4", "udd2", "udd4", "udd6", "udd8", "qdd2", "qdd4", "mdd+xx"]
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**32 - 1)
durations = st.floats(1e-3, 2000.0)


@st.composite
def states_and_qubits(draw, max_qubits):
    n = draw(st.integers(1, max_qubits))
    return haar_random_state(n, seed=draw(seeds)), draw(st.integers(0, n - 1))


@st.composite
def noise_params(draw):
    t1 = draw(st.floats(10.0, 1000.0))
    return NoiseParams(t1=t1, t2=draw(st.floats(0.05, 1.0)) * 2.0 * t1)


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(case=states_and_qubits(max_qubits=6), params=noise_params(), t=durations)
def test_dd_fidelity_matches_full_space_oracle(kind, case, params, t):
    psi, qubit = case
    exp = measure_expectations(psi, qubit) if kind.startswith("mdd") else None
    schedule = build_schedule(kind, t, exp)
    oracle = entanglement_fidelity(psi, evolve_with_schedule(psi, schedule, params, qubit))
    fast = dd_entanglement_fidelity(psi, kind, params, t, qubit)
    assert abs(fast - oracle) <= 1e-12
    assert 0.0 <= fast <= 1.0


def dense_colored_noise_fidelity(psi, kind, t1, t, qubit, chi):
    """The full-space composition: a measurement-driven kind's boundary
    conjugations, then damping and dephasing applied to the whole density
    matrix. Every other pulse acts on the dephasing alone, through chi."""
    exp = measure_expectations(psi, qubit) if kind.startswith("mdd") else None
    boundary = build_schedule(kind, t, exp).pulses if exp is not None else ()
    rho, n = _as_matrix(psi)
    for tm, gate in boundary:
        if tm == 0.0:
            rho = apply_matrix(gate, rho, [qubit], n)
    rho = _apply_local_raw(combined_channel(NoiseParams(t1=t1, t2=2.0 * t1), t), rho, qubit, n)
    rho = _apply_local_raw(dephasing_channel_from_chi(chi), rho, qubit, n)
    for tm, gate in boundary:
        if tm == t:
            rho = apply_matrix(gate, rho, [qubit], n)
    return entanglement_fidelity(psi, DensityMatrix(rho))


@PROPERTY
@given(kind=st.sampled_from(KINDS), case=states_and_qubits(max_qubits=5),
       t1=st.floats(10.0, 1000.0), t=durations, chi=st.floats(0.0, 5.0))
def test_colored_noise_fidelity_matches_dense_composition(kind, case, t1, t, chi):
    psi, qubit = case
    spectrum = SpectralDensity("ohmic", omega_c=0.1)
    fast = colored_noise_fidelity(psi, kind, t1, spectrum, t, qubit=qubit, chi=chi)
    assert abs(fast - dense_colored_noise_fidelity(psi, kind, t1, t, qubit, chi)) <= 1e-12


@pytest.mark.parametrize("kind", ["xx", "xy4", "udd8", "qdd2", "mdd+xx"])
def test_colored_pulses_act_through_chi_alone(kind):
    # at one exponent pulses change nothing but chi: a fixed kind reads as none, mdd+xx as
    # mdd, and xy4's Y pulse at 0 flips no state
    spectrum = SpectralDensity("ohmic", omega_c=0.1)
    for i in range(3):
        psi = haar_random_state(2, seed=(3, i))
        base = "mdd" if kind == "mdd+xx" else "none"
        assert (colored_noise_fidelity(psi, kind, 250.0, spectrum, 40.0, chi=0.3)
                == colored_noise_fidelity(psi, base, 250.0, spectrum, 40.0, chi=0.3))


SWEEP_KINDS = ["none", "xx", "xy4", "udd2", "udd8", "qdd2", "qdd4", "mdd", "mdd+xx"]


@st.composite
def t_grids(draw):
    """A strictly increasing grid of sweep durations."""
    return sorted(draw(st.lists(durations, min_size=1, max_size=4, unique=True)))


@settings(PROPERTY, max_examples=30)
@given(num_qubits=st.integers(1, 5), num_states=st.integers(1, 4), seed=st.integers(0, 2**16),
       params=noise_params(), t_grid=t_grids(),
       sequences=st.lists(st.sampled_from(SWEEP_KINDS), min_size=1, max_size=4, unique=True))
def test_sweep_curves_equal_per_point_fidelities(num_qubits, num_states, seed, params, t_grid,
                                                 sequences):
    # the shared superoperators must give every state the bits of its own build
    config = ExperimentConfig(experiment="fidelity-sweep", t1=params.t1, t2=params.t2,
                              sequences=sequences, t_grid=t_grid, num_states=num_states,
                              num_qubits=num_qubits, seed=seed)
    table = _run_state_tasks(config, sequences, t_grid, jobs=1)
    assert list(table) == sequences
    for index in range(num_states):
        psi = haar_random_state(num_qubits, seed=(seed, index))
        for kind in sequences:
            assert table[kind].shape == (num_states, len(t_grid))
            assert (table[kind][index].tolist()
                    == [dd_entanglement_fidelity(psi, kind, params, t) for t in t_grid])


class SerialExecutor:
    """A process-pool stand-in that maps in process, so counters see every block."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def _schedule_key(schedule):
    """A schedule's duration, pulse times and pulse matrices."""
    return schedule.total_time, tuple((tm, gate.tobytes()) for tm, gate in schedule.pulses)


@pytest.mark.parametrize(("jobs", "blocks"), [(1, [5]), (2, [3, 2]), (3, [2, 2, 1])],
                         ids=["jobs1", "jobs2", "jobs3"])
@settings(PROPERTY, max_examples=6)
@given(kinds=st.lists(st.sampled_from(SWEEP_KINDS), min_size=1, max_size=5, unique=True))
def test_sweep_builds_fixed_superoperators_once_per_block(jobs, blocks, kinds):
    # every kind contracts its base kind's channel, built once per duration and
    # block: mdd shares none's and mdd+xx shares xx's, and no mdd schedule is built
    fidelity_table = experiments._fidelity_table
    sizes, built = [], {}

    def table(sigmas, *args):
        sizes.append(len(sigmas))
        return fidelity_table(sigmas, *args)

    def counting(schedule, params):
        key = _schedule_key(schedule)
        built[key] = built.get(key, 0) + 1
        return schedule_channel(schedule, params)

    t_grid = [1.0, 10.0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_fidelity_table", table)
        patch.setattr(experiments, "schedule_channel", counting)
        patch.setattr(experiments, "futures", SimpleNamespace(ProcessPoolExecutor=SerialExecutor))
        patch.setattr(experiments.os, "cpu_count", lambda: 64)
        config = ExperimentConfig(experiment="fidelity-sweep", num_states=5, num_qubits=2)
        table = _run_state_tasks(config, kinds, t_grid, jobs)
    assert sizes == blocks and [fids.shape for fids in table.values()] == [(5, 2)] * len(kinds)
    bases = {MEASURED_BASE.get(kind, kind) for kind in kinds}
    assert built == {_schedule_key(build_schedule(base, t)): len(blocks)
                     for base in bases for t in t_grid}


def test_sweep_measures_each_state_once(monkeypatch, tmp_path):
    # the table reads each state's z and r once, whatever the kinds and durations
    calls = []

    def counting(rho):
        calls.append(rho.num_qubits)
        return bloch_vector(rho)

    monkeypatch.setattr(analysis, "bloch_vector", counting)
    config = ExperimentConfig(experiment="fidelity-sweep", num_states=3, num_qubits=2)
    _run_state_tasks(config, ["xx", "mdd", "mdd+xx"], [1.0, 10.0, 100.0], jobs=1)
    assert calls == [1, 1, 1]
    _run_state_tasks(config, ["none", "xx"], [1.0, 10.0, 100.0], jobs=1)
    assert calls == [1] * 6
    # filter-noise reads them once per state for each of its two spectra
    calls.clear()
    config = ExperimentConfig(experiment="filter-noise", num_states=3, t_grid=[20.0, 70.0],
                              sequences=["xx", "mdd", "mdd+xx"])
    run_filter_noise(config, tmp_path, jobs=1)
    assert calls == [1] * 6


# mdd shares the (empty) flip times of none, and mdd+xx those of xx
@pytest.mark.parametrize("sequences", [["none", "xy4", "mdd"], ["qdd2", "mdd+xx", "udd2"],
                                       ["none", "xx", "mdd", "mdd+xx"]])
def test_filter_noise_rows_equal_per_state_fidelities(tmp_path, sequences):
    t_grid, t1 = [20.0, 70.0], 120.0
    config = ExperimentConfig(experiment="filter-noise", num_states=3, seed=5, t1=t1,
                              sequences=sequences, t_grid=t_grid)
    run_filter_noise(config, tmp_path, jobs=1)
    states = [haar_random_state(2, seed=(5, i)) for i in range(3)]
    expected = []
    for spec_kind in ("ohmic", "one_over_f"):
        spectrum = SpectralDensity(spec_kind, omega_c=config.omega_c)
        for kind in sequences:
            for t in t_grid:
                schedule = build_schedule(kind, t, PauliExpectations(0, 0, 0))
                chi = chi_integral(spectrum, flip_times(schedule), t)
                vals = [colored_noise_fidelity(psi, kind, t1, spectrum, t, chi=chi)
                        for psi in states]
                expected.append([spec_kind, kind, t, float(np.mean(vals)), float(np.min(vals)),
                                 float(np.max(vals))])
    lines = (tmp_path / "filter_fidelity.csv").read_text().splitlines()[1:]
    got = [[spec, kind, float(t), float(mean), float(lo), float(hi)]
           for spec, kind, t, mean, lo, hi in (line.split(",") for line in lines)]
    assert got == expected


@pytest.mark.parametrize("sequences, distinct", [([], 3), (["none", "xx", "mdd", "mdd+xx"], 2),
                                                 (["xy4", "udd2", "qdd2"], 3)])
def test_filter_noise_integrates_each_flip_pattern_once(tmp_path, monkeypatch, sequences,
                                                        distinct):
    # default sequences none/xx/udd8/mdd hold three flip patterns: mdd reuses none's
    calls = []

    def counting(spectrum, pulse_times, t, *args, **kwargs):
        calls.append((spectrum.kind, tuple(pulse_times), t))
        return chi_integral(spectrum, pulse_times, t, *args, **kwargs)

    monkeypatch.setattr(experiments, "chi_integral", counting)
    config = ExperimentConfig(experiment="filter-noise", num_states=1, t_grid=[20.0, 70.0],
                              sequences=sequences)
    run_filter_noise(config, tmp_path, jobs=1)
    assert len(calls) == len(set(calls)) == 2 * distinct * 2


@st.composite
def decay_rates(draw):
    return DecayRates(draw(st.floats(0.0, 0.05)), draw(st.floats(0.0, 0.05)))


@settings(PROPERTY, max_examples=60)
@given(qubit_i=decay_rates(), qubit_j=decay_rates(),
       gamma_zz=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
       r_i=st.floats(0.0, 1.0, exclude_max=True), r_j=st.floats(0.0, 1.0, exclude_max=True),
       seed=st.integers(0, 2**16))
def test_two_qubit_optimizer_equals_rowwise_constraints(qubit_i, qubit_j, gamma_zz, r_i, r_j,
                                                        seed):
    # one vector constraint must walk SLSQP through the bits of four scalar ones
    rates = TwoQubitRates(qubit_i, qubit_j, gamma_zz)
    coeffs, rate = optimize_two_qubit_mdd(r_i, r_j, rates, seed=seed)
    oracle_coeffs, oracle_rate = optimize_two_qubit_mdd_rowwise(r_i, r_j, rates, seed=seed)
    assert coeffs == oracle_coeffs
    assert rate == oracle_rate


@pytest.mark.parametrize("seed", [0, 7])
def test_two_qubit_opt_bytes_equal_rowwise_oracle(tmp_path, monkeypatch, seed):
    config = ExperimentConfig(experiment="two-qubit-opt", num_states=5, seed=seed)
    run_two_qubit_opt(config, tmp_path / "library", jobs=1)
    monkeypatch.setattr(experiments, "optimize_two_qubit_mdd", optimize_two_qubit_mdd_rowwise)
    run_two_qubit_opt(config, tmp_path / "oracle", jobs=1)
    assert ((tmp_path / "library" / "two_qubit_opt.json").read_bytes()
            == (tmp_path / "oracle" / "two_qubit_opt.json").read_bytes())


def _two_qubit_instance(rng):
    """Rates and Bloch radii drawn as ``run_two_qubit_opt`` draws them."""
    rates = TwoQubitRates(DecayRates(rng.uniform(0.001, 0.01), rng.uniform(0.0005, 0.005)),
                          DecayRates(rng.uniform(0.001, 0.01), rng.uniform(0.0005, 0.005)),
                          rng.uniform(0.0, 0.02))
    return float(rng.uniform(0, 1)), float(rng.uniform(0, 1)), rates


@pytest.mark.parametrize("points", [2, 3, 5, 64, 65, 101, 201, 2 * analysis._GRID_BLOCK + 1])
def test_grid_minimum_equals_dense_scan(points):
    # the per-row c3 intervals pick the dense scan's point and rate, bit for bit
    rng = np.random.default_rng(points)
    cases = [_two_qubit_instance(rng) for _ in range(4)]
    r_i, r_j, rates = cases[0]
    zero = DecayRates(0.0, 0.0)
    cases += [(r_i, r_j, TwoQubitRates(rates.qubit_i, rates.qubit_j, 0.0)),
              (0.0, r_j, rates), (r_i, 1.0, rates), (1.0, 0.0, rates), (1.0, 1.0, rates),
              # a qubit at rate zero ties every c1 (or c2) row: the first one wins
              (r_i, r_j, TwoQubitRates(zero, rates.qubit_j, rates.gamma_zz)),
              (r_i, r_j, TwoQubitRates(rates.qubit_i, zero, 0.0)),
              (r_i, r_j, TwoQubitRates(zero, zero, 0.0))]
    # a minimum at c1 = c2 = 1/2, where c3 may lie anywhere in [0, 1]; a ZZ rate of 2e-18
    # rounds away near c3 = 1, so the row's first minimum lies before the interval's end
    inner = SimpleNamespace(gamma1=0.01, gamma2=-0.0025)
    cases += [(0.5, 0.5, SimpleNamespace(qubit_i=inner, qubit_j=inner, gamma_zz=gamma_zz))
              for gamma_zz in (0.0, 2e-18, 0.01)]
    for r_i, r_j, rates in cases:
        assert (grid_minimum_two_qubit(r_i, r_j, rates, points)
                == grid_minimum_two_qubit_dense(r_i, r_j, rates, points))


# physical rates put the minimum on a vertex, whose c3 interval is one point; negative
# single-qubit rates (built without DecayRates' check) move it onto rows whose interval is
# wide, so both of its ends and the first minimum inside it are exercised too
signed_rates = st.builds(SimpleNamespace, gamma1=st.floats(-0.05, 0.05),
                         gamma2=st.floats(-0.05, 0.05))


@settings(PROPERTY, max_examples=100)
@given(qubit_i=st.one_of(decay_rates(), signed_rates),
       qubit_j=st.one_of(decay_rates(), signed_rates),
       gamma_zz=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
       r_i=st.floats(0.0, 1.0), r_j=st.floats(0.0, 1.0), points=st.integers(2, 40))
def test_grid_minimum_equals_dense_scan_property(qubit_i, qubit_j, gamma_zz, r_i, r_j, points):
    rates = SimpleNamespace(qubit_i=qubit_i, qubit_j=qubit_j, gamma_zz=gamma_zz)
    assert (grid_minimum_two_qubit(r_i, r_j, rates, points)
            == grid_minimum_two_qubit_dense(r_i, r_j, rates, points))


def test_grid_minimum_memory_is_quadratic():
    # the dense scan held 35 MB at 1001 points; a block of c1 rows holds about 3 MB
    r_i, r_j, rates = _two_qubit_instance(np.random.default_rng(1))
    tracemalloc.start()
    try:
        grid_minimum_two_qubit(r_i, r_j, rates, points=1001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@PROPERTY
@given(seed=seeds, times=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=4))
def test_superoperator_composes_in_order(seed, times):
    rng = np.random.default_rng(seed)
    rho = reduced_density(haar_random_state(2, seed=seed), [0]).entries
    params = NoiseParams(t1=250.0, t2=170.0)
    channels = []
    for t in times:
        channels.append(combined_channel(params, t))
        channels.append(KrausChannel((_haar_batch(1, rng, 2)[0],)))
    expected = rho
    for channel in channels:
        expected = sum(m @ expected @ m.conj().T for m in channel.operators)
    got = (superoperator(*channels) @ rho.reshape(4)).reshape(2, 2)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@st.composite
def local_channels(draw):
    """The combined relaxation/dephasing channel over some duration, or the
    pure-dephasing channel of a filter-function exponent chi."""
    if draw(st.booleans()):
        return combined_channel(draw(noise_params()), draw(durations))
    return dephasing_channel_from_chi(draw(st.floats(0.0, 5.0)))


@st.composite
def any_channels(draw):
    """A physical channel, a random Kraus set cut from a Haar isometry, or a
    one-operator unitary channel (a pulse)."""
    kind = draw(st.sampled_from(["physical", "random", "unitary"]))
    if kind == "physical":
        return draw(local_channels())
    rng = np.random.default_rng(draw(seeds))
    if kind == "unitary":
        return KrausChannel((_haar_batch(1, rng, 2)[0],))
    return random_channel(rng, draw(st.integers(1, 4)))


@settings(PROPERTY, max_examples=200)
@given(channel=any_channels())
def test_superop_equals_kron_sum_exactly(channel):
    assert np.array_equal(channel.superop, sum(np.kron(m, m.conj()) for m in channel.operators))


def density_stack(rng, shape):
    return np.array([random_single_qubit_density(rng)
                     for _ in range(math.prod(shape))]).reshape(shape + (2, 2))


# leading axes of (sigma, u); "n" is the drawn stack length
PAIRINGS = {"one-one": ((), ()), "one-stack": ((), ("n",)), "stack-one": (("n",), ()),
            "stack-stack": (("n",), ("n",)), "outer": (("n", 1), (3,))}


def _pair(pairing, seed, count):
    """A state or stack of states and a unitary or stack of unitaries, as PAIRINGS lays out."""
    rng = np.random.default_rng(seed)
    sigma_axes, u_axes = ([count if a == "n" else a for a in axes] for axes in PAIRINGS[pairing])
    sigma = density_stack(rng, tuple(sigma_axes))
    return sigma, _haar_batch(math.prod(u_axes), rng).reshape(tuple(u_axes) + (2, 2))


@pytest.mark.parametrize("pairing", PAIRINGS)
@PROPERTY
@given(seed=seeds, count=st.integers(1, 64))
def test_conjugate_matches_matmul_oracle(pairing, seed, count):
    # the entrywise oracle that toggled_frame_average conjugates its frames with
    sigma, u = _pair(pairing, seed, count)
    fast, oracle = conjugate_entrywise(sigma, u), conjugate_matmul(sigma, u)
    assert fast.shape == oracle.shape
    assert np.max(np.abs(fast - oracle)) <= 1e-15


@PROPERTY
@given(seed=seeds, count=st.integers(1, 64))
def test_conjugate_rows_equal_single_calls(seed, count):
    rng = np.random.default_rng(seed)
    sigmas = density_stack(rng, (count,))
    unitaries = _haar_batch(count, rng)
    both, one_sigma, one_u = (conjugate_entrywise(sigmas, unitaries),
                              conjugate_entrywise(sigmas[0], unitaries),
                              conjugate_entrywise(sigmas, unitaries[0]))
    for i in range(count):
        assert np.array_equal(both[i], conjugate_entrywise(sigmas[i], unitaries[i]))
        assert np.array_equal(one_sigma[i], conjugate_entrywise(sigmas[0], unitaries[i]))
        assert np.array_equal(one_u[i], conjugate_entrywise(sigmas[i], unitaries[0]))


@pytest.mark.parametrize("pairing", PAIRINGS)
@PROPERTY
@given(seed=seeds, count=st.integers(1, 64))
def test_rotated_z_matches_matmul_oracle(pairing, seed, count):
    sigma, u = _pair(pairing, seed, count)
    rotated = conjugate_matmul(sigma, u)
    fast, oracle = _rotated_z(sigma, u), (rotated[..., 0, 0] - rotated[..., 1, 1]).real
    assert np.shape(fast) == oracle.shape
    assert np.max(np.abs(fast - oracle)) <= 1e-15


@PROPERTY
@given(seed=seeds, count=st.integers(1, 64))
def test_rotated_z_rows_equal_single_calls(seed, count):
    rng = np.random.default_rng(seed)
    sigmas = density_stack(rng, (count,))
    unitaries = _haar_batch(count, rng)
    both, one_sigma, one_u = (_rotated_z(sigmas, unitaries), _rotated_z(sigmas[0], unitaries),
                              _rotated_z(sigmas, unitaries[0]))
    assert np.array_equal(_rotated_z(sigmas[None], unitaries), both[None])
    for i in range(count):
        assert both[i] == _rotated_z(sigmas[i], unitaries[i])
        assert one_sigma[i] == _rotated_z(sigmas[0], unitaries[i])
        assert one_u[i] == _rotated_z(sigmas[i], unitaries[0])


@st.composite
def single_qubit_states(draw):
    """A random mixed state, a near-pure one, one with r near 0, or one on the +z or -z axis."""
    rng = np.random.default_rng(draw(seeds))
    kind = draw(st.sampled_from(["mixed", "near-pure", "near-center", "z-axis"]))
    if kind == "z-axis":
        p = draw(st.floats(0.0, 1.0))
        return DensityMatrix(np.diag([p, 1.0 - p]))
    pure = pure_density(haar_random_state(1, seed=draw(seeds))).entries
    if kind == "mixed":
        return DensityMatrix(random_single_qubit_density(rng))
    weight = draw(st.floats(0.0, 1e-6)) if kind == "near-pure" else draw(st.floats(1.0 - 1e-6, 1.0))
    return DensityMatrix((1.0 - weight) * pure + weight * np.eye(2) / 2)


@settings(PROPERTY, max_examples=200)
@given(sigma=single_qubit_states())
def test_mdd_unitary_aligns_z_with_r(sigma):
    # the table reads a measured kind at z = r: the state mdd_unitary aligns
    b = bloch_vector(sigma)
    u = mdd_unitary(b)
    rotated = conjugate_matmul(sigma.entries, u)
    assert abs((rotated[0, 0] - rotated[1, 1]).real - b.r) <= 1e-14
    assert abs(_rotated_z(sigma.entries, u) - b.r) <= 1e-14


@PROPERTY
@given(seed=seeds, channel=any_channels(), count=st.integers(1, 64))
def test_superoperator_fidelity_matches_matmul_oracle(seed, channel, count):
    stack = density_stack(np.random.default_rng(seed), (count,))
    fast = superoperator_fidelity(stack, channel.superop)
    assert np.max(np.abs(fast - superoperator_fidelity_matmul(stack, channel.superop))) <= 1e-15


@pytest.mark.parametrize("state_seed, t, trials, seed", [
    (3, 100.0, 2000, 5), (11, 1.0, 500, 0), (29, 400.0, 10_000, 42)])
def test_lemma_check_matches_matmul_oracle(state_seed, t, trials, seed):
    sigma = reduced_density(haar_random_state(2, seed=state_seed), [0])
    report = lemma_check(sigma, NoiseParams(250.0, 170.0), t, trials, seed)
    oracle = lemma_check_matmul(sigma, NoiseParams(250.0, 170.0), t, trials, seed)
    for key in ("mdd_value", "best_competitor", "margin"):
        assert abs(report[key] - oracle[key]) <= 1e-13
    assert report["violations"] == oracle["violations"]


@PROPERTY
@given(seed=seeds, channel=local_channels(), count=st.integers(1, 64))
def test_batched_superoperator_fidelity_rows_equal_single_calls(seed, channel, count):
    rng = np.random.default_rng(seed)
    sigma = DensityMatrix(random_single_qubit_density(rng))
    unitaries = _haar_batch(count, rng)
    rotated = unitaries @ sigma.entries @ unitaries.conj().transpose(0, 2, 1)
    superop = channel.superop
    batch = superoperator_fidelity(rotated, superop)
    assert batch.shape == (count,)
    assert np.array_equal(superoperator_fidelity(rotated[None], superop), batch[None])
    for row, rho, u in zip(batch, rotated, unitaries):
        assert row == superoperator_fidelity(rho, superop)
        assert abs(row - local_entanglement_fidelity(sigma, channel, u)) <= 1e-12
    assert isinstance(superoperator_fidelity(sigma, superop), float)


FIXED_KINDS = ["none", "xx", "xy4", "udd2", "udd4", "udd8", "qdd2", "qdd4"]


def rz_superop(angle):
    """Row-major superoperator of the z-rotation R_z(angle)."""
    u = rot_z(angle)
    return np.kron(u, u.conj())


@pytest.mark.parametrize("kind", FIXED_KINDS)
@PROPERTY
@given(params=noise_params(), t=durations, angle=st.floats(-math.pi, math.pi))
def test_schedule_channel_matches_superoperator_oracle(kind, params, t, angle):
    schedule = build_schedule(kind, t)
    superop = schedule_superoperator(schedule, params)
    # the oracle is z-covariant, so P and c are all of it
    rz = rz_superop(angle)
    assert np.max(np.abs(superop @ rz - rz @ superop)) <= 1e-15
    channel, oracle = schedule_channel(schedule, params), covariant_from_superop(superop)
    assert np.max(np.abs(channel.populations - oracle.populations)) <= 1e-14
    assert abs(channel.coherence - oracle.coherence) <= 1e-14


def _detuned(detuning, gap):
    """A gap constructor followed by R_z(detuning * d): coherences pick up a phase."""
    def build(params, d):
        channel = gap(params, d)
        if isinstance(channel, KrausChannel):
            return KrausChannel(tuple(rot_z(detuning * d) @ m for m in channel.operators))
        return PhaseCovariantChannel(channel.populations,
                                     channel.coherence * np.exp(-1j * detuning * d))
    return build


@pytest.mark.parametrize("kind", FIXED_KINDS)
@PROPERTY
@given(params=noise_params(), t=durations, detuning=st.floats(-0.5, 0.5))
def test_schedule_channel_flips_a_complex_coherence(kind, params, t, detuning):
    # a static detuning makes c complex, so a flipped frame must conjugate it
    schedule = build_schedule(kind, t)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sequences, "combined_channel", _detuned(detuning, combined_channel))
        patch.setattr(PhaseCovariantChannel, "relaxation",
                      _detuned(detuning, PhaseCovariantChannel.relaxation))
        channel = schedule_channel(schedule, params)
        oracle = covariant_from_superop(schedule_superoperator(schedule, params))
    assert np.max(np.abs(channel.populations - oracle.populations)) <= 1e-14
    assert abs(channel.coherence - oracle.coherence) <= 1e-14


@st.composite
def covariant_channels(draw):
    """A relaxation channel over some duration, rotated about z, with its Kraus form."""
    params, t, angle = draw(noise_params()), draw(durations), draw(st.floats(-math.pi, math.pi))
    kraus = KrausChannel(tuple(rot_z(angle) @ m for m in combined_channel(params, t).operators))
    return covariant_from_superop(kraus.superop), kraus


def z_and_r(stack):
    """The z-component and Bloch norm of each state of a (..., 2, 2) stack."""
    z = (stack[..., 0, 0] - stack[..., 1, 1]).real
    return z, np.sqrt(z * z + 4.0 * np.abs(stack[..., 0, 1]) ** 2)


def _check_covariant_fidelity(channel, superop, stack):
    """fidelity(z, r) against both oracles, and its rows against single calls."""
    z, r = z_and_r(stack)
    batch = channel.fidelity(z, r)
    assert batch.shape == z.shape
    assert np.max(np.abs(batch - superoperator_fidelity(stack, superop))) <= 1e-14
    assert np.max(np.abs(batch - covariant_fidelity_entrywise(channel, stack))) <= 1e-14
    # rows round alike alone and in any stack, so output cannot depend on --jobs
    assert np.array_equal(channel.fidelity(z[None], r[None]), batch[None])
    assert np.array_equal(channel.fidelity(r, r), [channel.fidelity(x, x) for x in r.tolist()])
    for row, zi, ri in zip(batch, z.tolist(), r.tolist()):
        assert row == channel.fidelity(zi, ri)
    assert isinstance(channel.fidelity(z[0], r[0]), float)


@PROPERTY
@given(seed=seeds, pair=covariant_channels(), count=st.integers(1, 64))
def test_phase_covariant_fidelity_matches_superoperator_fidelity(seed, pair, count):
    channel, kraus = pair
    _check_covariant_fidelity(channel, kraus.superop,
                              density_stack(np.random.default_rng(seed), (count,)))


@pytest.mark.parametrize("kind", FIXED_KINDS)
@PROPERTY
@given(seed=seeds, params=noise_params(), t=durations, count=st.integers(1, 64))
def test_schedule_channel_fidelity_matches_oracles(kind, seed, params, t, count):
    schedule = build_schedule(kind, t)
    _check_covariant_fidelity(schedule_channel(schedule, params),
                              schedule_superoperator(schedule, params),
                              density_stack(np.random.default_rng(seed), (count,)))


def test_schedule_channel_rejects_other_pulses():
    params = NoiseParams(250.0, 170.0)
    mdd = build_schedule("mdd", 40.0, PauliExpectations(0.3, -0.2, 0.5))
    with pytest.raises(ValueError, match="X and Y pulses"):
        schedule_channel(mdd, params)
    with pytest.raises(ValueError, match="even number"):
        schedule_channel(PulseSchedule(40.0, ((20.0, PAULI_X),)), params)


def test_phase_covariant_populations_are_read_only():
    channel = PhaseCovariantChannel.relaxation(NoiseParams(250.0, 170.0), 40.0)
    with pytest.raises(ValueError, match="read-only"):
        channel.populations[0, 1] = 0.0


@PROPERTY
@given(seed=seeds, params=noise_params(), count=st.integers(1, 2000))
def test_batched_decay_rate_rows_equal_single_calls(seed, params, count):
    rng = np.random.default_rng(seed)
    sigma = DensityMatrix(random_single_qubit_density(rng))
    rates = DecayRates.from_noise(params)
    unitaries = _haar_batch(count, rng)
    batch = decay_rate(sigma, unitaries, rates)
    assert batch.shape == (count,)
    for row, u in zip(batch, unitaries):
        assert row == decay_rate(sigma, u, rates)


@PROPERTY
@given(seed=seeds, count=st.integers(1, 8), index=st.integers(0, 7),
       size=st.floats(1e-9, 1.0), scale=st.booleans())
def test_decay_rate_rejects_non_unitary(seed, count, index, size, scale):
    rng = np.random.default_rng(seed)
    sigma = DensityMatrix(random_single_qubit_density(rng))
    rates = DecayRates.from_noise(NoiseParams(250.0, 170.0))
    unitaries = _haar_batch(count, rng)
    u = unitaries[index % count]
    bad = u * (1.0 + size) if scale else u + size * (rng.standard_normal((2, 2)) + 1j)
    with pytest.raises(ValueError, match="not unitary"):
        decay_rate(sigma, bad, rates)
    unitaries[index % count] = bad
    with pytest.raises(ValueError, match="not unitary"):
        decay_rate(sigma, unitaries, rates)


@pytest.mark.parametrize("skew", [1e-9, 0.3, 1.0])
def test_decay_rate_rejects_unit_columns_that_are_not_orthogonal(skew):
    # U^dag U has a unit diagonal here, so only its off-diagonal entry shows the fault
    sigma = DensityMatrix(np.eye(2) / 2)
    rates = DecayRates.from_noise(NoiseParams(250.0, 170.0))
    bad = np.array([[1.0, math.sin(skew)], [0.0, math.cos(skew)]], dtype=complex)
    with pytest.raises(ValueError, match="not unitary"):
        decay_rate(sigma, bad, rates)
    with pytest.raises(ValueError, match="not unitary"):
        decay_rate(sigma, np.stack([np.eye(2), bad]), rates)


@PROPERTY
@given(kind=st.sampled_from(KINDS), case=states_and_qubits(max_qubits=4),
       params=noise_params(), t=durations)
def test_toggled_frame_average_matches_frame_loop(kind, case, params, t):
    psi, qubit = case
    exp = measure_expectations(psi, qubit) if kind.startswith("mdd") else None
    schedule = build_schedule(kind, t, exp)
    fast = toggled_frame_average(psi, schedule, params, qubit)
    assert abs(fast - toggled_frame_average_loop(psi, schedule, params, qubit)) <= 1e-12


@st.composite
def scheduled_circuits(draw):
    """The transform scenario at 2 to 5 qubits, or a small random circuit of
    Haar single-qubit gates, controlled phases and zero-length slices."""
    if draw(st.booleans()):
        return qft_success_scenario(draw(st.integers(2, 5)))[0]
    n = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(seeds))
    slices = []
    for _ in range(draw(st.integers(1, 10))):
        gated = [q for q in range(n) if draw(st.booleans())]
        gates = []
        if len(gated) >= 2 and draw(st.booleans()):
            gates.append(cp_gate(draw(st.floats(-3.0, 3.0)), gated.pop(), gated.pop()))
        gates += [Gate((q,), _haar_batch(1, rng, 2)[0]) for q in gated]
        duration = draw(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 60.0))
        slices.append(Slice(duration, tuple(gates)))
    return ScheduledCircuit(n, tuple(slices))


@pytest.mark.parametrize("strategy", ["mdd", "mdd+xx", "xx"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(circuit=scheduled_circuits(), params=noise_params(), threshold=st.floats(0.0, 10.0),
       shots=st.none() | st.integers(1, 2000), seed=seeds)
def test_insert_dd_matches_prefix_replay(strategy, circuit, params, threshold, shots, seed):
    seed = None if shots is None else seed
    fast = insert_dd(circuit, strategy, params, threshold, shots=shots, seed=seed)
    oracle = insert_dd_replaying(circuit, strategy, params, threshold, shots=shots, seed=seed)
    assert circuit_key(fast) == circuit_key(oracle)


def full_pass(circuit, noise, initial=None):
    """The dressed slices simulated from the start, on a circuit rebuilt
    without a checkpoint."""
    return simulate(ScheduledCircuit(circuit.num_qubits, circuit.slices), noise, initial).entries


@pytest.mark.parametrize("strategy", KINDS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(circuit=scheduled_circuits(), params=noise_params(), threshold=st.floats(0.0, 10.0),
       shots=st.none() | st.integers(1, 2000), seed=seeds)
def test_simulate_finishes_bitwise_from_the_checkpoint(strategy, circuit, params, threshold,
                                                       shots, seed):
    seed = None if shots is None else seed
    dressed = insert_dd(circuit, strategy, params, threshold, shots=shots, seed=seed)
    rho, done = dressed.checkpoint or (None, 0)
    if rho is not None:
        assert not rho.flags.writeable
    rest = ScheduledCircuit(circuit.num_qubits, dressed.slices[done:])
    assert np.array_equal(simulate(rest, params, rho).entries, full_pass(dressed, params))
    # simulate never reads the checkpoint: the dressed circuit is one full pass
    assert np.array_equal(simulate(dressed, params).entries, full_pass(dressed, params))


QFT_NOISE = NoiseParams(100.0, 80.0)


def count_passes(monkeypatch) -> list[int]:
    """Record the slice count of every simulation pass."""
    passes, simulate_raw = [], circuits._simulate_raw
    monkeypatch.setattr(circuits, "_simulate_raw",
                        lambda c, *args: passes.append(len(c.slices)) or simulate_raw(c, *args))
    return passes


def test_qft_mdd_final_pass_runs_only_the_slices_after_the_checkpoint(monkeypatch):
    dressed = insert_dd(qft_success_scenario(5)[0], "mdd", QFT_NOISE, 0.24)
    done = dressed.checkpoint[1]
    assert 0 < done < len(dressed.slices)
    monkeypatch.setattr(circuits, "insert_dd", lambda *args, **kwargs: dressed)
    passes, channels, combined = count_passes(monkeypatch), [], circuits.combined_channel
    monkeypatch.setattr(circuits, "combined_channel",
                        lambda p, t: channels.append(t) or combined(p, t))
    qft_final_state(5, QFT_NOISE, "mdd", 0.24)
    assert passes == [len(dressed.slices) - done]
    # one channel per distinct duration of the pass
    assert sorted(channels) == sorted({sl.duration for sl in dressed.slices[done:] if sl.duration > 0})


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("shots", [None, 200])
def test_qft_final_state_matches_a_full_pass(n, shots):
    seed = None if shots is None else n
    circuit, target = qft_success_scenario(n)
    for kind in ("none", "xx", "xy4", "udd4", "qdd2", "mdd", "mdd+xx"):
        rho, got = qft_final_state(n, QFT_NOISE, kind, 0.24, measure_shots=shots, seed=seed)
        dressed = insert_dd(circuit, kind, QFT_NOISE, 0.24, shots=shots, seed=seed)
        assert got == target
        assert np.array_equal(rho.entries, full_pass(dressed, QFT_NOISE))


IGNORED_CHECKPOINT = {
    "other-noise": (lambda c: c, NoiseParams(50.0, 30.0), None),
    "explicit-initial": (lambda c: c, QFT_NOISE, PureState(np.eye(32)[7])),
    "explicit-ground-state": (lambda c: c, QFT_NOISE, PureState(np.eye(32)[0])),
    "replaced": (dataclasses.replace, QFT_NOISE, None),
}


@pytest.mark.parametrize(("rebuild", "noise", "initial"), IGNORED_CHECKPOINT.values(),
                         ids=IGNORED_CHECKPOINT.keys())
def test_checkpoint_serves_only_its_own_noise_and_no_initial(rebuild, noise, initial, monkeypatch):
    dressed = insert_dd(qft_success_scenario(5)[0], "mdd+xx", QFT_NOISE, 0.24)
    target = rebuild(dressed)
    passes = count_passes(monkeypatch)
    got = simulate(target, noise, initial).entries
    assert passes == [len(dressed.slices)]
    assert np.array_equal(got, full_pass(dressed, noise, initial))


def test_twelve_qubits_cost_one_partial_trace():
    psi = haar_random_state(12, seed=0)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        value = dd_entanglement_fidelity(psi, "udd8", NoiseParams(250, 170), 100.0)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    # one 4^12 complex array alone would take 256 MiB
    assert peak < 4 * 2**20
    assert 0.0 < value < 1.0
