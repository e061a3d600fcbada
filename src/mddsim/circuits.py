"""Time-sliced circuits with explicit idle intervals, pulse-insertion passes,
noisy simulation, and a serialized transform scenario with long idles.

A circuit is an ordered list of slices. Gates fire instantaneously at the
start of their slice; every qubit without a gate in a slice is idle for the
slice duration and decoheres under the combined channel. Pulse insertions are
zero-duration slices, so inserting a sequence never changes the total
duration.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .noise import NoiseParams, _apply_local_raw, combined_channel
from .sequences import build_schedule, is_measurement_driven, measure_expectations
from .states import DensityMatrix, PureState, _as_matrix, apply_matrix

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)

_TIME_EPS = 1e-9
MAX_SIM_QUBITS = 10
# slice durations (us) of the serialized transform scenario
H_DURATION = 2.0
CP_DURATION = 4.0
SWAP_DURATION = 6.0
PREP_DURATION = 2.0


@dataclass(frozen=True)
class Gate:
    """A unitary on an ordered tuple of qubits."""

    qubits: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (2 ** len(self.qubits),) * 2:
            raise ValueError(f"gate matrix shape {mat.shape} does not match {len(self.qubits)} qubits")
        object.__setattr__(self, "matrix", mat)


def _cp_matrix(lam: float) -> np.ndarray:
    """Controlled phase exp(i lam) on |11>."""
    return np.diag([1.0, 1.0, 1.0, cmath.exp(1j * lam)]).astype(complex)


@dataclass(frozen=True)
class Slice:
    """One time slice: gates firing at its start, then ``duration`` of idling
    for every qubit without a gate.

    ``shielded`` lists qubits occupied by a gate for the whole slice they were
    split out of; they take no idle noise and are not considered idle. It only
    appears on tail fragments produced by pulse insertion. ``occupied`` is the
    set of gated and shielded qubits, computed once.
    """

    duration: float
    gates: tuple[Gate, ...] = ()
    shielded: tuple[int, ...] = ()
    occupied: frozenset[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.duration >= 0:  # also rejects NaN
            raise ValueError(f"slice duration must be nonnegative, got {self.duration}")
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "shielded", tuple(int(q) for q in self.shielded))
        touched: set[int] = set()
        for gate in self.gates:
            if not touched.isdisjoint(gate.qubits):
                raise ValueError("gate qubit sets within a slice must be disjoint")
            touched.update(gate.qubits)
        object.__setattr__(self, "occupied", frozenset(touched.union(self.shielded)))


@dataclass(frozen=True)
class ScheduledCircuit:
    num_qubits: int
    slices: tuple[Slice, ...]
    # insert_dd's (rho, done): the read-only state after the first done slices
    checkpoint: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        object.__setattr__(self, "slices", tuple(self.slices))
        for sl in self.slices:
            for gate in sl.gates:
                if any(q < 0 or q >= self.num_qubits for q in gate.qubits):
                    raise ValueError(f"gate qubits {gate.qubits} out of range")

    @property
    def total_duration(self) -> float:
        return float(sum(sl.duration for sl in self.slices))


@dataclass(frozen=True)
class IdleInterval:
    qubit: int
    start: float
    duration: float


def identify_idle(circuit: ScheduledCircuit, threshold: float) -> list[IdleInterval]:
    """Maximal contiguous gate-free runs per qubit longer than ``threshold``.

    The run before a qubit's first gate is skipped: under as-late-as-possible
    scheduling a qubit rests in its ground state, a fixed point of the noise,
    until first touched. Trailing runs before readout are included.
    """
    if not threshold >= 0:  # also rejects NaN, which would find no interval
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    intervals = []
    for q in range(circuit.num_qubits):
        if not any(q in sl.occupied for sl in circuit.slices):
            continue
        seen_gate = False
        run_start, run_length = 0.0, 0.0
        now = 0.0
        for sl in circuit.slices:
            if q in sl.occupied:
                if seen_gate and run_length > threshold:
                    intervals.append(IdleInterval(q, run_start, run_length))
                seen_gate = True
                run_start, run_length = now + sl.duration, 0.0
            else:
                run_length += sl.duration
            now += sl.duration
        if seen_gate and run_length > threshold:
            intervals.append(IdleInterval(q, run_start, run_length))
    intervals.sort(key=lambda iv: (iv.start, iv.qubit))
    return intervals


def _slices_ending_by(slices, until_time: float) -> int:
    """Number of leading slices that end by ``until_time`` (within _TIME_EPS)."""
    now = 0.0
    for i, sl in enumerate(slices):
        now += sl.duration
        if now > until_time + _TIME_EPS:
            return i
    return len(slices)


def _simulate_raw(circuit: ScheduledCircuit, noise: NoiseParams,
                  initial: PureState | DensityMatrix | None,
                  until_time: float | None = None) -> np.ndarray:
    n = circuit.num_qubits
    if n > MAX_SIM_QUBITS:
        raise ValueError(f"density-matrix simulation supports at most {MAX_SIM_QUBITS} qubits")
    if initial is None:
        rho = np.zeros((2**n, 2**n), dtype=complex)
        rho[0, 0] = 1.0
    else:
        rho, n_init = _as_matrix(initial)
        if n_init != n:
            raise ValueError("initial state size does not match the circuit")
        rho = rho.copy()
    slices = circuit.slices
    if until_time is not None:
        slices = slices[:_slices_ending_by(slices, until_time)]
    channels = {t: combined_channel(noise, t) for t in {sl.duration for sl in slices if sl.duration > 0}}
    for sl in slices:
        for gate in sl.gates:
            rho = apply_matrix(gate.matrix, rho, gate.qubits, n)
        if sl.duration > 0:
            for q in sorted(set(range(n)) - sl.occupied):
                rho = _apply_local_raw(channels[sl.duration], rho, q, n)
    return rho


def simulate(circuit: ScheduledCircuit, noise: NoiseParams,
             initial: PureState | DensityMatrix | None = None) -> DensityMatrix:
    """Deterministic slice-by-slice evolution: ideal gates, then the combined
    channel for the slice duration on every idle qubit, over every slice from
    ``initial`` (the ground state by default); ``checkpoint`` is not read."""
    return DensityMatrix(_simulate_raw(circuit, noise, initial))


def _insert_pulse(slices: list[Slice], when: float, gate: Gate) -> None:
    pulse = Slice(0.0, (gate,))
    now = 0.0
    for i, sl in enumerate(slices):
        end = now + sl.duration
        if when > end - _TIME_EPS:
            now = end
            continue
        if when > now + _TIME_EPS:
            # gates fire at the original slice start and occupy their qubits
            # for the whole slice, so the tail fragment shields them
            head = Slice(when - now, sl.gates, sl.shielded)
            tail = Slice(end - when, (), tuple(sorted(sl.occupied)))
            slices[i:i + 1] = [head, pulse, tail]
        else:
            slices.insert(i, pulse)
        return
    slices.append(pulse)


def insert_dd(circuit: ScheduledCircuit, strategy: str, noise: NoiseParams,
              threshold: float, shots: int | None = None,
              seed: int | None = None) -> ScheduledCircuit:
    """Insert the chosen sequence into every idle interval above threshold.

    Intervals are processed in start-time order. For the measurement-driven
    strategy the Pauli expectations are read from the noisy state at the
    interval start (exact, or binomially sampled when ``shots`` is given, which
    then needs a ``seed``), mirroring the iterated measure-compute-insert
    workflow; they read the raw state array, whose reduced 2x2 state is
    validated, not the whole state at every interval. That state is carried
    forward as a checkpoint: the state after the first ``done`` dressed
    slices, which last ``now``. Each interval advances it over the slices
    that end by its start and are not yet simulated. Pulses go in at or
    after an interval start, and starts never decrease, so insertion never
    changes a slice before the checkpoint. The result carries the last one
    as ``checkpoint``, the read-only state and ``done``, taken under
    ``noise``; :func:`qft_final_state` finishes from it.
    """
    strategy = strategy.lower()
    if shots is not None and not (isinstance(shots, (int, np.integer)) and shots >= 1):
        raise ValueError(f"sampled expectations need at least one shot (an integer), got {shots!r}")
    if shots is not None and seed is None:
        raise ValueError("sampled expectations (shots) need a seed")
    if strategy == "none":
        return circuit
    measured = is_measurement_driven(strategy)
    if not measured:
        build_schedule(strategy, 1.0)  # reject unknown names before touching the circuit
    n = circuit.num_qubits
    intervals = identify_idle(circuit, threshold)
    slices = list(circuit.slices)
    rng = np.random.default_rng(seed) if shots is not None else None
    rho, done, now = None, 0, 0.0
    for iv in intervals:
        exp = None
        if measured:
            tail = slices[done:]
            tail = tail[:_slices_ending_by(tail, iv.start - now)]
            rho = _simulate_raw(ScheduledCircuit(n, tail), noise, rho, until_time=iv.start - now)
            done += len(tail)
            for sl in tail:
                now += sl.duration
            exp = measure_expectations(rho, iv.qubit, shots=shots, rng=rng)
        schedule = build_schedule(strategy, iv.duration, exp)
        for offset, pulse in schedule.pulses:
            _insert_pulse(slices, iv.start + offset, Gate((iv.qubit,), pulse))
    dressed = ScheduledCircuit(n, tuple(slices))
    if rho is not None:
        rho.flags.writeable = False
        object.__setattr__(dressed, "checkpoint", (rho, done))
    return dressed


def sample_counts(rho: DensityMatrix, shots: int, seed) -> dict[str, int]:
    """Seeded categorical sampling from the computational-basis diagonal."""
    if shots < 1:
        raise ValueError("shots must be positive")
    probs = np.maximum(np.diagonal(rho.entries).real, 0.0)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    n = rho.num_qubits
    return {format(idx, f"0{n}b"): int(count) for idx, count in enumerate(draws) if count}


def success_probability(samples: dict[str, int], target: str) -> float:
    """Percentage of shots that returned the target bit string."""
    total = sum(samples.values())
    if total <= 0:
        raise ValueError("sample counts are empty")
    return 100.0 * samples.get(target, 0) / total


def qft_circuit(n: int) -> ScheduledCircuit:
    """Fully serialized transform circuit: one gate per slice, so early
    qubits accumulate idle time while later ones are processed.

    The gate network is the textbook ladder of Hadamards and controlled
    phases, closed by explicit swaps, so the total unitary is exactly the
    discrete Fourier matrix F[x, y] = exp(2 pi i x y / 2^n) / 2^(n/2).

    Construction works up to the simulation limit; density-matrix simulation
    stays desk-friendly up to about nine qubits: ``qft_final_state`` finishes
    from ``insert_dd``'s checkpoint, and a default ``qft-toy`` run takes about
    0.7 s at seven, 3 s at eight and 14 s at nine (one BLAS thread, start included).
    """
    if not 2 <= n <= MAX_SIM_QUBITS:
        raise ValueError(f"scenario supports 2..{MAX_SIM_QUBITS} qubits, got {n}")
    slices = []
    for j in range(n):
        slices.append(Slice(H_DURATION, (Gate((j,), _H),)))
        for k in range(j + 1, n):
            slices.append(Slice(CP_DURATION, (Gate((k, j), _cp_matrix(math.pi / 2 ** (k - j))),)))
    for j in range(n // 2):
        slices.append(Slice(SWAP_DURATION, (Gate((j, n - 1 - j), _SWAP),)))
    return ScheduledCircuit(n, tuple(slices))


def alternating_target(n: int) -> str:
    return "".join("01"[i % 2] for i in range(n))


def qft_success_scenario(n: int) -> tuple[ScheduledCircuit, str]:
    """Transform scenario with a deterministic ideal outcome.

    Two parallel preparation slices (Hadamards, then single-qubit phases)
    place the transform preimage of the alternating target string on the
    all-zeros input; the serialized transform then maps it to the target with
    ideal success probability 100%.
    """
    target = alternating_target(n)
    y = int(target, 2)
    core = qft_circuit(n)
    prep_h = Slice(PREP_DURATION, tuple(Gate((q,), _H) for q in range(n)))
    phases = []
    for k in range(n):
        theta = -2.0 * math.pi * y / 2 ** (k + 1)
        phases.append(Gate((k,), np.diag([1.0, cmath.exp(1j * theta)])))
    prep_p = Slice(PREP_DURATION, tuple(phases))
    return ScheduledCircuit(n, (prep_h, prep_p) + core.slices), target


def qft_final_state(n: int, noise: NoiseParams, strategy: str, threshold: float,
                    measure_shots: int | None = None,
                    seed: int | None = None) -> tuple[DensityMatrix, str]:
    """Noisy final state of the transform scenario with the chosen sequence
    inserted into qualifying idle intervals, and its target string. Only
    sampled MDD expectations (``measure_shots``, keyed by ``seed``) make it
    depend on the seed. The pass finishes from ``insert_dd``'s checkpoint,
    bitwise the same state as simulating every dressed slice."""
    circuit, target = qft_success_scenario(n)
    dressed = insert_dd(circuit, strategy, noise, threshold, shots=measure_shots, seed=seed)
    rho, done = dressed.checkpoint or (None, 0)
    return simulate(ScheduledCircuit(n, dressed.slices[done:]), noise, rho), target


def qft_readout(rho: DensityMatrix, target: str, shots: int, seed: int) -> float:
    """Success percentage of ``shots`` computational-basis readouts of ``rho``,
    drawn from a generator keyed by ``seed + 1``."""
    return success_probability(sample_counts(rho, shots, seed=seed + 1), target)

