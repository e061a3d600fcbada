"""Pulse-schedule builders and the stroboscopic evolution engine.

All pulses are ideal and instantaneous; free evolution between pulses is the
combined relaxation/dephasing channel. Canonical sequence names are the
strings ``none | mdd | xx | xy4 | udd<n> | qdd<n> | mdd+xx``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .noise import (KrausChannel, NoiseParams, PhaseCovariantChannel, _apply_local_raw,
                    combined_channel)
from .states import (
    DensityMatrix,
    ID2,
    PAULI_X,
    PAULI_Y,
    PauliExpectations,
    PureState,
    _as_matrix,
    _freeze,
    bloch_vector,
    reduced_density,
)

_KIND_RE = re.compile(r"^(udd|qdd)(\d+)$")
MAX_ORDER = 64  # qdd<n> has about n^2 pulses; the largest orders in use are udd8 and qdd4
# a measurement-driven kind is its base kind between the aligning rotation at 0 and its inverse at t
MEASURED_BASE = {"mdd": "none", "mdd+xx": "xx"}


def rot_y(angle: float) -> np.ndarray:
    """exp(-i angle Y / 2)."""
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rot_z(angle: float) -> np.ndarray:
    """exp(-i angle Z / 2)."""
    return np.array([[np.exp(-1j * angle / 2.0), 0], [0, np.exp(1j * angle / 2.0)]], dtype=complex)


def measure_expectations(state: PureState | DensityMatrix | np.ndarray, qubit: int,
                         shots: int | None = None,
                         rng: np.random.Generator | None = None) -> PauliExpectations:
    """Pauli expectations of one qubit, exact or shot-sampled.

    Shot mode draws each Pauli outcome from a binomial with ``shots`` trials,
    mirroring separate measurement circuits per observable.
    """
    b = bloch_vector(reduced_density(state, [qubit]))
    if shots is None:
        return b
    if rng is None:
        raise ValueError("shot-sampled expectations require an rng")
    est = []
    for mean in (b.ex, b.ey, b.ez):
        p_up = min(max((1.0 + mean) / 2.0, 0.0), 1.0)
        ups = rng.binomial(shots, p_up)
        est.append(2.0 * ups / shots - 1.0)
    return PauliExpectations(*est, shots=shots)


def mdd_unitary(exp: PauliExpectations) -> np.ndarray:
    """Rotation that diagonalizes the measured state, largest eigenvalue first,
    as a read-only 2x2 array.

    U = Ry(-theta) Rz(-phi) with theta = arccos(<Z>/r) and phi the
    quadrant-correct arctangent of (<Y>, <X>). Applied as U rho U^dag this
    sends the Bloch vector to (0, 0, r). For r = 0 every unitary acts alike,
    so the identity ``ID2`` is returned.
    """
    r = exp.r
    if r < 1e-15:
        return ID2
    z = min(max(exp.ez / r, -1.0), 1.0)  # clamp shot-noise overshoot
    theta = math.acos(z)
    # a z-rotation acts trivially on a z-aligned state, so ignore the azimuth
    # of pure roundoff transverse components
    phi = 0.0 if math.hypot(exp.ex, exp.ey) < 1e-12 else math.atan2(exp.ey, exp.ex)
    return _freeze(rot_y(-theta) @ rot_z(-phi))


def udd_times(n: int, t: float) -> np.ndarray:
    """Nonuniform pulse times t * sin^2(a pi / (2n+2)), a = 1..n.

    The list is strictly increasing inside (0, t) and symmetric:
    t_a + t_{n+1-a} = t.
    """
    if n < 1:
        raise ValueError(f"pulse count must be at least 1, got {n}")
    if not t > 0:  # negated so that NaN fails
        raise ValueError(f"duration must be positive, got {t}")
    a = np.arange(1, n + 1)
    return t * np.sin(a * np.pi / (2 * n + 2)) ** 2


def qdd_times(n: int, t: float) -> list[tuple[float, str]]:
    """Nested pulse times: outer Y pulses at the order-n nonuniform times and
    n inner X pulses in every gap, including the gaps before the first and
    after the last Y pulse.

    Returns (time, axis) pairs sorted by time, axis in {"x", "y"}.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"order must be an even integer >= 2, got {n}")
    outer = udd_times(n, t)
    events = [(float(ty), "y") for ty in outer]
    bounds = [0.0] + [float(ty) for ty in outer] + [t]
    frac = np.sin(np.arange(1, n + 1) * np.pi / (2 * n + 2)) ** 2
    for g0, g1 in zip(bounds[:-1], bounds[1:]):
        events.extend((g0 + (g1 - g0) * float(f), "x") for f in frac)
    events.sort(key=lambda e: e[0])
    return events


@dataclass(frozen=True)
class PulseSchedule:
    """An ordered list of (time, unitary) pulses over a total duration; each
    unitary is a 2x2 array."""

    total_time: float
    pulses: tuple

    def __post_init__(self) -> None:
        # each check is negated so that NaN fails it
        if not self.total_time >= 0:
            raise ValueError("total time must be nonnegative")
        times = [tm for tm, _ in self.pulses]
        if not all(a <= b for a, b in zip(times, times[1:])):
            raise ValueError("pulse times must be non-decreasing")
        if times and not (times[0] >= 0 and times[-1] <= self.total_time):
            raise ValueError("pulse times must lie in [0, total_time]")
        object.__setattr__(self, "pulses", tuple(self.pulses))


def is_measurement_driven(kind: str) -> bool:
    """Whether the sequence's schedule is computed from measured Pauli
    expectations of the state (``mdd``, ``mdd+xx``, in any case), so that it
    changes from state to state."""
    return kind.lower() in MEASURED_BASE


def build_schedule(kind: str, t: float, exp: PauliExpectations | None = None) -> PulseSchedule:
    """Construct the pulse schedule for a canonical sequence name.

    The measurement-driven kinds (``mdd``, ``mdd+xx``) require Pauli
    expectations of the target qubit at the interval start.
    """
    kind = kind.lower()
    if kind == "none":
        return PulseSchedule(t, ())
    if kind == "xx":
        return PulseSchedule(t, ((0.25 * t, PAULI_X), (0.75 * t, PAULI_X)))
    if kind == "xy4":
        pulses = ((0.0, PAULI_Y), (0.25 * t, PAULI_X), (0.5 * t, PAULI_Y), (0.75 * t, PAULI_X))
        return PulseSchedule(t, pulses)
    if kind in MEASURED_BASE:
        if exp is None:
            raise ValueError(f"sequence {kind!r} requires Pauli expectations")
        u = mdd_unitary(exp)
        base = build_schedule(MEASURED_BASE[kind], t)
        return PulseSchedule(t, ((0.0, u), *base.pulses, (t, _freeze(u.conj().T))))
    m = _KIND_RE.match(kind)
    if m is None:
        raise ValueError(f"unknown sequence kind {kind!r}")
    n = int(m.group(2))
    if n > MAX_ORDER:
        raise ValueError(f"sequence order must be at most {MAX_ORDER}, got {kind!r}")
    if m.group(1) == "udd":
        if n < 2 or n % 2 != 0:
            raise ValueError(f"udd order must be an even integer >= 2 for a closed sequence, got {n}")
        pulses = tuple((float(tj), PAULI_Y) for tj in udd_times(n, t))
        return PulseSchedule(t, pulses)
    gates = {"x": PAULI_X, "y": PAULI_Y}
    pulses = tuple((tm, gates[axis]) for tm, axis in qdd_times(n, t))
    return PulseSchedule(t, pulses)


def flip_times(schedule: PulseSchedule) -> list[float]:
    """Times of the pulses strictly inside (0, t): the sign switches seen by a
    pure-dephasing filter. Boundary conjugation pulses do not switch signs."""
    return [tm for tm, _ in schedule.pulses if 0.0 < tm < schedule.total_time]


def toggling_frames(schedule: PulseSchedule) -> list[np.ndarray]:
    """Cumulative control unitaries U_a = g_a ... g_1, one read-only 2x2 array per pulse."""
    frames = []
    acc = ID2
    for _, pulse in schedule.pulses:
        acc = _freeze(pulse @ acc)
        frames.append(acc)
    return frames


def _schedule_maps(schedule: PulseSchedule, params: NoiseParams) -> list[KrausChannel]:
    """The schedule's single-qubit channels in time order: the free evolution
    over each gap and each pulse as a one-operator channel."""
    maps = []
    prev = 0.0
    for tm, pulse in schedule.pulses:
        if tm > prev:
            maps.append(combined_channel(params, tm - prev))
            prev = tm
        maps.append(KrausChannel((pulse,)))
    if schedule.total_time > prev:
        maps.append(combined_channel(params, schedule.total_time - prev))
    return maps


def evolve_with_schedule(state: PureState | DensityMatrix, schedule: PulseSchedule,
                         params: NoiseParams, qubit: int) -> DensityMatrix:
    """Apply the schedule's channels (gaps and instantaneous pulses) one at a
    time to ``qubit`` of the full state; an empty schedule is the bare channel.

    No run calls it. It is the full-space oracle the tests hold
    :func:`schedule_channel` to, and it stays here because the
    benchmark's tracer (``perfbench/tracer.py``) looks it up in this module."""
    rho, n = _as_matrix(state)
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    for channel in _schedule_maps(schedule, params):
        rho = _apply_local_raw(channel, rho, qubit, n)
    return DensityMatrix(rho)


def schedule_channel(schedule: PulseSchedule, params: NoiseParams) -> PhaseCovariantChannel:
    """The target-qubit action of :func:`evolve_with_schedule` for an even number of X
    and of Y pulses, composed in their toggling frame: a gap after an odd number of pulses
    is flipped, X E X = Y E Y, which swaps P's rows and columns and conjugates c."""
    xs, ys = (sum(np.array_equal(pulse, m) for _, pulse in schedule.pulses)
              for m in (PAULI_X, PAULI_Y))
    if xs + ys < len(schedule.pulses) or xs % 2 or ys % 2:
        raise ValueError(f"a schedule channel needs X and Y pulses, an even number of each; "
                         f"got {xs} X and {ys} Y of {len(schedule.pulses)} pulses")
    times = [0.0, *(tm for tm, _ in schedule.pulses), schedule.total_time]
    pops, coherence = np.eye(2), 1.0
    for k, (start, stop) in enumerate(zip(times, times[1:])):
        if stop > start:
            gap = PhaseCovariantChannel.relaxation(params, stop - start)
            pops = (gap.populations[::-1, ::-1] if k % 2 else gap.populations) @ pops
            coherence *= gap.coherence.conjugate() if k % 2 else gap.coherence
    return PhaseCovariantChannel(pops, coherence)
