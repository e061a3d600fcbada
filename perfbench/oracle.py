"""Independent dense oracle for single-noisy-qubit entanglement fidelities.

Numpy only: nothing here imports mddsim. Every single-qubit operator is
promoted to the full 2^N space with ``np.kron`` and every channel is a plain
Kraus sum, so the oracle shares no code path with the simulator it checks.
The noise channel is built as amplitude damping followed by phase damping,
a different (but equivalent) Kraus decomposition from the library's.

Conventions match the simulator's documented ones: qubit 0 is the leftmost
tensor factor, durations are in microseconds, pulses are instantaneous.
"""

from __future__ import annotations

import math

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|


def haar_state(num_qubits: int, seed: int, index: int) -> np.ndarray:
    """The documented state recipe: a normalized standard complex Gaussian
    vector drawn from ``default_rng((seed, index))``."""
    rng = np.random.default_rng((seed, index))
    dim = 2**num_qubits
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def embed(op: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """I (x) ... (x) op (x) ... (x) I with ``op`` on ``qubit``."""
    left = np.eye(2**qubit, dtype=complex)
    right = np.eye(2 ** (num_qubits - qubit - 1), dtype=complex)
    return np.kron(np.kron(left, op), right)


def noise_kraus(t: float, t1: float, t2: float) -> list[np.ndarray]:
    """Amplitude damping over t, then pure dephasing at 1/Tp = 1/T2 - 1/(2 T1)."""
    s = math.exp(-t / (2.0 * t1))
    rate = 1.0 / t2 - 1.0 / (2.0 * t1)
    gamma = math.exp(-t * rate) if rate > 0 else 1.0
    damping = [np.diag([1.0, s]).astype(complex), math.sqrt(1.0 - s * s) * LOWER]
    dephasing = [math.sqrt((1.0 + gamma) / 2.0) * I2, math.sqrt((1.0 - gamma) / 2.0) * Z]
    return [d @ a for d in dephasing for a in damping]


def _ry(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(angle: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])


def bloch(psi: np.ndarray, qubit: int) -> tuple[float, float, float]:
    n = int(round(math.log2(psi.size)))
    tensor = np.moveaxis(psi.reshape([2] * n), qubit, 0).reshape(2, -1)
    sigma = tensor @ tensor.conj().T
    return tuple(float(np.trace(sigma @ p).real) for p in (X, Y, Z))


def aligning_unitary(psi: np.ndarray, qubit: int) -> np.ndarray:
    """Rotation taking the qubit's Bloch vector to +z: Ry(-theta) Rz(-phi)."""
    ex, ey, ez = bloch(psi, qubit)
    r = math.sqrt(ex * ex + ey * ey + ez * ez)
    if r < 1e-15:
        return I2
    theta = math.acos(min(max(ez / r, -1.0), 1.0))
    phi = 0.0 if math.hypot(ex, ey) < 1e-12 else math.atan2(ey, ex)
    return _ry(-theta) @ _rz(-phi)


def _udd(n: int, t: float) -> list[float]:
    return [t * math.sin(a * math.pi / (2 * n + 2)) ** 2 for a in range(1, n + 1)]


def pulses(kind: str, t: float, psi: np.ndarray, qubit: int) -> list[tuple[float, np.ndarray]]:
    """(time, 2x2 unitary) pulses of a named sequence over duration t."""
    kind = kind.lower()
    if kind == "none":
        return []
    if kind == "xx":
        return [(0.25 * t, X), (0.75 * t, X)]
    if kind == "xy4":
        return [(0.0, Y), (0.25 * t, X), (0.5 * t, Y), (0.75 * t, X)]
    if kind in ("mdd", "mdd+xx"):
        u = aligning_unitary(psi, qubit)
        inner = [(0.25 * t, X), (0.75 * t, X)] if kind == "mdd+xx" else []
        return [(0.0, u), *inner, (t, u.conj().T)]
    if kind.startswith("udd"):
        return [(tm, Y) for tm in _udd(int(kind[3:]), t)]
    if kind.startswith("qdd"):
        n = int(kind[3:])
        outer = _udd(n, t)
        events = [(tm, "y") for tm in outer]
        bounds = [0.0] + outer + [t]
        fracs = [math.sin(a * math.pi / (2 * n + 2)) ** 2 for a in range(1, n + 1)]
        for g0, g1 in zip(bounds[:-1], bounds[1:]):
            events.extend((g0 + (g1 - g0) * f, "x") for f in fracs)
        events.sort(key=lambda e: e[0])
        return [(tm, X if axis == "x" else Y) for tm, axis in events]
    raise ValueError(f"oracle does not know sequence {kind!r}")


def dd_fidelity(psi: np.ndarray, kind: str, t: float, t1: float, t2: float,
                qubit: int = 0) -> float:
    """<psi| rho(t) |psi> after the sequence with noise on ``qubit`` only."""
    n = int(round(math.log2(psi.size)))
    rho = np.outer(psi, psi.conj())

    def channel(rho: np.ndarray, duration: float) -> np.ndarray:
        out = np.zeros_like(rho)
        for k in noise_kraus(duration, t1, t2):
            full = embed(k, qubit, n)
            out += full @ rho @ full.conj().T
        return out

    prev = 0.0
    for tm, u in pulses(kind, t, psi, qubit):
        if tm > prev:
            rho = channel(rho, tm - prev)
            prev = tm
        full = embed(u, qubit, n)
        rho = full @ rho @ full.conj().T
    if t > prev:
        rho = channel(rho, t - prev)
    return float((psi.conj() @ rho @ psi).real)
