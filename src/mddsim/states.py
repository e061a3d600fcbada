"""Dense complex linear algebra for small multi-qubit systems.

States are immutable after construction and validated on construction.
Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of a
computational-basis index: for two qubits, index 1 is |01> (qubit 0 in |0>,
qubit 1 in |1>).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ATOL = 1e-12
EIG_FLOOR = 1e-10  # the lowest eigenvalue a DensityMatrix accepts, against roundoff
# The largest exact Bloch norm of a valid single-qubit state: its eigenvalues are
# (Tr rho +- r)/2, with the trace within ATOL of 1, each off-diagonal within ATOL of
# the other's conjugate, and the lower eigenvalue down to -EIG_FLOOR.
MAX_EXACT_NORM = 1.0 + 2.0 * ATOL + 2.0 * EIG_FLOOR
MAX_PURE_QUBITS = 12
MAX_MIXED_QUBITS = 10
# _apply_left's axis orders per (targets, N), stored once the targets pass its checks
_AXIS_ORDERS: dict[tuple, tuple[tuple[int, ...], tuple[int, ...]]] = {}


def _num_qubits(dim: int) -> int:
    n = int(round(math.log2(dim)))
    if n < 1 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    return n


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.flags.writeable = False
    return out


# read-only, so that the X and Y pulses of every schedule can be these arrays themselves
ID2 = _freeze(np.eye(2))
PAULI_X = _freeze([[0, 1], [1, 0]])
PAULI_Y = _freeze([[0, -1j], [1j, 0]])
PAULI_Z = _freeze([[1, 0], [0, -1]])


class PureState:
    """Normalized state vector of ``num_qubits`` qubits (1 <= N <= 12)."""

    __slots__ = ("amplitudes", "num_qubits")

    def __init__(self, amplitudes) -> None:
        amps = np.asarray(amplitudes, dtype=complex).ravel()
        n = _num_qubits(amps.size)
        if n > MAX_PURE_QUBITS:
            raise ValueError(f"pure states support at most {MAX_PURE_QUBITS} qubits, got {n}")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= ATOL:  # negated so that NaN fails
            raise ValueError(f"state vector norm {norm!r} deviates from 1 beyond {ATOL}")
        object.__setattr__(self, "amplitudes", _freeze(amps))
        object.__setattr__(self, "num_qubits", n)

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    @property
    def dim(self) -> int:
        return self.amplitudes.size


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix (N <= 10 qubits)."""

    __slots__ = ("entries", "num_qubits")

    def __init__(self, entries) -> None:
        mat = np.asarray(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        n = _num_qubits(mat.shape[0])
        if n > MAX_MIXED_QUBITS:
            raise ValueError(f"density matrices support at most {MAX_MIXED_QUBITS} qubits, got {n}")
        if not np.max(np.abs(mat - mat.conj().T)) <= ATOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        tr = np.trace(mat).real
        if not abs(tr - 1.0) <= ATOL:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1 beyond {ATOL}")
        if np.min(np.linalg.eigvalsh(mat)) < -EIG_FLOOR:
            raise ValueError(f"density matrix has an eigenvalue below {-EIG_FLOOR}")
        object.__setattr__(self, "entries", _freeze(mat))
        object.__setattr__(self, "num_qubits", n)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class PauliExpectations:
    """Pauli expectations (<X>, <Y>, <Z>) of a single qubit, exact or measured.

    ``shots`` is None for exact expectations, whose norm is at most 1 up to
    the tolerances of a valid state (``MAX_EXACT_NORM``, unclamped, so that a
    pure state keeps its r = 1 + 2e-16);
    otherwise each component came from binomial sampling with that many
    shots, at least one. Three independent estimates can reach any norm up to
    sqrt(3), so shot mode only checks that each component lies in [-1, 1].
    """

    ex: float
    ey: float
    ez: float
    shots: int | None = None

    def __post_init__(self) -> None:
        if self.shots is None:
            # hypot does not overflow on huge components, and NaN fails the comparison
            norm = math.hypot(self.ex, self.ey, self.ez)
            if not norm <= MAX_EXACT_NORM:
                raise ValueError(f"expectation vector norm {norm!r} exceeds 1")
        elif not self.shots >= 1:
            raise ValueError(f"sampled expectations need at least one shot, got {self.shots}")
        elif not all(-1.0 <= e <= 1.0 for e in (self.ex, self.ey, self.ez)):
            raise ValueError("sampled expectations must lie in [-1, 1]")

    @property
    def r(self) -> float:
        return math.sqrt(self.ex**2 + self.ey**2 + self.ez**2)


def _as_matrix(state: PureState | DensityMatrix | np.ndarray) -> tuple[np.ndarray, int]:
    if isinstance(state, PureState):
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
        return rho, state.num_qubits
    if isinstance(state, DensityMatrix):
        return state.entries, state.num_qubits
    mat = np.asarray(state, dtype=complex)
    return mat, _num_qubits(mat.shape[0])


def reduced_density(state: PureState | DensityMatrix | np.ndarray, qubits) -> DensityMatrix:
    """Partial trace onto the given qubit subset.

    The complement of ``qubits`` is traced out; the reduced system keeps the
    ascending qubit order regardless of the order given. A pure state is
    contracted from its amplitudes in O(2^N d^2) without forming its 4^N
    outer product; both branches add the same products in the same order.
    """
    qubits = [int(q) for q in qubits]
    keep = sorted(set(qubits))
    if len(keep) != len(qubits):
        raise ValueError("qubit indices must be distinct")
    pure = isinstance(state, PureState)
    rho, n = (None, state.num_qubits) if pure else _as_matrix(state)
    if not keep:
        raise ValueError("must keep at least one qubit")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"qubit indices {keep} out of range for {n} qubits")
    traced = [q for q in range(n) if q not in keep]
    d = 2 ** len(keep)
    if pure:
        amps = state.amplitudes.reshape([2] * n).transpose(keep + traced).reshape(d, -1)
        tensor = (amps[:, None, :] * amps.conj()[None, :, :]).reshape([d, d] + [2] * len(traced))
        for _ in traced:  # highest traced qubit first, as np.trace below
            tensor = tensor[..., 0] + tensor[..., 1]
        return DensityMatrix(tensor)
    tensor = rho.reshape([2] * (2 * n))
    dims_left = n
    for q in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=q, axis2=q + dims_left)
        dims_left -= 1
    return DensityMatrix(tensor.reshape(d, d))


def bloch_vector(rho: DensityMatrix) -> PauliExpectations:
    """Exact Pauli expectations of a single-qubit density matrix."""
    if rho.num_qubits != 1:
        raise ValueError("bloch_vector requires a single-qubit density matrix")
    m = rho.entries
    return PauliExpectations(
        ex=float(np.trace(m @ PAULI_X).real),
        ey=float(np.trace(m @ PAULI_Y).real),
        ez=float(np.trace(m @ PAULI_Z).real),
    )


def entanglement_fidelity(psi: PureState, channel_output: DensityMatrix) -> float:
    """Overlap <psi| rho |psi> of a pure input with its image under a channel.

    This is the brute-force definition evaluated in the full 2^N-dimensional
    space; closed-form shortcuts are tested against it.
    """
    if psi.dim != channel_output.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {channel_output.dim}")
    amps = psi.amplitudes
    return float((amps.conj() @ channel_output.entries @ amps).real)


def haar_random_state(n: int, seed) -> PureState:
    """Haar-random pure state via a normalized standard complex Gaussian vector."""
    if not 1 <= n <= MAX_PURE_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_PURE_QUBITS}], got {n}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return PureState(z / np.linalg.norm(z))


def _apply_left(op: np.ndarray, mat: np.ndarray, targets, num_qubits: int) -> np.ndarray:
    """Return M @ mat for M = ``op`` on the ``targets`` row axes of the 2^N-row
    ``mat`` (first target = leftmost factor of ``op``), contracting only those
    axes instead of forming the 2^N x 2^N operator."""
    targets = tuple(int(q) for q in targets)
    k = len(targets)
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not match {k} target qubits")
    orders = _AXIS_ORDERS.get((targets, num_qubits))
    if orders is None:
        if len(set(targets)) != k:
            raise ValueError("target qubits must be distinct")
        if any(q < 0 or q >= num_qubits for q in targets):
            raise ValueError(f"target qubits {list(targets)} out of range for {num_qubits} qubits")
        forward = targets + tuple(q for q in range(num_qubits + 1) if q not in targets)
        orders = _AXIS_ORDERS[targets, num_qubits] = forward, tuple(map(forward.index, range(num_qubits + 1)))
    if mat.shape[0] != 2**num_qubits:
        raise ValueError(f"matrix with {mat.shape[0]} rows does not act on {num_qubits} qubits")
    tensor = mat.reshape((2,) * num_qubits + (-1,)).transpose(orders[0])
    out = (op @ tensor.reshape(2**k, -1)).reshape(tensor.shape)
    return out.transpose(orders[1]).reshape(mat.shape)


def apply_matrix(op: np.ndarray, rho: np.ndarray, targets, num_qubits: int) -> np.ndarray:
    """Return M rho M^dag with M acting on ``targets``, as (M (M rho)^dag)^dag."""
    left = _apply_left(op, rho, targets, num_qubits)
    return _apply_left(op, left.conj().T, targets, num_qubits).conj().T
