"""Decoherence machinery: the combined relaxation + dephasing Kraus channel,
Lindblad generators, and filter-function dephasing under colored noise.

Scalar conventions used throughout (durations in microseconds):

    s       = exp(-t / (2 T1))   amplitude survival factor
    p       = 1 - s^2            excitation decay probability
    gamma_p = exp(-t / Tp)       pure-dephasing factor, 1/Tp = 1/T2 - 1/(2 T1)
    a, b    = (1 +- s) / 2
    alpha, beta = (1 +- gamma_p) / 2

With these, the channel maps rho to
[[rho00 + p rho11, e^{-t/T2} rho01], [e^{-t/T2} rho10, (1-p) rho11]]:
populations P = [[1, p], [0, 1 - p]] and coherence c = s * gamma_p = e^{-t/T2},
and the ground state |0><0| is an exact fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._lazy import lazy_import
from .states import (
    ATOL,
    DensityMatrix,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PureState,
    _apply_left,
    _as_matrix,
    _freeze,
    apply_matrix,
)

LOWERING = 0.5 * (PAULI_X + 1j * PAULI_Y)  # |0><1|
_CHI_ABS_TOL = 1e-10  # chi_integral's quadrature
_CHI_MAX_SUBDIVISIONS = 1600

integrate = lazy_import("scipy.integrate")  # chi_integral's quad


class QuadratureError(RuntimeError):
    """Raised when the spectral integral fails to converge."""


@dataclass(frozen=True)
class NoiseParams:
    """Relaxation time T1 and total dephasing time T2, both in microseconds.

    Infinite values are allowed and describe a noiseless direction. A time
    whose reciprocal overflows would make ``tp`` 0 or NaN, so it is rejected.
    """

    t1: float
    t2: float

    def __post_init__(self) -> None:
        if not self.t1 > 0:
            raise ValueError(f"T1 must be positive, got {self.t1}")
        if not 0 < self.t2 <= 2 * self.t1:
            raise ValueError(f"T2 must satisfy 0 < T2 <= 2*T1, got T2={self.t2}, T1={self.t1}")
        if not (math.isfinite(1.0 / self.t1) and math.isfinite(1.0 / self.t2)):
            raise ValueError(f"T1 and T2 must have finite reciprocals, "
                             f"got T1={self.t1}, T2={self.t2}")

    @property
    def tp(self) -> float:
        """Pure-dephasing time: 1/Tp = 1/T2 - 1/(2 T1)."""
        rate = 1.0 / self.t2 - 1.0 / (2.0 * self.t1)
        return math.inf if rate <= 0 else 1.0 / rate


NOISELESS = NoiseParams(t1=math.inf, t2=math.inf)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A single-qubit channel given by its Kraus operators.

    ``superop`` is the channel's row-major 4x4 superoperator
    sum_K K (x) conj(K), with vec(E(rho)) = superop vec(rho), built once on
    construction and read-only; every application and composition goes
    through it. The row-major vec(rho) of N qubits is a 2N-qubit register,
    and on qubit q ``superop`` acts on its axes q and N + q, the row and
    column bits of q.
    Channels compare and hash by identity, since their fields are arrays.
    """

    operators: tuple
    superop: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ops = tuple(np.asarray(m, dtype=complex) for m in self.operators)
        if not ops or any(m.shape != (2, 2) for m in ops):
            raise ValueError("a single-qubit channel needs one or more 2x2 Kraus operators, "
                             f"got shapes {[m.shape for m in ops]}")
        k = np.stack(ops)
        if not np.max(np.abs((k.conj().swapaxes(1, 2) @ k).sum(axis=0) - ID2)) <= ATOL:
            raise ValueError("Kraus operators do not satisfy completeness within 1e-12")
        superop = (k[:, :, None, :, None] * k.conj()[:, None, :, None, :]).sum(axis=0).reshape(4, 4)
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "superop", _freeze(superop))


def _survival(params: NoiseParams, t: float) -> tuple[float, float]:
    """The scalars s and gamma_p of a duration t >= 0."""
    if not t >= 0:  # negated so that NaN fails
        raise ValueError(f"duration must be nonnegative, got {t}")
    return math.exp(-t / (2.0 * params.t1)), math.exp(-t / params.tp)


def combined_channel(params: NoiseParams, t: float) -> KrausChannel:
    """Simultaneous amplitude damping and dephasing over a duration t >= 0."""
    s, gamma_p = _survival(params, t)
    p = 1.0 - s * s
    a = (1.0 + s) / 2.0
    b = (1.0 - s) / 2.0
    alpha = (1.0 + gamma_p) / 2.0
    beta = (1.0 - gamma_p) / 2.0
    k_ad1 = a * ID2 + b * PAULI_Z       # diag(1, s)
    k_ad2 = math.sqrt(p) * LOWERING
    m11 = math.sqrt(alpha) * k_ad1
    m12 = math.sqrt(alpha) * k_ad2
    m21 = math.sqrt(beta) * (b * ID2 + a * PAULI_Z)   # diag(1, -s) scaled
    m22 = math.sqrt(beta) * k_ad2
    return KrausChannel(operators=(m11, m12, m21, m22))


@dataclass(frozen=True, eq=False)
class PhaseCovariantChannel:
    """A single-qubit channel that commutes with z-rotations: the read-only,
    column-stochastic ``populations`` P maps (rho00, rho11), and ``coherence``
    c multiplies rho01 (rho10 by conj(c)). Relaxation plus dephasing is one, and
    so is any X/Y pulse train between such gaps. Compared by identity."""

    populations: np.ndarray
    coherence: complex

    def __post_init__(self) -> None:
        pops = np.array(self.populations, dtype=float).reshape(2, 2)
        pops.flags.writeable = False
        object.__setattr__(self, "populations", pops)
        object.__setattr__(self, "coherence", complex(self.coherence))

    @classmethod
    def relaxation(cls, params: NoiseParams, t: float) -> "PhaseCovariantChannel":
        """:func:`combined_channel` in closed form: P = [[1, p], [0, 1 - p]], c = s gamma_p."""
        s, gamma_p = _survival(params, t)
        p = 1.0 - s * s
        return cls([[1.0, p], [0.0, 1.0 - p]], s * gamma_p)

    def fidelity(self, z, r):
        """sum_K |Tr(K sigma)|^2 on any purification of a state of Bloch norm ``r`` whose
        z-component is ``z`` (floats, or arrays that broadcast): the quadratic
        (P00 (1 + z)^2 + P11 (1 - z)^2 + (P01 + P10)(r^2 - z^2) + 2 Re(c)(1 - z^2)) / 4,
        clamped to [0, 1] against roundoff. A z-rotation changes only z, and the state
        it aligns has z = r. Real arithmetic, so a state rounds alike alone and in any stack."""
        (p00, p01), (p10, p11) = self.populations
        z, r = np.asarray(z, dtype=float), np.asarray(r, dtype=float)
        up, down, zz = 1.0 + z, 1.0 - z, z * z
        vals = np.clip((p00 * up * up + p11 * down * down + (p01 + p10) * (r * r - zz)
                        + 2.0 * self.coherence.real * (1.0 - zz)) / 4.0, 0.0, 1.0)
        return float(vals) if vals.ndim == 0 else vals


def apply_local(channel: KrausChannel, state: PureState | DensityMatrix, qubit: int) -> DensityMatrix:
    """Apply a single-qubit channel to one qubit of a larger state."""
    rho, n = _as_matrix(state)
    return DensityMatrix(_apply_local_raw(channel, rho, qubit, n))


def _apply_local_raw(channel: KrausChannel, rho: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    if not 0 <= qubit < num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {num_qubits} qubits")
    if rho.shape != (2**num_qubits, 2**num_qubits):
        raise ValueError(f"matrix of shape {rho.shape} needs 2^{num_qubits} rows and columns")
    vec = _apply_left(channel.superop, rho.reshape(-1, 1), [qubit, num_qubits + qubit], 2 * num_qubits)
    return vec.reshape(rho.shape)


@dataclass(frozen=True)
class JumpOperator:
    """A Lindblad jump operator with its rate (1/us) and target qubits."""

    matrix: np.ndarray
    rate: float
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.rate >= 0:  # negated so that NaN fails
            raise ValueError(f"jump rate must be nonnegative, got {self.rate}")
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))


def relaxation_dephasing_jumps(params: NoiseParams) -> list[JumpOperator]:
    """Jump operators on qubit 0 generating :func:`combined_channel` as a semigroup.

    The dephasing jump Z enters with rate 1/(2 Tp): a Z jump at rate G decays
    coherences as exp(-2 G t), so G = 1/(2 Tp) reproduces the channel factor
    exp(-t/Tp).
    """
    g1 = 0.0 if math.isinf(params.t1) else 1.0 / params.t1
    tp = params.tp
    g2 = 0.0 if math.isinf(tp) else 1.0 / (2.0 * tp)
    return [
        JumpOperator(LOWERING, g1, (0,)),
        JumpOperator(PAULI_Z, g2, (0,)),
    ]


def lindblad_derivative(rho: DensityMatrix | np.ndarray, hamiltonian: np.ndarray | None,
                        jumps: list[JumpOperator]) -> np.ndarray:
    """Right-hand side of the master equation:

    drho/dt = -i [H, rho] + sum_k G_k (L_k rho L_k^dag - {L_k^dag L_k, rho}/2)
    """
    mat, n = _as_matrix(rho)
    out = np.zeros_like(mat, dtype=complex)
    if hamiltonian is not None:
        h = np.asarray(hamiltonian, dtype=complex)
        if h.shape != mat.shape:
            raise ValueError(f"Hamiltonian shape {h.shape} does not match state {mat.shape}")
        out += -1j * (h @ mat - mat @ h)
    for jump in jumps:
        ll = jump.matrix.conj().T @ jump.matrix
        # mat ll = (ll mat^dag)^dag because ll is Hermitian
        anti = (_apply_left(ll, mat, jump.qubits, n)
                + _apply_left(ll, mat.conj().T, jump.qubits, n).conj().T)
        out += jump.rate * (apply_matrix(jump.matrix, mat, jump.qubits, n) - 0.5 * anti)
    return out


@dataclass(frozen=True)
class SpectralDensity:
    """Noise spectrum with Gaussian cutoff at omega_c (1/us).

    kind "ohmic":      S(w) = w   * exp(-(w/omega_c)^2)
    kind "one_over_f": S(w) = 1/w * exp(-(w/omega_c)^2)
    """

    kind: str
    omega_c: float

    def __post_init__(self) -> None:
        if self.kind not in ("ohmic", "one_over_f"):
            raise ValueError(f"unknown spectrum kind {self.kind!r}")
        if not self.omega_c > 0:
            raise ValueError(f"cutoff frequency must be positive, got {self.omega_c}")

    def value(self, omega: float) -> float:
        env = math.exp(-((omega / self.omega_c) ** 2))
        if self.kind == "ohmic":
            return omega * env
        return env / omega


def filter_function(pulse_times, t: float, omega: float) -> float:
    """Squared spectral weight |sum of sign-switch phasors|^2 of a pi-pulse train.

    For n pulses at times t_j strictly inside (0, t):

        F(w t) = |1 + (-1)^(n+1) e^{i w t} + 2 sum_j (-1)^j e^{i w t_j}|^2

    With no pulses this reduces to 4 sin^2(w t / 2), and F(0) = 0 for every
    pulse configuration. Pulse times or a duration that are not finite raise
    ValueError.
    """
    times = [float(tj) for tj in pulse_times]
    if not (math.isfinite(t) and all(map(math.isfinite, times))):
        raise ValueError(f"pulse times and the duration must be finite, got {times} and {t}")
    if any(times[i] >= times[i + 1] for i in range(len(times) - 1)):
        raise ValueError("pulse times must be strictly increasing")
    if times and (times[0] <= 0 or times[-1] >= t):
        raise ValueError("pulse times must lie strictly inside (0, t)")
    n = len(times)
    total = 1.0 + (-1.0) ** (n + 1) * np.exp(1j * omega * t)
    for j, tj in enumerate(times, start=1):
        total += 2.0 * (-1.0) ** j * np.exp(1j * omega * tj)
    return float(abs(total) ** 2)


def chi_integral(spectrum: SpectralDensity, pulse_times, t: float) -> float:
    """Dephasing exponent chi(t) = (2/pi) * int_0^inf [S(w)/w] F(w t) dw.

    The integral is truncated at 10 * omega_c, where the Gaussian cutoff makes
    the tail negligible, and the w -> 0 endpoint is evaluated at its analytic
    limit (the integrand vanishes there for the Ohmic spectrum and stays
    finite for 1/f because F grows at least quadratically in w). ValueError: a
    duration that is not positive and finite, or a pulse time that is not
    finite. QuadratureError: a floor 1e-9 / t not below 10 * omega_c, or a NaN,
    infinite or unconverged estimate.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"duration must be positive and finite, got {t}")
    times = list(pulse_times)
    w_floor = 1e-9 / t

    def integrand(w: float) -> float:
        w = max(w, w_floor)  # analytic limit: F ~ w^2 or faster cancels S/w singularities
        return spectrum.value(w) / w * filter_function(times, t, w)

    upper = 10.0 * spectrum.omega_c
    if not w_floor < upper:  # the floor would replace the whole range; (w / omega_c)^2 may overflow
        raise QuadratureError(f"chi integral is empty: its floor 1e-9 / t = {w_floor!r} is not "
                              f"below its upper limit 10 * omega_c = {upper!r}")
    # an omega t that overflows the filter function yields NaN, which the check below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        result, abserr, info = integrate.quad(
            integrand, 0.0, upper, epsabs=_CHI_ABS_TOL, epsrel=1e-10,
            limit=_CHI_MAX_SUBDIVISIONS, full_output=True,
        )[:3]
    if not (math.isfinite(result) and abserr <= max(1e-7, 1e-5 * abs(result))):  # NaN fails
        raise QuadratureError(
            f"chi integral did not converge: estimate {result!r}, error {abserr!r}, "
            f"{info['last']} subdivisions used of {_CHI_MAX_SUBDIVISIONS}"
        )
    return max(float((2.0 / math.pi) * result), 0.0)
