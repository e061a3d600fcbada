"""Shared test oracles, kept deliberately independent of the library paths
they are used to check, and the library functions that no run, verify suite
or demo reaches, kept as they were next to the tests that check them."""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from mddsim.analysis import (_RATE_EPS, _STARTS, TwoQubitRates, _envelope_slope,
                             _fidelity_table, _gap_passed, _haar_batch, _rotated_z,
                             decay_rate_quadratic, local_entanglement_fidelity)
from mddsim.circuits import (Gate, ScheduledCircuit, _insert_pulse, _simulate_raw,
                             identify_idle)
from mddsim.experiments import _plain
from mddsim.noise import KrausChannel, NoiseParams, PhaseCovariantChannel, combined_channel
from mddsim.sequences import (MEASURED_BASE, PulseSchedule, _schedule_maps, build_schedule,
                              evolve_with_schedule, is_measurement_driven, mdd_unitary,
                              measure_expectations, schedule_channel)
from mddsim.sqd import (FciData, RecoveryConfig, SpaceHamiltonian, parse_fcidump,
                        project_and_diagonalize, recover_configuration, write_fcidump)
from mddsim.sqd.hamiltonian import (_check_rows, _diagonal_elements, _double_elements,
                                    _excitation, _lanczos_ground, _positions, _Sector,
                                    occupation_keys)
from mddsim.sqd.recovery import _RECOVER_SALT, _valid_mask
from mddsim.states import (ID2, PAULI_X, PAULI_Y, PAULI_Z, DensityMatrix, PauliExpectations,
                           PureState, _apply_left, _as_matrix, apply_matrix,
                           bloch_vector, entanglement_fidelity, reduced_density)


def random_channel(rng: np.random.Generator, num_kraus: int) -> KrausChannel:
    """Kraus operators cut from a random 2m x 2 isometry: sum K^dag K = I."""
    iso = _haar_batch(1, rng, 2 * num_kraus)[0][:, :2]
    return KrausChannel(tuple(iso[2 * i:2 * i + 2] for i in range(num_kraus)))


def naive_reduced(rho: np.ndarray, num_qubits: int, keep: list[int]) -> np.ndarray:
    """Partial trace by explicit index summation over a nested loop.

    Bit 0 of a basis index is the most significant (qubit 0 leftmost).
    """
    keep = sorted(keep)
    traced = [q for q in range(num_qubits) if q not in keep]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)

    def full_index(keep_bits: int, traced_bits: int) -> int:
        idx = 0
        for pos, q in enumerate(keep):
            bit = (keep_bits >> (len(keep) - 1 - pos)) & 1
            idx |= bit << (num_qubits - 1 - q)
        for pos, q in enumerate(traced):
            bit = (traced_bits >> (len(traced) - 1 - pos)) & 1
            idx |= bit << (num_qubits - 1 - q)
        return idx

    for a in range(dk):
        for b in range(dk):
            for c in range(2 ** len(traced)):
                out[a, b] += rho[full_index(a, c), full_index(b, c)]
    return out


def embed_operator(op: np.ndarray, targets, num_qubits: int) -> np.ndarray:
    """Promote an operator on ``targets`` to the full 2^N space by a Kronecker
    product with the identity and an axis permutation.

    ``targets`` lists the qubits the operator acts on, in the tensor order of
    ``op`` (first target is the leftmost factor of ``op``).
    """
    targets = [int(q) for q in targets]
    k = len(targets)
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not match {k} target qubits")
    if len(set(targets)) != k:
        raise ValueError("target qubits must be distinct")
    if any(q < 0 or q >= num_qubits for q in targets):
        raise ValueError(f"target qubits {targets} out of range for {num_qubits} qubits")
    rest = [q for q in range(num_qubits) if q not in targets]
    full = np.kron(op, np.eye(2 ** len(rest), dtype=complex))
    # full acts on qubit order targets + rest; permute back to 0..N-1.
    perm = np.argsort(targets + rest)  # position of original qubit q in the permuted order
    tensor = full.reshape([2] * (2 * num_qubits))
    tensor = tensor.transpose(list(perm) + [p + num_qubits for p in perm])
    return tensor.reshape(2**num_qubits, 2**num_qubits)


def apply_left_moveaxis(op: np.ndarray, mat: np.ndarray, targets, num_qubits: int) -> np.ndarray:
    """The local-operator kernel in its ``np.moveaxis`` form, the bitwise oracle
    for ``_apply_left``: the same data movement and the same ``op @ X`` call."""
    k = len(targets)
    tensor = np.moveaxis(mat.reshape([2] * num_qubits + [-1]), targets, range(k))
    out = (np.asarray(op, dtype=complex) @ tensor.reshape(2**k, -1)).reshape(tensor.shape)
    return np.moveaxis(out, range(k), targets).reshape(mat.shape)


def _p_gamma_params(p: float, gamma_p: float) -> NoiseParams:
    """Noise whose channel over t = 1 has damping probability p and
    pure-dephasing factor gamma_p."""
    s = math.sqrt(1.0 - p)
    t1 = math.inf if s == 1.0 else -1.0 / (2.0 * math.log(s))
    tp = math.inf if gamma_p == 1.0 else -1.0 / math.log(gamma_p)
    inv_t2 = (0.0 if math.isinf(tp) else 1.0 / tp) + 1.0 / (2.0 * t1)
    t2 = math.inf if inv_t2 == 0.0 else 1.0 / inv_t2
    return NoiseParams(t1=t1, t2=t2)


def channel_from_p_gamma(p: float, gamma_p: float) -> KrausChannel:
    """Combined channel with a prescribed damping probability and dephasing
    factor, built through the public time-parameterized constructor."""
    return combined_channel(_p_gamma_params(p, gamma_p), t=1.0)


def covariant_from_p_gamma(p: float, gamma_p: float) -> PhaseCovariantChannel:
    """The same channel as :func:`channel_from_p_gamma`, as P and c."""
    return PhaseCovariantChannel.relaxation(_p_gamma_params(p, gamma_p), t=1.0)


def dephasing_channel_from_chi(chi: float) -> KrausChannel:
    """Pure phase damping that multiplies off-diagonals by exp(-chi): the Kraus
    pair (sqrt(alpha) I, sqrt(beta) Z), alpha, beta = (1 +- exp(-chi)) / 2. The
    colored-noise model's dephasing, as the dense oracle applies it."""
    if chi < 0:
        raise ValueError(f"chi must be nonnegative, got {chi}")
    gamma = math.exp(-chi)
    return KrausChannel((math.sqrt((1.0 + gamma) / 2.0) * ID2,
                         math.sqrt((1.0 - gamma) / 2.0) * PAULI_Z))


def filter_function_numpy(pulse_times, t: float, omega: float) -> float:
    """The filter function as the library computed it before it summed in Python
    floats: every call checks the train, and the phasors are numpy scalars. The
    bit-for-bit oracle of ``mddsim.noise.filter_function``; an overflowing omega t
    gives nan + nan j, so NaN (warnings silenced)."""
    times = [float(tj) for tj in pulse_times]
    if not (math.isfinite(t) and all(map(math.isfinite, times))):
        raise ValueError(f"pulse times and the duration must be finite, got {times} and {t}")
    if any(times[i] >= times[i + 1] for i in range(len(times) - 1)):
        raise ValueError("pulse times must be strictly increasing")
    if times and (times[0] <= 0 or times[-1] >= t):
        raise ValueError("pulse times must lie strictly inside (0, t)")
    n = len(times)
    with np.errstate(over="ignore", invalid="ignore"):
        total = 1.0 + (-1.0) ** (n + 1) * np.exp(1j * omega * t)
        for j, tj in enumerate(times, start=1):
            total += 2.0 * (-1.0) ** j * np.exp(1j * omega * tj)
        return float(abs(total) ** 2)


def superoperator(*channels: KrausChannel) -> np.ndarray:
    """Row-major 4x4 superoperator of single-qubit channels applied in the
    order given: the product of their ``superop`` matrices, last one leftmost."""
    total = np.eye(4, dtype=complex)
    for channel in channels:
        total = channel.superop @ total
    return total


def schedule_superoperator(schedule: PulseSchedule, params: NoiseParams) -> np.ndarray:
    """The target-qubit action of ``evolve_with_schedule`` as one superoperator,
    gap channels and pulses multiplied in time order: the oracle for
    ``schedule_channel``, for any pulses."""
    return superoperator(*_schedule_maps(schedule, params))


def superoperator_fidelity(sigma, superop: np.ndarray):
    """Entanglement fidelity sum_K |Tr(K sigma)|^2 of the single-qubit channel
    with row-major superoperator ``superop``, on any purification of ``sigma``:
    a float, or one value per state of a (..., 2, 2) stack. The realigned matrix
    C[ab, cd] = sum_K K_ab conj(K_cd) is independent of the Kraus decomposition,
    and F = vec(sigma^T) C vec(sigma^T)^dag, summed entrywise as Re(w . conj(v))
    with v = vec(sigma^T) and w = v C, clamped to [0, 1]: the oracle for
    ``PhaseCovariantChannel.fidelity``, for any channel."""
    choi = superop.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    mat = sigma.entries if isinstance(sigma, DensityMatrix) else np.asarray(sigma, dtype=complex)
    v = mat.swapaxes(-1, -2).reshape(mat.shape[:-2] + (4,))
    w = v @ choi
    vals = (w.real * v.real + w.imag * v.imag).sum(-1).clip(0.0, 1.0)
    return float(vals) if vals.ndim == 0 else vals


def covariant_from_superop(superop: np.ndarray) -> PhaseCovariantChannel:
    """P and c read off a z-covariant channel's row-major superoperator:
    P from the entries that map rho00 and rho11, c the factor on rho01."""
    return PhaseCovariantChannel(superop[np.ix_([0, 3], [0, 3])].real, superop[1, 1])


def toggled_frame_average_loop(psi, schedule, params, qubit: int = 0) -> float:
    """Duration-weighted average, frame by frame, of the Kraus-sum fidelity of
    the interval's channel conjugated by each cumulative control frame."""
    sigma = reduced_density(psi, [qubit])
    channel = combined_channel(params, schedule.total_time)
    total = 0.0
    for frame, duration in frame_durations(schedule):
        if duration <= 0:
            continue
        total += (duration / schedule.total_time) * local_entanglement_fidelity(sigma, channel, frame)
    return total


def optimize_two_qubit_mdd_rowwise(r_i: float, r_j: float, rates: TwoQubitRates,
                                   seed: int = 0) -> tuple[tuple[float, float, float], float]:
    """The multi-start SLSQP with the four positivity constraints passed as
    four scalar constraints, each finite-differenced on its own: the
    bit-identity oracle for the library's single vector constraint."""
    if r_i >= 1.0 - 1e-12 and r_j >= 1.0 - 1e-12:
        return (1.0, 1.0, 1.0), 0.0

    signs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)

    def objective(c: np.ndarray) -> float:
        return (float(decay_rate_quadratic(r_i, c[0], rates.qubit_i))
                + float(decay_rate_quadratic(r_j, c[1], rates.qubit_j))
                + rates.gamma_zz * (1.0 - c[2]**2))

    def gradient(c: np.ndarray) -> np.ndarray:
        gi, gj = rates.qubit_i, rates.qubit_j
        return np.array([
            gi.gamma1 * (-0.5 + 0.5 * c[0]) - 2.0 * gi.gamma2 * c[0],
            gj.gamma1 * (-0.5 + 0.5 * c[1]) - 2.0 * gj.gamma2 * c[1],
            -2.0 * rates.gamma_zz * c[2],
        ])

    constraints = [{"type": "ineq", "fun": lambda c, k=k: 1.0 + signs[k] @ c - _RATE_EPS}
                   for k in range(4)]
    rng = np.random.default_rng(seed)
    best_c, best_val = None, math.inf
    attempts = [np.zeros(3)]
    draws = 0
    while len(attempts) < _STARTS and draws < 100 * _STARTS:
        draws += 1
        cand = rng.uniform(-1.0, 1.0, size=3)
        if np.all(1.0 + signs @ cand > _RATE_EPS):
            attempts.append(cand)
    for x0 in attempts:
        res = optimize.minimize(objective, x0, jac=gradient, method="SLSQP",
                                constraints=constraints, bounds=[(-1.0, 1.0)] * 3,
                                options={"maxiter": 400, "ftol": 1e-14})
        if res.x is None:
            continue
        cand = np.clip(res.x, -1.0, 1.0)
        if np.all(1.0 + signs @ cand >= -1e-12):
            val = objective(cand)
            if val < best_val:
                best_val, best_c = val, cand
    return tuple(float(v) for v in best_c), float(best_val)


def grid_minimum_two_qubit_dense(r_i: float, r_j: float, rates: TwoQubitRates,
                                 points: int = 201) -> tuple[tuple[float, float, float], float]:
    """The grid certificate by scanning all points^3 grid points: four float
    masks and one value slice per c1, the first minimum in C order. The
    bit-identity oracle for the library's per-row c3 intervals."""
    if points < 2:
        raise ValueError(f"grid needs at least 2 points per axis, got {points}")
    axis = np.linspace(-1.0, 1.0, points)
    f1 = decay_rate_quadratic(r_i, axis, rates.qubit_i)
    f2 = decay_rate_quadratic(r_j, axis, rates.qubit_j)
    fz = rates.gamma_zz * (1.0 - axis**2)
    c2g, c3g = np.meshgrid(axis, axis, indexing="ij")
    best_val = math.inf
    best = None
    for i1, c1 in enumerate(axis):
        feasible = ((1.0 + c1 + c2g + c3g >= 0.0) & (1.0 + c1 - c2g - c3g >= 0.0)
                    & (1.0 - c1 + c2g - c3g >= 0.0) & (1.0 - c1 - c2g + c3g >= 0.0))
        if not feasible.any():
            continue
        vals = f1[i1] + f2[:, None] + fz[None, :]
        vals = np.where(feasible, vals, math.inf)
        idx = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[idx] < best_val:
            best_val = float(vals[idx])
            best = (float(c1), float(axis[idx[0]]), float(axis[idx[1]]))
    return best, best_val


def insert_dd_replaying(circuit: ScheduledCircuit, strategy: str, noise: NoiseParams,
                        threshold: float, shots: int | None = None,
                        seed: int | None = None) -> ScheduledCircuit:
    """Insert the chosen sequence into every idle interval above threshold.

    Intervals are processed in start-time order. For the measurement-driven
    strategy the Pauli expectations come from simulating the circuit built so
    far up to the interval start (exact, or binomially sampled when ``shots``
    is given), mirroring the iterated measure-compute-insert workflow.
    """
    strategy = strategy.lower()
    if strategy == "none":
        return circuit
    if strategy not in ("mdd", "mdd+xx"):
        build_schedule(strategy, 1.0)  # reject unknown names before touching the circuit
    intervals = identify_idle(circuit, threshold)
    slices = list(circuit.slices)
    rng = np.random.default_rng(seed) if shots is not None else None
    for iv in intervals:
        exp = None
        if strategy in ("mdd", "mdd+xx"):
            prefix = ScheduledCircuit(circuit.num_qubits, tuple(slices))
            rho = _simulate_raw(prefix, noise, None, until_time=iv.start)
            exp = measure_expectations(DensityMatrix(rho), iv.qubit, shots=shots, rng=rng)
        schedule = build_schedule(strategy, iv.duration, exp)
        for offset, pulse in schedule.pulses:
            _insert_pulse(slices, iv.start + offset, Gate((iv.qubit,), pulse))
    return ScheduledCircuit(circuit.num_qubits, tuple(slices))


def random_single_qubit_density(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = z @ z.conj().T
    return m / np.trace(m)


def conjugate_matmul(sigma: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u sigma u^dag as two stacked matmuls: the oracle for ``analysis._rotated_z``
    (its diagonal difference) and for :func:`conjugate_entrywise`."""
    return u @ sigma @ u.conj().swapaxes(-1, -2)


def conjugate_entrywise(sigma: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u sigma u^dag for 2x2 matrices or (..., 2, 2) stacks, broadcast over the
    leading axes of either, written out entry by entry on equal-length 1-d operands,
    so that one pair rounds as one row of a stack."""
    shape = np.broadcast_shapes(np.shape(sigma), np.shape(u))
    s00, s01, s10, s11 = np.broadcast_to(sigma, shape).reshape(-1, 4).T
    u00, u01, u10, u11 = np.broadcast_to(u, shape).reshape(-1, 4).T
    a00, a01 = u00 * s00 + u01 * s10, u00 * s01 + u01 * s11  # u sigma
    a10, a11 = u10 * s00 + u11 * s10, u10 * s01 + u11 * s11
    c00, c01, c10, c11 = u00.conj(), u01.conj(), u10.conj(), u11.conj()
    out = np.empty((len(s00), 4), dtype=complex)
    out[:, 0] = a00 * c00 + a01 * c01
    out[:, 1] = a00 * c10 + a01 * c11
    out[:, 2] = a10 * c00 + a11 * c01
    out[:, 3] = a10 * c10 + a11 * c11
    return out.reshape(shape)


def covariant_fidelity_entrywise(channel: PhaseCovariantChannel, sigma):
    """``PhaseCovariantChannel.fidelity`` read from the entries of a 2x2 ``sigma`` or of
    each state of a (..., 2, 2) stack: P00 s00^2 + P11 s11^2 + (P01 + P10)|s01|^2
    + 2 Re(c) s00 s11, clamped to [0, 1]. The oracle for the quadratic in (z, r)."""
    mat = np.asarray(sigma)
    s00, s11, s01 = mat[..., 0, 0].real, mat[..., 1, 1].real, mat[..., 0, 1]
    (p00, p01), (p10, p11) = channel.populations
    vals = np.clip(p00 * s00 * s00 + p11 * s11 * s11
                   + (p01 + p10) * (s01.real * s01.real + s01.imag * s01.imag)
                   + 2.0 * channel.coherence.real * s00 * s11, 0.0, 1.0)
    return float(vals) if vals.ndim == 0 else vals


def superoperator_fidelity_matmul(stack: np.ndarray, superop: np.ndarray) -> np.ndarray:
    """vec(sigma^T) C vec(sigma^T)^dag per state as a (1x4)(4x4)(4x1) matmul
    chain: the oracle for ``superoperator_fidelity``'s entrywise inner product."""
    choi = superop.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    v = stack.swapaxes(-1, -2).reshape(stack.shape[:-2] + (4,))
    return ((v @ choi)[..., None, :] @ v.conj()[..., :, None])[..., 0, 0].real.clip(0.0, 1.0)


def lemma_check_matmul(sigma: DensityMatrix, params: NoiseParams, t: float, trials: int,
                       seed: int) -> dict:
    """``lemma_check``'s values recomputed through the matmul oracles, on the
    same aligning unitary and the same Haar batch."""
    superop = combined_channel(params, t).superop
    u_d = mdd_unitary(bloch_vector(sigma))
    mdd_value = float(superoperator_fidelity_matmul(conjugate_matmul(sigma.entries, u_d), superop))
    batch = _haar_batch(trials, np.random.default_rng(seed))
    vals = superoperator_fidelity_matmul(conjugate_matmul(sigma.entries, batch), superop)
    best = float(np.max(vals))
    return {"mdd_value": mdd_value, "best_competitor": best, "margin": mdd_value - best,
            "violations": int(np.sum(vals > mdd_value + 1e-10))}


def lemma_check_qr(sigma: DensityMatrix, params: NoiseParams, t: float, trials: int,
                   seed: int) -> dict:
    """``lemma_check`` as it was before its closed-form screen: the QR, ``_rotated_z``
    and ``fidelity`` over every competitor. The screened search must return this
    record bit for bit."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    channel = PhaseCovariantChannel.relaxation(params, t)
    b = bloch_vector(sigma)
    mdd_value = float(channel.fidelity(b.r, b.r))
    rng = np.random.default_rng(seed)
    vals = channel.fidelity(_rotated_z(sigma.entries, _haar_batch(trials, rng)), b.r)
    best = float(np.max(vals))
    return {"claim_id": "lemma-max-entanglement-fidelity", "margin": mdd_value - best,
            "worst_case": {"competitor_value": best, "bloch": [b.ex, b.ey, b.ez], "duration": t},
            "seed": seed, "trials": trials, "mdd_value": mdd_value, "best_competitor": best,
            "violations": int(np.sum(vals > mdd_value + 1e-10))}


def fock_space_hamiltonian(fci) -> np.ndarray:
    """Dense 2^M x 2^M second-quantized operator built from sparse ladder
    matrices; site 0 is the most significant bit, alpha block first."""
    import scipy.sparse as sp

    m = fci.num_spin_orbitals
    z = sp.csr_matrix(np.diag([1.0, -1.0]))
    raise_op = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
    eye = sp.identity(2, format="csr")

    def create(site):
        ops = [z] * site + [raise_op] + [eye] * (m - 1 - site)
        out = ops[0]
        for op in ops[1:]:
            out = sp.kron(out, op, format="csr")
        return out

    a_dag = [create(site) for site in range(m)]
    a = [op.T for op in a_dag]
    total = sp.csr_matrix((2**m, 2**m))
    norb = fci.norb
    for p in range(norb):
        for r in range(norb):
            if fci.h[p, r] == 0.0:
                continue
            for spin in (0, 1):
                total = total + fci.h[p, r] * (a_dag[p + spin * norb] @ a[r + spin * norb])
    for p in range(norb):
        for r in range(norb):
            for q in range(norb):
                for s in range(norb):
                    v = fci.eri[p, r, q, s]
                    if v == 0.0:
                        continue
                    for s1 in (0, 1):
                        for s2 in (0, 1):
                            total = total + 0.5 * v * (a_dag[p + s1 * norb] @ a_dag[q + s2 * norb]
                                                       @ a[s + s2 * norb] @ a[r + s1 * norb])
    return total.toarray()


def fock_index(row) -> int:
    """Basis index of an occupation row in ``fock_space_hamiltonian``: entry k
    of the row is bit 2*norb - 1 - k of the index."""
    return sum(int(bit) << (len(row) - 1 - k) for k, bit in enumerate(row))


# The scalar Slater-Condon rules over per-sector bitmasks: the oracle that the
# vectorized subspace build must equal bit for bit.

@dataclass(frozen=True)
class Determinant:
    """Electron configuration as per-sector orbital bitmasks."""

    alpha: int
    beta: int

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            mask = getattr(self, name)
            if isinstance(mask, bool) or not isinstance(mask, (int, np.integer)):
                raise ValueError(f"{name} occupation mask must be an integer, got {mask!r}")
            if mask < 0:
                raise ValueError("occupation masks must be nonnegative")


def _occ_list(mask: int) -> list[int]:
    out = []
    p = 0
    while mask >> p:
        if (mask >> p) & 1:
            out.append(p)
        p += 1
    return out


def _parity_between(mask: int, a: int, b: int) -> int:
    """(-1)^(number of occupied orbitals strictly between a and b)."""
    lo, hi = (a, b) if a < b else (b, a)
    window = ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)
    return -1 if bin(mask & window).count("1") % 2 else 1


def excitation_degree(det_i: Determinant, det_j: Determinant) -> int:
    return (bin(det_i.alpha ^ det_j.alpha).count("1")
            + bin(det_i.beta ^ det_j.beta).count("1")) // 2


def hartree_fock_determinant(norb: int, n_alpha: int, n_beta: int) -> Determinant:
    return Determinant((1 << n_alpha) - 1, (1 << n_beta) - 1)


def _diagonal_element(det: Determinant, fci: FciData) -> float:
    h, eri = fci.h, fci.eri
    alpha, beta = _occ_list(det.alpha), _occ_list(det.beta)
    energy = sum(h[p, p] for p in alpha) + sum(h[p, p] for p in beta)
    for occ in (alpha, beta):
        for idx, p in enumerate(occ):
            for q in occ[idx + 1:]:
                energy += eri[p, p, q, q] - eri[p, q, q, p]
    for p in alpha:
        for q in beta:
            energy += eri[p, p, q, q]
    return float(energy)


def _single_element(hole: int, part: int, same: list[int], other: list[int],
                    sign: int, fci: FciData) -> float:
    h, eri = fci.h, fci.eri
    value = h[hole, part]
    for r in same:
        value += eri[hole, part, r, r] - eri[hole, r, r, part]
    for r in other:
        value += eri[hole, part, r, r]
    return float(sign * value)


def _single_excitation(mask_from: int, mask_to: int) -> tuple[int, int, int]:
    """(hole, particle, parity) for a one-orbital difference within a sector."""
    diff = mask_from ^ mask_to
    hole = (diff & mask_from).bit_length() - 1
    part = (diff & mask_to).bit_length() - 1
    return hole, part, _parity_between(mask_from, hole, part)


def _double_same_sector(mask_from: int, mask_to: int, fci: FciData) -> float:
    diff = mask_from ^ mask_to
    holes = _occ_list(diff & mask_from)
    parts = _occ_list(diff & mask_to)
    (m, n), (p, q) = holes, parts  # each ascending
    # apply the excitation as two sequential singles to track the parity
    sign = _parity_between(mask_from, m, p)
    intermediate = (mask_from & ~(1 << m)) | (1 << p)
    sign *= _parity_between(intermediate, n, q)
    value = fci.eri[m, p, n, q] - fci.eri[m, q, n, p]
    return float(sign * value)


def slater_condon(det_i: Determinant, det_j: Determinant, fci: FciData) -> float:
    """Hamiltonian matrix element <det_i| H |det_j> in Hartree.

    Zero for excitation degree above two; Hermitian by construction since the
    integral tables are real-symmetric.
    """
    d_alpha = bin(det_i.alpha ^ det_j.alpha).count("1") // 2
    d_beta = bin(det_i.beta ^ det_j.beta).count("1") // 2
    degree = d_alpha + d_beta
    if degree > 2:
        return 0.0
    if degree == 0:
        return _diagonal_element(det_j, fci)
    if degree == 1:
        if d_alpha == 1:
            hole, part, sign = _single_excitation(det_j.alpha, det_i.alpha)
            same = _occ_list(det_j.alpha & det_i.alpha)
            other = _occ_list(det_j.beta)
        else:
            hole, part, sign = _single_excitation(det_j.beta, det_i.beta)
            same = _occ_list(det_j.beta & det_i.beta)
            other = _occ_list(det_j.alpha)
        return _single_element(hole, part, same, other, sign, fci)
    if d_alpha == 2:
        return _double_same_sector(det_j.alpha, det_i.alpha, fci)
    if d_beta == 2:
        return _double_same_sector(det_j.beta, det_i.beta, fci)
    hole_a, part_a, sign_a = _single_excitation(det_j.alpha, det_i.alpha)
    hole_b, part_b, sign_b = _single_excitation(det_j.beta, det_i.beta)
    return float(sign_a * sign_b * fci.eri[hole_a, part_a, hole_b, part_b])


def determinants(rows) -> list[Determinant]:
    """One ``Determinant`` per (2*norb)-long occupation row, alpha block first."""
    norb = len(rows[0]) // 2
    return [Determinant(sum(1 << p for p in range(norb) if row[p]),
                        sum(1 << p for p in range(norb) if row[norb + p])) for row in rows]


def slater_condon_matrix(rows, fci) -> np.ndarray:
    """Subspace Hamiltonian over occupation rows from one scalar
    ``slater_condon`` call per upper-triangle pair, mirrored: the oracle of
    the vectorized build."""
    dets = determinants(rows)
    dim = len(dets)
    matrix = np.zeros((dim, dim))
    for a in range(dim):
        matrix[a, a] = slater_condon(dets[a], dets[a], fci)
        for b in range(a + 1, dim):
            matrix[a, b] = matrix[b, a] = slater_condon(dets[a], dets[b], fci)
    return matrix


def _row_pair_single(frm: np.ndarray, to: np.ndarray, count: int, other: np.ndarray,
                     fci: FciData) -> np.ndarray:
    """Single excitations between rows of a sector of ``count`` electrons;
    ``other`` holds the occupied orbitals of the other sector."""
    h, eri = fci.h, fci.eri
    hole, part, sign = _excitation(frm, to)
    value = h[hole, part]
    for r in _positions(frm & to, count - 1).T:
        value = value + (eri[hole, part, r, r] - eri[hole, r, r, part])
    for r in other.T:
        value = value + eri[hole, part, r, r]
    return sign * value


def _row_pair_mixed_double(frm_a: np.ndarray, to_a: np.ndarray, frm_b: np.ndarray,
                           to_b: np.ndarray, fci: FciData) -> np.ndarray:
    hole_a, part_a, sign_a = _excitation(frm_a, to_a)
    hole_b, part_b, sign_b = _excitation(frm_b, to_b)
    return sign_a * sign_b * fci.eri[hole_a, part_a, hole_b, part_b]


@np.errstate(over="ignore", invalid="ignore")
def row_pair_hamiltonian(dets, fci: FciData) -> np.ndarray:
    """The subspace matrix built row pair by row pair, the oracle of the
    string-pair build: every row pair is screened by its excitation degree,
    read from dim x dim common-occupation counts, and each upper-triangle pair
    of degree <= 2 recomputes its hole, particle and parity from its own rows.
    Its checks and messages are the string-pair build's."""
    bits = _check_rows(dets, fci)
    norb, n_a, n_b = fci.norb, fci.n_alpha, fci.n_beta
    alpha, beta = bits[:, :norb], bits[:, norb:]
    occ_a, occ_b = _positions(alpha, n_a), _positions(beta, n_b)
    matrix = np.zeros((len(bits), len(bits)))
    # the degree is the electron count minus the common occupations; the int8
    # dim x dim products are exact below 128 orbitals
    i, j = np.divmod(np.flatnonzero(np.triu(alpha @ alpha.T + beta @ beta.T >= n_a + n_b - 2, k=1)),
                     len(bits))
    d_alpha = n_a - (alpha[i] & alpha[j]).sum(axis=1)
    d_beta = n_b - (beta[i] & beta[j]).sum(axis=1)
    same = np.flatnonzero((d_alpha == 0) & (d_beta == 0))
    if same.size:
        raise ValueError(f"row {j[same[0]]} repeats row {i[same[0]]}: "
                         "determinants must be distinct")
    np.fill_diagonal(matrix, _diagonal_elements(occ_a, occ_b, fci))

    # <dets[i]| H |dets[j]> excites row j (the "from" side) into row i
    def fill(select, build):
        if select.any():
            to, frm = i[select], j[select]
            matrix[to, frm] = matrix[frm, to] = build(to, frm)

    fill((d_alpha == 1) & (d_beta == 0),
         lambda to, frm: _row_pair_single(alpha[frm], alpha[to], n_a, occ_b[frm], fci))
    fill((d_alpha == 0) & (d_beta == 1),
         lambda to, frm: _row_pair_single(beta[frm], beta[to], n_b, occ_a[frm], fci))
    fill(d_alpha == 2, lambda to, frm: _double_elements(alpha[frm], alpha[to], fci))
    fill(d_beta == 2, lambda to, frm: _double_elements(beta[frm], beta[to], fci))
    fill((d_alpha == 1) & (d_beta == 1),
         lambda to, frm: _row_pair_mixed_double(alpha[frm], alpha[to], beta[frm], beta[to], fci))
    if not np.isfinite(matrix).all():
        raise ValueError("the subspace Hamiltonian is not finite: integrals too large")
    return matrix


def dense(space: SpaceHamiltonian) -> np.ndarray:
    """The space's matrix: its triplets written into zeros."""
    rows, cols, values = space.triplets
    matrix = np.zeros((space.dim, space.dim))
    matrix[rows, cols] = values
    return matrix


# moved from the library: no run, verify suite or demo reaches these

def _string_pair_join(alpha: _Sector, beta: _Sector, d_alpha: int, d_beta: int,
                      row_of: np.ndarray) -> tuple[np.ndarray, ...]:
    """The library's ``_join`` over every row in one block: every row pair
    (to, frm), to < frm, of these sector degrees, with the ids of its alpha
    and beta string pairs from frm to to."""
    start_a, count_a = alpha.links(d_alpha, upper=d_alpha > 0)
    start_b, count_b = beta.links(d_beta, upper=d_alpha == 0)
    per_row = count_a * count_b
    dim = len(per_row)
    frm = np.repeat(np.arange(dim), per_row)
    k_a, k_b = np.divmod(np.arange(len(frm)) - np.repeat(np.cumsum(per_row) - per_row, per_row),
                         count_b[frm])
    pair_a, pair_b = start_a[frm] + k_a, start_b[frm] + k_b
    to = row_of[alpha.pairs[d_alpha][1][pair_a], beta.pairs[d_beta][1][pair_b]]
    found = to < dim
    to, frm, pair_a, pair_b = to[found], frm[found], pair_a[found], pair_b[found]
    flip = to > frm
    return (np.where(flip, frm, to), np.where(flip, to, frm),
            np.where(flip, alpha.reverse[d_alpha][pair_a], pair_a),
            np.where(flip, beta.reverse[d_beta][pair_b], pair_b))


@np.errstate(over="ignore", invalid="ignore")
def hamiltonian_matrix(dets, fci: FciData) -> np.ndarray:
    """The dense subspace matrix, entry [i, j] equal to <dets[i]| H |dets[j]>:
    the string-pair build with every row pair of an element class joined at
    once and written into a dim x dim array of zeros. The bit-for-bit oracle
    of ``SpaceHamiltonian.triplets``, signed zeros included; its checks and
    messages are the library's."""
    bits = _check_rows(dets, fci)
    norb, dim = fci.norb, len(bits)
    alpha = _Sector(bits[:, :norb], fci.n_alpha, fci)
    beta = _Sector(bits[:, norb:], fci.n_beta, fci)
    cells = alpha.index * len(beta.occ) + beta.index
    order = np.argsort(cells, kind="stable")
    same = np.flatnonzero(cells[order[1:]] == cells[order[:-1]])
    if same.size:
        first = same[np.argmin(order[same])]
        raise ValueError(f"row {order[first + 1]} repeats row {order[first]}: "
                         "determinants must be distinct")
    row_of = np.full((len(alpha.occ), len(beta.occ)), dim, dtype=np.int32)
    row_of[alpha.index, beta.index] = np.arange(dim)
    occ_a, occ_b = alpha.occ[alpha.index], beta.occ[beta.index]

    def single(sector, pair, other):
        hole, part = sector.hole[pair], sector.part[pair]
        value = sector.single[pair]
        for r in other.T:
            value = value + fci.eri[hole, part, r, r]
        return sector.sign[pair] * value

    def mixed(a, b):
        return (alpha.sign[a] * beta.sign[b]
                * fci.eri[alpha.hole[a], alpha.part[a], beta.hole[b], beta.part[b]])

    rows = np.arange(dim)
    entries = [(rows, rows, _diagonal_elements(occ_a, occ_b, fci))]
    for d_alpha, d_beta, element in (
            (1, 0, lambda frm, a, b: single(alpha, a, occ_b[frm])),
            (0, 1, lambda frm, a, b: single(beta, b, occ_a[frm])),
            (2, 0, lambda frm, a, b: alpha.double[a]),
            (0, 2, lambda frm, a, b: beta.double[b]),
            (1, 1, lambda frm, a, b: mixed(a, b))):
        to, frm, a, b = _string_pair_join(alpha, beta, d_alpha, d_beta, row_of)
        entries.append((to, frm, element(frm, a, b)))
    matrix = np.zeros((dim, dim))
    # <dets[i]| H |dets[j]> excites row j (the "from" side) into row i
    for to, frm, values in entries:
        if not np.isfinite(values).all():
            raise ValueError("the subspace Hamiltonian is not finite: integrals too large")
        matrix[to, frm] = matrix[frm, to] = values
    return matrix


def dense_scan_ground(matrix: np.ndarray, fci: FciData) -> tuple[float, np.ndarray]:
    """The Lanczos ground pair of the nonzeros that a row-major scan of
    ``matrix`` finds, with the core energy added: the oracle of
    ``SpaceHamiltonian.ground_state``."""
    rows, cols = np.divmod(np.flatnonzero(matrix != 0), len(matrix))
    value, vector = _lanczos_ground(rows, cols, matrix[rows, cols], len(matrix))
    return float(value + fci.core_energy), vector


def weight_w_scalar(y: float, h: float, delta: float = 0.01) -> float:
    """Piecewise-linear flip weight: delta/h * y up to the filling factor h,
    then rising linearly to 1 at y = 1. Continuous, monotone, and anchored at
    w(0) = 0, w(h) = delta, w(1) = 1. The scalar form of ``sqd.weight_w``,
    which took only floats, kept as its oracle."""
    if not 0.0 < h < 1.0:
        raise ValueError(f"filling factor must lie in (0, 1), got {h}")
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"deviation must lie in [0, 1], got {y}")
    if y <= h:
        return delta / h * y
    return delta + (1.0 - delta) * (y - h) / (1.0 - h)


def recover_configuration_row(bits: np.ndarray, occupancy: np.ndarray, n_target: int,
                              rng: np.random.Generator, delta: float = 0.01) -> np.ndarray:
    """Restore the electron count of one spin sector by weighted bit flips:
    the scalar form of ``sqd.recover_configuration``, one ``rng.choice`` per flip.

    When the sector holds too few electrons only 0 -> 1 flips occur, and vice
    versa; flip candidates are drawn sequentially without replacement with
    probability proportional to w(|bit - occupancy|) at filling n_target / m.
    A sample that already matches the target is returned unchanged, and an
    empty or a full sector leaves no choice. An occupancy is a sum of squared
    amplitudes and can read one ulp above 1, so a deviation is clamped to 1.
    """
    bits = np.asarray(bits, dtype=np.uint8).copy()
    occupancy = np.asarray(occupancy, dtype=float)
    if bits.shape != occupancy.shape:
        raise ValueError("bit string and occupancy vector lengths differ")
    m = bits.size
    if n_target > m or n_target < 0:
        raise ValueError(f"cannot place {n_target} electrons in {m} orbitals")
    count = int(bits.sum())
    if count == n_target:
        return bits
    if n_target in (0, m):
        return np.full(m, n_target // m, dtype=np.uint8)
    fill = n_target / m
    if count < n_target:
        candidates = np.flatnonzero(bits == 0)
        new_value = 1
    else:
        candidates = np.flatnonzero(bits == 1)
        new_value = 0
    weights = np.array([weight_w_scalar(min(abs(float(bits[i]) - occupancy[i]), 1.0), fill, delta)
                        for i in candidates])
    for _ in range(abs(count - n_target)):
        total = weights.sum()
        if total <= 0.0:
            probs = np.full(len(candidates), 1.0 / len(candidates))
        else:
            probs = weights / total
        pick = rng.choice(len(candidates), p=probs)
        bits[candidates[pick]] = new_value
        candidates = np.delete(candidates, pick)
        weights = np.delete(weights, pick)
    return bits


def recover_configuration_loop(rows: np.ndarray, occupancy: np.ndarray, targets,
                               rng: np.random.Generator, delta: float = 0.01) -> np.ndarray:
    """The oracle of ``sqd.recover_configuration``: each row corrected in
    turn, one sector at a time, by :func:`recover_configuration_row`."""
    rows = np.asarray(rows, dtype=np.uint8)
    m = rows.shape[1] // len(targets)
    recovered = np.empty_like(rows)
    for row_idx, row in enumerate(rows):
        for s, target in enumerate(targets):
            part = slice(s * m, (s + 1) * m)
            recovered[row_idx, part] = recover_configuration_row(row[part], occupancy[part],
                                                                 target, rng, delta=delta)
    return recovered


def batch_energy_and_occupancy(pool: np.ndarray, space: SpaceHamiltonian, size: int,
                               rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """One batch of the recovery loop, drawn and solved in one step: its
    ground energy and occupancy vector."""
    replace = pool.shape[0] < size
    idx = rng.choice(pool.shape[0], size=size, replace=replace)
    bits = pool[idx] != 0
    _, first = np.unique(occupation_keys(bits, pool.shape[1] // 2), return_index=True)
    rows = bits[first]
    energy, ground = project_and_diagonalize(rows, space)
    probs = np.array([amplitude**2 for amplitude in ground])
    occupancy = np.cumsum(probs[:, None] * rows, axis=0)[-1]
    return energy, occupancy


def self_consistent_recovery_every_batch(samples: np.ndarray, space: SpaceHamiltonian,
                                         config: RecoveryConfig) -> dict:
    """The oracle of ``sqd.self_consistent_recovery``: the same loop with
    every batch drawn and solved on its own, repeated subspaces included."""
    fci = space.fci
    samples = np.asarray(samples, dtype=np.uint8)
    mask = _valid_mask(samples, fci)
    valid, invalid = samples[mask], samples[~mask]
    if valid.shape[0] == 0:
        return {"status": "no-valid-configurations", "energies": [], "occupancies": [],
                "pool_sizes": [], "mean_energies": []}
    energies, occupancies, pool_sizes = [], [], []
    occupancy = None
    for iteration in range(config.iterations):
        if iteration == 0 or invalid.shape[0] == 0:
            pool = valid
        else:
            rng_rec = np.random.default_rng((config.seed, iteration, _RECOVER_SALT))
            recovered = recover_configuration(invalid, occupancy, (fci.n_alpha, fci.n_beta),
                                              rng_rec, delta=config.delta)
            pool = np.concatenate([valid, recovered], axis=0)
        pool_sizes.append(pool.shape[0])
        batch = []
        occ_sum = np.zeros(fci.num_spin_orbitals)
        for batch_idx in range(config.num_batches):
            rng_batch = np.random.default_rng((config.seed, iteration, batch_idx))
            energy, occ = batch_energy_and_occupancy(pool, space, config.samples_per_batch,
                                                     rng_batch)
            batch.append(energy)
            occ_sum += occ
        occupancy = occ_sum / config.num_batches
        energies.append(batch)
        occupancies.append(occupancy.tolist())
    return {"status": "ok", "energies": energies, "occupancies": occupancies,
            "pool_sizes": pool_sizes, "mean_energies": [float(np.mean(batch)) for batch in energies]}


def benchmark_ring(seed: int) -> FciData:
    """The integrals of the ``sqd-large`` benchmark workload at ``seed``: a
    7-site Hubbard ring (hopping -1, on-site repulsion 2) with every hopping,
    on-site energy and repulsion perturbed by a seeded 20% spread, holding 6
    electrons at ms2 = 0. Its space has 1,225 determinants."""
    rng = np.random.default_rng([seed, 7])
    h = np.diag(0.2 * rng.standard_normal(7))
    for i in range(7):
        j = (i + 1) % 7
        h[i, j] = h[j, i] = -(1.0 + 0.2 * rng.standard_normal())
    eri = np.zeros((7,) * 4)
    for i in range(7):
        eri[i, i, i, i] = 2.0 * (1.0 + 0.2 * rng.standard_normal())
    return parse_fcidump(write_fcidump(FciData(norb=7, nelec=6, ms2=0, h=h, eri=eri,
                                               core_energy=float(rng.standard_normal()))))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    # Hermitian eigendecomposition with eigenvalue clamping at 0.
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T


def fidelity(x: DensityMatrix, y: DensityMatrix) -> float:
    """Uhlmann fidelity F(X, Y) = (Tr sqrt(sqrt(X) Y sqrt(X)))^2 in [0, 1]."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    sx = _psd_sqrt(x.entries)
    inner = _psd_sqrt(sx @ y.entries @ sx)
    val = float(np.trace(inner).real) ** 2
    return min(max(val, 0.0), 1.0)


def pure_density(psi: PureState) -> DensityMatrix:
    """|psi><psi| as a density matrix."""
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))


def purification(sigma: np.ndarray) -> np.ndarray:
    """A two-qubit purification sum_k sqrt(l_k) |v_k>|k> of a single-qubit
    density matrix from its eigendecomposition."""
    vals, vecs = np.linalg.eigh(sigma)
    vals = np.maximum(vals, 0.0)
    psi = np.zeros(4, dtype=complex)
    for k in range(2):
        psi += math.sqrt(vals[k]) * np.kron(vecs[:, k], np.eye(2)[k])
    return psi / np.linalg.norm(psi)


def basis_state(bits: str) -> PureState:
    """Computational basis state from a bit string, e.g. ``"01"`` -> |01>."""
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return PureState(amps)


def density_from_bloch(b: PauliExpectations) -> DensityMatrix:
    """Inverse of :func:`bloch_vector`: rho = (I + r . sigma) / 2."""
    mat = 0.5 * (ID2 + b.ex * PAULI_X + b.ey * PAULI_Y + b.ez * PAULI_Z)
    return DensityMatrix(mat)


def apply_unitary(u: np.ndarray, state: PureState | DensityMatrix, targets) -> DensityMatrix:
    """Conjugate a state by a unitary acting on the given qubits."""
    rho, n = _as_matrix(state)
    return DensityMatrix(apply_matrix(u, rho, targets, n))


def frame_durations(schedule: PulseSchedule) -> list[tuple[np.ndarray, float]]:
    """(frame, duration) pairs: the cumulative control unitary in effect over
    each inter-pulse gap, starting from the identity frame before any pulse."""
    t = schedule.total_time
    events = list(schedule.pulses)
    out = []
    acc = ID2
    prev = 0.0
    idx = 0
    while idx < len(events):
        tm = events[idx][0]
        if tm > prev:
            out.append((acc, tm - prev))
            prev = tm
        while idx < len(events) and events[idx][0] == tm:
            acc = events[idx][1] @ acc
            idx += 1
    if t > prev or not out:
        out.append((acc, t - prev))
    return out


def circuit_unitary(circuit: ScheduledCircuit) -> np.ndarray:
    """Product of all gate unitaries, ignoring noise and durations."""
    n = circuit.num_qubits
    total = np.eye(2**n, dtype=complex)
    for sl in circuit.slices:
        for gate in sl.gates:
            total = _apply_left(gate.matrix, total, gate.qubits, n)
    return total


def h_gate(q: int) -> Gate:
    return Gate((q,), np.array([[1, 1], [1, -1]]) / math.sqrt(2))


def x_gate(q: int) -> Gate:
    return Gate((q,), PAULI_X)


def cp_gate(lam: float, control: int, target: int) -> Gate:
    return Gate((control, target), np.diag([1, 1, 1, cmath.exp(1j * lam)]))


def circuit_key(circuit: ScheduledCircuit) -> tuple:
    """Everything a simulation reads from a circuit, comparable with ``==``:
    the qubit count, and per slice its duration, shielded qubits, and each
    gate's qubits and matrix bytes."""
    return circuit.num_qubits, tuple(
        (sl.duration, sl.shielded, tuple((g.qubits, g.matrix.tobytes()) for g in sl.gates))
        for sl in circuit.slices)


class FeasibilityError(ValueError):
    """Raised when ansatz coefficients violate the positivity polytope."""


@dataclass(frozen=True)
class QuadraticFidelity:
    """The fidelity quadratic f(r_z) for one channel and one Bloch norm r."""

    r: float
    s: float
    p: float
    gamma_p: float
    a: float
    b: float
    alpha: float
    beta: float

    @classmethod
    def from_channel(cls, channel: PhaseCovariantChannel, r: float) -> "QuadraticFidelity":
        """The scalars of a relaxation channel, P = [[1, p], [0, s^2]] and c = s gamma_p."""
        (p00, p), (p10, s2) = channel.populations
        if p00 != 1.0 or p10 != 0.0 or channel.coherence.imag != 0.0:
            raise ValueError("channel is not relaxation plus dephasing")
        if not 0.0 <= r <= 1.0 + 1e-12:
            raise ValueError(f"Bloch norm must be in [0, 1], got {r}")
        s = math.sqrt(s2)
        gamma_p = channel.coherence.real / s
        return cls(r=min(r, 1.0), s=s, p=p, gamma_p=gamma_p, a=(1.0 + s) / 2.0, b=(1.0 - s) / 2.0,
                   alpha=(1.0 + gamma_p) / 2.0, beta=(1.0 - gamma_p) / 2.0)

    def __call__(self, r_z: float) -> float:
        return (self.alpha * (self.a + self.b * r_z) ** 2
                + self.beta * (self.b + self.a * r_z) ** 2
                + 0.25 * self.p * (self.r**2 - r_z**2))

    def second_derivative(self) -> float:
        return self.s * (self.s - self.gamma_p)

    def extreme_point(self) -> float | None:
        f2 = self.second_derivative()
        if f2 == 0.0:
            return None
        return -2.0 * self.a * self.b / f2

    def case(self) -> str:
        f2 = self.second_derivative()
        if f2 > 0:
            return "C1"
        if f2 < 0:
            return "C2"
        return "C3"

    def argmax(self) -> float:
        # Maximum over [-r, r] is at r_z = r in all three curvature cases
        # (degenerate pure dephasing s = 0 also peaks at -r).
        return self.r


def quadratic_f(r_z: float, r: float, channel: PhaseCovariantChannel) -> float:
    """Evaluate the closed-form fidelity quadratic at a given z-component."""
    if abs(r_z) > r + 1e-12:
        raise ValueError(f"|r_z| = {abs(r_z)} exceeds the Bloch norm {r}")
    return QuadraticFidelity.from_channel(channel, r)(r_z)


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    mask = (np.asarray(x) > 0) & (np.asarray(y) > 0)
    if np.sum(mask) < 2:
        return math.nan
    return float(np.polyfit(np.log(np.asarray(x)[mask]), np.log(np.asarray(y)[mask]), 1)[0])


@dataclass
class GapReport:
    """Pointwise fidelity gap between the measurement-driven sequence and a
    pulse sequence, with a quadratic envelope fit on any crossings."""

    claim_id: str
    margin: float
    worst_case: dict
    seed: int | None
    t_grid: list = field(default_factory=list)
    mdd_fidelity: list = field(default_factory=list)
    competitor_fidelity: list = field(default_factory=list)
    gap: list = field(default_factory=list)
    envelope_slope: float | None = None

    def to_dict(self) -> dict:
        return _plain(self.__dict__)

    def passed(self) -> bool:
        return _gap_passed(self.margin, self.envelope_slope)


def _gap_report(claim_id: str, grid: list, mdd_vals: list, seq_vals: list, seed: int | None,
                grid_name: str, **context) -> GapReport:
    """GapReport of mdd_vals - seq_vals over ``grid``: the worst gap, and the
    envelope slope of the negative gaps."""
    gaps = [m - s for m, s in zip(mdd_vals, seq_vals)]
    worst_idx = int(np.argmin(gaps))
    slope = _envelope_slope(grid, gaps)
    return GapReport(claim_id=claim_id, margin=float(min(gaps)),
                     worst_case={grid_name: grid[worst_idx], "gap": gaps[worst_idx], **context},
                     seed=seed, t_grid=grid, mdd_fidelity=mdd_vals,
                     competitor_fidelity=seq_vals, gap=gaps, envelope_slope=slope)


def first_order_gap(psi: PureState, kind: str, params: NoiseParams, t_grid,
                    qubit: int = 0, seed: int | None = None) -> GapReport:
    """Gap F_mdd(t) - F_seq(t) over a small-time grid (t <= T2/50).

    Any negative excursions are fit against t on log-log axes; a slope of at
    least ~2 certifies they sit under a quadratic envelope.
    """
    t_grid = [float(t) for t in t_grid]
    if max(t_grid) > params.t2 / 50.0:
        raise ValueError(f"grid extends beyond the small-time regime T2/50 = {params.t2 / 50.0}")
    table = _fidelity_table([reduced_density(psi, [qubit])], ["mdd", kind], t_grid,
                            lambda s: schedule_channel(s, params))
    return _gap_report(f"first-order-gap-{kind}", t_grid, table["mdd"][0].tolist(),
                       table[kind][0].tolist(), seed, "t", kind=kind)


def toggled_frame_average(psi: PureState, schedule: PulseSchedule, params: NoiseParams,
                          qubit: int = 0) -> float:
    """Duration-weighted average of conjugated-channel fidelities over the
    cumulative control frames: the first-order surrogate for the pulsed
    channel. For uniform pulse spacing this is the plain mean over frames."""
    sigma = reduced_density(psi, [qubit])
    frames, durations = zip(*frame_durations(schedule))
    superop = combined_channel(params, schedule.total_time).superop
    fids = superoperator_fidelity(conjugate_entrywise(sigma.entries, np.array(frames)), superop)
    return float(np.dot(np.array(durations) / schedule.total_time, fids))


def first_order_residual(psi: PureState, kind: str, params: NoiseParams, t_grid,
                         qubit: int = 0) -> tuple[np.ndarray, float]:
    """Residual between the simulated pulsed fidelity and its first-order
    frame average, with its log-log slope in t (expected >= 2)."""
    sigma = reduced_density(psi, [qubit])
    residuals = []
    for t in t_grid:
        schedule = build_schedule(kind, float(t))
        simulated = superoperator_fidelity(sigma, schedule_superoperator(schedule, params))
        residuals.append(abs(simulated - toggled_frame_average(psi, schedule, params, qubit)))
    residuals = np.array(residuals)
    return residuals, _loglog_slope(np.asarray(t_grid, dtype=float), residuals)


def gate_error_delta(r: float, delta: float, channel: PhaseCovariantChannel) -> float:
    """Leading-order fidelity loss when the aligning rotation is tilted by a
    small angle delta, so the aligned z-component becomes r cos(delta), for a
    relaxation channel (P01 = p, c = gamma_p s):

        (r delta^2 / 4) [ (1 - 2r) p + 2r (1 - gamma_p s) ]
    """
    if not 0.0 <= r <= 1.0 + 1e-12:
        raise ValueError(f"Bloch norm must be in [0, 1], got {r}")
    return (r * delta**2 / 4.0) * ((1.0 - 2.0 * r) * channel.populations[0, 1]
                                   + 2.0 * r * (1.0 - channel.coherence.real))


def ansatz_margins(c) -> tuple[float, float, float, float]:
    """Slack of the four positivity constraints 1 +- c1 +- c2 +- c3 > 0 of the
    diagonal two-qubit ansatz coefficients ``c`` = (c1, c2, c3)."""
    c1, c2, c3 = c
    return (1.0 + c1 + c2 + c3, 1.0 + c1 - c2 - c3, 1.0 - c1 + c2 - c3, 1.0 - c1 - c2 + c3)


def two_qubit_decay_rate(c, r_i: float, r_j: float, rates: TwoQubitRates) -> float:
    """Decay rate of the diagonal two-qubit ansatz ``c`` = (c1, c2, c3): two
    single-qubit quadratics in (c1, c2) plus the crosstalk term G_zz (1 - c3^2).

    Boundary points of the positivity polytope are accepted; points outside
    it raise :class:`FeasibilityError`.
    """
    margins = ansatz_margins(c)
    if min(margins) < -1e-12:
        raise FeasibilityError(f"coefficients {tuple(c)} violate positivity: margins {margins}")
    c1, c2, c3 = c
    return (decay_rate_quadratic(r_i, c1, rates.qubit_i)
            + decay_rate_quadratic(r_j, c2, rates.qubit_j)
            + rates.gamma_zz * (1.0 - c3**2))


def multi_dd_fidelity(psi: PureState, qubits, kinds, times, params: NoiseParams) -> float:
    """Entanglement fidelity after applying one sequence per noisy qubit,
    sequentially in list order. Maps on distinct qubits commute and leave each
    other's reduced states alone, so every measurement-driven kind reads psi:
    the run is the base kinds on phi, psi with all aligning rotations applied."""
    qubits = [int(q) for q in qubits]
    if len(set(qubits)) != len(qubits):
        raise ValueError("noisy qubits must be distinct")
    if not len(qubits) == len(kinds) == len(times):
        raise ValueError("qubits, kinds and times must have equal lengths")
    phi = psi
    for qubit, kind in zip(qubits, kinds):
        if is_measurement_driven(kind):
            u = mdd_unitary(measure_expectations(psi, qubit))
            phi = PureState(_apply_left(u, phi.amplitudes[:, None], [qubit], psi.num_qubits))
    state: PureState | DensityMatrix = phi
    for qubit, kind, t in zip(qubits, kinds, times):
        schedule = build_schedule(MEASURED_BASE.get(kind.lower(), kind), float(t))
        state = evolve_with_schedule(state, schedule, params, qubit)
    return entanglement_fidelity(phi, state)


def multi_subsystem_bound_check(psi: PureState, qubits, kinds, times,
                                params: NoiseParams, scales=None) -> GapReport:
    """Compare all-aligned sequences against a per-qubit pulse assignment
    while the interval durations are scaled down geometrically; crossings
    must vanish quadratically with the scale."""
    if scales is None:
        scales = [2.0**-k for k in range(8)]
    scales = sorted(float(s) for s in scales)
    mdd_vals, seq_vals = [], []
    for scale in scales:
        scaled = [scale * float(t) for t in times]
        mdd_vals.append(multi_dd_fidelity(psi, qubits, ["mdd"] * len(qubits), scaled, params))
        seq_vals.append(multi_dd_fidelity(psi, qubits, kinds, scaled, params))
    return _gap_report("multi-subsystem-gap", scales, mdd_vals, seq_vals, None, "scale",
                       kinds=list(kinds))
