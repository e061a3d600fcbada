"""Closed-form fidelity functionals, optimality verifiers, decay-rate
formulas, and the two-qubit crosstalk ansatz optimizer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._lazy import lazy_import
from .noise import KrausChannel, NoiseParams, PhaseCovariantChannel, relaxation_dephasing_jumps
from .sequences import (
    MEASURED_BASE,
    build_schedule,
    is_measurement_driven,
    schedule_channel,
)
from .states import ATOL, DensityMatrix, PureState, bloch_vector, reduced_density

optimize = lazy_import("scipy.optimize")  # optimize_two_qubit_mdd's SLSQP


def _gram(u, sign: float):
    """(G00, G11, Re G01, Im G01) of G = u^dag diag(1, sign) u for a 2x2 ``u`` or a
    (..., 2, 2) stack, in real arithmetic entry by entry: U^dag U for sign 1, u^dag Z u
    for sign -1. No stacked matmul, so one unitary rounds as one row of a stack."""
    (a0, a1), (c0, c1) = np.moveaxis(np.asarray(u).real, (-2, -1), (0, 1))
    (b0, b1), (d0, d1) = np.moveaxis(np.asarray(u).imag, (-2, -1), (0, 1))
    return (a0 * a0 + b0 * b0 + sign * (c0 * c0 + d0 * d0),
            a1 * a1 + b1 * b1 + sign * (c1 * c1 + d1 * d1),
            a0 * a1 + b0 * b1 + sign * (c0 * c1 + d0 * d1),
            a0 * b1 - b0 * a1 + sign * (c0 * d1 - d0 * c1))


def _rotated_z(sigma, u):
    """Tr(Z u sigma u^dag) = Tr(G sigma), G = u^dag Z u, for 2x2 arrays or (..., 2, 2)
    stacks broadcast over the leading axes of either: the z-component that u leaves."""
    g00, g11, g01_re, g01_im = _gram(u, -1.0)
    s = np.asarray(sigma)
    s10 = s[..., 1, 0]
    return (g00 * s[..., 0, 0].real + g11 * s[..., 1, 1].real
            + 2.0 * (g01_re * s10.real - g01_im * s10.imag))


def _haar_normals(count: int, rng: np.random.Generator, dim: int):
    """The seeded draw behind ``count`` Haar unitaries: real parts, then imaginary
    parts, each of shape (count, dim, dim)."""
    return rng.standard_normal((count, dim, dim)), rng.standard_normal((count, dim, dim))


def _qr_unitaries(re, im) -> np.ndarray:
    """Haar unitaries from the complex Gaussians (re + i im)/sqrt(2): Mezzadri's QR with
    R's diagonal phases moved into Q (Notices AMS 54, 592 (2007)). LAPACK factors each
    matrix of the stack alone, so a row rounds alike in any sub-stack."""
    z = (re + 1j * im) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def _haar_batch(count: int, rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """``count`` Haar-random dim x dim unitaries: the QR of a fresh draw from ``rng``."""
    return _qr_unitaries(*_haar_normals(count, rng, dim))


# the screen's bound on |z - z_QR| in units of kappa = |z|_F^2 / |det z|: about 20 times
# the largest error seen, 3.3 eps kappa over 10^6 Haar and 10^5 near-singular draws
_SCREEN_ERR = 64 * np.finfo(float).eps


def _screen_z(sigma, re, im):
    """Tr(Z u sigma u^dag) for each u of ``_qr_unitaries(re, im)`` in closed form, with
    a bound on its distance from the value through the QR: (z, _SCREEN_ERR kappa).

    A positive diagonal of R fixes u = [a/|a|, phi (-conj a1, conj a0)/|a|], with a the
    first column of z = re + i im (the 1/sqrt(2) cancels) and phi = det z/|det z|. So
    G = u^dag Z u has G00 = (|a0|^2 - |a1|^2)/|a|^2 = -G11 and G01 = -2 phi conj(a0 a1)/|a|^2.
    Both ways round like eps kappa: the QR through R's last diagonal entry |det z|/|a|,
    this form through det z."""
    (x0, u0), (x1, u1) = np.moveaxis(re, (-2, -1), (0, 1))
    (y0, v0), (y1, v1) = np.moveaxis(im, (-2, -1), (0, 1))
    n0, n1 = x0 * x0 + y0 * y0, x1 * x1 + y1 * y1
    norm = n0 + n1
    det_re = (x0 * u1 - y0 * v1) - (u0 * x1 - v0 * y1)
    det_im = (x0 * v1 + y0 * u1) - (u0 * y1 + v0 * x1)
    det = np.hypot(det_re, det_im)
    p, q = x0 * x1 - y0 * y1, x0 * y1 + y0 * x1  # a0 a1 = p + i q
    scale = -2.0 / (det * norm)
    s = np.asarray(sigma)
    s10 = s[1, 0]
    z = ((n0 - n1) / norm * (s[0, 0].real - s[1, 1].real)
         + 2.0 * scale * ((det_re * p + det_im * q) * s10.real - (det_im * p - det_re * q) * s10.imag))
    kappa = (norm + u0 * u0 + v0 * v0 + u1 * u1 + v1 * v1) / det
    return z, _SCREEN_ERR * kappa


def _haar_search(sigma: DensityMatrix, value_of, lipschitz: float, limit: float, trials: int,
                 rng: np.random.Generator):
    """``value_of`` at the z that each of ``trials`` Haar competitors drawn from ``rng``
    leaves ``sigma`` (``_rotated_z``): (the values through the QR, the screened values).
    Each competitor is screened in closed form (``_screen_z``), with an error band of
    ``lipschitz``, the slope bound of ``value_of`` on [-1, 1], times the z bound. The QR
    runs only where the band holds ``limit``, reaches the top band or is not finite, so
    every screened value is below the top and on its QR value's side of ``limit``."""
    re, im = _haar_normals(trials, rng, 2)
    z, err = _screen_z(sigma.entries, re, im)
    screen, band = value_of(z), lipschitz * err
    redo = ~(np.abs(screen - limit) > band) | ~(screen + band < np.max(screen - band))
    return value_of(_rotated_z(sigma.entries, _qr_unitaries(re[redo], im[redo]))), screen[~redo]


def local_entanglement_fidelity(sigma: DensityMatrix, channel: KrausChannel, u) -> float:
    """Closed form sum_jk |Tr(M_jk U sigma U^dag)|^2.

    Equals the full-space entanglement fidelity of the conjugated channel on
    any purification of ``sigma``; the equivalence is what the tests probe.
    The library takes :meth:`PhaseCovariantChannel.fidelity`; this Kraus sum stays as its
    oracle and as what ``verify_decay`` differentiates, whose margin is its roundoff.
    """
    if sigma.num_qubits != 1:
        raise ValueError("local fidelity requires a single-qubit reduced state")
    um = np.asarray(u, dtype=complex)
    rotated = um @ sigma.entries @ um.conj().T
    total = 0.0
    for m in channel.operators:
        total += abs(np.trace(m @ rotated)) ** 2
    return float(total)


def lemma_check(sigma: DensityMatrix, params: NoiseParams, t: float,
                trials: int, seed: int) -> dict:
    """Verify that the diagonalizing conjugation pair beats ``trials``
    Haar-random conjugation pairs for the given channel duration; returns the
    record that ``lemma_report.json`` holds.

    Only the largest competitor value and the count above ``mdd_value + 1e-10`` reach
    the record. ``_haar_search`` screens each competitor in closed form, with an error
    band of 4 (the fidelity's slope bound) times 64 eps kappa, which grows as its
    Gaussian draw nears a singular matrix, and runs the QR, ``_rotated_z`` and
    ``fidelity`` only where the band reaches the top band or holds the limit, or is not
    finite. So the record is bit for bit that of the QR over all ``trials``; when all
    competitors tie (r = 0, t = 0) all of them take the QR."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    channel = PhaseCovariantChannel.relaxation(params, t)
    b = bloch_vector(sigma)
    mdd_value = float(channel.fidelity(b.r, b.r))  # the aligned state has z = r
    limit = mdd_value + 1e-10
    # the fidelity's slope in z is at most (2 P00 + 2 P11 + P01 + P10 + 2|c|)/2 <= 4
    vals, screened = _haar_search(sigma, lambda z: channel.fidelity(z, b.r), 4.0, limit, trials,
                                  np.random.default_rng(seed))
    best = float(np.max(vals))
    return {"claim_id": "lemma-max-entanglement-fidelity", "margin": mdd_value - best,
            "worst_case": {"competitor_value": best, "bloch": [b.ex, b.ey, b.ez], "duration": t},
            "seed": seed, "trials": trials, "mdd_value": mdd_value, "best_competitor": best,
            "violations": int(np.sum(vals > limit)) + int(np.sum(screened > limit))}


def _fidelity_table(sigmas, kinds, t_grid, channel_of) -> dict[str, np.ndarray]:
    """Each kind's (states x durations) fidelities of single-qubit reduced states;
    ``channel_of`` maps a fixed schedule to its :class:`PhaseCovariantChannel`. Each
    state's z and r are read once. U^dag E U on sigma has the fidelity of E on
    U sigma U^dag, so a measured kind is its base kind at the aligned z = r, and one
    channel per base kind and duration serves all states."""
    blochs = [bloch_vector(sigma) for sigma in sigmas]
    z, r = np.array([b.ez for b in blochs]), np.array([b.r for b in blochs])
    bases = {kind: MEASURED_BASE.get(kind.lower(), kind) for kind in kinds}
    channels = {(base, t): channel_of(build_schedule(base, t))
                for base in dict.fromkeys(bases.values()) for t in t_grid}
    return {kind: np.stack([channels[base, t].fidelity(r if is_measurement_driven(kind) else z, r)
                            for t in t_grid], axis=1) for kind, base in bases.items()}


def dd_entanglement_fidelity(psi: PureState, kind: str, params: NoiseParams, t: float,
                             qubit: int = 0) -> float:
    """Entanglement fidelity of a named sequence applied to one noisy qubit.

    Only the qubit's reduced state enters, so spectator qubits cost one
    partial trace; ``entanglement_fidelity(psi, evolve_with_schedule(...))``
    is the full-space definition this equals.
    """
    sigma = reduced_density(psi, [qubit])
    return float(_fidelity_table([sigma], [kind], [t],
                                 lambda s: schedule_channel(s, params))[kind][0, 0])


GAP_TOL = 1e-10


def _envelope_slope(grid, gaps) -> float | None:
    """Log-log slope of the negative gaps (below -GAP_TOL) against their grid
    points: None without such a gap, and 0.0, which fails any envelope, for
    a single one."""
    neg = np.asarray(gaps) < -GAP_TOL
    if not neg.any():
        return None
    if neg.sum() == 1:
        return 0.0
    return float(np.polyfit(np.log(np.asarray(grid)[neg]), np.log(-np.asarray(gaps)[neg]), 1)[0])


def _gap_passed(margin: float, slope: float | None) -> bool:
    """The gap verdict: no gap below -GAP_TOL, or the negative ones under a t^1.8 envelope."""
    return bool(margin >= -GAP_TOL or (slope is not None and slope >= 1.8))


def mixed_state_bounds(sigma_d: DensityMatrix,
                       channel: PhaseCovariantChannel) -> tuple[float, float]:
    """Upper and lower bounds on the entanglement fidelity of the aligned sequence for a
    mixed input with diagonalized subsystem ``sigma_d`` = diag(l0, l1), mapped to diag(e0, e1):

    upper = Tr(sigma_d E(sigma_d)) + 2 sqrt(det sigma_d det E(sigma_d)), (e0, e1) = P (l0, l1)
    lower = fidelity(l0 - l1, l0 - l1), the fidelity with no rotation
    """
    mat = sigma_d.entries
    if np.max(np.abs(mat - np.diag(np.diagonal(mat)))) > 1e-12:
        raise ValueError("subsystem state must be diagonal")
    if mat[0, 0].real < mat[1, 1].real - 1e-12:
        raise ValueError("diagonal entries must be in descending order")
    l0, l1 = mat[0, 0].real, mat[1, 1].real
    (p00, p01), (p10, p11) = channel.populations
    e0, e1 = p00 * l0 + p01 * l1, p10 * l0 + p11 * l1
    upper = float(l0 * e0 + l1 * e1 + 2.0 * math.sqrt(max(l0 * l1, 0.0) * max(e0 * e1, 0.0)))
    return upper, channel.fidelity(l0 - l1, l0 - l1)


@dataclass(frozen=True)
class DecayRates:
    """Relaxation and dephasing jump rates of one qubit."""

    gamma1: float
    gamma2: float

    def __post_init__(self) -> None:
        if not (self.gamma1 >= 0 and self.gamma2 >= 0):  # negated so that NaN fails
            raise ValueError("decay rates must be nonnegative")

    @classmethod
    def from_noise(cls, params: NoiseParams) -> "DecayRates":
        """Rates whose generator reproduces the combined channel: the Z jump
        carries 1/(2 Tp) because a Z jump at rate G dephases as exp(-2 G t)."""
        relaxation, dephasing = relaxation_dephasing_jumps(params)
        return cls(gamma1=relaxation.rate, gamma2=dephasing.rate)


def decay_rate_quadratic(r: float, r_z: float, rates: DecayRates) -> float:
    """Fidelity decay rate as a quadratic in the aligned z-component:

    G1 [ (1 - r_z)/2 - (r^2 - r_z^2)/4 ] + G2 (1 - r_z^2)
    """
    return (rates.gamma1 * (0.5 * (1.0 - r_z) - 0.25 * (r**2 - r_z**2))
            + rates.gamma2 * (1.0 - r_z**2))


def decay_rate(sigma: DensityMatrix, u, rates: DecayRates):
    """Initial decay rate |dF/dt| of the conjugated channel, via the variance of the
    jump operators in the rotated state, whose r_z is Tr(Z u sigma u^dag): a float for
    one unitary, or one rate per unitary of a (..., 2, 2) stack."""
    if sigma.num_qubits != 1:
        raise ValueError("decay rate requires a single-qubit reduced state")
    um = np.asarray(u, dtype=complex)
    g00, g11, g01_re, g01_im = _gram(um, 1.0)  # U^dag U
    if not np.all(np.abs([g00 - 1.0, g11 - 1.0, np.hypot(g01_re, g01_im)]) <= ATOL):
        raise ValueError("matrix is not unitary within 1e-12")
    # one unitary goes through the stacked path too, so r_z**2 rounds as in a batch
    r_z = _rotated_z(sigma.entries, um.reshape(-1, 2, 2))
    rate = decay_rate_quadratic(bloch_vector(sigma).r, r_z, rates)
    return float(rate[0]) if um.ndim == 2 else rate.reshape(um.shape[:-2])


@dataclass(frozen=True)
class TwoQubitRates:
    """Per-qubit decay rates plus the shared ZZ crosstalk rate."""

    qubit_i: DecayRates
    qubit_j: DecayRates
    gamma_zz: float

    def __post_init__(self) -> None:
        if not self.gamma_zz >= 0:  # negated so that NaN fails
            raise ValueError("crosstalk rate must be nonnegative")


def c3_section_feasible(c3) -> bool:
    """Exact feasibility of the polytope section at fixed c3, by sign
    elimination over the rationals.

    Adding the second and third constraints gives 2 - 2 c3 > 0, adding the
    first and fourth gives 2 + 2 c3 > 0, so c3 must lie strictly inside
    (-1, 1); conversely (c1, c2) = (0, 0) witnesses any such section. Pinning
    c3 = 1 forces both c1 > c2 and c2 > c1, an exact contradiction. Python
    compares int, float and ``Fraction`` exactly, so no conversion is needed.
    """
    return -1 < c3 < 1


_RATE_EPS = 1e-9
_GRID_BLOCK = 64  # c1 rows of the grid certificate held at once
_STARTS = 20  # SLSQP starts of the two-qubit optimizer: the origin and 19 feasible draws
_SIGNS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
_FD_STEP = math.sqrt(np.finfo(float).eps)  # SLSQP's default finite-difference step, 2**-26


def grid_minimum_two_qubit(r_i: float, r_j: float, rates: TwoQubitRates,
                           points: int) -> tuple[tuple[float, float, float], float]:
    """Dense-grid minimum of the two-qubit decay rate over the closed
    positivity polytope: the enumerative certificate the optimizer is held to.
    Needs ``points >= 2``, so that the grid holds the feasible vertex (1, 1, 1).

    Equal, bit for bit, to scanning all points^3 grid points in C order for
    the first smallest fl(fl(f1 + f2) + fz) under the four float constraints
    ((1 +- c1) +- c2) +- c3 >= 0, in O(points^2). A rounded sum has the sign
    of the exact sum, so each constraint bounds c3 by a float, and each
    (c1, c2) row is feasible on one index interval [lo, hi] of the axis.
    fz is unimodal with a maximum, so a row's minimum sits at lo or hi.
    """
    if points < 2:
        raise ValueError(f"grid needs at least 2 points per axis, got {points}")
    axis = np.linspace(-1.0, 1.0, points)
    f1 = decay_rate_quadratic(r_i, axis, rates.qubit_i)
    f2 = decay_rate_quadratic(r_j, axis, rates.qubit_j)
    fz = rates.gamma_zz * (1.0 - axis**2)
    best_val = math.inf
    best = None
    for start in range(0, points, _GRID_BLOCK):  # c1 rows a block at a time
        c1 = axis[start:start + _GRID_BLOCK, None]
        plus, minus = 1.0 + c1, 1.0 - c1
        lo = np.searchsorted(axis, -np.minimum(plus + axis, minus - axis), side="left")
        hi = np.searchsorted(axis, np.minimum(plus - axis, minus + axis), side="right") - 1
        ends = np.minimum(fz.take(lo, mode="clip"), fz.take(hi, mode="clip"))
        rows = np.where(lo <= hi, (f1[start:start + _GRID_BLOCK, None] + f2) + ends, math.inf)
        k = int(np.argmin(rows))
        if rows.flat[k] < best_val:
            i1, i2 = divmod(k, points)
            best_val, best = float(rows.flat[k]), (start + i1, i2, int(lo[i1, i2]), int(hi[i1, i2]))
    i1, i2, lo, hi = best
    i3 = lo + int(np.argmin(f1[i1] + f2[i2] + fz[lo:hi + 1]))  # the row's first minimum
    return (float(axis[i1]), float(axis[i2]), float(axis[i3])), best_val


def _positivity(c: np.ndarray) -> np.ndarray:
    """The four positivity constraints ((1 +- c1) +- c2) +- c3 - 1e-9 >= 0 as one vector."""
    return 1.0 + _SIGNS @ c - _RATE_EPS


def _positivity_jacobian(c: np.ndarray) -> np.ndarray:
    """The 4 x 3 Jacobian of ``_positivity`` that SLSQP builds when it has none:
    scipy's forward 2-point difference with absolute step 2**-26 on the box
    [-1, 1]^3, bit for bit. A point outside the box is clipped with scipy's
    warning; a step that would leave the box is taken backwards. The exact
    Jacobian ``_SIGNS`` would move the optimizer's point by about 1e-10."""
    if (c < -1.0).any() or (c > 1.0).any():
        warnings.warn("Values in x were outside bounds during a minimize step, clipping to bounds",
                      RuntimeWarning, stacklevel=2)
        c = np.clip(c, -1.0, 1.0)
    f0 = _positivity(c)
    columns = []
    for i in range(c.size):
        h = -_FD_STEP if c[i] + _FD_STEP > 1.0 else _FD_STEP
        stepped = c.copy()
        stepped[i] = c[i] + h
        columns.append((_positivity(stepped) - f0) / ((c[i] + h) - c[i]))
    return np.stack(columns, axis=1)


def optimize_two_qubit_mdd(r_i: float, r_j: float, rates: TwoQubitRates,
                           seed: int) -> tuple[tuple[float, float, float], float]:
    """Minimize the two-qubit decay rate over the positivity polytope: ((c1, c2, c3), rate).

    Multi-start SLSQP over the four linear constraints, relaxed to >= 1e-9
    and passed as one vector constraint with the Jacobian SLSQP would
    difference itself; for pure inputs the boundary point (1, 1, 1) is the
    exact optimum with rate zero and is returned directly.
    """
    if r_i >= 1.0 - 1e-12 and r_j >= 1.0 - 1e-12:
        return (1.0, 1.0, 1.0), 0.0

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

    constraints = {"type": "ineq", "fun": _positivity, "jac": _positivity_jacobian}
    rng = np.random.default_rng(seed)
    best_c, best_val = None, math.inf
    attempts = [np.zeros(3)]
    draws = 0
    while len(attempts) < _STARTS and draws < 100 * _STARTS:
        draws += 1
        cand = rng.uniform(-1.0, 1.0, size=3)
        if np.all(1.0 + _SIGNS @ cand > _RATE_EPS):
            attempts.append(cand)
    for x0 in attempts:
        res = optimize.minimize(objective, x0, jac=gradient, method="SLSQP",
                                constraints=constraints, bounds=[(-1.0, 1.0)] * 3,
                                options={"maxiter": 400, "ftol": 1e-14})
        if res.x is None:
            continue
        cand = np.clip(res.x, -1.0, 1.0)
        if np.all(1.0 + _SIGNS @ cand >= -1e-12):
            val = objective(cand)
            if val < best_val:
                best_val, best_c = val, cand
    return tuple(float(v) for v in best_c), float(best_val)
