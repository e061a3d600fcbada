"""Self-consistent configuration recovery over noisy bitstring samples.

Samples are 0/1 occupation rows of length 2*norb, alpha orbitals first, then
beta: the determinant format of :mod:`.hamiltonian`, so a batch of distinct
samples is a subspace as it stands. A sample whose per-sector electron count differs from the target is corrupted;
instead of discarding it, bits are flipped probabilistically toward the
current average occupancy estimate until the counts are restored, and the
occupancy itself is refined over batched subspace diagonalizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fcidump import FciData
from .hamiltonian import (SpaceHamiltonian, all_determinants, occupation_keys,
                          project_and_diagonalize)

_RECOVER_SALT = 10_007


def weight_w(y: float, h: float, delta: float = 0.01) -> float:
    """Piecewise-linear flip weight: delta/h * y up to the filling factor h,
    then rising linearly to 1 at y = 1. Continuous, monotone, and anchored at
    w(0) = 0, w(h) = delta, w(1) = 1."""
    if not 0.0 < h < 1.0:
        raise ValueError(f"filling factor must lie in (0, 1), got {h}")
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"deviation must lie in [0, 1], got {y}")
    if y <= h:
        return delta / h * y
    return delta + (1.0 - delta) * (y - h) / (1.0 - h)


def recover_configuration(bits: np.ndarray, occupancy: np.ndarray, n_target: int,
                          rng: np.random.Generator, delta: float = 0.01) -> np.ndarray:
    """Restore the electron count of one spin sector by weighted bit flips.

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
    weights = np.array([weight_w(min(abs(float(bits[i]) - occupancy[i]), 1.0), fill, delta)
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


@dataclass(frozen=True)
class RecoveryConfig:
    iterations: int = 5
    num_batches: int = 10
    samples_per_batch: int = 300
    delta: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.iterations, self.num_batches, self.samples_per_batch) < 1:
            raise ValueError("iterations, batches and batch size must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"smoothness must lie in (0, 1), got {self.delta}")


def _valid_mask(samples: np.ndarray, fci: FciData) -> np.ndarray:
    norb = fci.norb
    alpha_counts = samples[:, :norb].sum(axis=1)
    beta_counts = samples[:, norb:].sum(axis=1)
    return (alpha_counts == fci.n_alpha) & (beta_counts == fci.n_beta)


def _batch_energy_and_occupancy(pool: np.ndarray, hamiltonian: FciData | SpaceHamiltonian,
                                size: int, rng: np.random.Generator) -> tuple[float, np.ndarray]:
    replace = pool.shape[0] < size
    idx = rng.choice(pool.shape[0], size=size, replace=replace)
    bits = pool[idx] != 0
    # the ascending distinct keys are the distinct determinants in ascending
    # (alpha, beta) bitmask order
    _, first = np.unique(occupation_keys(bits, pool.shape[1] // 2), return_index=True)
    rows = bits[first]
    energy, ground = project_and_diagonalize(rows, hamiltonian)
    # amplitude**2 of a numpy scalar calls pow(), which can differ in the last
    # bit from the x*x of an array square; cumsum adds the rows in order
    probs = np.array([amplitude**2 for amplitude in ground])
    occupancy = np.cumsum(probs[:, None] * rows, axis=0)[-1]
    return energy, occupancy


def self_consistent_recovery(samples: np.ndarray, hamiltonian: FciData | SpaceHamiltonian,
                             config: RecoveryConfig) -> dict:
    """Iterative feedback loop over noisy samples.

    Iteration 0 keeps only the symmetry-preserving samples, splits them into
    batches, diagonalizes each batch subspace, and averages the batch
    occupancies. Every later iteration re-corrects the invalid samples with
    the current occupancy, merges them with the valid pool, and repeats.
    Originally valid samples are never discarded. Fully deterministic for a
    fixed seed; batches use derived seeds so they may run in any order.

    ``hamiltonian`` is a :class:`SpaceHamiltonian` of the whole determinant
    space, or the integrals, of which that space's Hamiltonian is then built
    here. Either way it is built once, and every batch matrix is gathered
    from it. Returns the record ``sqd_report.json`` holds, less the
    reference energy: per iteration the batch energies, the occupancy
    estimate, the pool size and the mean batch energy.
    """
    if isinstance(hamiltonian, SpaceHamiltonian):
        fci = hamiltonian.fci
    else:
        fci = hamiltonian
        hamiltonian = SpaceHamiltonian(all_determinants(fci.norb, fci.n_alpha, fci.n_beta), fci)
    samples = np.asarray(samples, dtype=np.uint8)
    if samples.ndim != 2 or samples.shape[1] != fci.num_spin_orbitals:
        raise ValueError("samples must be a (count, 2*norb) bit array")
    if samples.shape[0] == 0:
        raise ValueError("sample set is empty")
    valid = samples[_valid_mask(samples, fci)]
    invalid = samples[~_valid_mask(samples, fci)]
    if valid.shape[0] == 0:
        return {"status": "no-valid-configurations", "energies": [], "occupancies": [],
                "pool_sizes": [], "mean_energies": []}

    norb = fci.norb
    energies, occupancies, pool_sizes = [], [], []
    occupancy = None
    for iteration in range(config.iterations):
        if iteration == 0 or invalid.shape[0] == 0:
            pool = valid
        else:
            recovered = np.empty_like(invalid)
            # salt separates the correction stream from the batch streams
            rng_rec = np.random.default_rng((config.seed, iteration, _RECOVER_SALT))
            for row_idx, row in enumerate(invalid):
                fixed_a = recover_configuration(row[:norb], occupancy[:norb],
                                                fci.n_alpha, rng_rec, delta=config.delta)
                fixed_b = recover_configuration(row[norb:], occupancy[norb:],
                                                fci.n_beta, rng_rec, delta=config.delta)
                recovered[row_idx, :norb] = fixed_a
                recovered[row_idx, norb:] = fixed_b
            pool = np.concatenate([valid, recovered], axis=0)
        pool_sizes.append(pool.shape[0])
        batch = []
        occ_sum = np.zeros(fci.num_spin_orbitals)
        for batch_idx in range(config.num_batches):
            rng_batch = np.random.default_rng((config.seed, iteration, batch_idx))
            energy, occ = _batch_energy_and_occupancy(pool, hamiltonian, config.samples_per_batch,
                                                       rng_batch)
            batch.append(energy)
            occ_sum += occ
        occupancy = occ_sum / config.num_batches
        energies.append(batch)
        occupancies.append(occupancy.tolist())
    return {"status": "ok", "energies": energies, "occupancies": occupancies,
            "pool_sizes": pool_sizes, "mean_energies": [float(np.mean(batch)) for batch in energies]}


def noisy_sampler(ground: np.ndarray, dets: np.ndarray, flip_rate: float, shots: int,
                  seed: int) -> np.ndarray:
    """Draw occupation rows of ``dets`` proportionally to the squared
    amplitudes of ``ground``, then flip each bit independently with the
    given rate. Stand-in for hardware readout of an eigenstate."""
    if not 0.0 <= flip_rate < 1.0:
        raise ValueError(f"flip rate must lie in [0, 1), got {flip_rate}")
    ground = np.asarray(ground, dtype=float)
    probs = ground**2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(dets), size=shots, p=probs)
    bits = np.asarray(dets, dtype=np.uint8)[picks]
    flips = rng.random(bits.shape) < flip_rate
    return bits ^ flips.astype(np.uint8)
