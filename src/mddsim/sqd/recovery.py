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
from .hamiltonian import SpaceHamiltonian, occupation_keys, project_and_diagonalize

_RECOVER_SALT = 10_007


def weight_w(y, h: float, delta: float):
    """Piecewise-linear flip weight: delta/h * y up to the filling factor h,
    then rising linearly to 1 at y = 1. Continuous, monotone, and anchored at
    w(0) = 0, w(h) = delta, w(1) = 1. ``y`` is a float or an array of
    deviations; the weight is a float or an array of the same shape."""
    if not 0.0 < h < 1.0:
        raise ValueError(f"filling factor must lie in (0, 1), got {h}")
    y = np.asarray(y, dtype=float)
    if not ((0.0 <= y) & (y <= 1.0)).all():
        raise ValueError(f"deviation must lie in [0, 1], got {y}")
    w = np.where(y <= h, delta / h * y, delta + (1.0 - delta) * (y - h) / (1.0 - h))
    return w if w.ndim else float(w)


def recover_configuration(rows: np.ndarray, occupancy: np.ndarray, targets,
                          rng: np.random.Generator, delta: float) -> np.ndarray:
    """Restore the electron count of every spin sector of every row of
    ``rows``, a (count, S*m) 0/1 block of S sectors of m orbitals, by
    weighted bit flips; ``targets`` holds one electron count per sector.

    A sector with too few electrons only gains them, and vice versa; flip
    candidates are drawn one by one without replacement, with probability
    proportional to w(|bit - occupancy|) at filling target / m, or uniformly
    if all weigh zero. An occupancy is a sum of squared amplitudes and can
    read one ulp above 1, so a deviation is clamped to 1. A sector at its
    target is unchanged, and an empty or a full one leaves no choice.

    One ``rng.random`` call draws a number per flip, rows in order and
    sectors in order within a row, and each flip searches it as
    ``Generator.choice(p=...)`` does (a cumulative sum divided by its last
    entry, searched on the right): bit for bit the draws of a ``choice`` per
    flip, row by row. A sector's rows are grouped by electron count, so each
    flip is one vector step over a group, and drawn candidates are removed,
    not zeroed, so every row sum adds the terms of a single row's.
    """
    rows = np.array(rows, dtype=np.uint8)
    occupancy = np.asarray(occupancy, dtype=float)
    if rows.ndim != 2 or occupancy.shape != rows.shape[1:]:
        raise ValueError("row and occupancy vector lengths differ")
    targets = np.asarray(targets)
    m = rows.shape[1] // len(targets)
    for target in targets:
        if not 0 <= target <= m:
            raise ValueError(f"cannot place {target} electrons in {m} orbitals")
    sectors = rows.reshape(len(rows), len(targets), m)  # a view: flips write into rows
    counts = sectors.sum(axis=2, dtype=np.int64)
    flips = np.where((targets == 0) | (targets == m), 0, np.abs(counts - targets))
    draws = rng.random(int(flips.sum()))
    first = np.cumsum(flips).reshape(flips.shape) - flips  # each sector's first draw
    for s, target in enumerate(targets):
        bits, occ = sectors[:, s], occupancy[s * m:(s + 1) * m]
        if target in (0, m):
            bits[...] = target == m
            continue
        for count in np.setdiff1d(counts[:, s], [target]):
            group = np.flatnonzero(counts[:, s] == count)
            old = 0 if count < target else 1
            cand = np.nonzero(bits[group] == old)[1].reshape(len(group), -1)
            w = weight_w(np.minimum(np.abs(float(old) - occ[cand]), 1.0), target / m, delta)
            for j in range(abs(count - target)):
                total = w.sum(axis=1, keepdims=True)
                cdf = np.divide(w, total, out=np.full(w.shape, 1.0 / w.shape[1]),
                                where=total > 0.0).cumsum(axis=1)
                cdf /= cdf[:, -1:]
                pick = (cdf <= draws[first[group, s] + j][:, None]).sum(axis=1, keepdims=True)
                bits[group[:, None], np.take_along_axis(cand, pick, axis=1)] = 1 - old
                keep = np.arange(w.shape[1]) != pick
                cand = cand[keep].reshape(len(group), -1)
                w = w[keep].reshape(len(group), -1)
    return rows


@dataclass(frozen=True)
class RecoveryConfig:
    iterations: int
    num_batches: int
    samples_per_batch: int
    delta: float
    seed: int

    def __post_init__(self) -> None:
        if min(self.iterations, self.num_batches, self.samples_per_batch) < 1:
            raise ValueError("iterations, batches and batch size must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"smoothness must lie in (0, 1), got {self.delta}")


def _valid_mask(samples: np.ndarray, fci: FciData) -> np.ndarray:
    counts = samples.reshape(len(samples), 2, fci.norb).sum(axis=2)
    return (counts == (fci.n_alpha, fci.n_beta)).all(axis=1)


def _draw_batch(pool: np.ndarray, size: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The ascending distinct keys of ``size`` rows drawn from ``pool``, and
    their 0/1 rows: the distinct determinants in ascending (alpha, beta)
    bitmask order. Equal keys are equal rows in the same order."""
    replace = pool.shape[0] < size
    idx = rng.choice(pool.shape[0], size=size, replace=replace)
    bits = pool[idx] != 0
    keys, first = np.unique(occupation_keys(bits, pool.shape[1] // 2), return_index=True)
    return keys, bits[first]


def _solve_batch(rows: np.ndarray, space: SpaceHamiltonian) -> tuple[float, np.ndarray]:
    """Ground energy of the subspace of ``rows`` and its occupancy vector."""
    energy, ground = project_and_diagonalize(rows, space)
    # amplitude**2 of a numpy scalar calls pow(), which can differ in the last
    # bit from the x*x of an array square; cumsum adds the rows in order
    probs = np.array([amplitude**2 for amplitude in ground])
    occupancy = np.cumsum(probs[:, None] * rows, axis=0)[-1]
    return energy, occupancy


def self_consistent_recovery(samples: np.ndarray, space: SpaceHamiltonian,
                             config: RecoveryConfig) -> dict:
    """Iterative feedback loop over noisy samples.

    Iteration 0 keeps only the symmetry-preserving samples, splits them into
    batches, diagonalizes each batch subspace, and averages the batch
    occupancies. Every later iteration re-corrects the invalid samples with
    the current occupancy, in one :func:`recover_configuration` call, merges
    them with the valid pool, and repeats. Originally valid samples are never
    discarded. Fully deterministic for a fixed seed; batches use derived
    seeds so they may run in any order.

    Each batch is keyed by its ascending distinct determinant keys, and each
    distinct subspace is solved once per run: a batch that repeats one reuses
    its energy and occupancy, the same floats a new solve gives. A batch
    drawn from a pool of exactly its size is drawn without replacement, a
    permutation, so its distinct rows are the whole pool. From iteration 1
    on the pool holds every sample, so with ``sample_shots ==
    samples_per_batch`` (the defaults) all of an iteration's batches are one
    subspace and cost one solve.

    ``space`` is the :class:`SpaceHamiltonian` of the samples' integrals,
    built once on their whole determinant space, and every batch matrix is
    gathered from its triplets. Returns the record
    ``sqd_report.json`` holds, less the reference energy: per iteration the
    batch energies, the occupancy estimate, the pool size and the mean batch
    energy.
    """
    fci = space.fci
    samples = np.asarray(samples, dtype=np.uint8)
    if samples.ndim != 2 or samples.shape[1] != fci.num_spin_orbitals:
        raise ValueError("samples must be a (count, 2*norb) bit array")
    if samples.shape[0] == 0:
        raise ValueError("sample set is empty")
    mask = _valid_mask(samples, fci)
    valid, invalid = samples[mask], samples[~mask]
    if valid.shape[0] == 0:
        return {"status": "no-valid-configurations", "energies": [], "occupancies": [],
                "pool_sizes": [], "mean_energies": []}

    energies, occupancies, pool_sizes = [], [], []
    occupancy = None
    solved = {}  # ascending distinct keys -> (energy, occupancy) of that subspace
    for iteration in range(config.iterations):
        if iteration == 0 or invalid.shape[0] == 0:
            pool = valid
        else:
            # salt separates the correction stream from the batch streams
            rng_rec = np.random.default_rng((config.seed, iteration, _RECOVER_SALT))
            recovered = recover_configuration(invalid, occupancy, (fci.n_alpha, fci.n_beta),
                                              rng_rec, delta=config.delta)
            pool = np.concatenate([valid, recovered], axis=0)
        pool_sizes.append(pool.shape[0])
        batch = []
        occ_sum = np.zeros(fci.num_spin_orbitals)
        for batch_idx in range(config.num_batches):
            rng_batch = np.random.default_rng((config.seed, iteration, batch_idx))
            keys, rows = _draw_batch(pool, config.samples_per_batch, rng_batch)
            key = keys.tobytes()
            if key not in solved:
                solved[key] = _solve_batch(rows, space)
            energy, occ = solved[key]
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
