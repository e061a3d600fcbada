"""Seeded input generation for the benchmark workloads.

Everything the program receives is written here from the workload seed:
JSON experiment configs and, for ``sqd-large``, an integral file in FCIDUMP
text form. The integral generator is the benchmark's own, so inputs stay
fixed when the program's code changes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def write_json(path: Path, payload: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")
    return path


def hubbard_ring_integrals(norb: int, seed: int, u: float = 2.0,
                           spread: float = 0.2) -> tuple[np.ndarray, np.ndarray, float]:
    """Site-basis integrals of a Hubbard ring (hopping -1, on-site repulsion
    ``u``) with every hopping, on-site energy and repulsion perturbed by a
    seeded relative ``spread``. The ground state stays spread over hundreds
    of determinants on every seed, so the sampled subspaces, and with them
    the work per operation, hardly vary with the seed."""
    rng = np.random.default_rng([seed, norb])
    h = np.diag(spread * rng.standard_normal(norb))
    for i in range(norb):
        j = (i + 1) % norb
        h[i, j] = h[j, i] = -(1.0 + spread * rng.standard_normal())
    eri = np.zeros((norb,) * 4)
    for i in range(norb):
        eri[i, i, i, i] = u * (1.0 + spread * rng.standard_normal())
    return h, eri, float(rng.standard_normal())


def fcidump_text(h: np.ndarray, eri: np.ndarray, core: float, nelec: int) -> str:
    """FCIDUMP records, one per symmetry-unique nonzero integral."""
    norb = h.shape[0]
    lines = [f"&FCI NORB={norb},NELEC={nelec},MS2=0,", " ORBSYM=" + "1," * norb,
             " ISYM=1,", "&END"]
    pairs = [(i, j) for i in range(norb) for j in range(i + 1)]
    for a, (i, j) in enumerate(pairs):
        for k, l in pairs[: a + 1]:
            if eri[i, j, k, l] != 0.0:
                lines.append(f" {eri[i, j, k, l]: .16E} {i + 1:4d} {j + 1:4d} {k + 1:4d} {l + 1:4d}")
    for i, j in pairs:
        if h[i, j] != 0.0:
            lines.append(f" {h[i, j]: .16E} {i + 1:4d} {j + 1:4d}    0    0")
    lines.append(f" {core: .16E}    0    0    0    0")
    return "\n".join(lines) + "\n"

