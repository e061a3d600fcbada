"""Desk-scale integral fixtures with known or independently checkable ground
energies."""

from __future__ import annotations

import math

import numpy as np

from .fcidump import _EIGHTFOLD, FciData, _pair_index, write_fcidump


def hubbard_dimer_fcidump(u: float = 4.0, hopping: float = 1.0) -> str:
    """Two-site, two-electron model: on-site repulsion u, hopping amplitude
    ``hopping``; its singlet ground energy is known in closed form."""
    h = np.array([[0.0, -hopping], [-hopping, 0.0]])
    eri = np.zeros((2, 2, 2, 2))
    eri[0, 0, 0, 0] = u
    eri[1, 1, 1, 1] = u
    data = FciData(norb=2, nelec=2, ms2=0, h=h, eri=eri, core_energy=0.0)
    return write_fcidump(data)


def hubbard_dimer_energy(u: float = 4.0, hopping: float = 1.0) -> float:
    """Exact singlet ground energy (u - sqrt(u^2 + 16 t^2)) / 2."""
    return (u - math.sqrt(u**2 + 16.0 * hopping**2)) / 2.0


_ERI_SCALE = 0.4  # standard deviation of the random two-electron integrals


def random_fcidump(norb: int, nelec: int, ms2: int = 0, seed: int = 0) -> str:
    """Random symmetric integral tables; useful for oracle cross-checks where
    only internal consistency matters, not chemistry."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((norb, norb))
    h = (h + h.T) / 2.0
    eri = np.zeros((norb,) * 4)
    for i in range(norb):
        for j in range(i + 1):
            for k in range(norb):
                for l in range(k + 1):
                    if _pair_index(i, j) < _pair_index(k, l):
                        continue
                    value = _ERI_SCALE * rng.standard_normal()
                    for perm in _EIGHTFOLD:
                        eri[tuple((i, j, k, l)[p] for p in perm)] = value
    data = FciData(norb=norb, nelec=nelec, ms2=ms2, h=h, eri=eri,
                   core_energy=float(rng.standard_normal()))
    return write_fcidump(data)
