"""Sampled-subspace diagonalization pipeline: integral-file parsing,
determinant-space Hamiltonians over occupation bit rows, and self-consistent
configuration recovery."""

from .fcidump import FciData, ParseError, parse_fcidump, write_fcidump
from .hamiltonian import MAX_DENSE_DIM, SpaceHamiltonian, all_determinants, project_and_diagonalize
from .recovery import (
    RecoveryConfig,
    noisy_sampler,
    recover_configuration,
    self_consistent_recovery,
    weight_w,
)
from .toys import hubbard_dimer_energy, hubbard_dimer_fcidump, random_fcidump

__all__ = [name for name in dir() if not name.startswith("_")]
