"""Self-consistent configuration recovery on toy integral fixtures.

Samples an exact ground state through a bit-flip readout channel, then runs
the batched subspace-diagonalization loop and watches the energy error shrink
as corrupted configurations are corrected. The whole space's Hamiltonian is
built once, as a ``SpaceHamiltonian``, and every batch gathers its matrix from
it; each iteration corrects all corrupted samples in one
``recover_configuration`` call.
"""

import numpy as np

from mddsim.sqd import (
    RecoveryConfig,
    SpaceHamiltonian,
    all_determinants,
    hubbard_dimer_energy,
    hubbard_dimer_fcidump,
    noisy_sampler,
    parse_fcidump,
    project_and_diagonalize,
    random_fcidump,
    self_consistent_recovery,
    weight_w,
)

print("two-site model sanity check:")
dimer = parse_fcidump(hubbard_dimer_fcidump())
dets = all_determinants(2, 1, 1)
energy, _ = project_and_diagonalize(dets, SpaceHamiltonian(dets, dimer))
print(f"  computed {energy:.12f} Ha vs closed form {hubbard_dimer_energy():.12f} Ha")

print("\nflip-weight profile (filling factor 0.5): w(0) = 0, w(h) = 0.01, w(1) = 1")
ys = [0.0, 0.25, 0.5, 0.75, 1.0]
print("  y:    " + "  ".join(f"{y:.2f}" for y in ys))
print("  w(y): " + "  ".join(f"{weight_w(y, 0.5, 0.01):.3f}" for y in ys))

print("\n8-spin-orbital random system, 5% readout flips, 300 shots:")
fci = parse_fcidump(random_fcidump(4, 4, seed=42))
dets = all_determinants(4, 2, 2)
space = SpaceHamiltonian(dets, fci)  # built once; every batch gathers its matrix from it
e_ref, ground = project_and_diagonalize(dets, space)
print(f"  reference energy {e_ref:.6f} Ha over {len(dets)} determinants "
      f"(occupation rows, alpha orbitals first: {dets[0].tolist()}, ...)")

samples = noisy_sampler(ground, dets, flip_rate=0.05, shots=300, seed=1)
valid = ((samples[:, :4].sum(axis=1) == 2) & (samples[:, 4:].sum(axis=1) == 2)).sum()
print(f"  {samples.shape[0]} samples, {valid} preserve both sector counts")

config = RecoveryConfig(iterations=5, num_batches=10, samples_per_batch=300, delta=0.01,
                        seed=1)
report = self_consistent_recovery(samples, space, config)
print(f"  status: {report['status']}")
print("  iteration   pool   mean E0 (Ha)   |error| (Ha)")
for it, (mean_e, pool) in enumerate(zip(report["mean_energies"], report["pool_sizes"])):
    print(f"  {it:9d} {pool:6d} {mean_e:14.6f} {abs(mean_e - e_ref):14.6f}")
print("\ncorrected configurations widen the diagonalization subspaces, pulling the")
print("variational error toward the reference; batch resampling adds some wobble")
print("on top, but the final iteration lands well below the first.")
