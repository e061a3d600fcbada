"""Optimality verifiers at desk scale.

Runs the random-unitary search against the aligning conjugation pair, checks
the decay-rate minimality and the mixed-state fidelity bracket, and solves the
two-qubit crosstalk ansatz both by constrained minimization and by the dense
grid that certifies it.
"""

import numpy as np

from mddsim import (
    DecayRates,
    NoiseParams,
    PhaseCovariantChannel,
    TwoQubitRates,
    c3_section_feasible,
    decay_rate,
    grid_minimum_two_qubit,
    haar_random_state,
    lemma_check,
    mdd_unitary,
    mixed_state_bounds,
    optimize_two_qubit_mdd,
    reduced_density,
)
from mddsim.states import DensityMatrix, bloch_vector

params = NoiseParams(t1=250.0, t2=170.0)

print("random-unitary search against the aligning pair (2000 candidates per state):")
for i in range(3):
    sigma = reduced_density(haar_random_state(2, seed=(10, i)), [0])
    report = lemma_check(sigma, params, t=120.0, trials=2000, seed=i)
    print(f"  state {i}: aligned {report['mdd_value']:.6f}, "
          f"best random {report['best_competitor']:.6f}, "
          f"margin {report['margin']:.2e}, violations {report['violations']}")

print("\ninitial decay rate is minimized by the aligning rotation:")
rates = DecayRates.from_noise(params)
sigma = reduced_density(haar_random_state(2, seed=21), [0])
aligned = decay_rate(sigma, mdd_unitary(bloch_vector(sigma)), rates)
from mddsim.analysis import _haar_batch
sampled = [decay_rate(sigma, u, rates) for u in _haar_batch(2000, np.random.default_rng(2))]
print(f"  aligned rate {aligned:.6e} /us, sampled minimum {min(sampled):.6e} /us")

print("\nfidelity bracket for a mixed subsystem (diagonalized, eigenvalues descending):")
vals = np.linalg.eigvalsh(sigma.entries)[::-1]
diag = DensityMatrix(np.diag(vals / vals.sum()))
upper, lower = mixed_state_bounds(diag, PhaseCovariantChannel.relaxation(params, 200.0))
print(f"  lower {lower:.6f} <= aligned fidelity <= upper {upper:.6f}")

print("\ntwo-qubit crosstalk ansatz:")
two = TwoQubitRates(DecayRates(0.004, 0.002), DecayRates(0.005, 0.0015), gamma_zz=0.01)
coeffs, rate = optimize_two_qubit_mdd(0.8, 0.55, two, seed=0)
grid_c, grid_rate = grid_minimum_two_qubit(0.8, 0.55, two, points=101)
print(f"  optimizer: c = ({coeffs[0]:+.4f}, {coeffs[1]:+.4f}, {coeffs[2]:+.4f}), "
      f"rate {rate:.6e} /us")
print(f"  101^3 grid: c = ({grid_c[0]:+.4f}, {grid_c[1]:+.4f}, {grid_c[2]:+.4f}), "
      f"rate {grid_rate:.6e} /us")
print(f"  pure inputs collapse to (1, 1, 1) with rate 0: "
      f"{optimize_two_qubit_mdd(1.0, 1.0, two)}")
print(f"  pinning the crosstalk coefficient to 1 leaves a feasible section: "
      f"{c3_section_feasible(1)} (sign elimination forces c1 > c2 and c2 > c1)")
