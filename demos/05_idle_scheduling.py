"""Idle-aware circuit scheduling.

Builds the serialized transform scenario, lists its idle intervals, inserts
pulse sequences into them, and compares end-to-end success probabilities.
"""

from collections import Counter

from mddsim import NoiseParams, identify_idle, insert_dd, qft_success_scenario
from mddsim.circuits import qft_final_state, qft_readout, sample_counts, simulate, success_probability
from mddsim.noise import NOISELESS

noise = NoiseParams(t1=250.0, t2=170.0)
circuit, target = qft_success_scenario(4)
print(f"4-qubit transform scenario: {len(circuit.slices)} slices, "
      f"{circuit.total_duration:.0f} us total, target string {target}")

print("\nidle intervals above the 0.24 us threshold:")
for iv in identify_idle(circuit, 0.24):
    print(f"  qubit {iv.qubit}: start {iv.start:5.1f} us, duration {iv.duration:5.1f} us")

ideal = success_probability(sample_counts(simulate(circuit, NOISELESS), 10_000, seed=0), target)
print(f"\nideal success probability: {ideal:.1f}%")

print("\nsuccess probability under noise, five seeds each:")
print("  seed     none       xx      mdd")
# exact expectations: each final state is seed-free, so only the 100,000-shot readout is redrawn
finals = [qft_final_state(4, noise, kind)[0] for kind in ("none", "xx", "mdd")]
for seed in range(5):
    row = [qft_readout(rho, target, 100_000, seed) for rho in finals]
    print(f"  {seed:4d} " + "".join(f"{v:9.3f}" for v in row))

dressed = insert_dd(circuit, "mdd", noise, threshold=0.24)
per_qubit = Counter(sl.gates[0].qubits[0] for sl in dressed.slices if sl.duration == 0.0)
print(f"\nthe measurement-driven pass inserted {sum(per_qubit.values())} zero-duration pulse "
      f"slices (total duration unchanged: {dressed.total_duration:.0f} us)")
print("pulses per qubit: " + ", ".join(f"q{q} {k}" for q, k in sorted(per_qubit.items())))
