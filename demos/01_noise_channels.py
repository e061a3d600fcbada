"""The combined relaxation + dephasing channel and its generator.

Walks through the channel's closed form (a population matrix P and a
coherence factor c), its fixed point, the semigroup property, and the
agreement between the Kraus map and its Lindblad generator.
"""

import numpy as np

from mddsim import (
    DensityMatrix,
    NoiseParams,
    PhaseCovariantChannel,
    combined_channel,
    lindblad_derivative,
    relaxation_dephasing_jumps,
)

np.set_printoptions(precision=6, suppress=True)

params = NoiseParams(t1=250.0, t2=170.0)
print(f"T1 = {params.t1} us, T2 = {params.t2} us  ->  pure-dephasing time Tp = {params.tp:.2f} us")

channel = combined_channel(params, t=100.0)
closed = PhaseCovariantChannel.relaxation(params, t=100.0)
print("\nat t = 100 us the channel maps the populations by P = [[1, p], [0, 1 - p]]")
print(closed.populations)
print("and multiplies the coherence rho01 by c = s * gamma_p")
print(f"  consistency: c = {closed.coherence.real:.6f} = exp(-t/T2) = {np.exp(-100 / 170):.6f}")

ground = np.array([[1, 0], [0, 0]], dtype=complex)
print("\nthe ground state is a fixed point:")
print(channel.apply(ground).real)

plus = 0.5 * (np.eye(2) + np.array([[0, 1], [1, 0]]))
print("\nan equator state loses coherence by exp(-t/T2) and drifts toward the ground state:")
print(channel.apply(plus).real)

print("\nsemigroup: E(60) after E(40) equals E(100) entrywise:")
composed = combined_channel(params, 60.0).apply(combined_channel(params, 40.0).apply(plus))
print(np.max(np.abs(composed - channel.apply(plus))))

print("\nLindblad generator vs finite difference of the channel at dt = 1e-4 us:")
rho = DensityMatrix(channel.apply(plus))
gen = lindblad_derivative(rho, None, relaxation_dephasing_jumps(params))
dt = 1e-4
fd = (combined_channel(params, dt).apply(rho.entries) - rho.entries) / dt
print(f"  max |generator - finite difference| = {np.max(np.abs(gen - fd)):.3e}")
