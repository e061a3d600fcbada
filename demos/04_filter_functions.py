"""Filter functions and colored dephasing.

Shows the low-frequency rolloff orders of the pulse trains, the dephasing
exponent chi(t) under Ohmic and 1/f spectra, and the late-time fidelity
ordering when relaxation is combined with filter-shaped dephasing.
"""

import numpy as np

from mddsim import (PauliExpectations, SpectralDensity, chi_integral, filter_function,
                    haar_random_state)
from mddsim.experiments import colored_noise_fidelity
from mddsim.sequences import build_schedule, flip_times, udd_times

print("low-frequency rolloff F ~ w^k (fitted k):")
cases = {
    "single echo": [0.5],
    "25/75 pair": [0.25, 0.75],
    "order-4 nonuniform": list(udd_times(4, 1.0)),
}
for label, times in cases.items():
    ws = np.geomspace(1e-2, 3e-2, 10)
    slope = np.polyfit(np.log(ws), np.log([filter_function(times, 1.0, w) for w in ws]), 1)[0]
    print(f"  {label:20s} k = {slope:.2f}")
print("  (the 25/75 pair shares the order-2 nonuniform times, hence k = 6)")

print("\ndephasing exponent chi(t), cutoff 0.1 /us:")
print("    t/us   spectrum        free       xx     udd8")
for spec_kind in ("ohmic", "one_over_f"):
    spectrum = SpectralDensity(spec_kind, omega_c=0.1)
    for t in (20.0, 100.0, 400.0):
        chis = [chi_integral(spectrum, times_of(t), t)
                for times_of in (lambda t: [], lambda t: [t / 4, 3 * t / 4],
                                 lambda t: list(udd_times(8, t)))]
        print(f"  {t:6.0f}   {spec_kind:12s}" + "".join(f" {c:8.3f}" for c in chis))
print("  pulse trains suppress the 1/f exponent at short times but amplify the")
print("  Ohmic one at long times, where the averaged filter weight grows with n.")

print("\nmean fidelity of 20 random two-qubit states, T1 = 250 us + 1/f dephasing:")
spectrum = SpectralDensity("one_over_f", omega_c=0.1)
states = [haar_random_state(2, seed=(40, i)) for i in range(20)]
kinds = ("none", "xx", "udd8", "mdd")
print("    t/us " + "".join(f"{k:>9s}" for k in kinds))
for t in (20.0, 80.0, 200.0, 500.0):
    row = []
    for kind in kinds:
        sched = build_schedule(kind, t, PauliExpectations(0, 0, 0))
        chi = chi_integral(spectrum, flip_times(sched), t)
        row.append(np.mean([colored_noise_fidelity(psi, kind, 250.0, spectrum, t, chi=chi)
                            for psi in states]))
    print(f"  {t:6.0f} " + "".join(f"{v:9.4f}" for v in row))
print("\nthe nonuniform train wins early; alignment holds up once everything dephases.")
