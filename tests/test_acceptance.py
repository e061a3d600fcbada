"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v`. Every tolerance is pinned in
the assertions below; the runtime bounds are asserted as stated and hold with
wide margins on commodity hardware.
"""

import math
import time

import numpy as np
import pytest

from mddsim.analysis import (
    DecayRates,
    TwoQubitRates,
    _haar_batch,
    c3_section_feasible,
    dd_entanglement_fidelity,
    decay_rate,
    decay_rate_quadratic,
    grid_minimum_two_qubit,
    local_entanglement_fidelity,
    mixed_state_bounds,
    optimize_two_qubit_mdd,
)
from mddsim.circuits import (qft_final_state, qft_readout, qft_success_scenario, sample_counts, simulate,
                             success_probability)
from mddsim.experiments import ExperimentConfig, colored_noise_fidelity, run
from mddsim.noise import (
    NOISELESS,
    NoiseParams,
    PhaseCovariantChannel,
    SpectralDensity,
    apply_local,
    chi_integral,
    combined_channel,
    filter_function,
)
from mddsim.sequences import build_schedule, flip_times, mdd_unitary, udd_times
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
)
from mddsim.states import (
    DensityMatrix,
    PauliExpectations,
    PureState,
    bloch_vector,
    entanglement_fidelity,
    haar_random_state,
    reduced_density,
)

from helpers import apply_unitary, dense, fock_index, fock_space_hamiltonian, purification

DEFAULT_NOISE = NoiseParams(t1=250.0, t2=170.0)


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def announce(capsys, label, passed, clock, detail=""):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        extra = f" [{detail}]" if detail else ""
        print(f"\nACCEPTANCE {label}: {status} ({clock.elapsed:.2f}s){extra}")


def random_mixed_sigma(index):
    psi = haar_random_state(2, seed=(1_000, index))
    return psi, reduced_density(psi, [0])


def test_criterion_1_ground_state_invariance(capsys):
    """The combined channel fixes |0><0| exactly for any parameters."""
    with Stopwatch() as clock:
        rng = np.random.default_rng(1)
        ground = DensityMatrix([[1.0, 0.0], [0.0, 0.0]])
        worst = 0.0
        for _ in range(100):
            t1 = float(rng.uniform(5.0, 600.0))
            params = NoiseParams(t1=t1, t2=float(rng.uniform(1.0, 2.0 * t1)))
            channel = combined_channel(params, float(rng.uniform(0.0, 2000.0)))
            out = apply_local(channel, ground, 0).entries
            worst = max(worst, float(np.max(np.abs(out - ground.entries))))
    passed = worst <= 1e-14 and clock.elapsed < 1.0
    announce(capsys, 1, passed, clock, f"worst deviation {worst:.2e}")
    assert worst <= 1e-14
    assert clock.elapsed < 1.0


def test_criterion_2_lemma_suite(capsys):
    """Aligned conjugation beats 1e4 random conjugations per mixed state, and
    the closed form agrees with the brute-force purification fidelity."""
    with Stopwatch() as clock:
        violations = 0
        worst_closed_vs_brute = 0.0
        for index in range(20):
            psi, sigma = random_mixed_sigma(index)
            rng = np.random.default_rng((2_000, index))
            t = float(rng.uniform(5.0, 500.0))
            channel = combined_channel(DEFAULT_NOISE, t)
            b = bloch_vector(sigma)
            u_d = mdd_unitary(b)
            mdd_value = local_entanglement_fidelity(sigma, channel, u_d)
            unitaries = _haar_batch(10_000, rng)
            rotated = unitaries @ sigma.entries @ unitaries.conj().transpose(0, 2, 1)
            vals = np.zeros(10_000)
            for m in channel.operators:
                vals += np.abs(np.einsum("ij,bji->b", m, rotated)) ** 2
            violations += int(np.sum(vals > mdd_value + 1e-10))
            # brute-force purification oracle on a handful of the sampled unitaries
            for u in unitaries[:5]:
                state = apply_unitary(u, psi, [0])
                state = apply_local(channel, state, qubit=0)
                state = apply_unitary(u.conj().T, state, [0])
                brute = entanglement_fidelity(psi, state)
                closed = local_entanglement_fidelity(sigma, channel, u)
                worst_closed_vs_brute = max(worst_closed_vs_brute, abs(closed - brute))
    passed = violations == 0 and worst_closed_vs_brute <= 1e-10 and clock.elapsed < 30.0
    announce(capsys, 2, passed, clock,
             f"violations {violations}, closed-vs-brute {worst_closed_vs_brute:.2e}")
    assert violations == 0
    assert worst_closed_vs_brute <= 1e-10
    assert clock.elapsed < 30.0


def test_criterion_3_theorem_suite(capsys):
    """Aligned sequence dominates XX / XY4 / UDD8 / QDD2 on a geometric grid
    to 1000 us for 20 random four-qubit states, and the mean curves keep the
    aligned sequence on top and free evolution lowest."""
    with Stopwatch() as clock:
        t_grid = [1000.0 / 2**k for k in range(11, -1, -1)]
        kinds = ["mdd", "xx", "xy4", "udd8", "qdd2", "none"]
        curves = {k: [] for k in kinds}
        negatives = []
        for index in range(20):
            psi = haar_random_state(4, seed=(7_000, index))
            vals = {k: np.array([dd_entanglement_fidelity(psi, k, DEFAULT_NOISE, t)
                                 for t in t_grid]) for k in kinds}
            for k in kinds:
                curves[k].append(vals[k])
            for k in ("xx", "xy4", "udd8", "qdd2"):
                gaps = vals["mdd"] - vals[k]
                for t, gap in zip(t_grid, gaps):
                    if gap < -1e-10:
                        negatives.append((t, -gap))
        envelope_ok = True
        if negatives:
            xs = np.log([t for t, _ in negatives])
            ys = np.log([v for _, v in negatives])
            envelope_ok = len(negatives) > 1 and np.polyfit(xs, ys, 1)[0] >= 1.8
        means = {k: np.mean(curves[k], axis=0) for k in kinds}
        mdd_top = all(np.all(means["mdd"] >= means[k] - 1e-12) for k in kinds if k != "mdd")
        none_low = all(np.all(means["none"] <= means[k] + 1e-12) for k in kinds if k != "none")
    passed = envelope_ok and mdd_top and none_low and clock.elapsed < 300.0
    announce(capsys, 3, passed, clock,
             f"{len(negatives)} crossings, ordering {'ok' if mdd_top and none_low else 'broken'}")
    assert envelope_ok
    assert mdd_top and none_low
    assert clock.elapsed < 300.0


def test_criterion_4_decay_rate_oracle(capsys):
    """Variance formula equals the finite-difference fidelity slope to 1e-6
    relative, and the aligning rotation minimizes it over 1e4 random ones."""
    with Stopwatch() as clock:
        rates = DecayRates.from_noise(DEFAULT_NOISE)
        rng = np.random.default_rng(4)
        worst_rel = 0.0
        for _ in range(100):
            psi = haar_random_state(2, seed=int(rng.integers(1 << 31)))
            sigma = reduced_density(psi, [0])
            u = _haar_batch(1, rng)[0]
            formula = decay_rate(sigma, u, rates)

            def fid(t):
                return local_entanglement_fidelity(sigma, combined_channel(DEFAULT_NOISE, t), u)

            h = 1e-3
            fd = 2 * (fid(0.0) - fid(h)) / h - (fid(0.0) - fid(2 * h)) / (2 * h)
            worst_rel = max(worst_rel, abs(formula - fd) / abs(fd))
        min_violation = 0.0
        for index in range(5):
            _, sigma = random_mixed_sigma(index)
            b = bloch_vector(sigma)
            best = decay_rate(sigma, mdd_unitary(b), rates)
            unitaries = _haar_batch(10_000, np.random.default_rng((4_000, index)))
            rotated = unitaries @ sigma.entries @ unitaries.conj().transpose(0, 2, 1)
            r = b.r
            rz = np.real(rotated[:, 0, 0] - rotated[:, 1, 1])
            sampled = (rates.gamma1 * (0.5 * (1 - rz) - 0.25 * (r**2 - rz**2))
                       + rates.gamma2 * (1 - rz**2))
            min_violation = max(min_violation, float(best - sampled.min()))
    passed = worst_rel <= 1e-6 and min_violation <= 1e-12 and clock.elapsed < 60.0
    announce(capsys, 4, passed, clock,
             f"relative error {worst_rel:.2e}, minimality slack {min_violation:.2e}")
    assert worst_rel <= 1e-6
    assert min_violation <= 1e-12
    assert clock.elapsed < 60.0


def test_criterion_5_mixed_state_bounds(capsys):
    """Simulated aligned fidelity lies inside the closed-form bracket, and the
    maximally mixed special cases match the general formulas to 1e-12."""
    with Stopwatch() as clock:
        rng = np.random.default_rng(5)
        violations = 0
        for _ in range(100):
            psi = haar_random_state(2, seed=int(rng.integers(1 << 31)))
            sigma = reduced_density(psi, [0]).entries
            vals = np.linalg.eigh(sigma)[0]
            vals = np.maximum(vals[::-1], 0.0)
            diag = DensityMatrix(np.diag(vals / vals.sum()))
            t1 = float(rng.uniform(50.0, 500.0))
            params = NoiseParams(t1=t1, t2=float(rng.uniform(10.0, 2.0 * t1)))
            t = float(rng.uniform(1.0, 400.0))
            channel = combined_channel(params, t)
            upper, lower = mixed_state_bounds(diag, PhaseCovariantChannel.relaxation(params, t))
            phi = PureState(purification(diag.entries))
            simulated = entanglement_fidelity(phi, apply_local(channel, phi, qubit=0))
            if not (lower - 1e-10 <= simulated <= upper + 1e-10):
                violations += 1
        channel = PhaseCovariantChannel.relaxation(DEFAULT_NOISE, 120.0)
        # the scalars from the noise times, not from the channel
        p, gp = 1 - math.exp(-120.0 / DEFAULT_NOISE.t1), math.exp(-120.0 / DEFAULT_NOISE.tp)
        upper, lower = mixed_state_bounds(DensityMatrix(np.eye(2) / 2), channel)
        upper_err = abs(upper - (1 + math.sqrt(1 - p**2)) / 2)
        lower_err = abs(lower - (2 - p + 2 * gp * math.sqrt(1 - p)) / 4)
    passed = violations == 0 and upper_err <= 1e-12 and lower_err <= 1e-12
    announce(capsys, 5, passed, clock,
             f"violations {violations}, closed-form errors {upper_err:.1e}/{lower_err:.1e}")
    assert violations == 0
    assert upper_err <= 1e-12 and lower_err <= 1e-12


def test_criterion_6_two_qubit_optimizer(capsys):
    """Pure inputs sit at (1,1,1) with zero rate, pinning the crosstalk
    coefficient is infeasible by exact sign reasoning, and the optimizer never
    loses to the 201^3 grid oracle."""
    with Stopwatch() as clock:
        rng = np.random.default_rng(6)
        pure_rates = TwoQubitRates(DecayRates(0.004, 0.002), DecayRates(0.005, 0.0015), 0.02)
        coeffs, rate = optimize_two_qubit_mdd(1.0, 1.0, pure_rates, seed=0)
        pure_ok = coeffs == (1.0, 1.0, 1.0) and rate == 0.0
        pinned_infeasible = not c3_section_feasible(1)
        worst_excess = -math.inf
        for trial in range(20):
            rates = TwoQubitRates(
                DecayRates(float(rng.uniform(0.001, 0.01)), float(rng.uniform(0.0005, 0.005))),
                DecayRates(float(rng.uniform(0.001, 0.01)), float(rng.uniform(0.0005, 0.005))),
                float(rng.uniform(0.0, 0.02)),
            )
            r_i, r_j = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            _, opt_rate = optimize_two_qubit_mdd(r_i, r_j, rates, seed=trial)
            _, grid_rate = grid_minimum_two_qubit(r_i, r_j, rates, points=201)
            worst_excess = max(worst_excess, opt_rate - grid_rate)
    passed = pure_ok and pinned_infeasible and worst_excess <= 1e-9 and clock.elapsed < 120.0
    announce(capsys, 6, passed, clock, f"worst optimizer excess {worst_excess:.2e}")
    assert pure_ok
    assert pinned_infeasible
    assert worst_excess <= 1e-9
    assert clock.elapsed < 120.0


def test_criterion_7_filter_functions(capsys):
    """Free-evolution filter closed form, nonuniform-sequence rolloff orders,
    finite monotone dephasing exponents, and late-time ordering under
    low-frequency-dominated dephasing."""
    with Stopwatch() as clock:
        rng = np.random.default_rng(7)
        worst_free = 0.0
        for _ in range(100):
            t = float(rng.uniform(0.5, 800.0))
            w = float(rng.uniform(0.0, 4.0))
            worst_free = max(worst_free, abs(filter_function([], t, w) - 4 * math.sin(w * t / 2) ** 2))
        slopes_ok = True
        for n, window in ((2, (1e-4, 1e-3)), (4, (1e-2, 3e-2))):
            ws = np.geomspace(*window, 12)
            fs = [filter_function(list(udd_times(n, 1.0)), 1.0, w) for w in ws]
            slope = np.polyfit(np.log(ws), np.log(fs), 1)[0]
            slopes_ok &= abs(slope - 2 * (n + 1)) <= 0.05 * 2 * (n + 1)
        monotone_ok, finite_ok = True, True
        t_grid_50 = np.linspace(5.0, 500.0, 50)
        for spec_kind in ("ohmic", "one_over_f"):
            spectrum = SpectralDensity(spec_kind, omega_c=0.1)
            for times_of in (lambda t: [], lambda t: [0.25 * t, 0.75 * t]):
                chis = [chi_integral(spectrum, times_of(t), t) for t in t_grid_50]
                finite_ok &= all(math.isfinite(c) for c in chis)
                monotone_ok &= all(b >= a - 1e-12 for a, b in zip(chis, chis[1:]))
        # late-time ordering under the low-frequency-dominated spectrum
        spectrum = SpectralDensity("one_over_f", omega_c=0.1)
        states = [haar_random_state(2, seed=(7_000, i)) for i in range(20)]
        ordering_ok = True
        for t in (300.0, 500.0):
            means = {}
            for kind in ("none", "xx", "udd8", "mdd"):
                sched = build_schedule(kind, t, PauliExpectations(0, 0, 0))
                chi = chi_integral(spectrum, flip_times(sched), t)
                means[kind] = float(np.mean([
                    colored_noise_fidelity(psi, kind, 250.0, spectrum, t, chi=chi)
                    for psi in states]))
            ordering_ok &= means["mdd"] >= means["udd8"] >= means["xx"] >= means["none"]
    passed = (worst_free <= 1e-12 and slopes_ok and finite_ok and monotone_ok
              and ordering_ok and clock.elapsed < 120.0)
    announce(capsys, 7, passed, clock,
             f"free dev {worst_free:.1e}, ordering {'ok' if ordering_ok else 'broken'}")
    assert worst_free <= 1e-12
    assert slopes_ok
    assert finite_ok and monotone_ok
    assert ordering_ok
    assert clock.elapsed < 120.0


def test_criterion_7_xx_slope_as_stated(capsys):
    """Low-frequency rolloff of the library's XX pair and of the single echo,
    each fitted to +- 0.1 in the window w t in [1e-4, 1e-3].

    The XX pulses sit at t/4 and 3t/4, the order-2 nonuniform times, so their
    filter is 16 sin^2(wt/4) (1 - cos(wt/4))^2 ~ w^(2*2+2) = w^6. The order-4
    rolloff belongs to the single mid-interval echo, whose filter is
    16 sin^4(wt/4). Both closed forms are checked against the phasor sum.
    """
    with Stopwatch() as clock:
        xx_times = flip_times(build_schedule("xx", 1.0, PauliExpectations(0, 0, 0)))
        udd2_dev = float(np.max(np.abs(np.asarray(xx_times) - udd_times(2, 1.0))))

        def fitted_slope(times):
            ws = np.geomspace(1e-4, 1e-3, 12)
            fs = [filter_function(times, 1.0, w) for w in ws]
            return float(np.polyfit(np.log(ws), np.log(fs), 1)[0])

        xx_slope = fitted_slope(xx_times)
        echo_slope = fitted_slope([0.5])
        wt = np.linspace(0.01, 40.0, 400)
        quarter = wt / 4
        xx_closed = 16 * np.sin(quarter) ** 2 * (1 - np.cos(quarter)) ** 2
        echo_closed = 16 * np.sin(quarter) ** 4
        xx_dev = max(abs(filter_function(xx_times, 1.0, w) - f) for w, f in zip(wt, xx_closed))
        echo_dev = max(abs(filter_function([0.5], 1.0, w) - f) for w, f in zip(wt, echo_closed))
    xx_order = 2 * (2 + 1)
    passed = (udd2_dev <= 1e-12 and abs(xx_slope - xx_order) <= 0.1
              and abs(echo_slope - 4.0) <= 0.1 and xx_dev <= 1e-12 and echo_dev <= 1e-12)
    announce(capsys, "7 (xx slope as stated)", passed, clock,
             f"xx slope {xx_slope:.3f}, echo slope {echo_slope:.3f}, "
             f"closed-form dev {max(xx_dev, echo_dev):.1e}")
    assert udd2_dev <= 1e-12
    assert abs(xx_slope - xx_order) <= 0.1
    assert abs(echo_slope - 4.0) <= 0.1
    assert xx_dev <= 1e-12
    assert echo_dev <= 1e-12


def test_criterion_8_sqd_pipeline(capsys):
    """The library's subspace build equals the brute-force ladder-operator
    Hamiltonian on every determinant pair (8 spin orbitals), the two-site
    model is exact, and seeded recovery at 5% flip noise improves the energy
    in >= 95% of seeds."""
    with Stopwatch() as clock:
        fci = parse_fcidump(random_fcidump(4, 4, seed=42))
        full = fock_space_hamiltonian(fci)
        dets = all_determinants(4, 2, 2)
        idx = [fock_index(row) for row in dets]
        worst_element = float(np.max(np.abs(dense(SpaceHamiltonian(dets, fci))
                                             - full[np.ix_(idx, idx)])))
        dimer = parse_fcidump(hubbard_dimer_fcidump())
        dimer_dets = all_determinants(2, 1, 1)
        dimer_energy, _ = project_and_diagonalize(dimer_dets,
                                                   SpaceHamiltonian(dimer_dets, dimer))
        dimer_err = abs(dimer_energy - hubbard_dimer_energy())
        space = SpaceHamiltonian(dets, fci)
        e_ref, ground = project_and_diagonalize(dets, space)
        wins = 0
        for seed in range(20):
            samples = noisy_sampler(ground, dets, flip_rate=0.05, shots=300, seed=seed)
            config = RecoveryConfig(iterations=5, num_batches=10,
                                    samples_per_batch=300, delta=0.01, seed=seed)
            report = self_consistent_recovery(samples, space, config)
            errors = [abs(m - e_ref) for m in report["mean_energies"]]
            wins += errors[-1] < errors[0]
    passed = (worst_element <= 1e-10 and dimer_err <= 1e-10 and wins >= 19
              and clock.elapsed < 180.0)
    announce(capsys, 8, passed, clock,
             f"worst element {worst_element:.1e}, dimer {dimer_err:.1e}, wins {wins}/20")
    assert worst_element <= 1e-10
    assert dimer_err <= 1e-10
    assert wins >= 19  # at least 95% of 20 seeds
    assert clock.elapsed < 180.0


def test_criterion_9_qft_toy(capsys):
    """Ideal scenario is deterministic on the alternating target; under the
    default noise the ordering aligned >= echo pair >= free holds for all
    five seeds."""
    with Stopwatch() as clock:
        circuit, target = qft_success_scenario(4)
        ideal = success_probability(sample_counts(simulate(circuit, NOISELESS), 10_000, seed=0),
                                    target)
        ordered = True
        finals = {kind: qft_final_state(4, DEFAULT_NOISE, kind, threshold=0.24)[0]
                  for kind in ("none", "xx", "mdd")}
        for seed in range(5):
            values = {kind: qft_readout(rho, target, 100_000, seed) for kind, rho in finals.items()}
            ordered &= values["mdd"] >= values["xx"] >= values["none"]
    passed = ideal == 100.0 and ordered and clock.elapsed < 120.0
    announce(capsys, 9, passed, clock, f"ideal {ideal:.1f}%, ordering {'ok' if ordered else 'broken'}")
    assert ideal == 100.0
    assert ordered
    assert clock.elapsed < 120.0


def test_criterion_10_determinism(capsys):
    """Every runner is byte-identical across repeats and worker counts."""
    import tempfile
    from pathlib import Path

    with Stopwatch() as clock:
        identical = True
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            sweep = ExperimentConfig(experiment="fidelity-sweep", num_states=4, num_qubits=3,
                                     t_grid=[5.0, 50.0, 250.0], sequences=["none", "xx", "mdd"],
                                     seed=11)
            runs = []
            for name, jobs in (("a", 1), ("b", 1), ("c", 2)):
                result = run(sweep, tmp / name, jobs=jobs)
                runs.append((tmp / name / "fidelity_sweep.csv").read_bytes())
            identical &= runs[0] == runs[1] == runs[2]
            for config in (
                ExperimentConfig(experiment="sqd-recover", fcidump="random-8", seed=3,
                                 sample_shots=200, iterations=3),
                ExperimentConfig(experiment="qft-toy", num_qubits=4, seed=3, shots=20_000),
            ):
                blobs = []
                for name in ("x", "y"):
                    result = run(config, tmp / (config.experiment + name), jobs=1)
                    blobs.append(b"".join(sorted(p.read_bytes() for p in result.files)))
                identical &= blobs[0] == blobs[1]
    announce(capsys, 10, identical, clock)
    assert identical
    assert clock.elapsed < 120.0
