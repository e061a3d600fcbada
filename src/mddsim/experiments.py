"""Experiment runner: config ingestion, sweep orchestration, and CSV/JSON
emission for plotting.

Every run is deterministic for a fixed (config, seed) pair, and worker count
never changes results: all randomness is drawn from generators keyed by
(seed, state index), never by worker or block.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from ._lazy import lazy_import
from .analysis import (
    DecayRates,
    TwoQubitRates,
    _envelope_slope,
    _fidelity_table,
    _gap_passed,
    decay_rate,
    grid_minimum_two_qubit,
    lemma_check,
    local_entanglement_fidelity,
    mixed_state_bounds,
    optimize_two_qubit_mdd,
)
from .circuits import qft_circuit, qft_final_state, qft_readout
from .noise import (NoiseParams, PhaseCovariantChannel, SpectralDensity, apply_local,
                    chi_integral, combined_channel)
from .sequences import MEASURED_BASE, build_schedule, flip_times, mdd_unitary, schedule_channel
from .sqd import (
    MAX_DENSE_DIM,
    RecoveryConfig,
    SpaceHamiltonian,
    all_determinants,
    hubbard_dimer_fcidump,
    noisy_sampler,
    parse_fcidump,
    random_fcidump,
    self_consistent_recovery,
)
from .states import (
    DensityMatrix,
    PureState,
    _haar_batch,
    bloch_vector,
    entanglement_fidelity,
    haar_random_state,
    reduced_density,
)

futures = lazy_import("concurrent.futures")  # the --jobs process pool

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3

_FIELD_TYPES = {"int": int, "float": (int, float), "str": str, "list[str]": list, "list[float]": list}
_MINIMA = {"num_states": 1, "seed": 0, "trials": 1, "shots": 1, "grid_points": 2, "sample_shots": 1,
           "threshold": 0}
# each of these sizes an array held at once: 64 rows of grid_points rates (and grid_points^2
# steps) in the grid certificate, trials Haar unitaries, sample_shots and samples_per_batch
# bit rows, num_states fidelity curves (theorem-gap at the default grid peaks near 265 MB at
# 10^4); shots is the count of one multinomial draw, which must fit a C long (2^63 - 1);
# sqd-recover runs at most iterations x num_batches batch eigensolves
_MAXIMA = {"grid_points": 1001, "trials": 10**6, "sample_shots": 10**6, "samples_per_batch": 10**6,
           "shots": 10**18, "num_states": 10**4, "iterations": 100, "num_batches": 100}
_MAX_DURATIONS = 10**4  # len(t_grid): each duration is a column of every fidelity curve


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    """One experiment run. Defaults are typical values for a large
    transmon processor: T1 = 250 us, T2 = 170 us, cutoff 0.1 /us, 1e4
    measurement shots, smoothness 0.01, 10 batches of 300 samples. Sequence
    names are read in any case and must be distinct. ``grid_points`` is at
    most 1001, ``num_states`` and the length of ``t_grid`` at most 10^4
    (``_MAX_DURATIONS``); ``trials``, ``sample_shots`` and
    ``samples_per_batch`` are at most 10^6, ``iterations`` and
    ``num_batches`` at most 100, and ``shots`` at most 10^18 (``_MAXIMA``).
    ``t_grid`` entries must be JSON numbers."""

    experiment: str
    t1: float = 250.0
    t2: float = 170.0
    omega_c: float = 0.1
    sequences: list[str] = field(default_factory=list)
    t_grid: list[float] = field(default_factory=list)
    num_states: int = 20
    num_qubits: int = 4
    seed: int = 0
    shots: int = 10_000
    trials: int = 10_000
    threshold: float = 0.24
    grid_points: int = 201
    fcidump: str = "hubbard-dimer"
    flip_rate: float = 0.05
    sample_shots: int = 300
    iterations: int = 5
    num_batches: int = 10
    samples_per_batch: int = 300
    delta: float = 0.01

    def __post_init__(self) -> None:
        """Check every field once (types, ranges, dry runs of the qubit count, noise
        model, sequences and recovery); a ValueError, TypeError or OverflowError becomes a
        ConfigError."""
        try:
            if self.experiment not in EXPERIMENTS:
                raise ValueError(f"unknown experiment {self.experiment!r}; "
                                 f"choose one of {', '.join(EXPERIMENTS)}")
            for f in fields(self):
                value = getattr(self, f.name)
                if f.type in _FIELD_TYPES and (isinstance(value, bool)  # bool subclasses int
                                               or not isinstance(value, _FIELD_TYPES[f.type])):
                    raise TypeError(f"{f.name} must be of type {f.type}, got {value!r}")
                if isinstance(value, float) and math.isnan(value):
                    raise ValueError(f"{f.name} must be a number, got NaN")
                if f.name in _MINIMA and value < _MINIMA[f.name]:
                    raise ValueError(f"{f.name} must be at least {_MINIMA[f.name]}, got {value}")
                if f.name in _MAXIMA and value > _MAXIMA[f.name]:
                    raise ValueError(f"{f.name} must be at most {_MAXIMA[f.name]}, got {value}")
            if self.experiment in ("fidelity-sweep", "theorem-gap"):
                haar_random_state(self.num_qubits, seed=0)  # 1 to 12 qubits
            elif self.experiment == "qft-toy":
                qft_circuit(self.num_qubits)  # 2 to 10 qubits
            if any(isinstance(t, bool) or not isinstance(t, (int, float)) for t in self.t_grid):
                raise TypeError(f"t_grid entries must be numbers, got {self.t_grid!r}")
            grid = self.t_grid = [float(t) for t in self.t_grid]
            if any(not 0 < t < math.inf for t in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError("t_grid must be finite, positive and strictly increasing")
            if len(grid) > _MAX_DURATIONS:
                raise ValueError(f"t_grid must hold at most {_MAX_DURATIONS} durations, "
                                 f"got {len(grid)}")
            NoiseParams(t1=self.t1, t2=self.t2)
            SpectralDensity("ohmic", omega_c=self.omega_c)
            if any(not isinstance(kind, str) for kind in self.sequences):
                raise TypeError(f"sequence names must be strings, got {self.sequences!r}")
            kinds = self.sequences = [kind.lower() for kind in self.sequences]
            if len(set(kinds)) < len(kinds):
                raise ValueError(f"sequence names must be distinct, got {kinds!r}")
            for kind in kinds:
                build_schedule(MEASURED_BASE.get(kind, kind), 1.0)
            if not 0.0 <= self.flip_rate < 1.0:
                raise ValueError(f"flip_rate must lie in [0, 1), got {self.flip_rate}")
            self.recovery  # dry run: RecoveryConfig checks the recovery fields
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if "experiment" not in data:
            raise ConfigError("config must name an experiment")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8 text: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(data)

    @property
    def noise(self) -> NoiseParams:
        return NoiseParams(t1=self.t1, t2=self.t2)

    @property
    def recovery(self) -> RecoveryConfig:
        return RecoveryConfig(iterations=self.iterations, num_batches=self.num_batches,
                              samples_per_batch=self.samples_per_batch, delta=self.delta,
                              seed=self.seed)


@dataclass
class RunResult:
    exit_code: int
    files: list[Path]
    summary: str


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _plain(value):
    """Recursively convert numpy containers to plain Python for JSON."""
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _json_text(payload) -> str:
    return json.dumps(_plain(payload), indent=2, sort_keys=True) + "\n"


def default_t_grid() -> list[float]:
    return [1000.0 / 2**k for k in range(11, -1, -1)]


# ----------------------------------------------------------------- sweeps

def _curve_stats(fids: np.ndarray):
    """Mean, minimum and maximum over the states (rows) of a fidelity table, per duration."""
    return zip(fids.mean(axis=0).tolist(), fids.min(axis=0).tolist(), fids.max(axis=0).tolist())


def _sweep_block_task(args) -> dict[str, np.ndarray]:
    """The fidelity curves of the run's states start..stop-1."""
    seed, start, stop, num_qubits, params, sequences, t_grid = args
    sigmas = [reduced_density(haar_random_state(num_qubits, seed=(seed, i)), [0])
              for i in range(start, stop)]
    return _fidelity_table(sigmas, sequences, t_grid, partial(schedule_channel, params=params))


def _run_state_tasks(config: ExperimentConfig, sequences, t_grid, jobs: int):
    # the executor forks every worker at the first submit, so more than one per
    # state or per core only costs processes; rows do not depend on the count
    workers = min(jobs, config.num_states, os.cpu_count() or 1)
    # contiguous blocks of states, one per worker, sizes differing by at most one
    bounds = [-(-config.num_states * k // workers) for k in range(workers + 1)]
    tasks = [(config.seed, start, stop, config.num_qubits, config.noise, tuple(sequences),
              tuple(t_grid)) for start, stop in zip(bounds, bounds[1:])]
    if workers > 1:
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_sweep_block_task, tasks))
    else:
        blocks = list(map(_sweep_block_task, tasks))
    return {kind: np.concatenate([block[kind] for block in blocks]) for kind in sequences}


def run_fidelity_sweep(config: ExperimentConfig, out_dir: Path, jobs: int) -> RunResult:
    sequences = config.sequences or ["none", "xx", "udd8", "mdd"]
    t_grid = config.t_grid or default_t_grid()
    table = _run_state_tasks(config, sequences, t_grid, jobs)
    rows = [[t, kind, *stats] for kind in sequences
            for t, stats in zip(t_grid, _curve_stats(table[kind]))]
    rows.sort(key=lambda r: (r[0], r[1]))
    path = _write(out_dir / "fidelity_sweep.csv",
                  _csv(["t", "sequence", "mean_F", "min_F", "max_F"], rows))
    return RunResult(EXIT_OK, [path], f"{len(sequences)} sequences x {len(t_grid)} durations")


def run_lemma_check(config: ExperimentConfig, out_dir: Path, jobs: int) -> RunResult:
    t_grid = config.t_grid or [10.0, 100.0, 500.0]
    reports = []
    violations = 0
    for i in range(config.num_states):
        psi = haar_random_state(2, seed=(config.seed, i))
        sigma = reduced_density(psi, [0])
        for ti, t in enumerate(t_grid):
            report = lemma_check(sigma, config.noise, t, config.trials,
                                 seed=config.seed * 1_000_003 + i * 1009 + ti)
            violations += report["violations"]
            reports.append(report)
    path = _write(out_dir / "lemma_report.json", _json_text(reports))
    code = EXIT_OK if violations == 0 else EXIT_VIOLATION
    return RunResult(code, [path], f"{violations} violations over {len(reports)} checks")


def _theorem_verdicts(config: ExperimentConfig, jobs: int):
    """Lazy gap-table rows and one verdict per sequence compared against mdd."""
    sequences = config.sequences or ["xx", "xy4", "udd8", "qdd2"]
    t_grid = config.t_grid or default_t_grid()
    table = _run_state_tasks(config, ["mdd"] + sequences, t_grid, jobs)
    gaps = {kind: table["mdd"] - table[kind] for kind in sequences}
    verdicts = []
    for kind, gap in gaps.items():  # (states x durations), flattened state by state
        state, ti = divmod(int(np.argmin(gap)), len(t_grid))
        slope = _envelope_slope(np.tile(t_grid, len(gap)), gap.ravel())
        verdicts.append({"claim_id": f"theorem-gap-{kind}", "margin": gap[state, ti].item(),
                         "worst_case": {"t": t_grid[ti], "state": state},
                         "seed": config.seed, "envelope_slope": slope,
                         "passed": _gap_passed(gap[state, ti], slope)})
    rows = ([t, kind, idx, *point] for kind, gap in gaps.items() for idx in range(len(gap))
            for t, *point in zip(t_grid, table["mdd"][idx].tolist(), table[kind][idx].tolist(),
                                 gap[idx].tolist()))
    return rows, verdicts


def run_theorem_gap(config: ExperimentConfig, out_dir: Path, jobs: int) -> RunResult:
    rows, verdicts = _theorem_verdicts(config, jobs)
    failures = sum(not v["passed"] for v in verdicts)
    files = [
        _write(out_dir / "theorem_gap.csv",
               _csv(["t", "sequence", "state", "mdd_F", "seq_F", "gap"], rows)),
        _write(out_dir / "theorem_report.json", _json_text(verdicts)),
    ]
    code = EXIT_OK if failures == 0 else EXIT_VIOLATION
    return RunResult(code, files, f"{failures} sequence comparisons failed")


# ------------------------------------------------- colored-dephasing model

def colored_noise_fidelity(psi: PureState, kind: str, t1: float,
                           spectrum: SpectralDensity, t: float, qubit: int = 0,
                           chi: float | None = None) -> float:
    """Entanglement fidelity of one state at one duration under relaxation plus
    filter-shaped dephasing, the per-point reference for ``filter-noise``: one untoggled
    T1 channel over [0, t], and pulses that act on the dephasing alone, through chi. A
    measurement-driven kind is its base sequence on the state its MDD unitary aligns."""
    sigma = reduced_density(psi, [qubit])
    return float(_fidelity_table([sigma], [kind], [t], lambda s: _colored_channel(
        t1, t, chi_integral(spectrum, flip_times(s), t) if chi is None else chi))[kind][0, 0])


def _colored_channel(t1: float, t: float, chi: float) -> PhaseCovariantChannel:
    """The model's channel over [0, t]: T1 damping, then dephasing of exponent ``chi``."""
    damping = PhaseCovariantChannel.relaxation(NoiseParams(t1=t1, t2=2.0 * t1), t)
    return PhaseCovariantChannel(damping.populations, damping.coherence * math.exp(-chi))


def run_filter_noise(config: ExperimentConfig, out_dir: Path, jobs: int) -> RunResult:
    sequences = config.sequences or ["none", "xx", "udd8", "mdd"]
    t_grid = config.t_grid or [10.0 * k for k in range(1, 51)]
    chi_rows, fid_rows = [], []
    sigmas = [reduced_density(haar_random_state(2, seed=(config.seed, i)), [0])
              for i in range(config.num_states)]
    for spec_kind in ("ohmic", "one_over_f"):
        spectrum = SpectralDensity(spec_kind, omega_c=config.omega_c)
        chis = {}  # the exponent depends only on the flip times, which kinds may share
        for kind in sequences:
            for t in t_grid:
                key = (tuple(flip_times(build_schedule(MEASURED_BASE.get(kind, kind), t))), t)
                if key not in chis:
                    chis[key] = chi_integral(spectrum, *key)
                chi_rows.append([spec_kind, kind, t, chis[key]])
        table = _fidelity_table(sigmas, sequences, t_grid, lambda s: _colored_channel(
            config.t1, s.total_time, chis[tuple(flip_times(s)), s.total_time]))
        fid_rows += [[spec_kind, kind, t, *stats] for kind in sequences
                     for t, stats in zip(t_grid, _curve_stats(table[kind]))]
    files = [
        _write(out_dir / "chi_curves.csv", _csv(["spectrum", "sequence", "t", "chi"], chi_rows)),
        _write(out_dir / "filter_fidelity.csv",
               _csv(["spectrum", "sequence", "t", "mean_F", "min_F", "max_F"], fid_rows)),
    ]
    return RunResult(EXIT_OK, files, f"{len(chi_rows)} dephasing exponents")


def run_two_qubit_opt(config: ExperimentConfig, out_dir: Path, jobs: int) -> RunResult:
    rng = np.random.default_rng(config.seed)
    records = []
    failures = 0
    for i in range(config.num_states):
        rates = TwoQubitRates(
            DecayRates(rng.uniform(0.001, 0.01), rng.uniform(0.0005, 0.005)),
            DecayRates(rng.uniform(0.001, 0.01), rng.uniform(0.0005, 0.005)),
            rng.uniform(0.0, 0.02),
        )
        r_i, r_j = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        coeffs, rate = optimize_two_qubit_mdd(r_i, r_j, rates, seed=config.seed + i)
        grid_best, grid_rate = grid_minimum_two_qubit(r_i, r_j, rates, points=config.grid_points)
        ok = rate <= grid_rate + 1e-9
        failures += not ok
        records.append({
            "claim_id": f"two-qubit-opt-{i}", "margin": grid_rate - rate,
            "worst_case": {"r_i": r_i, "r_j": r_j},
            "seed": config.seed + i,
            "optimizer": {"c": coeffs, "rate": rate},
            "grid": {"c": grid_best, "rate": grid_rate},
            "passed": bool(ok),
        })
    path = _write(out_dir / "two_qubit_opt.json", _json_text(records))
    code = EXIT_OK if failures == 0 else EXIT_VIOLATION
    return RunResult(code, [path], f"{failures} of {config.num_states} instances above grid floor")


def _qft_readouts(config: ExperimentConfig, strategy: str, seeds: list[int]) -> list[float]:
    """Success probability of one strategy for each seed. Without measurement
    shots the dressed circuit and its final state do not depend on the seed, so
    they are simulated once and only the readout is drawn per seed."""
    rho, target = qft_final_state(config.num_qubits, config.noise, strategy,
                                  threshold=config.threshold)
    return [qft_readout(rho, target, config.shots, seed) for seed in seeds]


def run_qft_toy(config: ExperimentConfig, out_dir: Path, jobs: int) -> RunResult:
    sequences = config.sequences or ["none", "xx", "mdd"]
    seeds = [config.seed + i for i in range(5)]
    # strategy by strategy, so only one density matrix is alive at a time
    values = {kind: _qft_readouts(config, kind, seeds) for kind in sequences}
    rows = [[seed, kind, values[kind][i]] for i, seed in enumerate(seeds) for kind in sequences]
    ordered = True
    if {"none", "xx", "mdd"} <= set(values):
        ordered = all(m >= x >= z for m, x, z in zip(values["mdd"], values["xx"], values["none"]))
    path = _write(out_dir / "qft_success.csv", _csv(["seed", "strategy", "p_success"], rows))
    code = EXIT_OK if ordered else EXIT_VIOLATION
    return RunResult(code, [path], "ordering held" if ordered else "ordering violated")


def _load_fcidump(source: str) -> str:
    if source == "hubbard-dimer":
        return hubbard_dimer_fcidump()
    if source == "random-4":
        return random_fcidump(2, 2, seed=0)
    if source == "random-8":
        return random_fcidump(4, 4, seed=42)
    return Path(source).read_text()


def run_sqd_recover(config: ExperimentConfig, out_dir: Path, jobs: int) -> RunResult:
    try:
        fci = parse_fcidump(_load_fcidump(config.fcidump))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load integrals {config.fcidump!r}: {exc}") from None
    # checked before enumerating: a space above the limit would be built only to be rejected
    dim = math.comb(fci.norb, fci.n_alpha) * math.comb(fci.norb, fci.n_beta)
    if dim > MAX_DENSE_DIM:
        raise ConfigError(f"cannot diagonalize integrals {config.fcidump!r}: subspace dimension "
                          f"{dim} exceeds dense limit {MAX_DENSE_DIM}")
    dets = all_determinants(fci.norb, fci.n_alpha, fci.n_beta)
    try:
        space = SpaceHamiltonian(dets, fci)
        e_ref, ground = space.ground_state()
    except ValueError as exc:
        # every batch matrix is gathered from this one, so only it and its
        # ground state can fail
        raise ConfigError(f"cannot diagonalize integrals {config.fcidump!r}: {exc}") from None
    samples = noisy_sampler(ground, dets, config.flip_rate,
                            shots=config.sample_shots, seed=config.seed)
    report = self_consistent_recovery(samples, space, config.recovery)
    rows = []
    for iteration, batch_energies in enumerate(report["energies"]):
        for batch, e0 in enumerate(batch_energies):
            rows.append([iteration, batch, e0, abs(e0 - e_ref)])
    files = [
        _write(out_dir / "sqd_recovery.csv", _csv(["iteration", "batch", "E0", "abs_error"], rows)),
        _write(out_dir / "sqd_report.json",
               _json_text({"reference_energy": e_ref, **report})),
    ]
    return RunResult(EXIT_OK, files, f"status {report['status']}, {len(rows)} batch energies")


_RUNNERS = {
    "fidelity-sweep": run_fidelity_sweep,
    "lemma-check": run_lemma_check,
    "theorem-gap": run_theorem_gap,
    "filter-noise": run_filter_noise,
    "two-qubit-opt": run_two_qubit_opt,
    "qft-toy": run_qft_toy,
    "sqd-recover": run_sqd_recover,
}
EXPERIMENTS = tuple(_RUNNERS)


def run(config: ExperimentConfig, out_dir, jobs: int) -> RunResult:
    """Dispatch one experiment, writing its artifacts under ``out_dir``."""
    return _RUNNERS[config.experiment](config, Path(out_dir), jobs=jobs)


# ------------------------------------------------------------ verify suites

def verify_lemma(seed: int) -> dict:
    num_states, trials = 20, 10_000
    violations = 0
    worst_margin = math.inf
    for i in range(num_states):
        psi = haar_random_state(2, seed=(seed, i))
        sigma = reduced_density(psi, [0])
        report = lemma_check(sigma, NoiseParams(250.0, 170.0), t=100.0,
                             trials=trials, seed=seed + i)
        violations += report["violations"]
        worst_margin = min(worst_margin, report["margin"])
    return {"claim_id": "lemma-suite", "margin": worst_margin,
            "worst_case": {"states": num_states, "trials": trials},
            "seed": seed, "violations": violations, "passed": violations == 0}


def verify_theorem(seed: int) -> dict:
    config = ExperimentConfig(experiment="theorem-gap", num_states=10, seed=seed)
    _, verdicts = _theorem_verdicts(config, 1)
    worst = min(verdicts, key=lambda v: v["margin"])
    return {"claim_id": "theorem-suite", "margin": worst["margin"],
            "worst_case": worst["worst_case"], "seed": seed,
            "passed": all(v["passed"] for v in verdicts)}


def verify_decay(seed: int) -> dict:
    params = NoiseParams(250.0, 170.0)
    rates = DecayRates.from_noise(params)
    rng = np.random.default_rng(seed)
    h = 1e-3
    worst_rel = 0.0
    minimality_violations = 0
    for _ in range(100):
        psi = haar_random_state(2, seed=int(rng.integers(1 << 31)))
        sigma = reduced_density(psi, [0])
        u = _haar_batch(1, rng)[0]
        formula = decay_rate(sigma, u, rates)
        f0, f1, f2 = (local_entanglement_fidelity(sigma, combined_channel(params, t), u)
                      for t in (0.0, h, 2 * h))
        fd = 2 * (f0 - f1) / h - (f0 - f2) / (2 * h)
        worst_rel = max(worst_rel, abs(formula - fd) / max(abs(fd), 1e-15))
    for i in range(5):
        psi = haar_random_state(2, seed=(seed, i, 7))
        sigma = reduced_density(psi, [0])
        best = decay_rate(sigma, mdd_unitary(bloch_vector(sigma)), rates)
        rates_haar = decay_rate(sigma, _haar_batch(10_000, np.random.default_rng((seed, i))), rates)
        minimality_violations += int(np.sum(rates_haar < best - 1e-12))
    passed = worst_rel <= 1e-6 and minimality_violations == 0
    return {"claim_id": "decay-suite", "margin": 1e-6 - worst_rel,
            "worst_case": {"relative_error": worst_rel,
                           "minimality_violations": minimality_violations},
            "seed": seed, "passed": bool(passed)}


def verify_bounds(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    violations = 0
    worst_slack = math.inf
    for _ in range(100):
        psi = haar_random_state(2, seed=int(rng.integers(1 << 31)))
        sigma = reduced_density(psi, [0])
        vals = np.linalg.eigvalsh(sigma.entries)
        l0, l1 = np.maximum(vals[::-1], 0) / np.maximum(vals, 0).sum()
        diag = DensityMatrix(np.diag([l0, l1]))
        t1 = float(rng.uniform(50, 500))
        params = NoiseParams(t1=t1, t2=float(rng.uniform(10, 2 * t1)))
        t = float(rng.uniform(1, 400))
        upper, lower = mixed_state_bounds(diag, PhaseCovariantChannel.relaxation(params, t))
        # diag(l0, l1) purified as sqrt(l0)|00> + sqrt(l1)|11>, normalized
        amps = np.array([math.sqrt(l0), 0.0, 0.0, math.sqrt(l1)], dtype=complex)
        phi = PureState(amps / np.linalg.norm(amps))
        simulated = entanglement_fidelity(phi, apply_local(combined_channel(params, t), phi, 0))
        slack = min(upper + 1e-10 - simulated, simulated - lower + 1e-10)
        worst_slack = min(worst_slack, slack)
        violations += not (lower - 1e-10 <= simulated <= upper + 1e-10)
    return {"claim_id": "bounds-suite", "margin": worst_slack,
            "worst_case": {"trials": 100}, "seed": seed,
            "violations": violations, "passed": violations == 0}


VERIFY_SUITES = {
    "lemma": verify_lemma,
    "theorem": verify_theorem,
    "decay": verify_decay,
    "bounds": verify_bounds,
}
