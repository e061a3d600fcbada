"""The four benchmark workloads, as lists of CLI operations.

Each operation is one ``mddsim.cli.main([...])`` call. A workload's pass runs
its operations once, in order. Inputs are generated from the workload seed
by :mod:`inputs`; the seed also goes to every call as ``--seed``.

``smoke=True`` builds the same workload at a reduced size, used for the
untimed warm-up operation and by the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from inputs import fcidump_text, hubbard_ring_integrals, write_json

WORKLOADS = ("closed-forms", "spectator-sweep", "qft-dd", "sqd-large")

# experiment name -> per-experiment timing metric
RUN_METRICS = {
    "fidelity-sweep": "fidelity_sweep_s",
    "theorem-gap": "theorem_gap_s",
    "lemma-check": "lemma_check_s",
    "filter-noise": "filter_noise_s",
    "two-qubit-opt": "two_qubit_opt_s",
    "qft-toy": "qft_toy_s",
    "sqd-recover": "sqd_recover_s",
}
VERIFY_METRICS = {suite: f"verify_{suite}_s" for suite in ("lemma", "theorem", "decay", "bounds")}
EXPERIMENT_METRICS = tuple(RUN_METRICS.values()) + tuple(VERIFY_METRICS.values())


@dataclass(frozen=True)
class Op:
    """One CLI call with the exit code it must return."""

    key: str                  # unique within a workload
    kind: str                 # experiment name, or "verify-<suite>"
    metric: str               # per-experiment timing metric it counts toward
    argv: tuple[str, ...]
    expected_exit: int
    out: Path                 # artifact directory
    config: dict | None = None

    def with_jobs(self, jobs: int, out: Path) -> "Op":
        argv = list(self.argv)
        argv[argv.index("--jobs") + 1] = str(jobs)
        argv[argv.index("--out") + 1] = str(out)
        return Op(f"{self.key}-jobs{jobs}", self.kind, self.metric, tuple(argv),
                  self.expected_exit, out, self.config)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    smoke: bool
    ops: tuple[Op, ...]
    jobs_check: Op | None = None   # re-run with --jobs 2, artifacts must match


def _run_op(key: str, config: dict, seed: int, root: Path, expected_exit: int = 0) -> Op:
    cfg_path = write_json(root / "inputs" / f"{key}.json", config)
    out = root / "artifacts" / key
    argv = ("run", "--config", str(cfg_path), "--seed", str(seed), "--jobs", "1",
            "--out", str(out))
    experiment = config["experiment"]
    return Op(key, experiment, RUN_METRICS[experiment], argv, expected_exit, out, config)


def _verify_op(suite: str, seed: int, root: Path) -> Op:
    out = root / "artifacts" / f"verify-{suite}"
    argv = ("verify", "--suite", suite, "--seed", str(seed), "--out", str(out))
    return Op(f"verify-{suite}", f"verify-{suite}", VERIFY_METRICS[suite], argv, 0, out)


def _closed_forms(seed: int, root: Path, smoke: bool) -> list[Op]:
    """Every run experiment and verify suite. Default configs, except that
    the four slowest experiments use 5 states (and filter-noise 10
    durations) so that a pass takes about 10 s instead of 24 s."""
    if smoke:
        configs = [
            {"experiment": "fidelity-sweep", "num_states": 2, "num_qubits": 2,
             "t_grid": [5.0, 50.0]},
            {"experiment": "theorem-gap", "num_states": 2, "num_qubits": 2,
             "t_grid": [0.5, 1.0, 2.0]},
            {"experiment": "lemma-check", "num_states": 1, "trials": 200, "t_grid": [10.0]},
            {"experiment": "filter-noise", "num_states": 1, "t_grid": [10.0, 20.0],
             "sequences": ["none", "xx"]},
            {"experiment": "two-qubit-opt", "num_states": 1, "grid_points": 21},
            {"experiment": "qft-toy", "num_qubits": 2, "shots": 1000, "sequences": ["none"]},
            {"experiment": "sqd-recover", "fcidump": "hubbard-dimer", "iterations": 2,
             "num_batches": 2, "samples_per_batch": 20},
        ]
        suites = ("lemma", "bounds")
    else:
        configs = [
            {"experiment": "fidelity-sweep"},
            {"experiment": "theorem-gap", "num_states": 5},
            {"experiment": "lemma-check", "num_states": 5},
            {"experiment": "filter-noise", "num_states": 5,
             "t_grid": [50.0 * k for k in range(1, 11)]},
            {"experiment": "two-qubit-opt", "num_states": 5},
            {"experiment": "qft-toy"},
            {"experiment": "sqd-recover", "fcidump": "random-8"},
        ]
        suites = tuple(VERIFY_METRICS)
    ops = [_run_op(cfg["experiment"], cfg, seed, root) for cfg in configs]
    return ops + [_verify_op(suite, seed, root) for suite in suites]


# Four of the twelve durations of mddsim's default t grid (1000 / 2**k us,
# k = 11..0), spanning it: a pass at 8 qubits then takes about 6 s, so that a
# run times each operation three times or more.
SPECTATOR_T_GRID = [1000.0 / 2**k for k in (11, 7, 3, 0)]


def _spectator_sweep(seed: int, root: Path, smoke: bool) -> list[Op]:
    n = 3 if smoke else 8
    return [_run_op(name, {"experiment": name, "num_qubits": n, "num_states": 1,
                           "t_grid": SPECTATOR_T_GRID}, seed, root)
            for name in ("fidelity-sweep", "theorem-gap")]


def _qft_dd(seed: int, root: Path, smoke: bool) -> list[Op]:
    if smoke:
        # without all of none/xx/mdd the ordering check is skipped: exit 0
        config = {"experiment": "qft-toy", "num_qubits": 3, "sequences": ["none", "mdd"]}
        return [_run_op("qft-toy-n3", config, seed, root)]
    # n=5 breaks the experiment's ordering check on every seed (xx scores
    # below none), so exit 3 is that operation's reference exit code
    return [_run_op(f"qft-toy-n{n}", {"experiment": "qft-toy", "num_qubits": n}, seed, root,
                    expected_exit=code)
            for n, code in ((5, 3), (6, 0))]


SQD_LARGE = {"norb": 7, "nelec": 6}
SQD_SMOKE = {"norb": 3, "nelec": 2}


def _sqd_large(seed: int, root: Path, smoke: bool) -> list[Op]:
    shape = SQD_SMOKE if smoke else SQD_LARGE
    h, eri, core = hubbard_ring_integrals(shape["norb"], seed)
    path = root / "inputs" / "sqd-large.fcidump"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(fcidump_text(h, eri, core, shape["nelec"]))
    config = {"experiment": "sqd-recover", "fcidump": str(path)}
    if smoke:
        config.update(iterations=2, num_batches=2, samples_per_batch=30)
    return [_run_op("sqd-recover", config, seed, root)]


_BUILDERS = {
    "closed-forms": _closed_forms,
    "spectator-sweep": _spectator_sweep,
    "qft-dd": _qft_dd,
    "sqd-large": _sqd_large,
}


def build(name: str, seed: int, root: Path, smoke: bool = False) -> Workload:
    """Write the workload's inputs under ``root`` and return its operations."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
    ops = tuple(_BUILDERS[name](seed, Path(root), smoke))
    jobs_check = ops[0] if name == "spectator-sweep" else None
    return Workload(name, seed, smoke, ops, jobs_check)
