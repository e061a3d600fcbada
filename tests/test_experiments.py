"""Experiment runner and command-line interface tests."""

import contextlib
import io
import json
import tempfile
import time
import warnings
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mddsim.circuits import qft_final_state, qft_readout
from mddsim import experiments
from mddsim.cli import main
from mddsim.experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    colored_noise_fidelity,
    verify_bounds,
    verify_decay,
    verify_lemma,
)
from mddsim.noise import NoiseParams, SpectralDensity, combined_channel
from mddsim.sqd import MAX_DENSE_DIM, FciData, parse_fcidump, random_fcidump, write_fcidump
from mddsim.sqd import hamiltonian
from mddsim.states import haar_random_state

from helpers import _gap_report


def write_config(tmp_path, **kwargs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kwargs))
    return str(path)


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"experiment": "qft-toy", "shotz": 3})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentConfig.from_dict({"experiment": "bogus"})

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError, match="increasing"):
            ExperimentConfig.from_dict({"experiment": "fidelity-sweep", "t_grid": [2.0, 1.0]})

    def test_sequence_names_lower_cased(self):
        config = ExperimentConfig.from_dict({"experiment": "fidelity-sweep",
                                             "sequences": ["NONE", "Mdd+XX", "qdd2"]})
        assert config.sequences == ["none", "mdd+xx", "qdd2"]

    @pytest.mark.parametrize("field", ["grid_points", "trials", "sample_shots",
                                       "samples_per_batch", "num_states", "iterations",
                                       "num_batches"])
    def test_sizes_above_maximum_rejected(self, field):
        # validation only: a run at these sizes would request memory the host lacks
        limit = experiments._MAXIMA[field]
        ExperimentConfig.from_dict({"experiment": "two-qubit-opt", field: limit})
        with pytest.raises(ConfigError, match=f"{field} must be at most {limit}"):
            ExperimentConfig.from_dict({"experiment": "two-qubit-opt", field: limit + 1})

    def test_t_grid_above_maximum_rejected(self):
        # validation only: every duration is a column of every fidelity curve
        limit = experiments._MAX_DURATIONS
        grid = [float(k) for k in range(1, limit + 2)]
        config = ExperimentConfig(experiment="fidelity-sweep", t_grid=grid[:limit])
        assert len(config.t_grid) == limit
        with pytest.raises(ConfigError, match=f"t_grid must hold at most {limit} durations, "
                                              f"got {limit + 1}"):
            ExperimentConfig(experiment="fidelity-sweep", t_grid=grid)

    def test_missing_experiment_rejected(self):
        with pytest.raises(ConfigError, match="name an experiment"):
            ExperimentConfig.from_dict({})


class TestCliContract:
    def test_usage_error_exit_code(self, capsys):
        assert main(["run"]) == 2

    def test_config_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["run", "--config", str(missing)]) == 2

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b"\xff\xfe")
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "UTF-8" in err

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_uncreatable_out_exits_2_before_running(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, experiment="fidelity-sweep", num_states=1, t_grid=[10.0])
        argv = ["run", "--config", cfg] if command == "run" else ["verify", "--suite", "bounds"]
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main([*argv, "--out", str(blocker / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # nothing ran
        assert err.startswith("config error: cannot create --out")
        assert "Traceback" not in err

    def test_fidelity_sweep_csv_schema(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment="fidelity-sweep", num_states=3,
                           num_qubits=2, t_grid=[5.0, 50.0], sequences=["none", "mdd"])
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "fidelity_sweep.csv").read_text().splitlines()
        assert lines[0] == "t,sequence,mean_F,min_F,max_F"
        assert len(lines) == 1 + 2 * 2
        for line in lines[1:]:
            t, kind, mean_f, min_f, max_f = line.split(",")
            assert kind in ("none", "mdd")
            for token in (t, mean_f, min_f, max_f):
                assert np.isfinite(float(token))

    def test_fidelity_sweep_aligned_curve_uppermost(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment="fidelity-sweep", num_states=20,
                           num_qubits=4, sequences=["none", "xx", "udd8", "mdd"], seed=0)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        means = {}
        for line in (tmp_path / "out" / "fidelity_sweep.csv").read_text().splitlines()[1:]:
            t, kind, mean_f, _, _ = line.split(",")
            means.setdefault(float(t), {})[kind] = float(mean_f)
        for t, row in means.items():
            assert set(row) == {"none", "xx", "udd8", "mdd"}
            assert row["mdd"] == max(row.values()), f"aligned curve not uppermost at t={t}"

    def test_lemma_check_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment="lemma-check", num_states=2,
                           trials=500, t_grid=[50.0])
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "lemma_report.json").read_text())
        assert all(entry["violations"] == 0 for entry in report)
        assert {"claim_id", "margin", "worst_case", "seed"} <= set(report[0])

    def test_seed_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment="fidelity-sweep", num_states=2,
                           num_qubits=2, t_grid=[10.0], sequences=["none"])
        main(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "1"])
        main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "2"])
        a = (tmp_path / "a" / "fidelity_sweep.csv").read_text()
        b = (tmp_path / "b" / "fidelity_sweep.csv").read_text()
        assert a != b

    def test_byte_identical_across_runs_and_worker_counts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment="fidelity-sweep", num_states=4,
                           num_qubits=3, t_grid=[5.0, 50.0, 250.0],
                           sequences=["none", "xx", "mdd"])
        outputs = []
        for name, jobs in (("r1", "1"), ("r2", "1"), ("r4", "2")):
            assert main(["run", "--config", cfg, "--out", str(tmp_path / name),
                         "--jobs", jobs]) == 0
            outputs.append((tmp_path / name / "fidelity_sweep.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize(("jobs", "num_states", "cores", "workers"),
                             [(100_000, 20, 4, 4), (100_000, 3, 64, 3), (2, 20, 64, 2), (8, 5, 1, None),
                              (3, 5, 64, 3)])
    def test_worker_count_is_clamped(self, tmp_path, monkeypatch, capsys, jobs, num_states, cores, workers):
        created = []

        class SerialExecutor:
            """Records the requested worker count and maps in process."""

            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(experiments, "futures",
                            SimpleNamespace(ProcessPoolExecutor=SerialExecutor))
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
        cfg = write_config(tmp_path, experiment="fidelity-sweep", num_states=num_states,
                           num_qubits=2, t_grid=[5.0, 50.0], sequences=["none", "mdd"])
        outputs = []
        for name, k in (("serial", 1), ("pooled", jobs)):
            assert main(["run", "--config", cfg, "--out", str(tmp_path / name), "--jobs", str(k)]) == 0
            outputs.append((tmp_path / name / "fidelity_sweep.csv").read_bytes())
        assert created == ([] if workers is None else [workers])
        assert outputs[0] == outputs[1]

    def test_sqd_recover_hubbard_dimer_improves(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment="sqd-recover", fcidump="hubbard-dimer",
                           sample_shots=20, flip_rate=0.2, seed=4)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "sqd_recovery.csv").read_text().splitlines()
        assert lines[0] == "iteration,batch,E0,abs_error"
        by_iteration = {}
        for line in lines[1:]:
            iteration, _, _, err = line.split(",")
            by_iteration.setdefault(int(iteration), []).append(float(err))
        first = np.mean(by_iteration[min(by_iteration)])
        last = np.mean(by_iteration[max(by_iteration)])
        assert last < first

    def test_sqd_recover_byte_identical_across_runs(self, tmp_path, capsys):
        # a 400-determinant reference and 50 batch subspaces of 67 to 120
        # determinants, each diagonalized for its lowest eigenpair only
        integrals = tmp_path / "six.fcidump"
        integrals.write_text(random_fcidump(6, 6, seed=3))
        cfg = write_config(tmp_path, experiment="sqd-recover", fcidump=str(integrals))
        outputs = []
        for name in ("r1", "r2"):
            assert main(["run", "--config", cfg, "--out", str(tmp_path / name), "--seed", "5"]) == 0
            outputs.append({f: (tmp_path / name / f).read_bytes()
                            for f in ("sqd_recovery.csv", "sqd_report.json")})
        assert outputs[0] == outputs[1]

    def test_qft_toy_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment="qft-toy", num_qubits=4, shots=20_000)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "qft_success.csv").read_text().splitlines()
        assert lines[0] == "seed,strategy,p_success"

    @pytest.mark.parametrize("num_qubits", [3, 4])
    def test_qft_toy_rows_equal_per_seed_calls(self, tmp_path, capsys, num_qubits):
        cfg = write_config(tmp_path, experiment="qft-toy", num_qubits=num_qubits, seed=11,
                           sequences=["none", "xx", "mdd", "mdd+xx"])
        main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        lines = (tmp_path / "out" / "qft_success.csv").read_text().splitlines()
        config = ExperimentConfig(experiment="qft-toy", num_qubits=num_qubits)
        finals = {kind: qft_final_state(num_qubits, config.noise, kind, config.threshold)
                  for kind in ("none", "xx", "mdd", "mdd+xx")}
        expected = [(seed, kind, qft_readout(rho, target, config.shots, seed))
                    for seed in range(11, 16) for kind, (rho, target) in finals.items()]
        rows = [(int(seed), kind, float(p)) for seed, kind, p in (l.split(",") for l in lines[1:])]
        assert rows == expected

    @pytest.mark.parametrize("case", [str.lower, str.upper])
    def test_qft_toy_ordering_check_ignores_case(self, tmp_path, capsys, case):
        # at 5 qubits xx scores below none on every seed, in either spelling
        cfg = write_config(tmp_path, experiment="qft-toy", num_qubits=5,
                           sequences=[case(kind) for kind in ("none", "xx", "mdd")])
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "ordering violated" in capsys.readouterr().out
        rows = (tmp_path / "out" / "qft_success.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows[:3]] == ["none", "xx", "mdd"]

    def test_verify_suite_exit_codes(self, tmp_path, capsys):
        assert main(["verify", "--suite", "bounds", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_bounds.json").read_text())
        assert report["passed"] is True

    def test_verify_report_is_sorted_indented_json(self, tmp_path, capsys):
        assert main(["verify", "--suite", "bounds", "--seed", "3", "--out", str(tmp_path)]) == 0
        report = experiments.verify_bounds(seed=3)
        expected = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "verify_bounds.json").read_bytes() == expected.encode()

    def test_csv_values_all_finite(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment="filter-noise", num_states=2,
                           t_grid=[20.0, 60.0], sequences=["none", "xx"])
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        for name in ("chi_curves.csv", "filter_fidelity.csv"):
            lines = (tmp_path / "out" / name).read_text().splitlines()
            for line in lines[1:]:
                for token in line.split(",")[2:]:
                    assert np.isfinite(float(token))


INVALID_CONFIGS = {
    "num_qubits-20": ({"experiment": "fidelity-sweep", "num_qubits": 20}, []),
    "num_qubits-0": ({"experiment": "fidelity-sweep", "num_qubits": 0}, []),
    "unknown-sequence": ({"experiment": "fidelity-sweep", "sequences": ["bogus"]}, []),
    "t2-above-2t1": ({"experiment": "fidelity-sweep", "t1": 10, "t2": 100}, []),
    # 1/T2 overflows to inf, so the pure-dephasing time Tp = 1/inf would be 0
    "t2-tiny": ({"experiment": "fidelity-sweep", "t1": 1.0, "t2": 5e-309, "num_states": 1,
                 "t_grid": [1.0]}, []),
    # 1/T2 - 1/(2 T1) is inf - inf, so Tp would be NaN
    "t1-t2-tiny": ({"experiment": "qft-toy", "t1": 1e-310, "t2": 1e-310}, []),
    "qft-one-qubit": ({"experiment": "qft-toy", "num_qubits": 1}, []),
    "iterations-0": ({"experiment": "sqd-recover", "iterations": 0}, []),
    # a run does iterations x num_batches batch eigensolves
    "iterations-101": ({"experiment": "sqd-recover", "iterations": 101}, []),
    "num_batches-101": ({"experiment": "sqd-recover", "num_batches": 101}, []),
    "seed-negative": ({"experiment": "fidelity-sweep", "seed": -1}, []),
    "trials-0": ({"experiment": "lemma-check", "trials": 0}, []),
    "t_grid-string": ({"experiment": "fidelity-sweep", "t_grid": "abc"}, []),
    "grid_points-1": ({"experiment": "two-qubit-opt", "grid_points": 1}, []),
    # rejected by validation: the grid certificate would ask for 71 PiB
    "grid_points-huge": ({"experiment": "two-qubit-opt", "grid_points": 100_000_000}, []),
    # a sweep holds every state's curves at once: 10^7 states would need tens of GB
    "num_states-huge": ({"experiment": "fidelity-sweep", "num_states": 10**7}, []),
    # rng.multinomial takes the shot count as a C long
    "shots-huge": ({"experiment": "qft-toy", "num_qubits": 2, "shots": 10**30}, []),
    "sequences-duplicate-case": ({"experiment": "fidelity-sweep", "sequences": ["xx", "xx", "XX"]},
                                 []),
    "seed-override-negative": ({"experiment": "fidelity-sweep", "num_states": 1}, ["--seed", "-1"]),
    "threshold-negative": ({"experiment": "qft-toy", "num_qubits": 3, "threshold": -1.0}, []),
    "threshold-nan": ({"experiment": "qft-toy", "num_qubits": 3, "threshold": float("nan")}, []),
    "t_grid-nan": ({"experiment": "fidelity-sweep", "num_states": 1, "t_grid": [float("nan")]}, []),
    "t_grid-inf": ({"experiment": "fidelity-sweep", "num_states": 1, "t_grid": [float("inf")]}, []),
    "t_grid-huge-int": ({"experiment": "fidelity-sweep", "num_states": 1, "t_grid": [10**400]}, []),
    "quadrature-diverges": ({"experiment": "filter-noise", "omega_c": 50.0, "num_states": 1,
                             "t_grid": [500.0], "sequences": ["xx"]}, []),
    # the chi integral's floor 1e-9 / t lies above its upper limit 10 * omega_c
    "t_grid-tiny": ({"experiment": "filter-noise", "num_states": 1, "t_grid": [1e-300]}, []),
    "omega_c-tiny": ({"experiment": "filter-noise", "num_states": 1, "omega_c": 1e-300}, []),
    # JSON booleans are not numbers, though bool subclasses int
    "num_qubits-true": ({"experiment": "fidelity-sweep", "num_qubits": True, "num_states": 1,
                         "t_grid": [10.0], "sequences": ["none"]}, []),
    "seed-false": ({"experiment": "fidelity-sweep", "seed": False, "num_qubits": 2,
                    "num_states": 1, "t_grid": [10.0], "sequences": ["none"]}, []),
    "omega_c-true": ({"experiment": "filter-noise", "omega_c": True, "num_states": 1,
                      "t_grid": [10.0], "sequences": ["none"]}, []),
    "threshold-false": ({"experiment": "qft-toy", "num_qubits": 2, "shots": 100,
                         "sequences": ["none"], "threshold": False}, []),
    "t_grid-true": ({"experiment": "fidelity-sweep", "num_qubits": 2, "num_states": 1,
                     "t_grid": [True], "sequences": ["none"]}, []),
    # JSON strings are not numbers, though float() reads these two
    "t_grid-numeric-strings": ({"experiment": "fidelity-sweep", "num_qubits": 2, "num_states": 1,
                                "t_grid": [" 5 ", "10"], "sequences": ["none"]}, []),
    # a string is not a list, though each of its characters is a duration or a name
    "t_grid-digits": ({"experiment": "fidelity-sweep", "num_states": 1, "num_qubits": 2,
                       "t_grid": "25"}, []),
    "sequences-string": ({"experiment": "fidelity-sweep", "num_states": 1, "num_qubits": 2,
                          "sequences": "udd"}, []),
    # omega t overflows in the filter function, so every chi is NaN
    "chi-nan": ({"experiment": "filter-noise", "num_states": 1, "omega_c": 1e300,
                 "t_grid": [1e300]}, []),
}


@pytest.mark.parametrize("name", ["t_grid", "sequences"])
def test_list_fields_reject_strings(name):
    with pytest.raises(ConfigError, match=f"^{name} must be of type list"):
        ExperimentConfig(experiment="fidelity-sweep", **{name: "25" if name == "t_grid" else "udd"})


@pytest.mark.parametrize(("config", "extra"), INVALID_CONFIGS.values(), ids=INVALID_CONFIGS.keys())
def test_invalid_config_exits_2_without_traceback(tmp_path, capsys, config, extra):
    cfg = write_config(tmp_path, **config)
    # a warning would print its own lines to the terminal before the error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), *extra]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_huge_sequence_order_exits_2_quickly(tmp_path, capsys):
    # qdd<n> has about n^2 pulses: validating qdd4000 must not build them
    cfg = write_config(tmp_path, experiment="fidelity-sweep", sequences=["qdd4000"])
    start = time.perf_counter()
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    assert "at most 64" in capsys.readouterr().err


def test_overflowing_integrals_exit_2(tmp_path, capsys):
    # finite integrals whose matrix elements overflow: the reference build
    # fails as a bad input, without a traceback and without an overflow warning
    fci = parse_fcidump(random_fcidump(4, 4, seed=42))
    scale = 1.5e308 / max(np.abs(fci.h).max(), np.abs(fci.eri).max())
    huge = FciData(norb=fci.norb, nelec=fci.nelec, ms2=fci.ms2, h=fci.h * scale,
                   eri=fci.eri * scale, core_energy=fci.core_energy)
    assert max(np.abs(huge.h).max(), np.abs(huge.eri).max()) == pytest.approx(1.5e308)
    dump = tmp_path / "huge.fcidump"
    dump.write_text(write_fcidump(huge))
    cfg = write_config(tmp_path, experiment="sqd-recover", fcidump=str(dump))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot diagonalize integrals")
    assert "not finite" in err and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()



def test_unconverged_reference_exits_2(tmp_path, capsys, monkeypatch):
    # two Lanczos steps cannot converge on random-8's 36 determinants: the
    # reference ground state fails as a config error, like a failed build
    monkeypatch.setattr(hamiltonian, "_LANCZOS_STEPS", 2)
    cfg = write_config(tmp_path, experiment="sqd-recover", fcidump="random-8")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot diagonalize integrals 'random-8'")
    assert "did not converge in 2 steps" in err and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()

def sector_integrals(nelec: int, ms2: int) -> FciData:
    base = parse_fcidump(random_fcidump(4, 4, seed=3))
    return FciData(norb=4, nelec=nelec, ms2=ms2, h=base.h, eri=base.eri,
                   core_energy=base.core_energy)


def deep_core_integrals() -> FciData:
    # orbital 0 sits 50 Hartree down, so every batch row holds it twice and
    # its occupancy, a sum of squared amplitudes, can read one ulp above 1
    base = parse_fcidump(random_fcidump(5, 6, seed=7))
    h = base.h.copy()
    h[0, 0] -= 50.0
    return FciData(norb=5, nelec=6, ms2=0, h=h, eri=base.eri, core_energy=base.core_energy)


@pytest.mark.parametrize("fci,seed", [
    (sector_integrals(1, 1), 0),     # no beta electrons
    (sector_integrals(5, 3), 0),     # four alpha electrons in four orbitals
    (sector_integrals(0, 0), 0),     # no electrons at all
    (deep_core_integrals(), 7),
], ids=["empty-beta", "full-alpha", "nelec-0", "deep-core"])
def test_sqd_recover_edge_spaces_exit_0(tmp_path, capsys, fci, seed):
    dump = tmp_path / "edge.fcidump"
    dump.write_text(write_fcidump(fci))
    cfg = write_config(tmp_path, experiment="sqd-recover", fcidump=str(dump))
    assert main(["run", "--config", cfg, "--seed", str(seed), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "sqd_report.json").read_text())
    assert report["status"] == "ok" and len(report["pool_sizes"]) == 5


def test_space_above_dense_limit_exits_2(tmp_path, capsys):
    # 8 orbitals at half filling span 4,900 determinants, above MAX_DENSE_DIM
    dump = tmp_path / "wide.fcidump"
    dump.write_text(random_fcidump(8, 8, seed=0))
    cfg = write_config(tmp_path, experiment="sqd-recover", fcidump=str(dump))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "subspace dimension 4900 exceeds dense limit 4000" in err
    assert "Traceback" not in err


def test_space_far_above_dense_limit_exits_2_before_enumerating(tmp_path, capsys, monkeypatch):
    # 16 orbitals at half filling span 12,870^2 = 165,636,900 determinants
    # (5.3 GB of rows): the size alone rejects them, nothing is enumerated
    def refuse(*args, **kwargs):
        raise AssertionError("all_determinants must not run above the dense limit")

    monkeypatch.setattr(experiments, "all_determinants", refuse)
    dump = tmp_path / "norb16.fcidump"
    dump.write_text(write_fcidump(FciData(norb=16, nelec=16, ms2=0, h=-np.eye(16),
                                          eri=np.zeros((16,) * 4), core_energy=0.0)))
    cfg = write_config(tmp_path, experiment="sqd-recover", fcidump=str(dump))
    start = time.perf_counter()
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error:")
    assert f"subspace dimension 165636900 exceeds dense limit {MAX_DENSE_DIM}" in err
    assert not (tmp_path / "out").exists()


def test_shared_matrices_are_read_only():
    # one channel's superoperator serves every application, so no caller may write into it
    channel = combined_channel(NoiseParams(t1=250.0, t2=170.0), 10.0)
    with pytest.raises(ValueError, match="read-only"):
        channel.superop[0, 0] = 0.0


# gaps at t = 1, 2, 4: one below -GAP_TOL's magnitude, one above it, and two
# negative gaps on a quadratic envelope
GAP_CASES = {
    "one-tiny": ([0.0, -1e-11, 0.0], None, True),
    "one-negative": ([0.0, -1e-9, 0.0], 0.0, False),
    "two-negative": ([-1e-9, -4e-9, 0.0], 2.0, True),
}


@pytest.mark.parametrize(("gaps", "slope", "passed"), GAP_CASES.values(), ids=GAP_CASES.keys())
def test_gap_reports_share_one_rule(monkeypatch, gaps, slope, passed):
    grid = [1.0, 2.0, 4.0]
    report = _gap_report("gap", grid, gaps, [0.0] * 3, None, "t")
    monkeypatch.setattr(experiments, "_run_state_tasks",
                        lambda config, kinds, t_grid, jobs: {"mdd": np.array([gaps]),
                                                             "xx": np.zeros((1, 3))})
    config = ExperimentConfig(experiment="theorem-gap", num_states=1, t_grid=grid,
                              sequences=["xx"])
    _, (verdict,) = experiments._theorem_verdicts(config, 1)
    for got in (report.envelope_slope, verdict["envelope_slope"]):
        assert got == (None if slope is None else pytest.approx(slope, abs=1e-9))
    assert report.passed() is verdict["passed"] is passed
    assert report.margin == verdict["margin"] == min(gaps)


def test_theorem_verdicts_agree_with_their_rows():
    # the verdicts read the gap arrays and the rows are formatted lazily from them
    config = ExperimentConfig(experiment="theorem-gap", num_states=3, num_qubits=2,
                              t_grid=[1.0, 10.0, 100.0, 1000.0], sequences=["xx", "udd8"])
    rows, verdicts = experiments._theorem_verdicts(config, 1)
    rows = list(rows)
    assert len(rows) == 2 * 3 * 4
    # Python floats, whose repr the CSV writes
    assert all(type(v) is float for row in rows for v in (row[0], *row[3:]))
    for kind, verdict in zip(config.sequences, verdicts):
        worst = min((row for row in rows if row[1] == kind), key=lambda row: row[5])
        assert verdict["margin"] == worst[5] == worst[3] - worst[4]
        assert verdict["worst_case"] == {"t": worst[0], "state": worst[2]}


numbers = st.integers(-3, 12) | st.integers(-2**1100, 2**1100) | st.floats()
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(alphabet="abdfmqux+-.", max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
# values of the annotated type, in range or not; names are valid ones and near
# misses, since a generated "qdd<digits>" could ask for millions of pulses
typed_values = {
    "int": st.integers(-3, 12) | st.integers(-2**1100, 2**1100),
    "float": numbers,
    "str": st.sampled_from(["hubbard-dimer", "random-4", ""]),
    "list[str]": st.lists(st.sampled_from(["xx", "udd8", "qdd2", "udd3", "mdd", "none", "bogus"]),
                          max_size=3),
    "list[float]": st.lists(numbers, max_size=4),
}


@st.composite
def raw_configs(draw):
    """A config dict naming a known experiment; each other field is absent, of
    its annotated type (in range or not) or an arbitrary JSON value."""
    data = {"experiment": draw(st.sampled_from(EXPERIMENTS))}
    for f in fields(ExperimentConfig)[1:]:
        if draw(st.integers(0, 3)) == 0:
            wild = draw(st.integers(0, 4)) == 0
            data[f.name] = draw(json_values if wild else typed_values[f.type])
    return data


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=raw_configs())
def test_config_validation_raises_only_config_error(data):
    try:
        ExperimentConfig.from_dict(data)
    except ConfigError:
        pass


# smoke-sized values for every field that sets how much work a run does, so
# that no generated config runs long; each config then has one field
# overwritten by an out-of-range or mistyped value with some probability
SMOKE_SIZES = {
    "num_states": st.integers(1, 2),
    "num_qubits": st.integers(2, 3),
    "trials": st.integers(1, 50),
    "t_grid": st.lists(st.floats(0.5, 50.0), min_size=1, max_size=2).map(sorted),
    "shots": st.integers(1, 200),
    "grid_points": st.integers(2, 11),
    "sample_shots": st.integers(1, 30),
    "iterations": st.integers(1, 2),
    "num_batches": st.integers(1, 2),
    "samples_per_batch": st.integers(1, 20),
}
SMOKE_OPTIONAL = {
    "t1": st.floats(100.0, 500.0),
    "t2": st.floats(1.0, 200.0),
    "omega_c": st.sampled_from([0.05, 0.1, 1.0, 50.0]),
    "sequences": st.lists(st.sampled_from(["none", "xx", "xy4", "udd2", "qdd2", "mdd", "mdd+xx",
                                           "udd3", "qdd66", "bogus"]), max_size=3),
    "seed": st.integers(0, 3),
    "threshold": st.floats(0.0, 1.0),
    "fcidump": st.sampled_from(["hubbard-dimer", "random-4", "random-8", "missing.fcidump"]),
    "flip_rate": st.floats(0.0, 0.5),
    "delta": st.floats(1e-3, 0.1),
}
BAD_VALUES = st.sampled_from([-1, 0, True, False, None, "x", 2.5, [1.0], [2.0, 1.0], {},
                              float("nan"), float("-inf")])


@st.composite
def smoke_configs(draw):
    data = {"experiment": draw(st.sampled_from(EXPERIMENTS))}
    data.update({name: draw(values) for name, values in SMOKE_SIZES.items()})
    for name, values in SMOKE_OPTIONAL.items():
        if draw(st.booleans()):
            data[name] = draw(values)
    if draw(st.integers(0, 2)) == 0:
        data[draw(st.sampled_from(sorted(set(data) - {"experiment"})))] = draw(BAD_VALUES)
    return data


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(config=smoke_configs())
def test_cli_run_fuzz_keeps_exit_contract(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


# durations and cutoffs at the ends of the float range, where the chi quadrature
# runs empty (1e-9 / t above 10 omega_c), diverges, or meets an omega t that overflows
EXTREME_DURATIONS = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-12, 1e-3, 1.0, 500.0, 1e6, 1e150, 1e300, 1.7e308]),
    st.floats(1e-300, 1e300))
EXTREME_CUTOFFS = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-12, 1e-3, 0.1, 50.0, 1e6, 1e150, 1e300, 1.7e308]),
    st.floats(1e-300, 1e300))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(omega_c=EXTREME_CUTOFFS, sequence=st.sampled_from(["none", "xx", "udd8", "mdd"]),
       t_grid=st.lists(EXTREME_DURATIONS, min_size=1, max_size=3, unique=True).map(sorted))
def test_filter_noise_fuzz_exits_0_or_2_with_one_error_line(omega_c, sequence, t_grid):
    config = {"experiment": "filter-noise", "num_states": 1, "omega_c": omega_c,
              "t_grid": t_grid, "sequences": [sequence]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = main(["run", "--config", str(path), "--out", str(Path(tmp) / "out")])
        out_exists = (Path(tmp) / "out").exists()
    assert [str(w.message) for w in caught] == []
    text = err.getvalue()
    assert code in (0, 2), (code, text)
    assert "Traceback" not in text and "RuntimeWarning" not in text
    if code == 2:
        assert text.startswith("config error:") and len(text.splitlines()) == 1, text
        assert not out_exists


class TestVerifySuites:
    def test_lemma_suite_small(self):
        report = verify_lemma(seed=1)
        assert report["passed"] and report["violations"] == 0

    def test_decay_suite_small(self):
        report = verify_decay(seed=1)
        assert report["passed"]

    def test_bounds_suite_small(self):
        report = verify_bounds(seed=1)
        assert report["passed"] and report["violations"] == 0


class TestColoredNoiseModel:
    def test_alignment_beats_bare_evolution(self):
        spectrum = SpectralDensity("ohmic", omega_c=0.1)
        for i in range(5):
            psi = haar_random_state(2, seed=(3, i))
            f_mdd = colored_noise_fidelity(psi, "mdd", 250.0, spectrum, 200.0)
            f_none = colored_noise_fidelity(psi, "none", 250.0, spectrum, 200.0)
            assert f_mdd >= f_none - 1e-12

    def test_pulse_suppression_monotone_in_dephasing(self):
        # same damping, smaller chi: the pulsed fidelity cannot drop below the
        # free one under this composition for any state
        spectrum = SpectralDensity("one_over_f", omega_c=0.1)
        for i in range(5):
            psi = haar_random_state(2, seed=(4, i))
            f_udd = colored_noise_fidelity(psi, "udd8", 250.0, spectrum, 80.0)
            f_xx = colored_noise_fidelity(psi, "xx", 250.0, spectrum, 80.0)
            f_none = colored_noise_fidelity(psi, "none", 250.0, spectrum, 80.0)
            assert f_udd >= f_xx - 1e-12
            assert f_xx >= f_none - 1e-12
