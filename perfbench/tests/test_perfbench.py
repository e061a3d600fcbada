"""The benchmark's own tests: input determinism, tracer coverage, the
correctness gate, and a reduced-size smoke run of every workload.

    python3 -m pytest perfbench/tests -q
"""

import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402  (pins BLAS threads first)
import gate  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)


def _inputs(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((root / "inputs").iterdir())}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_input_bytes(name, tmp_path):
    first = workloads.build(name, 5, tmp_path)
    files = _inputs(tmp_path)
    again = workloads.build(name, 5, tmp_path)
    assert _inputs(tmp_path) == files
    assert again == first


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_other_inputs(name, tmp_path):
    a = workloads.build(name, 5, tmp_path / "w")
    files = _inputs(tmp_path / "w")
    b = workloads.build(name, 6, tmp_path / "w")
    assert [op.argv for op in a.ops] != [op.argv for op in b.ops]
    if name == "sqd-large":
        assert _inputs(tmp_path / "w")["sqd-large.fcidump"] != files["sqd-large.fcidump"]


def _originals():
    import mddsim.cli  # noqa: F401

    found = {id(getattr(sys.modules[m], a)): f"{m}.{a}" for m, a, _ in tracing.TRACED}
    for m, a, _ in tracing.DISPATCH:
        for key, fn in getattr(sys.modules[m], a).items():
            found[id(fn)] = f"{m}.{a}[{key}]"
    return found


def _unwrapped(originals):
    left = []
    for modname, module in list(sys.modules.items()):
        if modname != "mddsim" and not modname.startswith("mddsim."):
            continue
        for attr, value in vars(module).items():
            if id(value) in originals:
                left.append(f"{modname}.{attr}")
            elif isinstance(value, dict) and not attr.startswith("__"):
                left += [f"{modname}.{attr}[{k}]" for k, v in value.items() if id(v) in originals]
    return left


def test_tracer_leaves_no_original_reachable():
    import mddsim.analysis
    import mddsim.states

    originals = _originals()
    init = mddsim.states.DensityMatrix.__init__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _unwrapped(originals) == []
        assert mddsim.states.DensityMatrix.__init__ is not init
        assert mddsim.analysis.optimize.minimize.__wrapped_by_perfbench__
    finally:
        tracer.uninstall()
    assert mddsim.states.DensityMatrix.__init__ is init
    assert len(_unwrapped(originals)) > len(tracing.TRACED)


def _smoke_spectator(tmp_path):
    wl = workloads.build("spectator-sweep", 4, tmp_path, smoke=True)
    r = run.Run(wl, 4, smoke=True)
    for op in wl.ops:
        assert r.execute(op) is not None
    return wl, r


def test_gate_rejects_perturbed_artifact(tmp_path, at_root):
    wl, _ = _smoke_spectator(tmp_path)
    op = wl.ops[1]
    files = gate.read_artifacts(op.out)
    assert gate.check_any_seed(op, files, 4) == []
    text = files["theorem_gap.csv"].decode().splitlines()
    for i, line in enumerate(text[1:], start=1):
        cells = line.split(",")
        cells[3] = repr(float(cells[3]) + 1e-9)
        text[i] = ",".join(cells)
    perturbed = dict(files, **{"theorem_gap.csv": ("\n".join(text) + "\n").encode()})
    assert gate.check_any_seed(op, perturbed, 4)
    missing = {k: v for k, v in files.items() if k != "theorem_report.json"}
    assert gate.check_any_seed(op, missing, 4)
    want = {name: gate.parse(name, data) for name, data in files.items()}
    assert gate.compare_reference(op, files, want) == []
    assert gate.compare_reference(op, perturbed, want)


def test_gate_rejects_op_that_raises(tmp_path, at_root):
    wl = workloads.build("spectator-sweep", 4, tmp_path, smoke=True)
    bad = workloads._run_op("too-big", {"experiment": "fidelity-sweep", "num_qubits": 20},
                            4, tmp_path)
    r = run.Run(workloads.Workload(wl.name, 4, True, (bad,)), 4, smoke=True)
    assert r.execute(bad) is None
    assert r.failures == 1 and r.problems


def test_gate_rejects_low_sqd_energy():
    report = {"reference_energy": -1.0, "energies": [[-0.9, -1.0 - 1e-6]]}
    assert gate._variational(report)
    assert not gate._variational({"reference_energy": -1.0, "energies": [[-0.9, -1.0]]})


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run(name, at_root):
    report = run.execute(name, seed=3, seconds=0.2, trace=False, smoke=True)
    result = report["result"]
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= len(report["ops"])
    assert set(result["metrics"]) == {"wall_s", "peak_rss_mb", "setup_s"}


def test_traced_counts_repeat_exactly(at_root):
    first = run.execute("qft-dd", seed=2, seconds=0.1, trace=True, smoke=True)
    second = run.execute("qft-dd", seed=2, seconds=0.1, trace=True, smoke=True)
    assert first["result"]["correct"] and second["result"]["correct"]
    counts = lambda r: {k: m["value"] for k, m in r["result"]["metrics"].items()
                        if m["unit"] == "count"}
    assert counts(first) == counts(second)
    assert counts(first)["circuits.prefix_slices"] > 0
    assert set(first["result"]["metrics"]) == set(tracing.units())


def test_shot_tolerances(tmp_path):
    op = workloads._qft_dd(0, tmp_path, smoke=False)[0]
    want = {"header": ["seed", "strategy", "p_success"], "rows": [[0, "none", 66.5]]}
    near = {"header": want["header"], "rows": [[0, "none", 67.5]]}
    far = {"header": want["header"], "rows": [[0, "none", 69.0]]}
    problems = []
    gate._compare_qft(op, near, want, problems)
    assert problems == []
    gate._compare_qft(op, far, want, problems)
    assert problems
    ref = {"reference_energy": -2.0, "status": "ok", "energies": [[-1.0, -1.2, -1.1]]}
    shifted = dict(ref, energies=[[-1.0, -1.2, -1.3]])
    problems = []
    gate._compare_sqd_report(ref, ref, problems)
    assert problems == []
    gate._compare_sqd_report(dict(ref, energies=[[-1.5, -1.5, -1.5]]), ref, problems)
    assert problems
    problems = []
    gate._compare_sqd_report(shifted, ref, problems)
    assert problems == []


def test_sampler_subtracts_its_time_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    sampler.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.2:
        pass
    sampler.stop()
    elapsed = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.samples) >= 3 and 0 < sampler.spent < elapsed
    assert sampler.scaled(elapsed) == pytest.approx(
        (elapsed - sampler.spent) * speed.REFERENCE_S / statistics.median(sampler.samples))
