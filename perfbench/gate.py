"""Correctness gate: untimed checks on every operation's artifacts.

At any seed:
  * the exit code equals the operation's reference exit code;
  * repeated executions of one operation write byte-identical artifacts;
  * verifier reports say ``passed``;
  * a few fidelity-sweep and theorem-gap points match the independent dense
    oracle in :mod:`oracle` within 1e-12;
  * every sqd batch energy is no lower than the report's reference energy
    minus 1e-10 (the subspace energy is variational).

At the reference seed, full-size artifacts are also compared with the values
committed under ``reference/``: exit codes, strings and ``passed`` flags
exactly, deterministic floats within 1e-12 absolute, and sampled outputs
within the shot tolerances stated in :func:`compare_reference`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import oracle

REFERENCE_SEED = 0
FLOAT_TOL = 1e-12
ORACLE_TOL = 1e-12
VARIATIONAL_TOL = 1e-10
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# config defaults the checks need, as documented by the program
DEFAULTS = {"t1": 250.0, "t2": 170.0, "num_states": 20, "num_qubits": 4, "shots": 10_000}
# artifacts each experiment writes
ARTIFACTS = {
    "fidelity-sweep": ["fidelity_sweep.csv"],
    "theorem-gap": ["theorem_gap.csv", "theorem_report.json"],
    "lemma-check": ["lemma_report.json"],
    "filter-noise": ["chi_curves.csv", "filter_fidelity.csv"],
    "two-qubit-opt": ["two_qubit_opt.json"],
    "qft-toy": ["qft_success.csv"],
    "sqd-recover": ["sqd_recovery.csv", "sqd_report.json"],
    **{f"verify-{suite}": [f"verify_{suite}.json"]
       for suite in ("lemma", "theorem", "decay", "bounds")},
}
# sequences cheap enough for the dense oracle above this many qubits
ORACLE_CHEAP = ("none", "xx", "xy4", "mdd")
ORACLE_CHEAP_ABOVE = 5


def read_artifacts(out: Path) -> dict[str, bytes]:
    if not out.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


def _cell(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def parse(name: str, data: bytes):
    """CSV -> {"header", "rows"} with typed cells; JSON -> its object."""
    text = data.decode()
    if name.endswith(".json"):
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text)))
    return {"header": rows[0], "rows": [[_cell(c) for c in row] for row in rows[1:]]}


def _config(op, key):
    return (op.config or {}).get(key, DEFAULTS[key])


def _pick(rows, count, seed, salt, num_qubits, seq_col=1):
    eligible = [r for r in rows
                if num_qubits <= ORACLE_CHEAP_ABOVE or r[seq_col] in ORACLE_CHEAP]
    if not eligible:
        return []
    rng = np.random.default_rng([seed, salt])
    idx = rng.choice(len(eligible), size=min(count, len(eligible)), replace=False)
    return [eligible[i] for i in sorted(idx)]


def _oracle_fidelity_sweep(op, table, seed) -> list[str]:
    n, states = _config(op, "num_qubits"), _config(op, "num_states")
    t1, t2 = _config(op, "t1"), _config(op, "t2")
    problems = []
    psis = [oracle.haar_state(n, seed, i) for i in range(states)]
    for t, kind, mean_f, min_f, max_f in _pick(table["rows"], 2, seed, 1, n):
        vals = np.array([oracle.dd_fidelity(psi, kind, t, t1, t2) for psi in psis])
        for label, got, want in (("mean", mean_f, vals.mean()), ("min", min_f, vals.min()),
                                 ("max", max_f, vals.max())):
            if not abs(got - want) <= ORACLE_TOL:
                problems.append(f"fidelity_sweep.csv {kind} t={t} {label}_F {got!r} "
                                f"differs from oracle {want!r}")
    return problems


def _oracle_theorem_gap(op, table, seed) -> list[str]:
    n, t1, t2 = _config(op, "num_qubits"), _config(op, "t1"), _config(op, "t2")
    problems = []
    for t, kind, state, mdd_f, seq_f, gap in _pick(table["rows"], 2, seed, 2, n):
        psi = oracle.haar_state(n, seed, state)
        want_mdd = oracle.dd_fidelity(psi, "mdd", t, t1, t2)
        want_seq = oracle.dd_fidelity(psi, kind, t, t1, t2)
        for label, got, want in (("mdd_F", mdd_f, want_mdd), ("seq_F", seq_f, want_seq),
                                 ("gap", gap, want_mdd - want_seq)):
            if not abs(got - want) <= ORACLE_TOL:
                problems.append(f"theorem_gap.csv {kind} t={t} state={state} {label} "
                                f"{got!r} differs from oracle {want!r}")
    return problems


def _variational(report) -> list[str]:
    floor = report["reference_energy"] - VARIATIONAL_TOL
    low = [e for batch in report["energies"] for e in batch if e < floor]
    if low:
        return [f"sqd batch energy {min(low)!r} below reference "
                f"{report['reference_energy']!r} - 1e-10"]
    return []


def check_any_seed(op, files: dict[str, bytes], seed: int) -> list[str]:
    """Checks that hold at every seed, on one operation's artifacts."""
    if sorted(files) != ARTIFACTS[op.kind]:
        return [f"{op.key}: artifacts {sorted(files)}, expected {ARTIFACTS[op.kind]}"]
    parsed = {name: parse(name, data) for name, data in files.items()}
    problems = []
    if op.kind.startswith("verify-"):
        reports = [v for v in parsed.values() if isinstance(v, dict)]
        if not reports or not all(r.get("passed") is True for r in reports):
            problems.append(f"{op.key}: verifier report missing or not passed")
    if "fidelity_sweep.csv" in parsed:
        problems += _oracle_fidelity_sweep(op, parsed["fidelity_sweep.csv"], seed)
    if "theorem_gap.csv" in parsed:
        problems += _oracle_theorem_gap(op, parsed["theorem_gap.csv"], seed)
    if "sqd_report.json" in parsed:
        problems += _variational(parsed["sqd_report.json"])
    return problems


# ---------------------------------------------------------------- reference

def _compare(path: str, got, want, problems: list[str]) -> None:
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if not abs(got - want) <= FLOAT_TOL:
            problems.append(f"{path}: {got!r} != reference {want!r} (tol {FLOAT_TOL})")
    elif isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            problems.append(f"{path}: keys {sorted(got)} != reference {sorted(want)}")
            return
        for key in want:
            _compare(f"{path}.{key}", got[key], want[key], problems)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            problems.append(f"{path}: length {len(got)} != reference {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(f"{path}[{i}]", g, w, problems)
    elif got != want or type(got) is not type(want):
        problems.append(f"{path}: {got!r} != reference {want!r}")


def _shot_tol_percent(p_percent: float, shots: int) -> float:
    """Four binomial standard errors of a success percentage, at least one shot."""
    p = p_percent / 100.0
    return 100.0 * max(4.0 * math.sqrt(p * (1.0 - p) / shots), 1.0 / shots)


def _compare_qft(op, got, want, problems) -> None:
    shots = _config(op, "shots")
    col = want["header"].index("p_success")
    strip = lambda table: [[c for i, c in enumerate(r) if i != col] for r in table["rows"]]
    _compare("qft_success.csv", {"header": got["header"], "rows": strip(got)},
             {"header": want["header"], "rows": strip(want)}, problems)
    if len(got["rows"]) == len(want["rows"]):
        for g, w in zip(got["rows"], want["rows"]):
            tol = _shot_tol_percent(w[col], shots)
            if not abs(g[col] - w[col]) <= tol:
                problems.append(f"qft_success.csv seed={w[0]} {w[1]}: p_success {g[col]!r} "
                                f"!= reference {w[col]!r} (shot tol {tol:.3f})")


def _compare_sqd_report(got, want, problems) -> None:
    """Sampled recovery output: per-iteration mean batch energy within four
    standard errors of the reference batch mean; shapes exact."""
    _compare("sqd_report.json", {k: got.get(k) for k in ("reference_energy", "status")},
             {k: want[k] for k in ("reference_energy", "status")}, problems)
    g_e, w_e = got.get("energies", []), want["energies"]
    if [len(b) for b in g_e] != [len(b) for b in w_e]:
        problems.append("sqd_report.json: batch energy shape differs from reference")
        return
    for it, (g, w) in enumerate(zip(g_e, w_e)):
        tol = 4.0 * float(np.std(w)) / math.sqrt(len(w)) + 1e-9
        if not abs(np.mean(g) - np.mean(w)) <= tol:
            problems.append(f"sqd_report.json iteration {it}: mean energy {np.mean(g)!r} "
                            f"!= reference {np.mean(w)!r} (shot tol {tol:.3e})")


def compare_reference(op, files: dict[str, bytes], want: dict) -> list[str]:
    problems: list[str] = []
    got = {name: parse(name, data) for name, data in files.items()}
    if sorted(got) != sorted(want):
        return [f"{op.key}: artifacts {sorted(got)} != reference {sorted(want)}"]
    for name in want:
        if name == "qft_success.csv":
            _compare_qft(op, got[name], want[name], problems)
        elif name == "sqd_report.json":
            _compare_sqd_report(got[name], want[name], problems)
        elif name == "sqd_recovery.csv":
            # sampled energies are checked through sqd_report.json
            keep = lambda t: [r[:2] for r in t["rows"]]
            _compare(name, keep(got[name]), keep(want[name]), problems)
        else:
            _compare(f"{op.key}/{name}", got[name], want[name], problems)
    return problems


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict | None:
    path = reference_path(workload)
    return json.loads(path.read_text()) if path.exists() else None
