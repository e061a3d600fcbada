"""Import cost: ``import mddsim`` loads numpy and nothing heavy. scipy's
optimize and integrate and the ``--jobs`` process pool load on first use; each
deferred name is a proxy, not the module, whose attributes resolve to the
module's own. The SQD layer uses numpy alone, so an ``sqd-recover`` run loads
no scipy module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import scipy.integrate
import scipy.optimize

import mddsim.analysis
from mddsim import noise

ROOT = Path(__file__).resolve().parents[1]

# loaded by the first chi_integral and optimize_two_qubit_mdd call (scipy.optimize
# brings scipy.linalg), and by the first --jobs pool; fractions is not needed for
# exact comparisons
DEFERRED = ("scipy", "scipy.special", "scipy.optimize._minimize", "scipy.linalg._decomp",
            "multiprocessing", "concurrent.futures.process", "fractions")

# runs the configs given as JSON in argv[1], then prints whether each loaded module is a package
COLD_RUN = """
import contextlib, io, json, sys, tempfile
from pathlib import Path
import mddsim.cli
with tempfile.TemporaryDirectory() as tmp:
    for config in json.loads(sys.argv[1]):
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()):
            code = mddsim.cli.main(["run", "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert code == 0, (config, code)
print(json.dumps({name: hasattr(module, "__path__") for name, module in list(sys.modules.items())}))
"""


def _cold_modules(configs: list[dict], cwd: Path) -> dict[str, bool]:
    """Each module a fresh interpreter holds after running ``configs``, and whether
    it is a package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", COLD_RUN, json.dumps(configs)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_sweep_and_qft_runs_leave_deferred_submodules_unloaded(tmp_path):
    loaded = _cold_modules([{"experiment": "fidelity-sweep", "num_states": 2, "num_qubits": 2,
                             "t_grid": [10.0, 20.0]},
                            {"experiment": "qft-toy", "num_qubits": 2, "sequences": ["none", "mdd"]}],
                           tmp_path)
    assert [name for name in DEFERRED if name in loaded] == []


def test_sqd_run_loads_no_scipy_module(tmp_path):
    # the sqd-large set-up pays for every scipy module an sqd-recover run loads
    loaded = _cold_modules([{"experiment": "sqd-recover", "fcidump": "random-8"}], tmp_path)
    assert sorted(name for name in loaded if name.partition(".")[0] == "scipy") == []


def test_analysis_optimize_is_scipys_for_the_tracer():
    # perfbench's tracer reads analysis.optimize.minimize and swaps the attribute
    assert "optimize" in vars(mddsim.analysis)
    assert mddsim.analysis.optimize.minimize is scipy.optimize.minimize


def test_deferred_names_resolve_to_scipy():
    assert noise.integrate.quad is scipy.integrate.quad
