"""mddsim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` of the checkout
this file sits in. Closed loop, one client, one process: each operation is
one ``mddsim.cli.main([...])`` call and the next starts when it returns.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics from a
traced pass that follows the untraced window. Details (environment, every
operation's timings, gate findings) go to ``perfbench/out/results/``.
See perfbench/README.md.
"""

import os
import sys

# Pin BLAS threads before numpy is imported anywhere in this process.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path(HERE.name) / "out"          # relative to ROOT, the working directory
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


# ------------------------------------------------------------------ helpers

def percentile_summary(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with at least ten
    samples beyond it (omitted when the run has too few samples)."""
    out = {"median": statistics.median(values), "n": len(values)}
    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
            out[f"p{p:g}"] = cut
            break
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    import mddsim

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "mddsim": mddsim.__version__,
            "commit": git_commit(), "seed": seed, "blas_threads": THREADS}


def call(op, sampler=None) -> tuple[float, int | None, str | None]:
    """One CLI call with stdout/stderr captured: (seconds, exit code, error).
    With a ``speed.Sampler`` the host speed is sampled during the call."""
    import mddsim.cli

    shutil.rmtree(op.out, ignore_errors=True)
    gc.collect()
    sink = io.StringIO()
    error = code = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if sampler is not None:
            sampler.start()
        start = time.perf_counter()
        try:
            code = mddsim.cli.main(list(op.argv))
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc()
        finally:
            if sampler is not None:
                sampler.stop()
        elapsed = time.perf_counter() - start
    return elapsed, code, error


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-up times (import, input generation, warm-up op),
    scaled to the reference host speed measured just before and just after
    each probe, and as measured."""
    import speed

    times, raw = [], []
    for k in range(SETUP_PROBES):
        root = OUT / "probe" / f"{workload}-seed{seed}-{k}"
        shutil.rmtree(root, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
               "--seed", str(seed), "--root", str(root)]
        before = speed.slowdown_now()
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=PROBE_TIMEOUT_S)
        raw.append(time.perf_counter() - start)
        times.append(raw[-1] / ((before + speed.slowdown_now()) / 2))
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.decode()[-2000:]}")
        shutil.rmtree(root, ignore_errors=True)
    return times, raw


# ------------------------------------------------------------------ the run

class Run:
    """Executes a workload's operations and keeps every execution's record."""

    def __init__(self, workload, seed: int, smoke: bool):
        import gate
        import speed

        self.gate = gate
        self.sampler = speed.Sampler()
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        # per op: scaled (reference host speed) and raw seconds, host slowdown
        self.times: dict[str, list[float]] = {op.key: [] for op in workload.ops}
        self.raw_times: dict[str, list[float]] = {op.key: [] for op in workload.ops}
        self.slowdowns: dict[str, list[float]] = {op.key: [] for op in workload.ops}
        self.executions: dict[str, int] = {op.key: 0 for op in workload.ops}
        self.failed: dict[str, int] = {op.key: 0 for op in workload.ops}
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []
        self.extra_attempted = 0
        self.extra_failed = 0

    def execute(self, op) -> float | None:
        elapsed, code, error = call(op, self.sampler)
        self.executions[op.key] += 1
        files = self.gate.read_artifacts(op.out)
        found = []
        if error is not None:
            found.append(f"{op.key} raised:\n{error}")
        elif code != op.expected_exit:
            found.append(f"{op.key}: exit {code}, reference exit {op.expected_exit}")
        digest = self.gate.digest(files)
        if self.digests.setdefault(op.key, digest) != digest:
            found.append(f"{op.key}: artifacts differ from the first execution's")
        if found:
            self.failed[op.key] += 1
            self.problems += found
            return None
        scaled = self.sampler.scaled(elapsed)
        self.times[op.key].append(scaled)
        self.raw_times[op.key].append(elapsed)
        self.slowdowns[op.key].append(self.sampler.slowdown())
        return scaled

    def window(self, seconds: float) -> None:
        """Closed loop over the pass until ``seconds`` have elapsed and every
        operation has run at least once."""
        ops = self.workload.ops
        begin = time.perf_counter()
        i = 0
        while i < len(ops) or time.perf_counter() - begin < seconds:
            self.execute(ops[i % len(ops)])
            i += 1

    def jobs_check(self) -> str | None:
        """Run the jobs-check op with --jobs 2; returns its artifact digest."""
        op = self.workload.jobs_check
        if op is None:
            return None
        parallel = op.with_jobs(2, op.out.parent / f"{op.key}-jobs2")
        self.extra_attempted += 1
        _, code, error = call(parallel)
        if error is not None or code != op.expected_exit:
            self.extra_failed += 1
            self.problems.append(f"{parallel.key}: exit {code} {error or ''}")
            return None
        return self.gate.digest(self.gate.read_artifacts(parallel.out))

    def check(self, jobs2_digest: str | None) -> None:
        """Correctness gate on the final artifacts of every operation."""
        reference = None
        if self.seed == self.gate.REFERENCE_SEED and not self.smoke:
            reference = self.gate.load_reference(self.workload.name)
            if reference is None:
                self.problems.append("no committed reference values for this workload")
        for op in self.workload.ops:
            if self.executions[op.key] == self.failed[op.key]:
                continue
            files = self.gate.read_artifacts(op.out)
            found = self.gate.check_any_seed(op, files, self.seed)
            if reference is not None:
                want = reference["ops"].get(op.key)
                if want is None or want["exit"] != op.expected_exit:
                    found.append(f"{op.key}: reference exit code differs or is missing")
                else:
                    found += self.gate.compare_reference(op, files, want["files"])
            if found:
                self.problems += found
                self.failed[op.key] = self.executions[op.key]
                self.times[op.key] = []
                self.raw_times[op.key] = []
        op = self.workload.jobs_check
        if op is not None and jobs2_digest is not None:
            if jobs2_digest != self.digests.get(op.key):
                self.extra_failed += 1
                self.problems.append(f"{op.key}: --jobs 2 artifacts differ from --jobs 1")

    # ---------------------------------------------------------- summaries
    @property
    def attempted(self) -> int:
        return sum(self.executions.values()) + self.extra_attempted

    @property
    def failures(self) -> int:
        return sum(self.failed.values()) + self.extra_failed

    def op_medians(self, raw: bool = False) -> dict[str, float]:
        times = self.raw_times if raw else self.times
        return {key: statistics.median(v) for key, v in times.items() if v}

    def pass_seconds(self, raw: bool = False) -> float | None:
        """Sum over the pass of each op's median time: scaled to the
        reference host speed, or as measured with ``raw``."""
        medians = self.op_medians(raw)
        if len(medians) != len(self.workload.ops):
            return None
        return sum(medians.values())

    def slowdown(self) -> float:
        """Median host slowdown over every timed execution."""
        values = [x for v in self.slowdowns.values() for x in v]
        return statistics.median(values) if values else 0.0

    def experiment_seconds(self) -> dict[str, float]:
        import workloads

        medians = self.op_medians()
        out = {metric: 0.0 for metric in workloads.EXPERIMENT_METRICS}
        for op in self.workload.ops:
            out[op.metric] += medians.get(op.key, 0.0)
        return out


def traced_pass(run: Run) -> tuple[float, object]:
    """One traced pass, timed at the reference host speed like the window;
    artifacts must equal the untraced ones."""
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    total = 0.0
    try:
        for index, op in enumerate(run.workload.ops):
            tracer.op_id = index
            elapsed, code, error = call(op, run.sampler)
            total += run.sampler.scaled(elapsed)
            run.extra_attempted += 1
            files = run.gate.read_artifacts(op.out)
            if error is not None or code != op.expected_exit:
                run.extra_failed += 1
                run.problems.append(f"traced {op.key}: exit {code} {error or ''}")
            elif run.gate.digest(files) != run.digests.get(op.key):
                run.extra_failed += 1
                run.problems.append(f"traced {op.key}: artifacts differ from untraced ones")
    finally:
        tracer.uninstall()
    return total, tracer


def layer_metrics(tracer, traced_s: float, run: Run) -> dict[str, float]:
    import tracer as tracing

    totals = tracer.totals()
    counts = tracer.counts
    values = {}
    for span, field in tracing.SPAN_METRICS:
        values[f"{span}.{field}"] = float(totals.get(span, {}).get(field, 0))
    for key in tracing.COUNT_METRICS:
        values[key] = float(counts.get(key, 0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values["noise.evals_per_chi"] = ratio(values["noise.filter_function.calls"],
                                          values["noise.chi_integral.calls"])
    values["circuits.resim_ratio"] = ratio(counts.get("circuits.prefix_slices", 0),
                                           counts.get("circuits.dressed_slices", 0))
    values["sqd.unique_ratio"] = ratio(counts.get("sqd.batch_dims", 0),
                                       counts.get("sqd.batch_samples", 0))
    untraced = run.pass_seconds()
    values["trace.overhead_frac"] = ratio(traced_s - untraced, untraced) if untraced else 0.0
    values["wall_raw_s"] = run.pass_seconds(raw=True) or 0.0
    values["host.slowdown"] = run.slowdown()
    values.update(run.experiment_seconds())
    return values


def execute(workload_name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """The whole run; returns the result line plus the detailed report."""
    import workloads

    t_import = time.perf_counter()
    import mddsim.cli  # noqa: F401

    import_s = time.perf_counter() - t_import
    setup, setup_raw = ([], []) if (trace or smoke) else setup_seconds(workload_name, seed)

    root = OUT / "work" / f"{workload_name}-seed{seed}{'-smoke' if smoke else ''}"
    shutil.rmtree(root, ignore_errors=True)
    workload = workloads.build(workload_name, seed, root, smoke=smoke)
    warmup = workloads.build(workload_name, seed, root / "warmup", smoke=True).ops[0]
    call(warmup)

    run = Run(workload, seed, smoke)
    jobs2 = run.jobs_check()
    run.window(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = None
    if trace:
        traced_s, tracer = traced_pass(run)
    run.check(jobs2)

    wall = run.pass_seconds()
    if trace:
        import tracer as tracing

        units = tracing.units()
        values = layer_metrics(tracer, traced_s, run)
        metrics = {key: values[key] for key in units}
    else:
        metrics = {"wall_s": wall if wall is not None else 0.0,
                   "setup_s": statistics.median(setup) if setup else 0.0,
                   "peak_rss_mb": peak_rss_mb}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    correct = run.failures == 0 and wall is not None
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failures,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    report = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "environment": environment(seed), "import_s": import_s,
        "setup_s_samples": setup, "setup_s_raw_samples": setup_raw,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": run.failures / max(run.attempted, 1),
        "wall_raw_s": run.pass_seconds(raw=True), "host_slowdown": run.slowdown(),
        "ops": {op.key: {"argv": list(op.argv), "expected_exit": op.expected_exit,
                         "executions": run.executions[op.key],
                         "failed": run.failed[op.key],
                         **(percentile_summary(run.times[op.key]) if run.times[op.key] else {}),
                         **({"raw": percentile_summary(run.raw_times[op.key]),
                             "slowdowns": run.slowdowns[op.key]}
                            if run.raw_times[op.key] else {})}
                for op in workload.ops},
        "experiment_seconds": run.experiment_seconds(),
        "problems": run.problems, "result": result,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if tracer is not None:
        tracer.save(results / f"{stem}-spans.npz")
    shutil.rmtree(root, ignore_errors=True)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mddsim" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose one of {', '.join(workloads.WORKLOADS)}")
    report = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in dict.fromkeys(report["problems"]):
        print(f"gate: {problem}")
    for key, stats in report["ops"].items():
        if "median" in stats:
            print(f"op {key}: median {stats['median']:.4f} s over {stats['n']}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
