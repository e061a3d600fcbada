"""Spans and counters around mddsim's module entry points, installed from
outside the program.

``Tracer.install`` replaces every ``mddsim.*`` module attribute (and every value
of a module-level dict such as the experiment dispatch table) that is one of
the traced function objects with a wrapper, and wraps
``DensityMatrix.__init__`` and ``ExperimentConfig.from_file`` on their
classes. A wrapper records a span (name, start, end, parent span, op id) in
memory and, for some entry points, a count computed from the call's
arguments or result. ``Tracer.uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

import numpy as np

# (module, attribute, span name); the span name's first component is the layer
TRACED = (
    ("mddsim.states", "apply_matrix", "states.apply_matrix"),
    ("mddsim.states", "entanglement_fidelity", "states.entanglement_fidelity"),
    ("mddsim.states", "reduced_density", "states.reduced_density"),
    ("mddsim.noise", "_apply_local_raw", "noise.local_channel"),
    ("mddsim.noise", "combined_channel", "noise.combined_channel"),
    ("mddsim.noise", "chi_integral", "noise.chi_integral"),
    ("mddsim.noise", "filter_function", "noise.filter_function"),
    ("mddsim.sequences", "build_schedule", "sequences.build_schedule"),
    ("mddsim.sequences", "evolve_with_schedule", "sequences.evolve_with_schedule"),
    ("mddsim.sequences", "measure_expectations", "sequences.measure_expectations"),
    ("mddsim.analysis", "dd_entanglement_fidelity", "analysis.dd_entanglement_fidelity"),
    ("mddsim.analysis", "lemma_check", "analysis.lemma_check"),
    ("mddsim.analysis", "_haar_batch", "analysis.haar_batch"),
    ("mddsim.analysis", "decay_rate", "analysis.decay_rate"),
    ("mddsim.analysis", "local_entanglement_fidelity", "analysis.local_entanglement_fidelity"),
    ("mddsim.analysis", "optimize_two_qubit_mdd", "analysis.optimize_two_qubit_mdd"),
    ("mddsim.analysis", "grid_minimum_two_qubit", "analysis.grid_minimum_two_qubit"),
    ("mddsim.analysis", "mixed_state_bounds", "analysis.mixed_state_bounds"),
    ("mddsim.circuits", "identify_idle", "circuits.identify_idle"),
    ("mddsim.circuits", "insert_dd", "circuits.insert_dd"),
    ("mddsim.circuits", "_simulate_raw", "circuits.simulate_raw"),
    ("mddsim.circuits", "sample_counts", "circuits.sample_counts"),
    ("mddsim.sqd.fcidump", "parse_fcidump", "sqd.parse_fcidump"),
    ("mddsim.sqd.hamiltonian", "project_and_diagonalize", "sqd.project_and_diagonalize"),
    ("mddsim.sqd.recovery", "recover_configuration", "sqd.recover_configuration"),
    ("mddsim.sqd.recovery", "noisy_sampler", "sqd.noisy_sampler"),
    ("mddsim.sqd.recovery", "self_consistent_recovery", "sqd.self_consistent_recovery"),
    ("mddsim.experiments", "_write", "experiments.write"),
    ("mddsim.cli", "main", "cli.main"),
)
# experiment and verifier entry points, reached through dispatch dicts
DISPATCH = (("mddsim.experiments", "_RUNNERS", "experiments.run"),
            ("mddsim.experiments", "VERIFY_SUITES", "experiments.verify"))

# per-layer metrics: span fields, counters, and derived ratios
SPAN_METRICS = tuple((span, field) for span, fields in (
    ("states.apply_matrix", ("calls", "self_s")),
    ("states.DensityMatrix", ("calls", "self_s")),
    ("states.entanglement_fidelity", ("self_s",)),
    ("states.reduced_density", ("calls", "self_s")),
    ("noise.local_channel", ("calls", "self_s")),
    ("noise.combined_channel", ("calls",)),
    ("noise.chi_integral", ("calls", "self_s")),
    ("noise.filter_function", ("calls",)),
    ("sequences.build_schedule", ("calls",)),
    ("sequences.evolve_with_schedule", ("calls", "total_s", "self_s")),
    ("sequences.measure_expectations", ("calls", "self_s")),
    ("analysis.dd_entanglement_fidelity", ("calls", "total_s")),
    ("analysis.lemma_check", ("calls", "self_s")),
    ("analysis.decay_rate", ("calls", "self_s")),
    ("analysis.local_entanglement_fidelity", ("calls", "self_s")),
    ("analysis.optimize_two_qubit_mdd", ("calls", "self_s")),
    ("analysis.grid_minimum_two_qubit", ("self_s",)),
    ("analysis.mixed_state_bounds", ("self_s",)),
    ("circuits.insert_dd", ("calls", "total_s", "self_s")),
    ("circuits.simulate_raw", ("calls", "self_s")),
    ("circuits.sample_counts", ("self_s",)),
    ("sqd.parse_fcidump", ("self_s",)),
    ("sqd.project_and_diagonalize", ("calls", "self_s")),
    ("sqd.recover_configuration", ("calls", "self_s")),
    ("sqd.noisy_sampler", ("self_s",)),
    ("sqd.self_consistent_recovery", ("total_s",)),
    ("cli.main", ("calls", "self_s")),
    ("experiments.config", ("self_s",)),
    ("experiments.write", ("calls", "self_s")),
) for field in fields)
COUNT_METRICS = ("states.apply_matrix.elems", "noise.local_channel.elems", "sequences.pulses",
                 "analysis.haar_unitaries", "analysis.slsqp.runs", "analysis.slsqp.iterations",
                 "circuits.prefix_slices", "circuits.pulses_inserted", "circuits.idle_intervals",
                 "sqd.subspace_dim", "sqd.h_elements", "experiments.write.bytes")
RATIO_METRICS = ("noise.evals_per_chi", "circuits.resim_ratio", "sqd.unique_ratio",
                 "trace.overhead_frac")


def units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    from workloads import EXPERIMENT_METRICS

    out = {f"{span}.{field}": "count" if field == "calls" else "s"
           for span, field in SPAN_METRICS}
    out.update({key: "count" for key in COUNT_METRICS})
    out.update({key: "ratio" for key in RATIO_METRICS})
    out.update({key: "s" for key in EXPERIMENT_METRICS})
    # the untraced window's pass time as measured, and the host slowdown
    # that scaled it to the reference speed (see speed.py)
    out.update({"wall_raw_s": "s", "host.slowdown": "ratio"})
    return out


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """In-memory span store plus counters, filled by the installed wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._stack_names: list[str] = []
        self._originals: list[tuple[object, str, object]] = []
        self._batch_size = 0

    # ------------------------------------------------------------ recording
    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name: str, fn, after=None, before=None):
        """Wrap ``fn`` so each call records a span named ``name``; ``before``
        and ``after`` hooks see the arguments (and result) for counting."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self._stack_names.append(name)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
                self._stack_names.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def active(self, name: str) -> bool:
        return name in self._stack_names

    # --------------------------------------------------------- installation
    def install(self) -> None:
        import mddsim.cli  # noqa: F401  (loads every traced module)
        import mddsim.circuits as circuits
        import mddsim.experiments as experiments
        import mddsim.states as states

        wrappers: dict[int, object] = {}
        for module, attr, name in TRACED:
            original = getattr(sys.modules[module], attr)
            wrappers[id(original)] = self.span(name, original, self._after(name),
                                               self._before(name))
        for module, attr, name in DISPATCH:
            for key, original in getattr(sys.modules[module], attr).items():
                wrappers[id(original)] = self.span(f"{name}.{key}", original)
        for modname, module in list(sys.modules.items()):
            if modname != "mddsim" and not modname.startswith("mddsim."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._replace(module, attr, wrappers[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._replace(value, key, wrappers[id(item)])

        self._replace(states.DensityMatrix, "__init__",
                      self.span("states.DensityMatrix", states.DensityMatrix.__init__))
        from_file = experiments.ExperimentConfig.__dict__["from_file"].__func__
        self._replace(experiments.ExperimentConfig, "from_file",
                      classmethod(self.span("experiments.config", from_file)))
        # SLSQP runs and iterations, read from the minimizer's results; no
        # span, so the solver's time stays in optimize_two_qubit_mdd's self time
        minimize = sys.modules["mddsim.analysis"].optimize.minimize

        def counted_minimize(*args, **kwargs):
            result = minimize(*args, **kwargs)
            self.count("analysis.slsqp.runs")
            self.count("analysis.slsqp.iterations", int(getattr(result, "nit", 0)))
            return result

        counted_minimize.__wrapped_by_perfbench__ = True
        proxy = types.SimpleNamespace(minimize=counted_minimize)
        self._replace(sys.modules["mddsim.analysis"], "optimize", proxy)
        self._time_eps = circuits._TIME_EPS

    def _replace(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._originals.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._originals.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._originals):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._originals.clear()

    # ------------------------------------------------------ computed counts
    def _after(self, name: str):
        count = self.count

        def elems(result, args, kwargs):
            count(f"{name}.elems", 4 ** int(_arg(args, kwargs, 3, "num_qubits")))

        def pulses(result, args, kwargs):
            count("sequences.pulses", len(result.pulses))

        def haar(result, args, kwargs):
            count("analysis.haar_unitaries", int(_arg(args, kwargs, 0, "count")))

        def idle(result, args, kwargs):
            count("circuits.idle_intervals", len(result))

        def insert(result, args, kwargs):
            circuit = _arg(args, kwargs, 0, "circuit")
            pulses_in = lambda c: sum(1 for sl in c.slices if sl.duration == 0 and sl.gates)
            count("circuits.pulses_inserted", pulses_in(result) - pulses_in(circuit))
            if str(_arg(args, kwargs, 1, "strategy")).lower() in ("mdd", "mdd+xx"):
                # only measurement-driven insertion replays prefixes
                count("circuits.dressed_slices", len(result.slices))

        def simulate(result, args, kwargs):
            until = args[3] if len(args) > 3 else kwargs.get("until_time")
            if until is None or not self.active("circuits.insert_dd"):
                return
            now, replayed = 0.0, 0
            for sl in _arg(args, kwargs, 0, "circuit").slices:
                if now + sl.duration > until + self._time_eps:
                    break
                replayed += 1
                now += sl.duration
            count("circuits.prefix_slices", replayed)

        def diagonalize(result, args, kwargs):
            dim = len(_arg(args, kwargs, 0, "dets"))
            count("sqd.subspace_dim", dim)
            count("sqd.h_elements", dim * (dim + 1) // 2)
            if self.active("sqd.self_consistent_recovery"):
                count("sqd.batch_dims", dim)
                count("sqd.batch_samples", self._batch_size)

        def write(result, args, kwargs):
            count("experiments.write.bytes", len(_arg(args, kwargs, 1, "text").encode()))

        hooks = {
            "states.apply_matrix": elems, "noise.local_channel": elems,
            "sequences.build_schedule": pulses, "analysis.haar_batch": haar,
            "circuits.identify_idle": idle,
            "circuits.insert_dd": insert, "circuits.simulate_raw": simulate,
            "sqd.project_and_diagonalize": diagonalize, "experiments.write": write,
        }
        return hooks.get(name)

    def _before(self, name: str):
        if name != "sqd.self_consistent_recovery":
            return None

        def batch_size(args, kwargs):
            self._batch_size = _arg(args, kwargs, 2, "config").samples_per_batch

        return batch_size

    # -------------------------------------------------------------- results
    def arrays(self) -> dict[str, np.ndarray]:
        # copies, so the span arrays stay appendable
        return {"name_id": np.array(self.name_id, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64),
                "parent": np.array(self.parent, dtype=np.int32),
                "op": np.array(self.op, dtype=np.int32)}

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        a = self.arrays()
        if a["start"].size == 0:
            return {}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        own = np.bincount(a["name_id"], weights=self_time, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
