"""Span tracer for the traced run.

It wraps public functions of the drqsim modules from outside the
package.  The modules import functions by name (`from .fock import
apply_matrix`), so a wrapper is installed under every module attribute
that holds the original function, not only in the defining module.
Spans (name, start, end, parent) are kept in memory and written out when
the benchmark ends.  A layer's self time is its span time minus the time
of its child spans.
"""
from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

SUPPORT_TOL = 1e-12

# (module, attribute, span name).  The span name of apply_pulse gets the
# pulse kind appended.
TRACED = [
    ("document", "parse_circuit", "document.parse_circuit"),
    ("cli", "build_system", "cli.build_system"),
    ("compiler", "compile_gate", "compiler.compile_gate"),
    ("pulses", "pulse_matrix", "pulses.pulse_matrix"),
    ("pulses", "apply_pulse", "pulses.apply_pulse"),
    ("fock", "apply_matrix", "fock.apply_matrix"),
    ("fock", "apply_matrix_columns", "fock.apply_matrix_columns"),
    ("fock", "measure_qubit_z", "fock.measure_qubit_z"),
    ("fock", "exp_hermitian", "fock.exp_hermitian"),
    ("encoding", "prepare_dual_rail_zero", "encoding.prepare_dual_rail_zero"),
    ("encoding", "extract_logical_state", "encoding.extract_logical_state"),
    ("encoding", "measure_dual_rail", "encoding.measure_dual_rail"),
    ("verify", "run_program", "verify.run_program"),
    ("verify", "check_sentinel", "verify.check_sentinel"),
    ("verify", "ancilla_reset_defect", "verify.ancilla_reset_defect"),
    ("verify", "sample_counts", "verify.sample_counts"),
    ("verify", "program_unitary", "verify.program_unitary"),
    ("verify", "equivalent_up_to_phase", "verify.equivalent_up_to_phase"),
    ("verify", "qnd_parity_check", "verify.qnd_parity_check"),
    ("verify", "inject_heating_error", "verify.inject_heating_error"),
    ("suite", "run_builtin_suite", "suite.run_builtin_suite"),
]
# The norm check inside run_program is a method call.
NORM_SPAN = "verify.norm_check"
HEALTH_SPANS = ("verify.check_sentinel", "verify.ancilla_reset_defect",
                NORM_SPAN)
PULSE_KINDS = ("carrier", "rsb", "bs", "zbs", "qphase", "native_xx")

# Self-time metrics: metric name -> span names whose self time it sums.
SELF_TIME = {
    "document.parse_s": ("document.parse_circuit",),
    "cli.build_system_s": ("cli.build_system",),
    "compiler.compile_gate_s": ("compiler.compile_gate",),
    "pulses.pulse_matrix_s": ("pulses.pulse_matrix",),
    "fock.apply_matrix_s": ("fock.apply_matrix",),
    "fock.apply_matrix_columns_s": ("fock.apply_matrix_columns",),
    "fock.measure_qubit_z_s": ("fock.measure_qubit_z",),
    "fock.exp_hermitian_s": ("fock.exp_hermitian",),
    "encoding.prepare_dual_rail_zero_s": ("encoding.prepare_dual_rail_zero",),
    "encoding.extract_logical_state_s": ("encoding.extract_logical_state",),
    "encoding.measure_dual_rail_s": ("encoding.measure_dual_rail",),
    "verify.run_program_s": ("verify.run_program",),
    "verify.health_s": HEALTH_SPANS,
    "verify.sample_counts_s": ("verify.sample_counts",),
    "verify.program_unitary_s": ("verify.program_unitary",),
    "verify.equivalent_up_to_phase_s": ("verify.equivalent_up_to_phase",),
    "verify.qnd_parity_check_s": ("verify.qnd_parity_check",),
    "verify.inject_heating_error_s": ("verify.inject_heating_error",),
    "suite.run_builtin_suite_s": ("suite.run_builtin_suite",),
}


class Tracer:
    """In-memory spans plus counts taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.excluded = array("d")   # tracer bookkeeping inside the span
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.distinct_pulses: set = set()
        self.support: dict[str, tuple[int, np.ndarray]] = {}
        self.doc: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def enter(self, name: str) -> int:
        idx = len(self.span_name)
        self.span_name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.excluded.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def leave(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        top = self._stack[-1]
        return None if top < 0 else self.names[self.span_name[top]]

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, name: str, after=None):
        tracer = self
        per_kind = name == "pulses.apply_pulse"

        def traced(*args, **kwargs):
            idx = tracer.enter(f"{name}.{args[1].kind}" if per_kind else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(idx)
            if after is not None:
                t0 = perf_counter()
                after(args, kwargs, result)
                top = tracer._stack[-1]
                if top >= 0:
                    tracer.excluded[top] += perf_counter() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap every traced function under each module name bound to it."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__
                   or n.startswith(package.__name__ + ".")]
        for mod_name, attr, span in TRACED:
            original = getattr(sys.modules[f"{package.__name__}.{mod_name}"],
                               attr)
            wrapper = self._wrap(original, span, self._after(span))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        state_cls = sys.modules[f"{package.__name__}.fock"].StateVector
        self._patch(state_cls, "norm", self._wrap(state_cls.norm, NORM_SPAN))

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- counts taken at the boundaries --------------------------------

    def _after(self, span: str):
        counts = self.counts
        if span == "document.parse_circuit":
            return lambda a, k, doc: counts.update(
                {"document.records": len(doc.program)})
        if span == "compiler.compile_gate":
            return lambda a, k, prog: counts.update(
                {"compiler.gates": 1, "compiler.pulses": len(prog.ops)})
        if span == "pulses.pulse_matrix":
            return self._after_pulse_matrix
        if span == "pulses.apply_pulse":
            return self._after_apply_pulse
        if span == "fock.apply_matrix":
            return lambda a, k, out: counts.update({
                "fock.apply_matrix_calls": 1,
                "fock.bytes_moved": a[0].amplitudes.nbytes
                + out.amplitudes.nbytes + a[1].nbytes})
        if span == "fock.apply_matrix_columns":
            return lambda a, k, out: counts.update({
                "fock.bytes_moved": a[0].nbytes + out.nbytes + a[2].nbytes})
        if span == "verify.sample_counts":
            return lambda a, k, r: counts.update({"verify.shots": a[3]})
        if span == "verify.program_unitary":
            return self._after_program_unitary
        if span == "suite.run_builtin_suite":
            return lambda a, k, r: counts.update({"suite.checks": len(r)})
        if span in ("fock.measure_qubit_z", "fock.exp_hermitian",
                    "encoding.measure_dual_rail"):
            return lambda a, k, r: counts.update({f"{span}_calls": 1})
        return None

    def _after_pulse_matrix(self, args, kwargs, result) -> None:
        op, layout = args[0], args[1]
        self.counts["pulses.pulse_matrix_calls"] += 1
        self.distinct_pulses.add(
            (op.kind, op.theta, op.phi,
             tuple(layout.dim_of(t) for t in op.targets)))

    def _after_apply_pulse(self, args, kwargs, state) -> None:
        self.counts[f"pulses.apply_pulse_calls.{args[1].kind}"] += 1
        if self.current() == "verify.run_program" and self.doc is not None:
            self.touch(state.amplitudes)

    def _after_program_unitary(self, args, kwargs, result) -> None:
        restrict = kwargs.get("restrict", args[2] if len(args) > 2 else None)
        layout = args[1]
        self.counts["verify.program_unitary_columns"] += (
            layout.total_dim if restrict is None else restrict.logical_dim)

    def touch(self, amplitudes: np.ndarray) -> None:
        """Mark the basis states holding amplitude in the current doc."""
        if self.doc not in self.support:
            self.support[self.doc] = (
                amplitudes.size, np.zeros(amplitudes.size, dtype=bool))
        self.support[self.doc][1][np.abs(amplitudes) > SUPPORT_TOL] = True

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        n = len(self.span_name)
        dur = np.frombuffer(self.end, dtype=float)[:n] - np.frombuffer(
            self.start, dtype=float)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child - np.frombuffer(self.excluded, dtype=float)[:n]
        ids = np.frombuffer(self.span_name, dtype=np.int32)[:n]
        sums = np.bincount(ids, weights=own, minlength=len(self.names))
        return {name: float(sums[i]) for i, name in enumerate(self.names)}

    def inclusive_times(self) -> dict[str, float]:
        n = len(self.span_name)
        dur = np.frombuffer(self.end, dtype=float)[:n] - np.frombuffer(
            self.start, dtype=float)[:n]
        ids = np.frombuffer(self.span_name, dtype=np.int32)[:n]
        sums = np.bincount(ids, weights=dur, minlength=len(self.names))
        return {name: float(sums[i]) for i, name in enumerate(self.names)}

    def uncovered(self, root: str) -> tuple[float, float]:
        """(wall time, time no child span covers) over `root` spans."""
        n = len(self.span_name)
        root_id = self._name_id.get(root)
        if root_id is None:
            return 0.0, 0.0
        wall = covered = 0.0
        roots = set()
        for i in range(n):
            if self.span_name[i] == root_id:
                roots.add(i)
                wall += self.end[i] - self.start[i]
            elif self.parent[i] in roots:
                covered += self.end[i] - self.start[i]
        return wall, wall - covered

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric, counts included."""
        own = self.self_times()
        total = self.inclusive_times()
        out: dict[str, float] = {}
        for metric, spans in SELF_TIME.items():
            out[metric] = sum(own.get(s, 0.0) for s in spans)
        for kind in PULSE_KINDS:
            # Inclusive: a pulse's own dispatch is nearly free, the cost
            # per kind is its pulse_matrix plus apply_matrix underneath.
            out[f"pulses.apply_pulse_s.{kind}"] = total.get(
                f"pulses.apply_pulse.{kind}", 0.0)
            out[f"pulses.apply_pulse_calls.{kind}"] = self.counts[
                f"pulses.apply_pulse_calls.{kind}"]
        for name in ("document.records", "compiler.gates", "compiler.pulses",
                     "pulses.pulse_matrix_calls", "fock.apply_matrix_calls",
                     "fock.bytes_moved", "fock.measure_qubit_z_calls",
                     "fock.exp_hermitian_calls",
                     "encoding.measure_dual_rail_calls", "verify.shots",
                     "verify.program_unitary_columns", "suite.checks"):
            out[name] = self.counts[name]
        calls = self.counts["pulses.pulse_matrix_calls"]
        out["pulses.pulse_matrix_distinct_ratio"] = (
            len(self.distinct_pulses) / calls if calls else 0.0)
        dim, touched = self.largest_support()
        out["fock.total_dim"] = dim
        out["fock.support_touched"] = touched
        out["fock.support_ratio"] = touched / dim if dim else 0.0
        return out

    def largest_support(self) -> tuple[int, int]:
        if not self.support:
            return 0, 0
        dim, mask = max(self.support.values(), key=lambda v: v[0])
        return dim, int(mask.sum())

    def write(self, path, extra: dict) -> None:
        n = len(self.span_name)
        t0 = self.start[0] if n else 0.0
        spans = [[self.span_name[i], round((self.start[i] - t0) * 1e6, 1),
                  round((self.end[i] - t0) * 1e6, 1), self.parent[i]]
                 for i in range(n)]
        doc = {
            "format": "spans: [name index, start us, end us, parent span]",
            "names": self.names,
            "spans": spans,
            "support": {k: {"total_dim": d, "touched": int(m.sum())}
                        for k, (d, m) in self.support.items()},
            **extra,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
