#!/usr/bin/env python3
"""drqsim benchmark: wall time of `drqsim compile|run|verify` per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload shots --seed 1 --seconds 32 --trace 0

One process runs one workload.  It times `setup_s` in fresh
interpreters, warms up, then repeats whole rounds (every command over
every document, a fixed number of passes each) through the in-process
CLI entry point `drqsim.cli.main` until `--seconds` have passed, and
reports medians.  The outputs are then checked against models that do
not import drqsim (see reference.py).  With `--trace 1` one more round
runs with every layer wrapped by the tracer (spans.py) and the per-layer
metrics are reported instead.  The last line of stdout is the JSON
result; the exit code is 0 only when every output was correct.
"""
import os

# One BLAS thread, fixed before numpy loads.  With the default (one per
# core) the first K-CNOT run in a process sometimes took ten times longer.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference as ref  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import test_reference  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
SETUP_PER_ROUND = 2
COMMANDS = ("compile", "run", "verify")
AMPLITUDE_TOL = 1e-8
LEAKAGE_TOL = 1e-6


class Invoker:
    """Calls the CLI entry point in-process and counts operations."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = None

    def call(self, argv: list[str], count: bool = True):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = (self.tracer.enter(f"cli.{argv[0]}")
                    if self.tracer is not None else None)
            t0 = time.perf_counter()
            try:
                code = self.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed operation, not the end
                code = -1
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - t0
            if span is not None:
                self.tracer.leave(span)
        if count:
            self.attempted += 1
            self.failed += code != 0
        if code != 0 and len(self.errors) < 5:
            self.errors.append(f"{' '.join(argv)}: exit {code}: "
                               f"{err.getvalue().strip()[-400:]}")
        return elapsed, code, out.getvalue()


def operations(wl, command: str):
    """(argv, key) of one pass of `command` over the workload."""
    if command == "setup":
        yield ([sys.executable, str(HERE / "setup_probe.py"),
                *(str(d.path) for d in wl.docs)], "setup")
        return
    for doc in wl.docs:
        argv = doc.run_argv() if command == "run" else [command, str(doc.path)]
        yield argv, doc.name
    if command == "verify" and wl.builtin:
        yield ["verify", "--builtin"], "builtin"


def schedule(wl, passes: dict[str, int]) -> list[tuple[str, list[str], str]]:
    """One round: every operation `passes[command]` times.

    Interference on a shared machine comes in phases of seconds.  The
    repeats of each operation are spread evenly over the round, between
    the long operations, so every metric samples the same phases.
    """
    slots = []
    for order, command in enumerate(passes):
        ops = list(operations(wl, command))
        n = passes[command]
        for rank, (argv, key) in enumerate(ops):
            offset = (rank + 0.5) / len(ops)
            slots += [((j + offset) / n, order, (command, argv, key))
                      for j in range(n)]
    return [op for _, _, op in sorted(slots)]


class Recorder:
    """Times of every operation and the first output of each.

    `raw` holds wall times as measured, `probed` where each ran among the
    speed probes; `samples()` scales them to the reference speed
    (speed.py).
    """

    def __init__(self, probe):
        self.probe = probe
        self.raw: dict[tuple[str, str], list[float]] = {}
        self.probed: dict[tuple[str, str], list[tuple]] = {}
        self.outputs: dict[tuple[str, str], str] = {}
        self.changed: set[tuple[str, str]] = set()

    def op(self, inv: Invoker, command: str, argv: list[str], key: str,
           record: bool = True) -> float:
        before = self.probe.last() if record else None
        start = time.perf_counter()
        if command == "setup":
            # Fresh interpreter to documents parsed and systems built.
            t0 = time.perf_counter()
            subprocess.run(argv, check=True)
            elapsed = time.perf_counter() - t0
        else:
            elapsed, _, text = inv.call(argv)
            first = self.outputs.setdefault((command, key), text)
            if text != first:
                self.changed.add((command, key))
        if record:
            span = (before, start, time.perf_counter())
            self.probe.probe()
            self.raw.setdefault((command, key), []).append(elapsed)
            self.probed.setdefault((command, key), []).append(span)
        return elapsed

    def samples(self, raw: bool = False) -> dict[tuple[str, str], list]:
        if raw:
            return self.raw
        return {op: [self.probe.scale(t, *span)
                     for t, span in zip(times, self.probed[op])]
                for op, times in self.raw.items()}

    def metric(self, command: str, raw: bool = False) -> float:
        """Time of one pass: the sum of per-operation medians."""
        return sum(statistics.median(v)
                   for (c, _), v in self.samples(raw).items() if c == command)


def check_outputs(wl, rec: Recorder) -> list[str]:
    """Problems found by the independent models; empty when correct."""
    problems = [f"{cmd} {key}: report differs between calls with the same "
                "arguments" for cmd, key in sorted(rec.changed)]
    for doc in wl.docs:
        try:
            problems += check_document(doc, rec)
        except (KeyError, ValueError, TypeError, AssertionError) as exc:
            problems.append(f"{doc.name}: unreadable output ({exc!r})")
    if wl.builtin:
        problems += check_verify("builtin", rec.outputs[("verify", "builtin")],
                                 None)
    return problems


def check_document(doc, rec: Recorder) -> list[str]:
    problems = []
    circ = ref.read_circuit(doc.text)
    compiled = json.loads(rec.outputs[("compile", doc.name)])
    report = json.loads(rec.outputs[("run", doc.name)])
    listed = len(compiled["preparation"]) + sum(
        len(s.get("pulses", [])) for s in compiled["steps"])
    if compiled["pulse_count"] != listed or len(compiled["steps"]) != len(
            circ.program):
        problems.append(f"{doc.name}: compile listing is inconsistent")

    sim = ref.PulseSim(circ)
    sim.replay(compiled, report)
    want = sim.logical_amplitudes()
    got = np.array([complex(re, im) for re, im in report["logical_amplitudes"]])
    err = float(np.max(np.abs(got - want)))
    if err > AMPLITUDE_TOL:
        problems.append(f"{doc.name}: amplitudes differ from the pulse "
                        f"reference by {err:.2e}")
    leak = max(0.0, 1.0 - float(np.sum(np.abs(want) ** 2)))
    if abs(report["leakage"] - leak) > AMPLITUDE_TOL:
        problems.append(f"{doc.name}: leakage {report['leakage']:.3e}, "
                        f"reference {leak:.3e}")
    if circ.error_free:
        err = ref.phase_error(got, ref.logical_model(circ))
        if err > AMPLITUDE_TOL:
            problems.append(f"{doc.name}: amplitudes differ from the logical "
                            f"model by {err:.2e} up to global phase")
        if report["leakage"] > LEAKAGE_TOL:
            problems.append(f"{doc.name}: leakage {report['leakage']:.3e}")
    if report["seed"] != doc.seed or report["shots"] != doc.shots:
        problems.append(f"{doc.name}: run used other seed or shots")
    if doc.shots:
        hist = report.get("histogram", {})
        if sum(hist.values()) != doc.shots:
            problems.append(f"{doc.name}: histogram total "
                            f"{sum(hist.values())} != {doc.shots} shots")
        problems += [f"{doc.name}: {p}" for p in ref.histogram_errors(
            hist, sim.readout_distribution(), doc.shots)]

    unitary = [g for g in circ.program
               if g.name not in ("loss", "gain", "qndcheck")]
    problems += check_verify(doc.name, rec.outputs[("verify", doc.name)],
                             len(unitary))
    return problems


def check_verify(name: str, text: str, n_checks) -> list[str]:
    report = json.loads(text)
    checks = report["checks"]
    bad = [c["name"] for c in checks
           if not c["equivalent"] or c["max_entry_error"] > report["tolerance"]]
    problems = [f"{name}: verify failed {c}" for c in bad]
    if report["passed"] is not True or not checks:
        problems.append(f"{name}: verify did not pass")
    if n_checks is not None and len(checks) != n_checks:
        problems.append(f"{name}: {len(checks)} verify checks for "
                        f"{n_checks} gates")
    return problems


def benchmark_metrics(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def traced_round(inv: Invoker, wl, rec: Recorder, drqsim):
    """One pass of each command with every layer wrapped."""
    tracer = spans.Tracer()
    traced = dict.fromkeys(COMMANDS, 0.0)
    tracer.install(drqsim)
    inv.tracer = tracer
    try:
        for command, argv, key in schedule(wl, dict.fromkeys(COMMANDS, 1)):
            tracer.doc = key
            traced[command] += rec.op(inv, command, argv, key, record=False)
    finally:
        inv.tracer = None
        tracer.uninstall()
    return tracer, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "drqsim" / "cli.py").is_file():
        print(f"error: no drqsim sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    wl = workloads.make_workload(args.workload, args.seed, ROOT)
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    for doc in wl.docs + wl.warmup:
        doc.path = work / f"{doc.name}.drq"
        doc.path.write_text(doc.text, encoding="utf-8")

    import drqsim
    import drqsim.cli

    if Path(drqsim.__file__).resolve().parent != ROOT / "src" / "drqsim":
        print(f"error: imported drqsim from {drqsim.__file__}",
              file=sys.stderr)
        return 2
    for name in dir(test_reference):
        if name.startswith("test_"):
            getattr(test_reference, name)()

    inv = Invoker(drqsim.cli.main)
    warmup = workloads.Workload("warmup", wl.warmup, {}, wl.builtin)
    for command in COMMANDS:
        for argv, _ in operations(warmup, command):
            inv.call(argv, count=False)

    passes = dict(wl.passes)
    if not args.trace:
        passes["setup"] = SETUP_PER_ROUND
    plan = schedule(wl, passes)
    rec = Recorder(speed.SpeedProbe())
    t0 = time.perf_counter()
    rounds = 0
    while True:
        for command, argv, key in plan:
            rec.op(inv, command, argv, key)
        rounds += 1
        elapsed = time.perf_counter() - t0
        # Whole rounds only: run another while it would end closer to
        # `--seconds` than stopping now does.
        if elapsed + elapsed / rounds / 2 > args.seconds:
            break
    measured = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    untraced = {c: rec.metric(c, raw=True) for c in COMMANDS}
    if args.trace:
        tracer, traced = traced_round(inv, wl, rec, drqsim)

    # Same arguments must give a byte-identical report; repeat the
    # cheapest run, which the rounds may have made only once.
    cheapest = min(wl.docs, key=lambda d: min(rec.raw["run", d.name]))
    rerun = inv.call(cheapest.run_argv(), count=False)[2]
    if rerun != rec.outputs[("run", cheapest.name)]:
        rec.changed.add(("run", cheapest.name))

    problems = check_outputs(wl, rec) if not inv.failed else []
    correct = not problems

    print(f"drqsim benchmark: workload={wl.name} seed={args.seed} "
          f"rounds={rounds} measured={measured:.2f}s "
          f"passes={passes} builtin={wl.builtin}")
    print(f"python {platform.python_version()} numpy {np.__version__} "
          f"scipy {scipy.__version__} blas_threads={BLAS_THREADS} "
          f"nproc={os.cpu_count()}")
    for doc in wl.docs:
        print(f"  doc {doc.name}: seed={doc.seed} shots={doc.shots}")
    for line in inv.errors + problems:
        print(f"  problem: {line}")

    if args.trace:
        layers = tracer.layer_metrics()
        overhead = {f"{c}_s": traced[c] - untraced[c] for c in COMMANDS}
        uncovered = {}
        for c in ("run", "verify"):
            wall, bare = tracer.uncovered(f"cli.{c}")
            uncovered[f"{c}_s"] = bare / wall if wall else 0.0
        print(f"  tracing overhead (traced - untraced pass, s): {overhead}")
        print(f"  share of time outside every layer span: {uncovered}")
        for name in sorted(layers):
            print(f"  layer {name} = {layers[name]}")
        tracer.write(WORK / f"trace-{wl.name}-{args.seed}.json.gz",
                     {"workload": wl.name, "seed": args.seed,
                      "layer_metrics": layers, "overhead_s": overhead,
                      "uncovered_share": uncovered,
                      "untraced_pass_s": untraced})
        values = layers
        wanted = benchmark_metrics("per_layer")
    else:
        for (command, key), times in sorted(rec.samples().items()):
            print(f"  {command} {key}: {len(times)} samples, median "
                  f"{statistics.median(times):.5f} s scaled, "
                  f"{statistics.median(rec.raw[command, key]):.5f} s raw")
        print(f"  raw wall time per pass (s): "
              f"{ {c: round(rec.metric(c, raw=True), 5) for c in ('setup',) + COMMANDS} }")
        values = {"setup_s": rec.metric("setup"),
                  "compile_s": rec.metric("compile"),
                  "run_s": rec.metric("run"),
                  "verify_s": rec.metric("verify"),
                  "peak_rss_mb": peak_rss_mb}
        wanted = benchmark_metrics("end_to_end")

    result = {
        "correct": correct and not inv.failed,
        "attempted": inv.attempted,
        "failed": inv.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
