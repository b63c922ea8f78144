"""Command-line surface: compile, run, verify.

Reports are JSON documents (schema `drqsim-report/1`), printed to stdout
and optionally written to a file, in the bytes of `json.dumps(report,
indent=2, sort_keys=True)`.  Exit codes: 0 success, 1 verification
failure, 2 parse/validation error (an unreadable document or report file
included), 3 numeric-health failure (including an array too large to
allocate).  The `--seed`, `--shots` and `--tol` flags are read as the
document's options are, by `document.read_option`.
"""
from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii as _escape

from .compiler import (
    ERROR_INJECTION,
    PARITY_CHECK,
    CompiledProgram,
    lower,
    mod_2pi,
    preparation,
)
from .document import OPTIONS, CircuitDocument, parse_circuit, read_option
from .encoding import LogicalRegister, define_register, extract_logical_state
from .errors import (
    CompileError,
    DocumentError,
    HealthError,
    LayoutError,
    PulseError,
    RegisterError,
    StateError,
)
from .fock import MODE, QUBIT, create_layout, ground_state
from .suite import run_builtin_suite
from .verify import (
    LEAKAGE_GUARD_TOL,
    check_records,
    inject_heating_error,
    qnd_parity_check,
    run_program,
    sample_counts,
)

SCHEMA = "drqsim-report/1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_HEALTH = 3


def build_system(doc: CircuitDocument,
                 cutoff: int | None = None
                 ) -> tuple["object", LogicalRegister]:
    eff_cutoff = cutoff if cutoff is not None else doc.cutoff
    spec = [(q, QUBIT, 2) for q in doc.qubits]
    spec += [(m, MODE, eff_cutoff) for m in doc.modes]
    layout = create_layout(spec)
    register = define_register(layout, doc.registers,
                               ancilla_qubits=doc.ancilla_qubits,
                               com_mode=doc.com_mode)
    return layout, register


def _op_entry(op) -> dict:
    entry = {
        "kind": op.kind,
        "theta": op.theta,
        "phi": op.phi,
        "targets": list(op.targets),
    }
    if op.aux_flag:
        entry["aux"] = True
    return entry


def cmd_compile(doc: CircuitDocument, args) -> tuple[dict, int]:
    layout, register = build_system(doc, args.cutoff)
    prep = preparation(register)
    steps = lower(register, doc.program)
    program = CompiledProgram()
    program.extend(prep)
    entries = []
    # Steps of equal records share one lowered program (see `lower`),
    # and so one pulse list: id(program) -> its entries.
    listings: dict[int, list] = {}
    for step in steps:
        entry = {"step": step.index, "gate": step.record.render(),
                 "kind": step.kind}
        if step.program is not None:
            key = id(step.program)
            if key not in listings:
                listings[key] = [_op_entry(op) for op in step.program.ops]
            entry["pulses"] = listings[key]
            entry["phase"] = step.program.phase_mod_2pi
            program.extend(step.program)
        entries.append(entry)
    report = {
        "schema": SCHEMA,
        "command": "compile",
        "preparation": [_op_entry(op) for op in prep.ops],
        "steps": entries,
        "pulse_count": len(program.ops),
        "global_phase": program.phase_mod_2pi,
        "ancilla_manifest": [
            {"gate": use.gate, "qubits": list(use.qubits),
             "modes": list(use.modes)}
            for use in program.ancilla_manifest
        ],
    }
    return report, EXIT_OK


def cmd_run(doc: CircuitDocument, args) -> tuple[dict, int]:
    layout, register = build_system(doc, args.cutoff)
    seed = _option(args.seed, doc, "seed")
    shots = _option(args.shots, doc, "shots")
    prep = preparation(register)
    steps = lower(register, doc.program)

    state = run_program(ground_state(layout), prep)
    ledger = prep.global_phase
    injected = False
    parity_flags = []
    for step in steps:
        i, rec = step.index, step.record
        try:
            if step.kind == ERROR_INJECTION:
                state = inject_heating_error(state, rec.operands[0], rec.name)
                injected = True
            elif step.kind == PARITY_CHECK:
                if i != len(steps) - 1 and not args.allow_midcircuit:
                    raise CompileError(
                        "qndcheck before the end of the program disturbs the "
                        "modes; pass --allow-midcircuit for idealized studies")
                entry = register.entry(rec.operands[0])
                flag, state = qnd_parity_check(
                    state, register.readout_ancilla, *entry.rails,
                    rng_seed=seed + 17 * i)
                parity_flags.append({"step": i, "target": rec.operands[0],
                                     "parity": flag})
            else:
                state = run_program(state, step.program,
                                    register=None if injected else register)
                ledger += step.program.global_phase
        except (CompileError, HealthError, StateError) as exc:
            raise step.error(exc) from exc

    report_state = extract_logical_state(state, register)
    if not injected and report_state.leakage > LEAKAGE_GUARD_TOL:
        raise HealthError(
            f"error-free run leaked {report_state.leakage:.3e} outside the "
            "codeword span")
    report = {
        "schema": SCHEMA,
        "command": "run",
        "seed": seed,
        "shots": shots,
        "leakage": report_state.leakage,
        "global_phase": mod_2pi(ledger),
    }
    if parity_flags:
        report["parity_checks"] = parity_flags
    if register.logical_dim <= 64:
        report["logical_amplitudes"] = [
            [float(a.real), float(a.imag)]
            for a in report_state.logical_amplitudes
        ]
        report["logical_phase"] = report_state.global_phase
    if shots > 0:
        counts = sample_counts(state, register, list(doc.logical_ids()),
                               shots, seed)
        report["histogram"] = dict(sorted(counts.items()))
    return report, EXIT_OK


def cmd_verify(doc: CircuitDocument | None, args) -> tuple[dict, int]:
    tol = _option(args.tol, doc, "tolerance")
    if doc is not None:
        _, register = build_system(doc, args.cutoff)
    checks = []
    if args.builtin or doc is None:
        for result in run_builtin_suite():
            # Each built-in check has its own bound; the report's holds too.
            held = result.equivalent and result.max_entry_error <= tol
            checks.append(result._replace(equivalent=held).to_dict())
    if doc is not None:
        checks += [report.to_dict()
                   for report in check_records(register, doc.program, tol)]
    passed = all(c["equivalent"] for c in checks)
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "tolerance": tol,
        "passed": passed,
        "checks": checks,
    }
    return report, EXIT_OK if passed else EXIT_VERIFY_FAILED


def _option(flag, doc: CircuitDocument | None, key: str):
    """The flag, else the document's option `key`, else its default."""
    if flag is not None:
        return flag
    return (doc.options if doc else {}).get(key, OPTIONS[key])


def _flag(key: str):
    """The argparse type of option `key`'s flag, read by `read_option`."""
    def read(text: str):
        try:
            return read_option(key, text)
        except DocumentError as exc:
            raise argparse.ArgumentTypeError(exc.message) from None
    return read


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drqsim",
        description="Simulate and compile dual-rail phonon qubit circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cutoff", type=int, default=None,
                       help="override the per-mode Fock cutoff")
        p.add_argument("--report", default=None,
                       help="also write the JSON report to this path")

    p_compile = sub.add_parser("compile", help="lower a circuit to pulses")
    p_compile.add_argument("document")
    common(p_compile)

    p_run = sub.add_parser("run", help="simulate a circuit document")
    p_run.add_argument("document")
    p_run.add_argument("--seed", type=_flag("seed"), default=None)
    p_run.add_argument("--shots", type=_flag("shots"), default=None)
    p_run.add_argument("--allow-midcircuit", action="store_true",
                       help="allow qndcheck before the end of the program")
    common(p_run)

    p_verify = sub.add_parser("verify", help="check gate identities")
    p_verify.add_argument("document", nargs="?", default=None)
    p_verify.add_argument("--builtin", action="store_true",
                          help="run the built-in identity suite")
    p_verify.add_argument("--tol", type=_flag("tolerance"), default=None)
    common(p_verify)
    return parser


# Built once, at import: a CLI process pays for it before its command
# starts, and in-process callers of `main` share it.
_PARSER = make_parser()


def _file_error(path: str, exc: Exception) -> int:
    reason = getattr(exc, "strerror", None) or exc
    print(f"error: {path}: {reason}", file=sys.stderr)
    return EXIT_VALIDATION


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(value: float) -> str:
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


def _scalar(value) -> str:
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    raise TypeError(f"Object of type {type(value).__name__} "
                    "is not JSON serializable")


def _dumps(obj) -> str:
    """The text of `json.dumps(obj, indent=2, sort_keys=True)`, byte for
    byte: the standard encoder ignores its C speedups when indenting.
    Dict keys must be strings.  Strings and floats, most of a report's
    values, are written in place rather than through a recursive call.

    A list that the report holds in several places, such as the pulse
    listing that steps of equal records share, is written once per
    indent and reused.  The memo lives for this call only and is keyed
    on the list's id, which is safe because every object in `obj` stays
    alive, unchanged, until the call returns."""
    memo: dict[tuple[int, str], str] = {}

    def write(obj, indent: str) -> str:
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            inner = indent + "  "
            return "{" + inner + ("," + inner).join([
                _escape(key) + ": " + (
                    _escape(v) if type(v) is str else
                    _float(v) if type(v) is float else write(v, inner))
                for key in sorted(obj) for v in (obj[key],)]) + indent + "}"
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            slot = (id(obj), indent)
            if slot not in memo:
                inner = indent + "  "
                memo[slot] = "[" + inner + ("," + inner).join([
                    _escape(v) if type(v) is str else
                    _float(v) if type(v) is float else write(v, inner)
                    for v in obj]) + indent + "]"
            return memo[slot]
        return _scalar(obj)

    return write(obj, "\n")


def _print_report(text: str) -> None:
    """Print the report; a reader that closed stdout (`| head -1`) ends
    the output quietly, and the command goes on to its report file and
    its own exit code."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # What is still buffered goes to the null device when the
        # interpreter flushes stdout at exit, not to the closed pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        doc = None
        if args.document is not None:  # "" is a path, and fails to open
            try:
                with open(args.document, encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                return _file_error(args.document, exc)
            doc = parse_circuit(text)
        if args.command == "verify" and doc is None and not args.builtin:
            _PARSER.error("verify needs a document or --builtin")
        if args.command == "compile":
            report, code = cmd_compile(doc, args)
        elif args.command == "run":
            report, code = cmd_run(doc, args)
        else:
            report, code = cmd_verify(doc, args)
        text = _dumps(report)
        _print_report(text)
        if args.report is not None:
            try:
                with open(args.report, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                return _file_error(args.report, exc)
    except (DocumentError, LayoutError, RegisterError, CompileError,
            PulseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (HealthError, StateError) as exc:
        print(f"numeric health failure: {exc}", file=sys.stderr)
        return EXIT_HEALTH
    return code


if __name__ == "__main__":
    sys.exit(main())
