"""Circuit document format: parsing, validation, serialization.

A document is plain UTF-8 text with five sections:

    # comments start with '#'
    system:
      qubits: q0 q1
      modes: m0 m1
      cutoff: 4
    registers:
      Q internal q0
      D dual_rail m0 m1
    ancillas:
      qubits: q1
      com_mode: m2
    program:
      h D
      cnot Q D
    options:
      seed: 7
      shots: 10000
      tolerance: 1e-9

Angles are decimal numbers, optionally written as multiples of pi
("pi*0.5", "-pi*0.25", bare "pi").  Every parse failure carries a stable
diagnostic code and the offending line number.  `read_option` reads the
run options of `OPTIONS`, in the `options:` section and as flags alike.
"""
from __future__ import annotations

import math
import re
from typing import NamedTuple

from .compiler import ERROR_INJECTION, GATES
from .encoding import SUBSYSTEM_KINDS
from .errors import DocumentError

SECTIONS = ("system", "registers", "ancillas", "program", "options")
MAX_SHOTS = 2 ** 63 - 1  # the sampler's one multinomial draw is int64
# Each run option's default; an int default makes it an integer option.
OPTIONS = {"seed": 0, "shots": 0, "tolerance": 1e-9}
_INT_RE = re.compile(r"^[+-]?\d+$")
_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_PI_RE = re.compile(r"^([+-]?)pi(\*([+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?))?$")


class GateRecord(NamedTuple):
    """One program line.  `line` is for diagnostics only: equality and
    hash ignore it, so equal gates on different lines are one record."""

    name: str
    params: tuple[float, ...]
    operands: tuple[str, ...]
    line: int = 0

    def __eq__(self, other):
        if not isinstance(other, GateRecord):
            return NotImplemented
        return self[:3] == other[:3]

    __ne__ = object.__ne__  # tuple's own would compare `line` too

    def __hash__(self):
        return hash(self[:3])

    def render(self) -> str:
        parts = [self.name]
        parts += [format_number(p) for p in self.params]
        parts += list(self.operands)
        return " ".join(parts)


class CircuitDocument(NamedTuple):
    qubits: tuple[str, ...]
    modes: tuple[str, ...]
    cutoff: int
    registers: tuple[tuple[str, str, tuple[str, ...]], ...]
    ancilla_qubits: tuple[str, ...]
    com_mode: str | None
    program: tuple[GateRecord, ...]
    options: dict[str, float | int]

    def logical_ids(self) -> tuple[str, ...]:
        return tuple(r[0] for r in self.registers)


def parse_number(token: str, line: int) -> float:
    m = _PI_RE.match(token)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        factor = float(m.group(3)) if m.group(3) else 1.0
        value = sign * math.pi * factor
    elif _NUMBER_RE.match(token):
        value = float(token)
    else:
        raise DocumentError("number", line, f"cannot parse number {token!r}")
    if not math.isfinite(value):
        raise DocumentError("number", line, f"number {token!r} is not finite")
    return value


def format_number(value: float) -> str:
    """Text that `parse_number` reads back as exactly `value`: a multiple
    of pi where that form round-trips, the shortest decimal otherwise."""
    if value == 0:
        return "-0" if math.copysign(1.0, value) < 0 else "0"
    ratio = value / math.pi
    rounded = round(ratio, 12)
    if abs(ratio - rounded) < 1e-15 and abs(rounded) >= 1e-6:
        text = ("pi" if rounded == 1 else "-pi" if rounded == -1
                else f"pi*{rounded:.12g}")
        if parse_number(text, 0) == value:
            return text
    return repr(value)


def read_option(key: str, token: str, line: int = 0) -> int | float:
    """Run option `key`'s value written as `token`, in the `options:`
    section or as the option's command-line flag."""
    if key not in OPTIONS:
        raise DocumentError("syntax", line, f"unknown option {key!r}")
    integer = isinstance(OPTIONS[key], int)
    if integer and _INT_RE.match(token):
        try:  # exactly, past float's range
            value = int(token)
        except ValueError:  # past the digits that `int` reads
            raise DocumentError("number", line,
                                f"{key} has too many digits") from None
    else:
        value = parse_number(token, line)
    if value < 0 or (integer and value != int(value)):
        what = "integer" if integer else "number"
        raise DocumentError("number", line,
                            f"{key} must be a non-negative {what}")
    if integer:
        value = int(value)
    if key == "shots" and value > MAX_SHOTS:
        raise DocumentError("number", line,
                            f"shots must be at most {MAX_SHOTS}")
    return value


def _looks_numeric(token: str) -> bool:
    return bool(_NUMBER_RE.match(token) or _PI_RE.match(token))


def parse_circuit(text: str) -> CircuitDocument:
    qubits = modes = ancilla_qubits = ()
    cutoff, com_mode = 4, None
    registers: list[tuple[str, str, tuple[str, ...]]] = []
    program: list[GateRecord] = []
    options: dict[str, float | int] = {}
    section = None
    seen_sections: set[str] = set()
    seen_keys: set[tuple[str, str]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.endswith(":") and stripped[:-1] in SECTIONS:
            section = stripped[:-1]
            if section in seen_sections:
                raise DocumentError("section", lineno,
                                    f"duplicate section {section!r}")
            seen_sections.add(section)
            continue
        if section is None:
            raise DocumentError("section", lineno,
                                f"content before any section: {stripped!r}")

        if section in ("system", "ancillas", "options"):
            key, _, rest = stripped.partition(":")
            key = key.strip()
            values = rest.split()
            if (section, key) in seen_keys:
                raise DocumentError("duplicate", lineno,
                                    f"repeated {section} key {key!r}")
            seen_keys.add((section, key))

        if section == "system":
            if key == "qubits":
                qubits = _subsystem_ids(values, lineno, "qubit")
            elif key == "modes":
                modes = _subsystem_ids(values, lineno, "mode")
            elif key == "cutoff":
                if len(values) != 1:
                    raise DocumentError("syntax", lineno, "cutoff takes one value")
                try:
                    cutoff = int(values[0])
                except ValueError:
                    raise DocumentError("number", lineno,
                                        f"bad cutoff {values[0]!r}") from None
            else:
                raise DocumentError("syntax", lineno,
                                    f"unknown system key {key!r}")
        elif section == "registers":
            tokens = stripped.split()
            if len(tokens) < 3:
                raise DocumentError("syntax", lineno,
                                    "register entry: <id> <kind> <subsystems...>")
            lid, kind, *phys = tokens
            if kind not in SUBSYSTEM_KINDS:
                raise DocumentError("validation", lineno,
                                    f"unknown register kind {kind!r}")
            if len(phys) != len(SUBSYSTEM_KINDS[kind]):
                raise DocumentError(
                    "arity", lineno,
                    f"{kind} takes {len(SUBSYSTEM_KINDS[kind])} subsystems, "
                    f"got {len(phys)}")
            if _looks_numeric(lid):
                raise DocumentError("validation", lineno,
                                    f"logical id {lid!r} reads as a number")
            if any(r[0] == lid for r in registers):
                raise DocumentError("duplicate", lineno,
                                    f"logical id {lid!r} already defined")
            registers.append((lid, kind, tuple(phys)))
        elif section == "ancillas":
            if key == "qubits":
                ancilla_qubits = _unique(values, lineno, "ancilla")
            elif key == "com_mode":
                if len(values) != 1:
                    raise DocumentError("syntax", lineno,
                                        "com_mode takes one mode id")
                com_mode = values[0]
            else:
                raise DocumentError("syntax", lineno,
                                    f"unknown ancillas key {key!r}")
        elif section == "program":
            tokens = stripped.split()
            name, args = tokens[0], tokens[1:]
            if name not in GATES:
                raise DocumentError("unknown-gate", lineno,
                                    f"unknown gate {name!r}")
            spec = GATES[name]
            n_params, lo, hi = spec.n_params, spec.min_operands, spec.max_operands
            params = tuple(parse_number(t, lineno) for t in args[:n_params])
            if len(params) != n_params:
                raise DocumentError("arity", lineno,
                                    f"{name} takes {n_params} parameter(s)")
            operands = tuple(args[n_params:])
            if any(_looks_numeric(t) for t in operands):
                raise DocumentError("arity", lineno,
                                    f"{name}: too many numeric parameters")
            if len(operands) < lo or (hi is not None and len(operands) > hi):
                want = f"{lo}" if hi == lo else f"{lo}+" if hi is None else f"{lo}..{hi}"
                raise DocumentError("arity", lineno,
                                    f"{name} takes {want} operand(s), "
                                    f"got {len(operands)}")
            if len(set(operands)) != len(operands):
                raise DocumentError("duplicate", lineno,
                                    f"{name}: repeated operand")
            program.append(GateRecord(name, params, operands, lineno))
        elif section == "options":
            options[key] = read_option(key, rest.strip(), lineno)

    doc = CircuitDocument(qubits, modes, cutoff, tuple(registers),
                          ancilla_qubits, com_mode, tuple(program), options)
    _validate_references(doc)
    return doc


def _unique(values: list[str], lineno: int, what: str) -> tuple[str, ...]:
    if len(set(values)) != len(values):
        raise DocumentError("duplicate", lineno, f"repeated {what} id")
    return tuple(values)


def _subsystem_ids(values: list[str], lineno: int,
                   what: str) -> tuple[str, ...]:
    """The ids of a `system:` line.  An id that reads as a number is
    refused, as a logical id is: `loss` and `gain` name a mode as their
    operand, which the program parser would take for a parameter."""
    for sid in values:
        if _looks_numeric(sid):
            raise DocumentError("validation", lineno,
                                f"{what} id {sid!r} reads as a number")
    return _unique(values, lineno, what)


def _validate_references(doc: CircuitDocument) -> None:
    declared = set(doc.qubits) | set(doc.modes)
    logical = set()
    for lid, kind, phys in doc.registers:
        logical.add(lid)
        for sid in phys:
            if sid not in declared:
                raise DocumentError("reference", 0,
                                    f"register {lid!r} uses undeclared {sid!r}")
    for q in doc.ancilla_qubits:
        if q not in doc.qubits:
            raise DocumentError("reference", 0,
                                f"ancilla {q!r} is not a declared qubit")
    if doc.com_mode is not None and doc.com_mode not in doc.modes:
        raise DocumentError("reference", 0,
                            f"com_mode {doc.com_mode!r} is not a declared mode")
    for rec in doc.program:
        if GATES[rec.name].step == ERROR_INJECTION:
            for sid in rec.operands:
                if sid not in doc.modes:
                    raise DocumentError("reference", rec.line,
                                        f"{rec.name} target {sid!r} is not a mode")
            continue
        for lid in rec.operands:
            if lid not in logical:
                raise DocumentError("reference", rec.line,
                                    f"unknown logical qubit {lid!r}")


def serialize_circuit(doc: CircuitDocument) -> str:
    lines = ["system:"]
    if doc.qubits:
        lines.append("  qubits: " + " ".join(doc.qubits))
    if doc.modes:
        lines.append("  modes: " + " ".join(doc.modes))
    lines.append(f"  cutoff: {doc.cutoff}")
    lines.append("registers:")
    for lid, kind, phys in doc.registers:
        lines.append(f"  {lid} {kind} " + " ".join(phys))
    if doc.ancilla_qubits or doc.com_mode:
        lines.append("ancillas:")
        if doc.ancilla_qubits:
            lines.append("  qubits: " + " ".join(doc.ancilla_qubits))
        if doc.com_mode:
            lines.append(f"  com_mode: {doc.com_mode}")
    lines.append("program:")
    for rec in doc.program:
        lines.append("  " + rec.render())
    if doc.options:
        lines.append("options:")
        for key in sorted(doc.options):
            value = doc.options[key]
            if isinstance(OPTIONS[key], int) and value == int(value):
                lines.append(f"  {key}: {int(value)}")
            else:
                lines.append(f"  {key}: {format_number(value)}")
    return "\n".join(lines) + "\n"
