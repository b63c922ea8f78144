"""Workload inputs: the circuit documents each workload feeds to the CLI.

Every document is made from the workload seed.  The program only ever
sees the generated `.drq` text, written under the benchmark's work
directory.  Seeds change angles, the heated rail and the sampling seed,
never the gate and pulse counts, so the work per run is the same on
every seed (the traced run's counts show this).
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"

SHOTS = 10_000
DEEP_CIRCUITS = 2
DEEP_DECK_REPEATS = 7

# Angles are drawn as pi * u with u in this range.  Inside it the X-Y
# decomposition of every rotation keeps the same number of pulses.
ANGLE_RANGE = (0.15, 0.85)

_PARAM_GATES = {"rx", "ry", "rz", "rzz", "rxx", "xx"}
_PROGRAM_LINE = re.compile(r"^(\s+)(\w+) (\S+) (.*)$")


@dataclass
class Document:
    """One circuit document and the flags its `run` gets."""

    name: str
    text: str
    seed: int
    shots: int = 0
    path: Path | None = None

    def run_argv(self) -> list[str]:
        return ["run", str(self.path), "--seed", str(self.seed),
                "--shots", str(self.shots)]


@dataclass
class Workload:
    """Documents plus how many passes of each command one round makes.

    A pass runs one command over every document.  Cheap commands get
    several passes per round so that their median has enough samples;
    the numbers are fixed, so every round attempts the same operations.
    """

    name: str
    docs: list[Document]
    passes: dict[str, int]
    builtin: bool = False
    warmup: list[Document] = field(default_factory=list)


def _angle(rng: np.random.Generator) -> str:
    return f"pi*{rng.uniform(*ANGLE_RANGE):.12f}"


def reangle(text: str, rng: np.random.Generator) -> str:
    """Redraw the angle of every parametrised gate in the program."""
    out = []
    section = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.endswith(":") and " " not in stripped:
            section = stripped[:-1]
        m = _PROGRAM_LINE.match(line)
        if section == "program" and m and m.group(2) in _PARAM_GATES:
            line = f"{m.group(1)}{m.group(2)} {_angle(rng)} {m.group(4)}"
        out.append(line)
    return "\n".join(out) + "\n"


def _static(name: str) -> str:
    return (INPUTS / name).read_text(encoding="utf-8")


DEEP_HEADER = """\
# Generated deep circuit: {gates} gates over Q, D1, D2 with two ancillas
# at cutoff 4 (total_dim 2^3 * 4^4 = 2048), seed {seed}.
system:
  qubits: q0 a0 a1
  modes: r0 r1 r2 r3
  cutoff: 4
registers:
  Q internal q0
  D1 dual_rail r0 r1
  D2 dual_rail r2 r3
ancillas:
  qubits: a0 a1
program:
"""

# One deck holds every gate kind the compiler lowers on this register:
# single-qubit gates on the internal and on a dual-rail qubit (carrier,
# qphase and zbs pulses), rzz (parity circuit), hybrid rxx, hybrid cnot
# in both directions and cswap.  "D" is D1 or D2, drawn per gate.
_SINGLE = ["x", "y", "z", "h", "s", "sdg", "rx", "ry", "rz"]
DEEP_DECK = ([(g, "Q") for g in _SINGLE] + [(g, "D") for g in _SINGLE]
             + [("rzz", "D D"), ("rxx", "Q D"), ("cnot", "Q D"),
                ("cnot", "D Q"), ("cswap", "Q D D")])


def deep_circuit(seed: int, repeats: int = DEEP_DECK_REPEATS) -> str:
    """A shuffled deck of gates, `repeats` copies of every entry."""
    rng = np.random.default_rng(seed)
    deck = DEEP_DECK * repeats
    lines = []
    for k in rng.permutation(len(deck)):
        gate, pattern = deck[k]
        rails = ["D1", "D2"] if rng.random() < 0.5 else ["D2", "D1"]
        operands = [rails.pop() if p == "D" else p for p in pattern.split()]
        angle = [_angle(rng)] if gate in _PARAM_GATES else []
        lines.append("  " + " ".join([gate, *angle, *operands]))
    return (DEEP_HEADER.format(gates=len(deck), seed=seed)
            + "\n".join(lines) + "\n")


def _heated(text: str, rng: np.random.Generator) -> str:
    return text.replace("gain m1", f"gain m{int(rng.integers(2))}")


def make_workload(name: str, seed: int, repo: Path) -> Workload:
    """Build the named workload's documents from the seed."""
    rng = np.random.default_rng(seed)
    if name == "shots":
        docs = [
            Document("bell", (repo / "circuits" / "bell.drq").read_text(
                encoding="utf-8"), 0, SHOTS),
            Document("toffoli", (repo / "circuits" / "toffoli.drq").read_text(
                encoding="utf-8"), 0, SHOTS),
            Document("heating", _heated(_static("heating.drq"), rng), 0,
                     SHOTS),
        ]
        for doc in docs:
            doc.seed = int(rng.integers(1 << 31))
        warmup = [Document("warmup-heating", docs[2].text, docs[2].seed, 50)]
        return Workload(name, docs, {"compile": 20, "run": 1, "verify": 3},
                        warmup=warmup)
    if name == "wide":
        docs = [
            Document("wide_4dr", reangle(_static("wide_4dr.drq"), rng), 0),
            Document("kcnot3", reangle(_static("kcnot3.drq"), rng), 0),
        ]
        return Workload(name, docs, {"compile": 20, "run": 2, "verify": 1},
                        warmup=[docs[1]])
    if name == "deep":
        docs = [Document(f"deep{i}", deep_circuit(int(rng.integers(1 << 31))),
                         0) for i in range(DEEP_CIRCUITS)]
        warmup = [Document("warmup-deep", deep_circuit(seed, repeats=1), 0)]
        return Workload(name, docs, {"compile": 5, "run": 2, "verify": 2},
                        builtin=True, warmup=warmup)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("shots", "wide", "deep")
