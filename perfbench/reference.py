"""Output checks written apart from the program: nothing here imports drqsim.

Two independent models of a circuit document:

* a textbook logical model: ideal gate matrices on the logical qubits,
  first registered qubit as the most significant bit;
* a pulse-level reference simulator: the five pulses written from their
  generators (PAPER.md) and exponentiated with `scipy.linalg.expm` on the
  pulse's targets, applied to a dense state tensor with `np.tensordot`.
  It replays the pulse listing that `drqsim compile` prints, plus the
  heating jumps and the QND parity check, and gives the joint
  probabilities of the documented readout (sideband map onto the
  ancilla, fluorescence, reset).

Conventions: a qubit's levels are (ground, excited) = (0, 1), sigma_+ =
|e><g|, sigma_z = |e><e| - |g><g|, and a mode's annihilation operator is
truncated at the document's cutoff.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

# ---------------------------------------------------------------------------
# Document reading (only what the checks need)

_PI_RE = re.compile(r"^([+-]?)pi(?:\*(.+))?$")


def parse_angle(token: str) -> float:
    m = _PI_RE.match(token)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        return sign * math.pi * (float(m.group(2)) if m.group(2) else 1.0)
    return float(token)


@dataclass
class Gate:
    name: str
    params: list[float]
    operands: list[str]


@dataclass
class Circuit:
    qubits: list[str] = field(default_factory=list)
    modes: list[str] = field(default_factory=list)
    cutoff: int = 4
    registers: list[tuple[str, str, list[str]]] = field(default_factory=list)
    ancillas: list[str] = field(default_factory=list)
    program: list[Gate] = field(default_factory=list)

    @property
    def logical_ids(self) -> list[str]:
        return [r[0] for r in self.registers]

    @property
    def error_free(self) -> bool:
        return not any(g.name in ("loss", "gain") for g in self.program)


_PARAM_COUNT = {"rx": 1, "ry": 1, "rz": 1, "rzz": 1, "rxx": 1, "xx": 1}


def read_circuit(text: str) -> Circuit:
    circ = Circuit()
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith(":") and " " not in line:
            section = line[:-1]
            continue
        key, _, rest = line.partition(":")
        if section == "system":
            if key == "qubits":
                circ.qubits = rest.split()
            elif key == "modes":
                circ.modes = rest.split()
            elif key == "cutoff":
                circ.cutoff = int(rest)
        elif section == "registers":
            lid, kind, *phys = line.split()
            circ.registers.append((lid, kind, phys))
        elif section == "ancillas" and key == "qubits":
            circ.ancillas = rest.split()
        elif section == "program":
            name, *args = line.split()
            n = _PARAM_COUNT.get(name, 0)
            circ.program.append(Gate(name, [parse_angle(a) for a in args[:n]],
                                     args[n:]))
    return circ


# ---------------------------------------------------------------------------
# Textbook logical model

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
S = np.diag([1, 1j])


def _rot(pauli: np.ndarray, t: float) -> np.ndarray:
    return math.cos(t / 2) * np.eye(len(pauli)) - 1j * math.sin(t / 2) * pauli


def _permutation_gate(n: int, mapping) -> np.ndarray:
    """Matrix sending basis bits b (MSB first) to mapping(b)."""
    u = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for col in range(2 ** n):
        bits = [(col >> (n - 1 - i)) & 1 for i in range(n)]
        row = int("".join(map(str, mapping(bits))), 2)
        u[row, col] = 1.0
    return u


def _swap_halves(bits, controls: int, targets: int):
    if not all(bits[:controls]):
        return bits
    t = bits[controls:]
    return bits[:controls] + t[targets // 2:] + t[:targets // 2]


def gate_matrix(gate: Gate) -> np.ndarray:
    """Ideal matrix of a document gate over its operands (first = MSB)."""
    name, n = gate.name, len(gate.operands)
    fixed = {"x": X, "y": Y, "z": Z, "h": H, "s": S, "sdg": S.conj()}
    if name in fixed:
        return fixed[name]
    if name in ("rx", "ry", "rz"):
        return _rot({"rx": X, "ry": Y, "rz": Z}[name], gate.params[0])
    if name == "rzz":
        return _rot(np.kron(Z, Z), gate.params[0])
    if name in ("rxx", "xx"):
        return _rot(np.kron(X, X), gate.params[0])
    if name in ("cnot", "kcnot", "mcx"):
        return _permutation_gate(
            n, lambda b: b[:-1] + [b[-1] ^ 1] if all(b[:-1]) else b)
    if name == "cswap":
        return _permutation_gate(n, lambda b: _swap_halves(b, 1, n - 1))
    if name == "mcswap":
        return _permutation_gate(n, lambda b: _swap_halves(b, n - 2, 2))
    raise ValueError(f"no textbook matrix for gate {name!r}")


def apply_on(state: np.ndarray, u: np.ndarray, axes: list[int]) -> np.ndarray:
    """Apply `u` (first listed axis most significant) to tensor axes."""
    k = len(axes)
    dims = [state.shape[a] for a in axes]
    out = np.tensordot(u.reshape(dims + dims), state,
                       axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def logical_model(circ: Circuit) -> np.ndarray:
    """Ideal logical state after the program, from all-zeros."""
    ids = circ.logical_ids
    state = np.zeros((2,) * len(ids), dtype=complex)
    state[(0,) * len(ids)] = 1.0
    for gate in circ.program:
        if gate.name in ("loss", "gain", "qndcheck"):
            raise ValueError("the logical model covers error-free unitary "
                             "programs only")
        axes = [ids.index(op) for op in gate.operands]
        state = apply_on(state, gate_matrix(gate), axes)
    return state.reshape(-1)


# ---------------------------------------------------------------------------
# Pulse-level reference simulator


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)   # |e><g|
SIGMA_MINUS = SIGMA_PLUS.conj().T
SIGMA_Z = np.diag([-1.0, 1.0]).astype(complex)


def _bs_generator(phi: float, d1: int, d2: int) -> np.ndarray:
    a1, a2 = annihilation(d1), annihilation(d2)
    hop = np.exp(1j * phi) * np.kron(a1.conj().T, a2)
    return hop + hop.conj().T


def pulse_unitary(kind: str, theta: float, phi: float,
                  dims: list[int]) -> np.ndarray:
    """expm of the pulse generator over its targets (first = MSB).

    carrier  exp(-i theta/2 (s+ e^{i phi} + s- e^{-i phi}))
    rsb      exp(-i theta/2 (s+ a + s- a^dag))
    bs       exp( i theta (a1^dag a2 e^{i phi} + a1 a2^dag e^{-i phi}))
    zbs      bs(theta) with the qubit in ground, bs(-theta) when excited
    qphase   exp(-i theta/2 sigma_z)
    native_xx  exp(-i theta/2 X X)
    """
    if kind == "carrier":
        gen = -theta / 2 * (np.exp(1j * phi) * SIGMA_PLUS
                            + np.exp(-1j * phi) * SIGMA_MINUS)
    elif kind == "rsb":
        a = annihilation(dims[1])
        gen = -theta / 2 * (np.kron(SIGMA_PLUS, a)
                            + np.kron(SIGMA_MINUS, a.conj().T))
    elif kind == "bs":
        gen = theta * _bs_generator(phi, *dims)
    elif kind == "zbs":
        gen = -theta * np.kron(SIGMA_Z, _bs_generator(phi, *dims[1:]))
    elif kind == "qphase":
        gen = -theta / 2 * SIGMA_Z
    elif kind == "native_xx":
        gen = -theta / 2 * np.kron(X, X)
    else:
        raise ValueError(f"unknown pulse kind {kind!r}")
    return expm(1j * gen)


def _pulse(kind: str, theta: float, phi: float, targets: list[str]) -> dict:
    return {"kind": kind, "theta": theta, "phi": phi, "targets": targets}


def _reset(qubit: str) -> dict:
    return _pulse("carrier", math.pi, 0.0, [qubit])


# The QND parity circuit of the paper: y(-pi/2) on the readout qubit, a
# full swap of the rail pair conditioned on the qubit, y(pi/2), the swap
# again.  It maps |g>|n>|m> to |g or e by parity of n+m>|n>|m>.
def parity_pulses(qubit: str, m1: str, m2: str) -> list[dict]:
    swap = _pulse("zbs", math.pi / 2, 0.0, [qubit, m1, m2])
    return [_pulse("carrier", -math.pi / 2, -math.pi / 2, [qubit]), swap,
            _pulse("carrier", math.pi / 2, -math.pi / 2, [qubit]), swap]


class PulseSim:
    """Dense state tensor over the document's qubits then modes."""

    def __init__(self, circ: Circuit):
        self.circ = circ
        self.ids = circ.qubits + circ.modes
        self.dims = [2] * len(circ.qubits) + [circ.cutoff] * len(circ.modes)
        self.state = np.zeros(self.dims, dtype=complex)
        self.state[(0,) * len(self.dims)] = 1.0
        self._cache: dict = {}

    def axis(self, sid: str) -> int:
        return self.ids.index(sid)

    def pulse(self, p: dict, state: np.ndarray | None = None) -> np.ndarray:
        axes = [self.axis(t) for t in p["targets"]]
        dims = [self.dims[a] for a in axes]
        key = (p["kind"], p["theta"], p["phi"], tuple(dims))
        if key not in self._cache:
            self._cache[key] = pulse_unitary(p["kind"], p["theta"], p["phi"],
                                             dims)
        return apply_on(self.state if state is None else state,
                        self._cache[key], axes)

    def jump(self, kind: str, mode: str) -> None:
        a = annihilation(self.circ.cutoff)
        out = apply_on(self.state, a if kind == "loss" else a.conj().T,
                       [self.axis(mode)])
        self.state = out / np.linalg.norm(out)

    def project(self, state: np.ndarray, sid: str, level: int) -> np.ndarray:
        out = np.zeros_like(state)
        idx = [slice(None)] * state.ndim
        idx[self.axis(sid)] = level
        out[tuple(idx)] = state[tuple(idx)]
        return out

    def register(self, lid: str) -> tuple[str, list[str]]:
        for rid, kind, phys in self.circ.registers:
            if rid == lid:
                return kind, phys
        raise KeyError(lid)

    def parity_check(self, lid: str, flag: str) -> None:
        """Replay the parity circuit and keep the branch the run reported."""
        _, phys = self.register(lid)
        anc = self.circ.ancillas[0]
        for p in parity_pulses(anc, phys[0], phys[1]):
            self.state = self.pulse(p)
        level = 1 if flag == "odd" else 0
        kept = self.project(self.state, anc, level)
        weight = float(np.vdot(kept, kept).real)
        if weight < 1e-12:
            raise AssertionError(f"parity flag {flag!r} has probability 0")
        self.state = kept / math.sqrt(weight)
        if level:
            self.state = self.pulse(_reset(anc))

    def replay(self, compiled: dict, run_report: dict) -> None:
        """Replay `compile`'s listing; parity flags follow the run report."""
        flags = {c["step"]: c["parity"]
                 for c in run_report.get("parity_checks", [])}
        for p in compiled["preparation"]:
            self.state = self.pulse(p)
        for step in compiled["steps"]:
            gate = self.circ.program[step["step"]]
            if step["kind"] == "pulses":
                for p in step["pulses"]:
                    self.state = self.pulse(p)
            elif step["kind"] == "error-injection":
                self.jump(gate.name, gate.operands[0])
            elif step["kind"] == "parity-check":
                self.parity_check(gate.operands[0], flags[step["step"]])
            else:
                raise AssertionError(f"unknown step kind {step['kind']!r}")

    def codeword_index(self, bits) -> tuple[int, ...]:
        levels = [0] * len(self.dims)
        for (lid, kind, phys), b in zip(self.circ.registers, bits):
            if kind.startswith("dual_rail"):
                levels[self.axis(phys[0])] = 1 - b
                levels[self.axis(phys[1])] = b
            else:
                levels[self.axis(phys[0])] = b
        return tuple(levels)

    def logical_amplitudes(self) -> np.ndarray:
        n = len(self.circ.registers)
        return np.array([
            self.state[self.codeword_index(
                [(k >> (n - 1 - i)) & 1 for i in range(n)])]
            for k in range(2 ** n)])

    def readout_distribution(self) -> dict[str, float]:
        """Joint probabilities of reading every register in order.

        Dual-rail: rsb(pi) between the first ancilla and the second rail,
        fluorescence on the ancilla, carrier(pi) reset after a bright
        outcome.  Internal: fluorescence on the qubit.
        """
        anc = self.circ.ancillas[0] if self.circ.ancillas else None
        branches = {"": self.state}
        for lid in self.circ.logical_ids:
            kind, phys = self.register(lid)
            grown = {}
            for key, st in branches.items():
                if kind.startswith("dual_rail"):
                    mapped = self.pulse(_pulse("rsb", math.pi, 0.0,
                                               [anc, phys[1]]), st)
                    grown[key + "0"] = self.project(mapped, anc, 0)
                    grown[key + "1"] = self.pulse(
                        _reset(anc), self.project(mapped, anc, 1))
                else:
                    grown[key + "0"] = self.project(st, phys[0], 0)
                    grown[key + "1"] = self.project(st, phys[0], 1)
            branches = grown
        return {k: float(np.vdot(v, v).real) for k, v in branches.items()}


# ---------------------------------------------------------------------------
# Comparisons


def phase_error(got: np.ndarray, want: np.ndarray) -> float:
    """max |got e^{i phi} - want| with phi fixed on want's largest entry."""
    k = int(np.argmax(np.abs(want)))
    if abs(got[k]) < 1e-14:
        return float(np.max(np.abs(got - want)))
    phase = np.angle(want[k] / got[k])
    return float(np.max(np.abs(got * np.exp(1j * phase) - want)))


def histogram_errors(hist: dict[str, int], probs: dict[str, float],
                     shots: int, sigmas: float = 6.0) -> list[str]:
    """Outcomes whose count is outside `sigmas` binomial deviations."""
    bad = []
    for key in sorted(set(hist) | set(probs)):
        n, p = hist.get(key, 0), probs.get(key, 0.0)
        if p < 1e-12:
            ok = n == 0
        else:
            ok = abs(n - shots * p) <= sigmas * math.sqrt(
                shots * p * (1 - p)) + 1
        if not ok:
            bad.append(f"{key}: {n} counts, expected {shots * p:.1f}")
    return bad
