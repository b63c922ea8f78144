"""Lowering of logical gates to pulse sequences.

Every construction follows the hybrid-system circuit catalogue:

  single-qubit gates      X-Y decomposition into beamsplitters (dual-rail)
                          or carrier pulses (internal)
  RZZ on dual-rail pairs  total-number-parity phase circuit around a
                          ZBS conjugation
  hybrid CNOT             conditional beamsplitter + qubit phase correction
  hybrid RXX              ZBS conjugation of a carrier y-rotation
  CSWAP                   paired conditional beamsplitters per rail
  K-CNOT                  phonon-ladder through the COM bus with
                          auxiliary-mode encoding of the third level
  multi-controlled U      condition loaded onto a spare internal qubit,
                          inner gate applied with that qubit as control

Gate catalogue conventions (pinned by the oracle tests):

  logical R_X(t) on an internal qubit  = carrier(t, 0)
  logical R_Y(t) on an internal qubit  = carrier(-t, -pi/2)
  logical R_Z(t) on an internal qubit  = qphase(-t)
  logical R_X(t) on a dual-rail qubit  = B(t/2, pi)
  logical R_Y(t) on a dual-rail qubit  = B(t/2, +pi/2)
  reversed-direction CNOT              = Hadamard conjugation on both
                                         operands, H built from R_X/R_Y

`GATES` is the one table of document gate names (arity, LogicalGate
builder, ideal matrix); `lower` walks a whole program through it for the
compile, run and verify commands.

Global phases stated by the constructions (e^{i pi/4} per hybrid CNOT,
e^{i pi/2} per odd-N CSWAP and per exchange composite, the su2 phase
alpha) accumulate in the program ledger and are never corrected with
physical pulses.
"""
from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .encoding import LogicalRegister, RegisterEntry, prepare_dual_rail_zero
from .errors import CompileError, RegisterError
from .pulses import (
    PhysicalOp,
    carrier,
    cbs,
    native_xx,
    qphase,
    rsb,
    zbs,
)

ANGLE_EPS = 1e-12
SU2_TOL = 1e-10

_PI = np.pi

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = (PAULI_X + PAULI_Z) / np.sqrt(2)
S_GATE = np.diag([1, 1j]).astype(complex)


def rotation_matrix(axis: str, theta: float) -> np.ndarray:
    pauli = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}[axis]
    return (np.cos(theta / 2) * np.eye(2)
            - 1j * np.sin(theta / 2) * pauli)


@dataclass
class LogicalGate:
    """One gate of the logical circuit."""

    kind: str
    operands: tuple[str, ...]
    theta: float | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)
    inner: "LogicalGate | None" = None


def su2(matrix: np.ndarray, target: str) -> LogicalGate:
    return LogicalGate("su2", (target,), matrix=np.asarray(matrix, dtype=complex))


def rx(theta: float, target: str) -> LogicalGate:
    return su2(rotation_matrix("x", theta), target)


def ry(theta: float, target: str) -> LogicalGate:
    return su2(rotation_matrix("y", theta), target)


def rz(theta: float, target: str) -> LogicalGate:
    return su2(rotation_matrix("z", theta), target)


def x(target: str) -> LogicalGate:
    return su2(PAULI_X, target)


def y(target: str) -> LogicalGate:
    return su2(PAULI_Y, target)


def z(target: str) -> LogicalGate:
    return su2(PAULI_Z, target)


def h(target: str) -> LogicalGate:
    return su2(HADAMARD, target)


def s(target: str) -> LogicalGate:
    return su2(S_GATE, target)


def sdg(target: str) -> LogicalGate:
    return su2(S_GATE.conj().T, target)


def rzz(theta: float, d1: str, d2: str) -> LogicalGate:
    return LogicalGate("rzz", (d1, d2), theta=theta)


def rxx(theta: float, a: str, b: str) -> LogicalGate:
    return LogicalGate("rxx", (a, b), theta=theta)


def cnot(control: str, target: str) -> LogicalGate:
    return LogicalGate("cnot", (control, target))


def cswap(control: str, *targets: str) -> LogicalGate:
    return LogicalGate("cswap", (control, *targets))


def kcnot(controls: Sequence[str], target: str) -> LogicalGate:
    return LogicalGate("kcnot", (*controls, target))


def mcx(controls: Sequence[str], target: str) -> LogicalGate:
    return LogicalGate("multi_controlled", tuple(controls),
                       inner=LogicalGate("cnot", (target,)))


def mcswap(controls: Sequence[str], *targets: str) -> LogicalGate:
    return LogicalGate("multi_controlled", tuple(controls),
                       inner=LogicalGate("cswap", tuple(targets)))


@dataclass
class AncillaUse:
    gate: str
    qubits: tuple[str, ...] = ()
    modes: tuple[str, ...] = ()


@dataclass
class CompiledProgram:
    """Ordered pulse list with ancilla manifest and phase ledger.

    `global_phase` is the angle phi such that the physical action on the
    logical subspace equals e^{i phi} times the intended gate.
    """

    ops: list[PhysicalOp] = field(default_factory=list)
    ancilla_manifest: list[AncillaUse] = field(default_factory=list)
    global_phase: float = 0.0

    def add(self, ops: Sequence[PhysicalOp], phase: float = 0.0) -> None:
        self.ops.extend(ops)
        self.global_phase += phase

    def extend(self, other: "CompiledProgram") -> None:
        self.ops.extend(other.ops)
        self.ancilla_manifest.extend(other.ancilla_manifest)
        self.global_phase += other.global_phase

    def borrow(self, gate: str, qubits: Sequence[str] = (),
               modes: Sequence[str] = ()) -> None:
        self.ancilla_manifest.append(
            AncillaUse(gate, tuple(qubits), tuple(modes)))

    @property
    def phase_mod_2pi(self) -> float:
        return float(np.mod(self.global_phase, 2 * _PI))

    def rsb_unitary_count(self) -> int:
        """Sideband-type unitaries: plain rsb pulses plus aux-mode pairs.

        One auxiliary-transition unitary compiles to two aux-flagged ZBS
        pulses, so flagged pulses are counted in pairs.
        """
        plain = sum(1 for op in self.ops if op.kind == "rsb" and not op.aux_flag)
        flagged = sum(1 for op in self.ops if op.aux_flag)
        if flagged % 2:
            raise CompileError("dangling aux-flagged pulse")
        return plain + flagged // 2


# ---------------------------------------------------------------------------
# Single-qubit lowering


def _zyz_su2(w: np.ndarray) -> tuple[float, float, float]:
    """Angles (beta, gamma, delta) with w = R_Z(beta) R_Y(gamma) R_Z(delta)."""
    gamma = 2 * np.arctan2(abs(w[1, 0]), abs(w[0, 0]))
    if abs(w[1, 0]) < 1e-12:
        return float(-2 * np.angle(w[0, 0])), 0.0, 0.0
    if abs(w[0, 0]) < 1e-12:
        return float(2 * np.angle(w[1, 0])), float(gamma), 0.0
    sum_bd = -2 * np.angle(w[0, 0])
    dif_bd = 2 * np.angle(w[1, 0])
    return (float((sum_bd + dif_bd) / 2), float(gamma),
            float((sum_bd - dif_bd) / 2))


def xy_decompose(u: np.ndarray) -> tuple[float, float, float, float]:
    """U = e^{i alpha} R_X(theta1) R_Y(theta2) R_X(theta3) for U in U(2)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise CompileError("single-qubit gate needs a 2x2 matrix")
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(2))))
    if defect > SU2_TOL:
        raise CompileError(f"matrix is not unitary (defect {defect:.3e})")
    alpha = float(np.angle(np.linalg.det(u)) / 2)
    v = np.exp(-1j * alpha) * u
    # Conjugating by H swaps the X and Y roles into a standard ZYZ problem.
    w = HADAMARD @ v @ HADAMARD
    beta, gamma, delta = _zyz_su2(w)
    return alpha, beta, -gamma, delta


def _xy_angles(u: np.ndarray) -> tuple[float, list[tuple[str, float]]]:
    """X-Y rotation list in application order, with tiny angles elided."""
    alpha, th1, th2, th3 = xy_decompose(u)
    if abs(th2) < ANGLE_EPS:
        rots = [("x", th1 + th3)]
    else:
        rots = [("x", th3), ("y", th2), ("x", th1)]
    return alpha, [(ax, th) for ax, th in rots if abs(th) >= ANGLE_EPS]


def _internal_rotation(axis: str, theta: float, q: str) -> PhysicalOp:
    if axis == "x":
        return carrier(theta, 0.0, q)
    if axis == "y":
        return carrier(-theta, -_PI / 2, q)
    raise CompileError(f"no internal pulse for axis {axis!r}")


def _rail_rotation(axis: str, theta: float, d0: str, d1: str,
                   anc: str) -> PhysicalOp:
    phi = {"x": _PI, "y": _PI / 2}[axis]
    return zbs(theta / 2, phi, anc, d0, d1)


def compile_su2_internal(register: LogicalRegister, matrix: np.ndarray,
                         logical_id: str) -> CompiledProgram:
    """Arbitrary single-qubit gate on a logical internal qubit."""
    entry = register.entry(logical_id)
    if entry.is_dual_rail:
        raise CompileError(f"{logical_id!r} is not an internal qubit")
    prog = CompiledProgram()
    u = np.asarray(matrix, dtype=complex)
    if max(abs(u[0, 1]), abs(u[1, 0])) < 1e-14:
        # Diagonal gates map to free evolution instead of three pulses.
        theta = float(np.angle(u[1, 1] / u[0, 0]))
        alpha = float(np.angle(u[0, 0]) + theta / 2)
        if abs(theta) >= ANGLE_EPS:
            prog.add([qphase(-theta, entry.qubit)])
        prog.global_phase -= alpha
        return prog
    alpha, rots = _xy_angles(u)
    # The pulses realize the SU(2) factor, so the physical action is
    # e^{-i alpha} times the requested matrix.
    prog.add([_internal_rotation(ax, th, entry.qubit) for ax, th in rots],
             -alpha)
    return prog


def compile_su2_dual(register: LogicalRegister, matrix: np.ndarray,
                     logical_id: str, ancilla_qubit: str) -> CompiledProgram:
    """Arbitrary single-qubit gate on a dual-rail qubit via beamsplitters."""
    entry = register.entry(logical_id)
    if not entry.is_dual_rail:
        raise CompileError(f"{logical_id!r} is not a dual-rail qubit")
    d0, d1 = entry.rails
    alpha, rots = _xy_angles(matrix)
    prog = CompiledProgram()
    prog.add([_rail_rotation(ax, th, d0, d1, ancilla_qubit)
              for ax, th in rots], -alpha)
    if rots:
        prog.borrow(f"su2:{logical_id}", qubits=(ancilla_qubit,))
    return prog


H_PHASE = -_PI / 2  # R_X(pi) R_Y(pi/2) = e^{-i pi/2} H


def _h_internal_ops(q: str) -> list[PhysicalOp]:
    return [_internal_rotation("y", _PI / 2, q),
            _internal_rotation("x", _PI, q)]


def _h_rail_ops(d0: str, d1: str, anc: str) -> list[PhysicalOp]:
    return [_rail_rotation("y", _PI / 2, d0, d1, anc),
            _rail_rotation("x", _PI, d0, d1, anc)]


# ---------------------------------------------------------------------------
# Two-qubit gates


def tnp_sequence(theta: float, qubit: str, mode1: str,
                 mode2: str) -> list[PhysicalOp]:
    """Total-number-parity phase circuit on two raw modes.

    Applies exp(i (-1)^{n+m+1} theta / 2) to the Fock pair |n>|m> and
    returns the conditioning qubit to the ground state.
    """
    swap = zbs(_PI / 2, 0.0, qubit, mode1, mode2)
    unswap = zbs(-_PI / 2, 0.0, qubit, mode1, mode2)
    return [
        carrier(-_PI / 2, -_PI / 2, qubit),   # script y-rotation by -pi/2
        swap,
        carrier(theta, 0.0, qubit),           # script x-rotation by theta
        unswap,
        carrier(_PI / 2, -_PI / 2, qubit),
    ]


def compile_rzz(register: LogicalRegister, theta: float, d1_id: str,
                d2_id: str, ancilla_qubit: str) -> CompiledProgram:
    """ZZ-rotation between two dual-rail qubits via the parity phase."""
    e1, e2 = register.entry(d1_id), register.entry(d2_id)
    if not (e1.is_dual_rail and e2.is_dual_rail):
        raise CompileError("rzz operands must both be dual-rail")
    prog = CompiledProgram()
    # The occupied second rail decides the computational basis state, so
    # the parity circuit runs on the two second rails.
    prog.add(tnp_sequence(theta, ancilla_qubit, e1.rails[1], e2.rails[1]))
    prog.borrow(f"rzz:{d1_id},{d2_id}", qubits=(ancilla_qubit,))
    return prog


def _cnot_q_to_rails(q: str, d0: str, d1: str,
                     anc: str) -> tuple[list[PhysicalOp], float]:
    """Internal-controls-dual-rail CNOT; physical = e^{i pi/4} CNOT."""
    ops = cbs(_PI / 2, 0.0, q, d0, d1, anc)
    ops.append(qphase(_PI / 2, q))
    return ops, _PI / 4


def _cnot_rails_to_q(q: str, d0: str, d1: str,
                     anc: str) -> tuple[list[PhysicalOp], float]:
    """Dual-rail-controls-internal CNOT via Hadamard conjugation."""
    ops: list[PhysicalOp] = []
    ops += _h_internal_ops(q)
    ops += _h_rail_ops(d0, d1, anc)
    fwd, fwd_phase = _cnot_q_to_rails(q, d0, d1, anc)
    ops += fwd
    ops += _h_internal_ops(q)
    ops += _h_rail_ops(d0, d1, anc)
    return ops, fwd_phase + 4 * H_PHASE


def compile_cnot_hybrid(register: LogicalRegister, control: str, target: str,
                        ancilla_qubit: str) -> CompiledProgram:
    """CNOT between a logical internal qubit and a dual-rail qubit."""
    ce, te = register.entry(control), register.entry(target)
    if ce.is_dual_rail == te.is_dual_rail:
        raise CompileError("hybrid cnot needs one internal and one dual-rail operand")
    prog = CompiledProgram()
    if not ce.is_dual_rail:
        ops, phase = _cnot_q_to_rails(ce.qubit, *te.rails, anc=ancilla_qubit)
    else:
        ops, phase = _cnot_rails_to_q(te.qubit, *ce.rails, anc=ancilla_qubit)
    prog.add(ops, phase)
    prog.borrow(f"cnot:{control}->{target}", qubits=(ancilla_qubit,))
    return prog


def compile_cnot_internal(register: LogicalRegister, control: str,
                          target: str) -> CompiledProgram:
    """CNOT between two logical internal qubits via the native XX gate."""
    ce, te = register.entry(control), register.entry(target)
    if ce.is_dual_rail or te.is_dual_rail:
        raise CompileError("internal cnot needs two internal operands")
    prog = CompiledProgram()
    prog.add(*_native_cnot(ce.qubit, te.qubit))
    return prog


def _native_cnot(c: str, t: str) -> tuple[list[PhysicalOp], float]:
    """CNOT between two internal qubits; physical = e^{i pi/4} CNOT."""
    return [
        _internal_rotation("y", _PI / 2, c),
        native_xx(_PI / 2, c, t),
        _internal_rotation("x", -_PI / 2, t),
        _internal_rotation("x", -_PI / 2, c),
        _internal_rotation("y", -_PI / 2, c),
    ], _PI / 4


def compile_rxx_hybrid(register: LogicalRegister, theta: float, q_id: str,
                       d_id: str) -> CompiledProgram:
    """XX-rotation between an internal and a dual-rail qubit; no ancilla."""
    qe, de = register.entry(q_id), register.entry(d_id)
    if qe.is_dual_rail or not de.is_dual_rail:
        raise CompileError("hybrid rxx needs (internal, dual-rail) operands")
    d0, d1 = de.rails
    q = qe.qubit
    prog = CompiledProgram()
    prog.add([
        zbs(-_PI / 4, 0.0, q, d0, d1),
        carrier(-theta, -_PI / 2, q),   # script y-rotation by -theta
        zbs(_PI / 4, 0.0, q, d0, d1),
    ])
    return prog


def compile_native_xx(register: LogicalRegister, theta: float, q1: str,
                      q2: str) -> CompiledProgram:
    e1, e2 = register.entry(q1), register.entry(q2)
    if e1.is_dual_rail or e2.is_dual_rail:
        raise CompileError("native xx needs two internal operands")
    prog = CompiledProgram()
    prog.add([native_xx(theta, e1.qubit, e2.qubit)])
    return prog


def compile_cswap(register: LogicalRegister, control: str,
                  targets: Sequence[str],
                  ancilla_qubit: str) -> CompiledProgram:
    """Controlled SWAP of two N-qubit dual-rail registers.

    Pairs target i with target N+i; each pair costs two conditional
    beamsplitters.  The leftover (-1)^N on the excited control branch is
    cancelled by a sigma_z rotation for odd N, which leaves the stated
    e^{i pi/2} overall phase.
    """
    ce = register.entry(control)
    if ce.is_dual_rail:
        raise CompileError("cswap control must be a logical internal qubit")
    prog = _cswap(register, ce.qubit, targets, ancilla_qubit)
    prog.borrow(f"cswap:{control}", qubits=(ancilla_qubit,))
    return prog


def _cswap(register: LogicalRegister, q: str, targets: Sequence[str],
           anc: str) -> CompiledProgram:
    """CSWAP pulses controlled by the physical qubit `q`."""
    tentries = [register.entry(t) for t in targets]
    if len(tentries) < 2 or len(tentries) % 2:
        raise CompileError("cswap needs an even number (>= 2) of targets")
    if any(not e.is_dual_rail for e in tentries):
        raise CompileError("cswap targets must be dual-rail qubits")
    if len({e.logical_id for e in tentries}) != len(tentries):
        raise CompileError("cswap targets overlap")
    n = len(tentries) // 2
    prog = CompiledProgram()
    for i in range(n):
        a, b = tentries[i], tentries[n + i]
        prog.add(cbs(_PI / 2, 0.0, q, a.rails[1], b.rails[1], anc))
        prog.add(cbs(_PI / 2, 0.0, q, a.rails[0], b.rails[0], anc))
    if n % 2:
        prog.add([qphase(_PI, q)], _PI / 2)
    return prog


# ---------------------------------------------------------------------------
# Exchange and the multi-controlled constructions

EXCHANGE_PHASE = _PI / 2  # two chained CNOTs at e^{i pi/4} each


def _exchange_out_ops(q: str, d0: str, d1: str,
                      anc: str) -> tuple[list[PhysicalOp], float]:
    """C1 C2: move a dual-rail state onto a ground internal qubit.

    Leaves the rails parked in the |0> codeword; carries e^{i pi/2}.
    """
    ops2, ph2 = _cnot_rails_to_q(q, d0, d1, anc)
    ops1, ph1 = _cnot_q_to_rails(q, d0, d1, anc)
    return ops2 + ops1, ph1 + ph2


def _exchange_back_ops(q: str, d0: str, d1: str,
                       anc: str) -> tuple[list[PhysicalOp], float]:
    """C2 C1: move the internal-qubit state back onto the rails."""
    ops1, ph1 = _cnot_q_to_rails(q, d0, d1, anc)
    ops2, ph2 = _cnot_rails_to_q(q, d0, d1, anc)
    return ops1 + ops2, ph1 + ph2


def compile_exchange(register: LogicalRegister, d_id: str, qubit_id: str,
                     ancilla_qubit: str
                     ) -> tuple[CompiledProgram, CompiledProgram]:
    """The two hybrid CNOTs whose products exchange rails and qubit.

    Returns (C1, C2): C1 has the internal qubit as control, C2 the
    dual-rail qubit.  C1*C2 maps (a|10> + b|01>)|g> to |10>(a|g> + b|e>)
    up to e^{i pi/2}; C2*C1 inverts it on the coupled subspace.
    """
    de = register.entry(d_id)
    if not de.is_dual_rail:
        raise CompileError(f"{d_id!r} is not a dual-rail qubit")
    if not register.layout.is_qubit(qubit_id):
        raise CompileError(f"{qubit_id!r} is not a qubit")
    d0, d1 = de.rails
    c1 = CompiledProgram()
    ops, phase = _cnot_q_to_rails(qubit_id, d0, d1, ancilla_qubit)
    c1.add(ops, phase)
    c1.borrow(f"exchange-c1:{d_id}", qubits=(ancilla_qubit,))
    c2 = CompiledProgram()
    ops, phase = _cnot_rails_to_q(qubit_id, d0, d1, ancilla_qubit)
    c2.add(ops, phase)
    c2.borrow(f"exchange-c2:{d_id}", qubits=(ancilla_qubit,))
    return c1, c2


def _aux_rsb_pi(q: str, aux_mode: str, com: str,
                bs_anc: str) -> list[PhysicalOp]:
    """Auxiliary-transition pi-pulse: ZBS(-pi/4) after B(-pi/4).

    Moves the COM phonon into the auxiliary mode when the qubit is in the
    ground state; the excited branch is untouched.  Both pulses carry the
    aux flag so sideband-unitary counting can group them.
    """
    return [
        zbs(-_PI / 4, 0.0, bs_anc, aux_mode, com).with_aux_flag(),
        zbs(-_PI / 4, 0.0, q, aux_mode, com).with_aux_flag(),
    ]


class _AncillaPool:
    """Least-recently-used checkout over the register's ancilla qubits."""

    def __init__(self, register: LogicalRegister):
        self._free = deque(register.ancilla_qubits)

    def take(self, label: str) -> str:
        if not self._free:
            raise CompileError(f"{label}: ancilla pool exhausted")
        return self._free.popleft()

    def release(self, *ids: str) -> None:
        for sid in ids:
            if sid is not None:
                self._free.append(sid)

    @contextmanager
    def borrowed(self, label: str):
        """One ancilla for the body, returned to the pool afterwards."""
        anc = self.take(label)
        try:
            yield anc
        finally:
            self.release(anc)


def compile_kcnot(register: LogicalRegister, controls: Sequence[str],
                  target: str, pool: _AncillaPool | None = None
                  ) -> CompiledProgram:
    """Multi-controlled X through the COM phonon bus.

    The target flip fires only while the bus phonon survives the ladder,
    and the mirrored unwind restores all controls.  Controls beyond the
    first and the target must be registered with auxiliary modes.
    """
    return _bus_ladder(register, "kcnot", controls, pool, target=target)


def compile_multi_controlled(register: LogicalRegister,
                             controls: Sequence[str], inner: LogicalGate,
                             pool: _AncillaPool | None = None
                             ) -> CompiledProgram:
    """General multi-controlled gate via a condition qubit.

    K+1 sideband-type unitaries store "all controls are |1>" on a spare
    internal qubit q_c, the inner gate runs with q_c as its control, and
    K+1 mirrored unitaries restore the controls and return q_c to |0>.
    """
    return _bus_ladder(register, "multi_controlled", controls, pool,
                       inner=inner)


def _bus_ladder(register: LogicalRegister, gate: str,
                controls: Sequence[str], pool: _AncillaPool | None,
                target: str | None = None,
                inner: LogicalGate | None = None) -> CompiledProgram:
    """Controls loaded onto the COM bus, a middle, and the mirrored unwind.

    The first control loads its excitation into the bus with a sideband
    pi-pulse; every further control removes the phonon through its
    auxiliary mode unless it is in |1>, so the bus never holds more than
    one phonon.  The middle flips `target` (K-CNOT) or, with `inner`,
    stores the bus on a pool qubit q_c that controls the inner gate.  A
    dual-rail rung is exchanged onto a pool qubit around its pulses.
    Pool qubits are checked out as q_c, the beamsplitter ancilla, then
    the exchange ancilla; that order decides the pulse targets.
    """
    need = 2 if inner is None else 1
    if len(controls) < need:
        raise CompileError(f"{gate} needs at least {need} control(s)")
    rung_ids = [*controls] if inner is not None else [*controls, target]
    entries = [register.entry(i) for i in rung_ids]
    if len(set(rung_ids)) != len(rung_ids):
        raise CompileError(f"{gate} operands overlap")
    com = register.com_mode
    if com is None:
        raise CompileError(f"{gate} needs a register with a reserved COM mode")
    for e in entries[1:]:
        if e.aux_mode is None:
            raise CompileError(
                f"{e.logical_id!r} must carry an auxiliary mode for {gate}")

    pool = pool or _AncillaPool(register)
    q_c = pool.take(gate) if inner is not None else None
    exchange = any(e.is_dual_rail for e in entries)
    need_bs = len(controls) > 1 or (inner is not None and (
        inner.kind == "cswap" or (
            inner.kind == "cnot"
            and register.entry(inner.operands[0]).is_dual_rail)))
    bs_anc = pool.take(gate) if need_bs or exchange else None
    ex_anc = pool.take(gate) if exchange else None

    prog = CompiledProgram()

    def rung(entry: RegisterEntry,
             pulses: Callable[[str], list[PhysicalOp]]) -> None:
        if not entry.is_dual_rail:
            prog.add(pulses(entry.qubit))
            return
        d0, d1 = entry.rails
        prog.add(*_exchange_out_ops(ex_anc, d0, d1, bs_anc))
        prog.add(pulses(ex_anc))
        prog.add(*_exchange_back_ops(ex_anc, d0, d1, bs_anc))

    ladder = [(entries[0], lambda q: [rsb(_PI, q, com)])]
    ladder += [(e, lambda q, b=e.aux_mode: _aux_rsb_pi(q, b, com, bs_anc))
               for e in entries[1:len(controls)]]
    for entry, pulses in ladder:
        rung(entry, pulses)
    if inner is None:
        # A 2*pi auxiliary rotation puts -1 on (ground target, occupied
        # bus); the surrounding y-rotations turn that into -X on the
        # occupied-bus branch, which cancels the ladder's own -1 on the
        # all-ones sector.
        b = entries[-1].aux_mode
        rung(entries[-1], lambda q: [
            _internal_rotation("y", -_PI / 2, q),
            *_aux_rsb_pi(q, b, com, bs_anc), *_aux_rsb_pi(q, b, com, bs_anc),
            _internal_rotation("y", _PI / 2, q)])
    else:
        prog.add([rsb(_PI, q_c, com)])
        prog.extend(_compile_inner(register, inner, q_c, bs_anc))
        prog.add([rsb(_PI, q_c, com)])
    for entry, pulses in reversed(ladder):
        rung(entry, pulses)

    label = f"{gate}:{','.join(controls)}"
    if inner is None:
        label += f"->{target}"
    prog.borrow(label, qubits=tuple(q for q in (q_c, bs_anc, ex_anc)
                                    if q is not None), modes=(com,))
    pool.release(q_c, bs_anc, ex_anc)
    return prog


def _compile_inner(register: LogicalRegister, inner: LogicalGate,
                   q_c: str, bs_anc: str) -> CompiledProgram:
    """Inner single-qubit-controlled gate with the condition qubit q_c."""
    if inner.kind == "cswap":
        return _cswap(register, q_c, inner.operands, bs_anc)
    if inner.kind != "cnot":
        raise CompileError(f"unsupported inner gate kind {inner.kind!r}")
    (target,) = inner.operands
    te = register.entry(target)
    prog = CompiledProgram()
    if te.is_dual_rail:
        prog.add(*_cnot_q_to_rails(q_c, *te.rails, anc=bs_anc))
    else:
        # q_c is a bare ancilla, so emit the native decomposition directly.
        prog.add(*_native_cnot(q_c, te.qubit))
    return prog


# ---------------------------------------------------------------------------
# Whole-circuit lowering


def compile_gate(register: LogicalRegister, gate: LogicalGate,
                 pool: _AncillaPool) -> CompiledProgram:
    kind = gate.kind
    if kind == "su2":
        (target,) = gate.operands
        if register.entry(target).is_dual_rail:
            with pool.borrowed("su2") as anc:
                return compile_su2_dual(register, gate.matrix, target, anc)
        return compile_su2_internal(register, gate.matrix, target)
    if kind == "rzz":
        with pool.borrowed("rzz") as anc:
            return compile_rzz(register, gate.theta, *gate.operands,
                               ancilla_qubit=anc)
    if kind == "rxx":
        a, b = gate.operands
        ea, eb = register.entry(a), register.entry(b)
        if not ea.is_dual_rail and not eb.is_dual_rail:
            return compile_native_xx(register, gate.theta, a, b)
        if ea.is_dual_rail and eb.is_dual_rail:
            raise CompileError("rxx between two dual-rail qubits is not lowered")
        q, d = (a, b) if not ea.is_dual_rail else (b, a)
        return compile_rxx_hybrid(register, gate.theta, q, d)
    if kind == "cnot":
        control, target = gate.operands
        ce, te = register.entry(control), register.entry(target)
        if not ce.is_dual_rail and not te.is_dual_rail:
            return compile_cnot_internal(register, control, target)
        if ce.is_dual_rail and te.is_dual_rail:
            raise CompileError(
                "cnot between two dual-rail qubits is not lowered; "
                "use rzz with single-qubit gates")
        with pool.borrowed("cnot") as anc:
            return compile_cnot_hybrid(register, control, target, anc)
    if kind == "cswap":
        control, *targets = gate.operands
        with pool.borrowed("cswap") as anc:
            return compile_cswap(register, control, targets, anc)
    if kind == "kcnot":
        *controls, target = gate.operands
        return compile_kcnot(register, controls, target, pool)
    if kind == "multi_controlled":
        return compile_multi_controlled(register, gate.operands, gate.inner,
                                        pool)
    raise CompileError(f"unknown gate kind {kind!r}")


# The step kinds a program record lowers to; they are also the `kind`
# field of the compile report's steps.
PULSES = "pulses"
ERROR_INJECTION = "error-injection"
PARITY_CHECK = "parity-check"


@dataclass(frozen=True)
class GateSpec:
    """One row of the gate table.

    `build` maps (params, operands) to the LogicalGate to lower, and
    `ideal` maps (params, operand count) to the textbook matrix over the
    operands, first operand most significant.  Directives, whose `step`
    is not PULSES, have neither.
    """

    n_params: int
    min_operands: int
    max_operands: int | None
    build: Callable[[Sequence[float], Sequence[str]], LogicalGate] | None = None
    ideal: Callable[[Sequence[float], int], np.ndarray] | None = None
    step: str = PULSES


def _one_qubit(n_params: int, builder: Callable[..., LogicalGate]) -> GateSpec:
    """Row of a single-qubit gate; its ideal matrix is the builder's."""
    return GateSpec(n_params, 1, 1,
                    build=lambda p, ops: builder(*p, ops[0]),
                    ideal=lambda p, n: builder(*p, "").matrix.copy())


def _rxx_ideal(params: Sequence[float], n: int) -> np.ndarray:
    t = params[0]
    xx = np.kron(PAULI_X, PAULI_X)
    return np.cos(t / 2) * np.eye(4) - 1j * np.sin(t / 2) * xx


def _controlled_ideal(n: int, n_targets: int,
                      image: Callable[[int], int]) -> np.ndarray:
    """Permutation mapping the last `n_targets` operand bits t to image(t)
    when every operand before them is 1."""
    controls = (1 << (n - n_targets)) - 1
    rows = [(col >> n_targets << n_targets) | image(col % (1 << n_targets))
            if col >> n_targets == controls else col
            for col in range(2 ** n)]
    return np.eye(2 ** n, dtype=complex)[:, rows]


def _controlled_x_ideal(params: Sequence[float], n: int) -> np.ndarray:
    return _controlled_ideal(n, 1, lambda t: t ^ 1)


def _controlled_swap_ideal(n: int, n_targets: int) -> np.ndarray:
    """Exchange the first and second half of the target operands."""
    half = n_targets // 2
    return _controlled_ideal(
        n, n_targets, lambda t: (t % (1 << half)) << half | t >> half)


GATES: dict[str, GateSpec] = {
    "x": _one_qubit(0, x), "y": _one_qubit(0, y), "z": _one_qubit(0, z),
    "h": _one_qubit(0, h), "s": _one_qubit(0, s), "sdg": _one_qubit(0, sdg),
    "rx": _one_qubit(1, rx), "ry": _one_qubit(1, ry), "rz": _one_qubit(1, rz),
    "rzz": GateSpec(1, 2, 2, lambda p, ops: rzz(p[0], *ops), lambda p, n: (
        np.diag(np.exp(-1j * p[0] / 2 * np.array([1, -1, -1, 1]))))),
    "rxx": GateSpec(1, 2, 2, lambda p, ops: rxx(p[0], *ops), _rxx_ideal),
    "xx": GateSpec(1, 2, 2, lambda p, ops: rxx(p[0], *ops), _rxx_ideal),
    "cnot": GateSpec(0, 2, 2, lambda p, ops: cnot(*ops), _controlled_x_ideal),
    "cswap": GateSpec(0, 3, None, lambda p, ops: cswap(*ops),
                      lambda p, n: _controlled_swap_ideal(n, n - 1)),
    "kcnot": GateSpec(0, 3, None, lambda p, ops: kcnot(ops[:-1], ops[-1]),
                      _controlled_x_ideal),
    "mcx": GateSpec(0, 2, None, lambda p, ops: mcx(ops[:-1], ops[-1]),
                    _controlled_x_ideal),
    "mcswap": GateSpec(0, 4, None,
                       lambda p, ops: mcswap(ops[:-2], *ops[-2:]),
                       lambda p, n: _controlled_swap_ideal(n, 2)),
    "loss": GateSpec(0, 1, 1, step=ERROR_INJECTION),
    "gain": GateSpec(0, 1, 1, step=ERROR_INJECTION),
    "qndcheck": GateSpec(0, 1, 1, step=PARITY_CHECK),
}


@dataclass
class Step:
    """One lowered program record; `program` is None for directives."""

    index: int
    record: object
    kind: str
    program: CompiledProgram | None = None


def _preparation(register: LogicalRegister) -> CompiledProgram:
    """Pulses loading every dual-rail register into |0> from the ground state."""
    prog = CompiledProgram()
    dual = [e for e in register.entries if e.is_dual_rail]
    if dual and not register.ancilla_qubits:
        raise RegisterError("dual-rail preparation needs an ancilla qubit")
    for entry in dual:
        prog.add(*prepare_dual_rail_zero(register, entry.logical_id,
                                         register.ancilla_qubits[0]))
    return prog


def lower(register: LogicalRegister, records: Sequence,
          prepare: bool = True) -> tuple[CompiledProgram, list[Step]]:
    """Lower a program: (preparation pulses, one step per record).

    A record is a document gate record (`name`, `params`, `operands`),
    dispatched through GATES, or a LogicalGate, lowered as it is.  One
    ancilla pool serves the whole program.  The preparation is empty
    unless `prepare` is set.  A parity check needs a dual-rail target and
    a register with an ancilla.  Compile and register errors are raised
    as CompileError naming the record: `gate {index} ({name}): ...`.
    """
    preparation = _preparation(register) if prepare else CompiledProgram()
    pool = _AncillaPool(register)
    steps = []
    for i, rec in enumerate(records):
        if isinstance(rec, LogicalGate):
            name, kind, gate = rec.kind, PULSES, rec
        else:
            spec = GATES[rec.name]
            name, kind = rec.name, spec.step
            gate = spec.build(rec.params, rec.operands) if spec.build else None
        step = Step(i, rec, kind)
        try:
            if gate is not None:
                step.program = compile_gate(register, gate, pool)
            elif kind == PARITY_CHECK:
                if not register.entry(rec.operands[0]).is_dual_rail:
                    raise CompileError("qndcheck target must be dual-rail")
                if not register.ancilla_qubits:
                    raise RegisterError("qndcheck needs an ancilla qubit")
        except (CompileError, RegisterError) as exc:
            raise CompileError(f"gate {i} ({name}): {exc}") from exc
        steps.append(step)
    return preparation, steps


def compile_program(circuit: Sequence[LogicalGate],
                    register: LogicalRegister) -> CompiledProgram:
    """Lower a logical circuit, with per-gate ancilla checkout and return."""
    program = CompiledProgram()
    for step in lower(register, circuit, prepare=False)[1]:
        program.extend(step.program)
    return program
