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

`GATES` is the one table of document gate names: each row holds the
arity, the lowering of a document record to pulses, and the ideal
matrix.  `lower` walks a whole program of records through it for the
compile, run and verify commands, which all name a failing step by
`Step.error`.  A lowering takes only the register
and the record's parameters and operands: each gate takes the pool
ancillas it needs in register order, so equal records lower to equal
pulses wherever they sit in the program.

Global phases stated by the constructions (e^{i pi/4} per hybrid CNOT,
e^{i pi/2} per odd-N CSWAP and per exchange composite, the su2 phase
alpha) accumulate in the program ledger and are never corrected with
physical pulses.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .encoding import LogicalRegister, RegisterEntry, prepare_dual_rail_zero
from .errors import CompileError, RegisterError
from .fock import UNITARITY_TOL
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

_PI = np.pi

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = (PAULI_X + PAULI_Z) / np.sqrt(2)
S_GATE = np.diag([1, 1j]).astype(complex)


def rotation_matrix(axis: str, theta: float) -> np.ndarray:
    """R_axis(theta) = cos(theta/2) I - i sin(theta/2) sigma_axis."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    rows = {"x": ((c, complex(0.0, -s)), (complex(0.0, -s), c)),
            "y": ((c, -s), (s, c)),
            "z": ((complex(c, -s), 0.0), (0.0, complex(c, s)))}[axis]
    return np.array(rows, dtype=complex)


def mod_2pi(phase: float) -> float:
    """A phase in [0, 2 pi), as the reports print it.  `np.mod` rounds a
    phase just below 0 up to 2 pi itself, which is 0."""
    wrapped = float(np.mod(phase, 2 * _PI))
    return 0.0 if wrapped == 2 * _PI else wrapped


class AncillaUse(NamedTuple):
    gate: str
    qubits: tuple[str, ...] = ()
    modes: tuple[str, ...] = ()


class CompiledProgram:
    """Ordered pulse list with ancilla manifest and phase ledger.

    `global_phase` is the angle phi such that the physical action on the
    logical subspace equals e^{i phi} times the intended gate.
    """

    def __init__(self, ops: Sequence[PhysicalOp] = (),
                 ancilla_manifest: Sequence[AncillaUse] = (),
                 global_phase: float = 0.0):
        self.ops = list(ops)
        self.ancilla_manifest = list(ancilla_manifest)
        self.global_phase = global_phase

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
        return mod_2pi(self.global_phase)

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


def _ancillas(register: LogicalRegister, label: str,
              roles: Sequence[bool] = (True,)) -> list[str | None]:
    """One pool ancilla per role that needs one, in register order, else None.

    Every gate returns its ancillas to the ground state, so each lowering
    starts from the whole pool and depends only on the register and the
    record.
    """
    if sum(roles) > len(register.ancilla_qubits):
        raise CompileError(f"{label}: ancilla pool exhausted")
    free = iter(register.ancilla_qubits)
    return [next(free) if role else None for role in roles]


# ---------------------------------------------------------------------------
# Single-qubit lowering


def _abs2(z: complex) -> float:
    """|z|^2, which overflows to inf where abs(z) would raise."""
    return z.real * z.real + z.imag * z.imag


def _phase(z: complex) -> float:
    """cmath.phase of a finite z, without loading the cmath extension."""
    return math.atan2(z.imag, z.real)


def xy_decompose(u: np.ndarray) -> tuple[float, float, float, float]:
    """U = e^{i alpha} R_X(theta1) R_Y(theta2) R_X(theta3) for U in U(2).

    Closed form on the four entries [[a, b], [c, d]]: alpha is half the
    phase of det U, and conjugating v = e^{-i alpha} U by the Hadamard
    swaps the X and Y roles into the ZYZ angles of w = H v H, which need
    only w's first column.  A matrix whose largest entry of U^H U - I
    exceeds `fock.UNITARITY_TOL`, or is NaN, is refused.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise CompileError("single-qubit gate needs a 2x2 matrix")
    (a, b), (c, d) = u.tolist()
    # The largest entry of U^H U - I.  A NaN or infinite entry makes the
    # off-diagonal entry NaN or inf, and max() keeps a NaN only when it
    # comes first.
    defect = max(math.sqrt(_abs2(a.conjugate() * b + c.conjugate() * d)),
                 abs(_abs2(a) + _abs2(c) - 1), abs(_abs2(b) + _abs2(d) - 1))
    if not defect <= UNITARITY_TOL:
        raise CompileError(f"matrix is not unitary (defect {defect:.3e})")
    alpha = _phase(a * d - b * c) / 2
    half = complex(math.cos(alpha), -math.sin(alpha)) / 2
    w00 = (a + b + c + d) * half
    w10 = (a + b - c - d) * half
    # w = R_Z(beta) R_Y(gamma) R_Z(delta), and theta2 = -gamma.
    r00, r10 = abs(w00), abs(w10)
    gamma = 2 * math.atan2(r10, r00)
    if r10 < 1e-12:
        return alpha, -2 * _phase(w00), 0.0, 0.0
    if r00 < 1e-12:
        return alpha, 2 * _phase(w10), -gamma, 0.0
    sum_bd = -2 * _phase(w00)
    dif_bd = 2 * _phase(w10)
    return alpha, (sum_bd + dif_bd) / 2, -gamma, (sum_bd - dif_bd) / 2


def _xy_angles(u: np.ndarray) -> tuple[float, list[tuple[str, float]]]:
    """X-Y rotation list in application order, with tiny angles elided.

    A full turn R(+-2 pi) = -I is elided too, its pi added to alpha: it
    acts on the logical subspace as a phase, which the ledger carries.
    """
    alpha, th1, th2, th3 = xy_decompose(u)
    if abs(th2) < ANGLE_EPS:
        rots = [("x", th1 + th3)]
    else:
        rots = [("x", th3), ("y", th2), ("x", th1)]
    kept = []
    for ax, th in rots:
        if abs(abs(th) - 2 * _PI) < ANGLE_EPS:
            alpha += _PI
        elif abs(th) >= ANGLE_EPS:
            kept.append((ax, th))
    return alpha, kept


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


def compile_su2(register: LogicalRegister, matrix: np.ndarray,
                target: str) -> CompiledProgram:
    """Arbitrary single-qubit gate.

    A dual-rail target gets beamsplitters on its rails through a pool
    ancilla; an internal target gets carrier pulses, or free evolution
    when the gate is diagonal.  A matrix that `xy_decompose` refuses is
    refused on either target.
    """
    entry = register.entry(target)
    u = np.asarray(matrix, dtype=complex)
    alpha, rots = _xy_angles(u)
    prog = CompiledProgram()
    if entry.is_dual_rail:
        d0, d1 = entry.rails
        anc, = _ancillas(register, "su2")
        prog.add([_rail_rotation(ax, th, d0, d1, anc)
                  for ax, th in rots], -alpha)
        if rots:
            prog.borrow(f"su2:{target}", qubits=(anc,))
        return prog
    if max(abs(u[0, 1]), abs(u[1, 0])) < 1e-14:
        # Diagonal gates map to free evolution instead of three pulses.
        # Numpy scalars keep this branch's rounding: alpha of an R_Z is 0
        # up to rounding, and its sign decides whether the report prints
        # the phase as 0 or as 2 pi.
        theta = float(np.angle(u[1, 1] / u[0, 0]))
        alpha = float(np.angle(u[0, 0]) + theta / 2)
        if abs(theta) >= ANGLE_EPS:
            prog.add([qphase(-theta, entry.qubit)])
        prog.global_phase -= alpha
        return prog
    # The pulses realize the SU(2) factor, so the physical action is
    # e^{-i alpha} times the requested matrix.
    prog.add([_internal_rotation(ax, th, entry.qubit) for ax, th in rots],
             -alpha)
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
                d2_id: str) -> CompiledProgram:
    """ZZ-rotation between two dual-rail qubits via the parity phase."""
    prog = CompiledProgram()
    anc, = _ancillas(register, "rzz")
    e1, e2 = register.entry(d1_id), register.entry(d2_id)
    if not (e1.is_dual_rail and e2.is_dual_rail):
        raise CompileError("rzz operands must both be dual-rail")
    # The occupied second rail decides the computational basis state,
    # so the parity circuit runs on the two second rails.
    prog.add(tnp_sequence(theta, anc, e1.rails[1], e2.rails[1]))
    prog.borrow(f"rzz:{d1_id},{d2_id}", qubits=(anc,))
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


def _native_cnot(c: str, t: str) -> tuple[list[PhysicalOp], float]:
    """CNOT between two internal qubits; physical = e^{i pi/4} CNOT."""
    return [
        _internal_rotation("y", _PI / 2, c),
        native_xx(_PI / 2, c, t),
        _internal_rotation("x", -_PI / 2, t),
        _internal_rotation("x", -_PI / 2, c),
        _internal_rotation("y", -_PI / 2, c),
    ], _PI / 4


def compile_cnot(register: LogicalRegister, control: str,
                 target: str) -> CompiledProgram:
    """CNOT: the native XX gate between two internal qubits, or the
    hybrid conditional-beamsplitter CNOT (either direction) between an
    internal and a dual-rail qubit through a pool ancilla."""
    ce, te = register.entry(control), register.entry(target)
    prog = CompiledProgram()
    if not ce.is_dual_rail and not te.is_dual_rail:
        prog.add(*_native_cnot(ce.qubit, te.qubit))
        return prog
    if ce.is_dual_rail and te.is_dual_rail:
        raise CompileError(
            "cnot between two dual-rail qubits is not lowered; "
            "use rzz with single-qubit gates")
    anc, = _ancillas(register, "cnot")
    if te.is_dual_rail:
        prog.add(*_cnot_q_to_rails(ce.qubit, *te.rails, anc=anc))
    else:
        prog.add(*_cnot_rails_to_q(te.qubit, *ce.rails, anc=anc))
    prog.borrow(f"cnot:{control}->{target}", qubits=(anc,))
    return prog


def compile_rxx(register: LogicalRegister, theta: float, a: str,
                b: str) -> CompiledProgram:
    """XX-rotation: the native XX gate between two internal qubits, or a
    ZBS conjugation of a carrier y-rotation between an internal and a
    dual-rail qubit.  Neither takes an ancilla from the pool."""
    ea, eb = register.entry(a), register.entry(b)
    prog = CompiledProgram()
    if not ea.is_dual_rail and not eb.is_dual_rail:
        prog.add([native_xx(theta, ea.qubit, eb.qubit)])
        return prog
    if ea.is_dual_rail and eb.is_dual_rail:
        raise CompileError("rxx between two dual-rail qubits is not lowered")
    qe, de = (ea, eb) if eb.is_dual_rail else (eb, ea)
    d0, d1 = de.rails
    prog.add([
        zbs(-_PI / 4, 0.0, qe.qubit, d0, d1),
        carrier(-theta, -_PI / 2, qe.qubit),   # script y-rotation by -theta
        zbs(_PI / 4, 0.0, qe.qubit, d0, d1),
    ])
    return prog


def compile_cswap(register: LogicalRegister, control: str,
                  targets: Sequence[str]) -> CompiledProgram:
    """Controlled SWAP of two N-qubit dual-rail registers.

    Pairs target i with target N+i; each pair costs two conditional
    beamsplitters.  The leftover (-1)^N on the excited control branch is
    cancelled by a sigma_z rotation for odd N, which leaves the stated
    e^{i pi/2} overall phase.
    """
    anc, = _ancillas(register, "cswap")
    ce = register.entry(control)
    if ce.is_dual_rail:
        raise CompileError("cswap control must be a logical internal qubit")
    prog = _cswap(register, ce.qubit, targets, anc)
    prog.borrow(f"cswap:{control}", qubits=(anc,))
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


def _exchange_out_ops(q: str, d0: str, d1: str,
                      anc: str) -> tuple[list[PhysicalOp], float]:
    """C1 C2: move a dual-rail state onto a ground internal qubit.

    C1 is the CNOT with the internal qubit as control, C2 the one with
    the dual-rail qubit as control.  Leaves the rails parked in the |0>
    codeword; carries e^{i pi/2}.
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


def compile_kcnot(register: LogicalRegister, controls: Sequence[str],
                  target: str) -> CompiledProgram:
    """Multi-controlled X through the COM phonon bus.

    The target flip fires only while the bus phonon survives the ladder,
    and the mirrored unwind restores all controls.  Controls beyond the
    first and the target must be registered with auxiliary modes.
    """
    return _bus_ladder(register, "kcnot", controls, target=target)


def compile_multi_controlled(register: LogicalRegister,
                             controls: Sequence[str],
                             targets: Sequence[str]) -> CompiledProgram:
    """General multi-controlled gate via a condition qubit.

    K+1 sideband-type unitaries store "all controls are |1>" on a spare
    internal qubit q_c, the inner gate runs with q_c as its control, and
    K+1 mirrored unitaries restore the controls and return q_c to |0>.
    One target makes the inner gate an X, several a swap of their halves.
    """
    return _bus_ladder(register, "multi_controlled", controls,
                       inner=tuple(targets))


def _bus_ladder(register: LogicalRegister, gate: str,
                controls: Sequence[str], target: str | None = None,
                inner: tuple[str, ...] = ()) -> CompiledProgram:
    """Controls loaded onto the COM bus, a middle, and the mirrored unwind.

    The first control loads its excitation into the bus with a sideband
    pi-pulse; every further control removes the phonon through its
    auxiliary mode unless it is in |1>, so the bus never holds more than
    one phonon.  The middle flips `target` (K-CNOT) or, with `inner`
    targets, stores the bus on a pool qubit q_c that controls an X on the
    one inner target or a swap of the inner targets' halves.  A dual-rail
    rung is exchanged onto a pool qubit around its pulses.  Pool qubits
    are taken in register order as q_c, the beamsplitter ancilla, then
    the exchange ancilla; that order decides the pulse targets.
    """
    need = 1 if inner else 2
    if len(controls) < need:
        raise CompileError(f"{gate} needs at least {need} control(s)")
    rung_ids = [*controls] if inner else [*controls, target]
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

    x_target = register.entry(inner[0]) if len(inner) == 1 else None
    exchange = any(e.is_dual_rail for e in entries)
    need_bs = (len(controls) > 1 or len(inner) > 1
               or x_target is not None and x_target.is_dual_rail)
    q_c, bs_anc, ex_anc = _ancillas(
        register, gate, (bool(inner), need_bs or exchange, exchange))

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
    if not inner:
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
        if x_target is None:
            prog.extend(_cswap(register, q_c, inner, bs_anc))
        elif x_target.is_dual_rail:
            prog.add(*_cnot_q_to_rails(q_c, *x_target.rails, anc=bs_anc))
        else:
            # q_c is a bare ancilla, so emit the native decomposition.
            prog.add(*_native_cnot(q_c, x_target.qubit))
        prog.add([rsb(_PI, q_c, com)])
    for entry, pulses in reversed(ladder):
        rung(entry, pulses)

    label = f"{gate}:{','.join(controls)}"
    if not inner:
        label += f"->{target}"
    prog.borrow(label, qubits=tuple(q for q in (q_c, bs_anc, ex_anc)
                                    if q is not None), modes=(com,))
    return prog


# ---------------------------------------------------------------------------
# The gate table and whole-circuit lowering

# The step kinds a program record lowers to; they are also the `kind`
# field of the compile report's steps.
PULSES = "pulses"
ERROR_INJECTION = "error-injection"
PARITY_CHECK = "parity-check"

Lowering = Callable[[LogicalRegister, Sequence[float], Sequence[str]],
                    CompiledProgram]


class GateSpec(NamedTuple):
    """One row of the gate table.

    `lower` maps (register, params, operands) to the record's
    pulses, and `ideal` maps (params, operand count) to the textbook
    matrix over the operands, first operand most significant.
    Directives, whose `step` is not PULSES, have neither.
    """

    n_params: int
    min_operands: int
    max_operands: int | None
    lower: Lowering | None = None
    ideal: Callable[[Sequence[float], int], np.ndarray] | None = None
    step: str = PULSES


def _one_qubit(n_params: int, matrix: Callable[..., np.ndarray]) -> GateSpec:
    """Row of the single-qubit gate `matrix(*params)`."""
    return GateSpec(
        n_params, 1, 1,
        lower=lambda r, p, ops: compile_su2(r, matrix(*p), ops[0]),
        ideal=lambda p, n: np.array(matrix(*p), dtype=complex))


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
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    out[rows, np.arange(2 ** n)] = 1
    return out


def _controlled_x_ideal(params: Sequence[float], n: int) -> np.ndarray:
    return _controlled_ideal(n, 1, lambda t: t ^ 1)


def _controlled_swap_ideal(n: int, n_targets: int) -> np.ndarray:
    """Exchange the first and second half of the target operands."""
    half = n_targets // 2
    return _controlled_ideal(
        n, n_targets, lambda t: (t % (1 << half)) << half | t >> half)


_RXX = GateSpec(1, 2, 2, lambda r, p, ops: compile_rxx(r, p[0], *ops),
                _rxx_ideal)

GATES: dict[str, GateSpec] = {
    **{name: _one_qubit(0, lambda u=u: u) for name, u in (
        ("x", PAULI_X), ("y", PAULI_Y), ("z", PAULI_Z), ("h", HADAMARD),
        ("s", S_GATE), ("sdg", S_GATE.conj().T))},
    **{f"r{axis}": _one_qubit(1, lambda t, axis=axis: rotation_matrix(axis, t))
       for axis in "xyz"},
    "rzz": GateSpec(
        1, 2, 2, lambda r, p, ops: compile_rzz(r, p[0], *ops),
        lambda p, n: np.diag(np.exp(-1j * p[0] / 2 * np.array([1, -1, -1, 1])))),
    "rxx": _RXX,
    "xx": _RXX,
    "cnot": GateSpec(
        0, 2, 2, lambda r, p, ops: compile_cnot(r, *ops),
        _controlled_x_ideal),
    "cswap": GateSpec(
        0, 3, None,
        lambda r, p, ops: compile_cswap(r, ops[0], ops[1:]),
        lambda p, n: _controlled_swap_ideal(n, n - 1)),
    "kcnot": GateSpec(
        0, 3, None,
        lambda r, p, ops: compile_kcnot(r, ops[:-1], ops[-1]),
        _controlled_x_ideal),
    "mcx": GateSpec(
        0, 2, None,
        lambda r, p, ops: compile_multi_controlled(r, ops[:-1], ops[-1:]),
        _controlled_x_ideal),
    "mcswap": GateSpec(
        0, 4, None,
        lambda r, p, ops: compile_multi_controlled(r, ops[:-2], ops[-2:]),
        lambda p, n: _controlled_swap_ideal(n, 2)),
    "loss": GateSpec(0, 1, 1, step=ERROR_INJECTION),
    "gain": GateSpec(0, 1, 1, step=ERROR_INJECTION),
    "qndcheck": GateSpec(0, 1, 1, step=PARITY_CHECK),
}


def compile_gate(register: LogicalRegister, record) -> CompiledProgram:
    """Pulses of one unitary document record, from its GATES row."""
    return GATES[record.name].lower(register, record.params, record.operands)


class Step(NamedTuple):
    """One lowered program record; `program` is None for directives."""

    index: int
    record: object
    kind: str
    program: CompiledProgram | None = None

    def error(self, exc: Exception, cls: type | None = None) -> Exception:
        """`exc` as a `cls` (its own class by default) that names this step:
        `gate <index> (<rendered record>): <exc>`."""
        return (cls or type(exc))(
            f"gate {self.index} ({self.record.render()}): {exc}")


def preparation(register: LogicalRegister) -> CompiledProgram:
    """Pulses loading every dual-rail register into |0> from the ground state."""
    prog = CompiledProgram()
    for entry in register.entries:
        if entry.is_dual_rail:
            prog.add(*prepare_dual_rail_zero(register, entry.logical_id))
    return prog


def lower(register: LogicalRegister, records: Sequence) -> list[Step]:
    """Lower a program: one step per record.

    A record is a document gate record (`name`, `params`, `operands`);
    its GATES row either lowers it to pulses or marks it a directive.
    A parity check needs a dual-rail target and a register with an
    ancilla.  Compile and register errors are raised as CompileError
    naming the step (`Step.error`): `gate {index} ({record}): ...`.

    Equal records lower to equal pulses, so each distinct record is
    lowered once and its steps share that one CompiledProgram.  The key
    tells -0.0 from 0.0, which `==` does not: their pulses print apart.
    """
    steps = []
    programs: dict = {}
    for i, rec in enumerate(records):
        spec = GATES[rec.name]
        program = None
        try:
            if spec.lower is not None:
                key = (rec, repr(rec.params))
                program = programs.get(key)
                if program is None:
                    program = programs[key] = compile_gate(register, rec)
            elif spec.step == PARITY_CHECK:
                if not register.entry(rec.operands[0]).is_dual_rail:
                    raise CompileError("qndcheck target must be dual-rail")
                register.readout_ancilla  # raises without a pool qubit
        except (CompileError, RegisterError) as exc:
            raise Step(i, rec, spec.step).error(exc, CompileError) from exc
        steps.append(Step(i, rec, spec.step, program))
    return steps

