"""Built-in identity suite: machine-checks of the gate catalogue.

Each check compiles a construction and compares it against an
independently built target (a direct matrix exponential or a textbook
gate), up to a global phase.  The CLI `verify --builtin` command runs the
whole list and reports one entry per check, holding each entry's error
to the report's tolerance as well.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import compiler as comp
from .encoding import define_register
from .fock import (
    OperatorMatrix,
    StateVector,
    annihilation_matrix,
    basis_state,
    create_layout,
    creation_matrix,
    exp_hermitian,
    kron_le,
)
from .pulses import apply_pulses, cbs_factors
from .verify import (
    EquivalenceReport,
    check_gate,
    ideal_logical_gate,
    program_unitary,
    qnd_parity_check,
)


@dataclass
class CheckResult:
    name: str
    equivalent: bool
    max_entry_error: float
    inferred_phase: float
    leakage_max: float = 0.0

    @classmethod
    def from_report(cls, name: str, report: EquivalenceReport) -> "CheckResult":
        return cls(name, report.equivalent, report.max_entry_error,
                   report.inferred_phase, report.leakage_max)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "equivalent": bool(self.equivalent),
            "max_entry_error": float(self.max_entry_error),
            "inferred_phase": float(self.inferred_phase),
            "leakage_max": float(self.leakage_max),
        }


def _hybrid_pair(cutoff: int = 4):
    layout = create_layout([
        ("q", "qubit", 2), ("anc", "qubit", 2),
        ("m0", "mode", cutoff), ("m1", "mode", cutoff),
    ])
    return define_register(
        layout,
        [("Q", "internal", ("q",)), ("D", "dual_rail", ("m0", "m1"))],
        ancilla_qubits=("anc",))


def _dual_pair(cutoff: int = 4):
    layout = create_layout([
        ("anc", "qubit", 2),
        ("a0", "mode", cutoff), ("a1", "mode", cutoff),
        ("b0", "mode", cutoff), ("b1", "mode", cutoff),
    ])
    return define_register(
        layout,
        [("D1", "dual_rail", ("a0", "a1")), ("D2", "dual_rail", ("b0", "b1"))],
        ancilla_qubits=("anc",))


def cbs_generator(phi: float, cutoff: int) -> np.ndarray:
    """|up><up| (x) (a1^dag a2 e^{i phi} + h.c.), little-endian (q, m1, m2)."""
    a, ad = annihilation_matrix(cutoff), creation_matrix(cutoff)
    bs = (np.exp(1j * phi) * kron_le([ad, a])
          + np.exp(-1j * phi) * kron_le([a, ad]))
    proj_up = np.diag([0.0, 1.0]).astype(complex)
    return kron_le([proj_up, bs])


def check_cbs_decomposition(rng: np.random.Generator,
                            draws: int = 5) -> CheckResult:
    """Two-factor CBS sequence vs the directly exponentiated generator."""
    layout = create_layout([("q", "qubit", 2), ("m0", "mode", 4),
                            ("m1", "mode", 4)])
    worst = 0.0
    for _ in range(draws):
        theta = rng.uniform(-np.pi, np.pi)
        phi = rng.uniform(-np.pi, np.pi)
        seq = cbs_factors(theta, phi, "q", "m0", "m1")
        built = program_unitary(seq, layout).matrix
        gen = OperatorMatrix(("q", "m0", "m1"), cbs_generator(phi, 4))
        direct = exp_hermitian(gen, theta).entries
        worst = max(worst, float(np.max(np.abs(built - direct))))
    return CheckResult("cbs-decomposition", worst <= 1e-10, worst, 0.0)


def check_tnp_phase(rng: np.random.Generator, draws: int = 3) -> CheckResult:
    """Parity-dependent phase on every Fock pair with n+m <= 2."""
    layout = create_layout([("q", "qubit", 2), ("m0", "mode", 4),
                            ("m1", "mode", 4)])
    worst = 0.0
    for _ in range(draws):
        theta = rng.uniform(-np.pi, np.pi)
        seq = comp.tnp_sequence(theta, "q", "m0", "m1")
        for n in range(3):
            for m in range(3 - n):
                state = basis_state(layout, {"m0": n, "m1": m})
                out = apply_pulses(state, seq)
                want = np.exp(1j * ((-1) ** (n + m + 1)) * theta / 2)
                idx = layout.basis_index([0, n, m])
                worst = max(worst, abs(out.amplitude_at([idx])[0] - want))
    return CheckResult("tnp-phase", worst <= 1e-10, worst, 0.0)


def check_rzz(rng: np.random.Generator, draws: int = 3) -> CheckResult:
    register = _dual_pair()
    worst = 0.0
    phase = 0.0
    for _ in range(draws):
        theta = rng.uniform(-np.pi, np.pi)
        prog = comp.compile_rzz(register, theta, "D1", "D2",
                                comp.AncillaPool(register))
        report = check_gate(register, prog,
                            ideal_logical_gate("rzz", [theta], 2),
                            ["D1", "D2"], 1e-9)
        worst = max(worst, report.max_entry_error)
        phase = report.inferred_phase
    return CheckResult("rzz-truth-table", worst <= 1e-9, worst, phase)


def check_cnot_directions() -> CheckResult:
    register = _hybrid_pair()
    cnot = ideal_logical_gate("cnot", [], 2)
    worst = 0.0
    phases = []
    for control, target in (("Q", "D"), ("D", "Q")):
        prog = comp.compile_cnot(register, control, target,
                                 comp.AncillaPool(register))
        report = check_gate(register, prog, cnot, [control, target], 1e-9)
        worst = max(worst, report.max_entry_error)
        phases.append(report.inferred_phase)
    ok = worst <= 1e-9 and all(
        abs(np.exp(1j * p) - np.exp(-1j * np.pi / 4)) < 1e-8 for p in phases)
    return CheckResult("hybrid-cnot", ok, worst, phases[0])


def check_rxx(rng: np.random.Generator, draws: int = 5) -> CheckResult:
    register = _hybrid_pair()
    worst = 0.0
    for _ in range(draws):
        theta = rng.uniform(-2 * np.pi, 2 * np.pi)
        prog = comp.compile_rxx(register, theta, "Q", "D",
                                comp.AncillaPool(register))
        if prog.ancilla_manifest:
            return CheckResult("hybrid-rxx", False, 1.0, 0.0)
        report = check_gate(register, prog,
                            ideal_logical_gate("rxx", [theta], 2),
                            ["Q", "D"], 1e-9)
        worst = max(worst, report.max_entry_error)
    return CheckResult("hybrid-rxx", worst <= 1e-9, worst, 0.0)


def check_cswap() -> CheckResult:
    layout = create_layout(
        [("q", "qubit", 2), ("anc", "qubit", 2)]
        + [(f"m{i}", "mode", 3) for i in range(4)])
    register = define_register(
        layout,
        [("Q", "internal", ("q",)),
         ("D1", "dual_rail", ("m0", "m1")),
         ("D2", "dual_rail", ("m2", "m3"))],
        ancilla_qubits=("anc",))
    prog = comp.compile_cswap(register, "Q", ["D1", "D2"],
                              comp.AncillaPool(register))
    report = check_gate(register, prog, ideal_logical_gate("cswap", [], 3),
                        ["Q", "D1", "D2"], 1e-9)
    return CheckResult.from_report("cswap", report)


def check_su2(rng: np.random.Generator, draws: int = 10) -> CheckResult:
    from scipy.stats import unitary_group
    register = _hybrid_pair()
    worst = 0.0
    for _ in range(draws):
        u = unitary_group.rvs(2, random_state=rng)
        prog = comp.compile_su2(register, u, "D", comp.AncillaPool(register))
        report = check_gate(register, prog, u, ["D"], 1e-9)
        worst = max(worst, report.max_entry_error)
    return CheckResult("su2-universality", worst <= 1e-9, worst, 0.0)


def check_qnd(rng: np.random.Generator, draws: int = 20) -> CheckResult:
    layout = create_layout([("q", "qubit", 2), ("m0", "mode", 4),
                            ("m1", "mode", 4)])
    worst = 0.0
    ok = True
    for _ in range(draws):
        parity = int(rng.integers(2))
        pairs = [(n, m) for n in range(4) for m in range(4)
                 if (n + m) % 2 == parity and n + m <= 3]
        amps = rng.normal(size=len(pairs)) + 1j * rng.normal(size=len(pairs))
        amps /= np.linalg.norm(amps)
        index = np.array([layout.basis_index([0, n, m]) for n, m in pairs])
        order = np.argsort(index)
        state = StateVector(layout, index=index[order], values=amps[order])
        flag, post = qnd_parity_check(state, "q", "m0", "m1", rng_seed=rng)
        ok &= flag == ("odd" if parity else "even")
        lvl = 1 if parity else 0
        fid = sum(np.conj(amps) * post.amplitude_at(
            [layout.basis_index([lvl, n, m]) for n, m in pairs]))
        worst = max(worst, abs(abs(fid) - 1.0))
    return CheckResult("qnd-parity", ok and worst <= 1e-10, worst, 0.0)


def check_kcnot() -> CheckResult:
    layout = create_layout(
        [("c1", "qubit", 2), ("c2", "qubit", 2), ("t", "qubit", 2),
         ("anc", "qubit", 2),
         ("b2", "mode", 3), ("bt", "mode", 3), ("com", "mode", 3)])
    register = define_register(
        layout,
        [("C1", "internal", ("c1",)),
         ("C2", "internal_aux", ("c2", "b2")),
         ("T", "internal_aux", ("t", "bt"))],
        ancilla_qubits=("anc",), com_mode="com")
    prog = comp.compile_kcnot(register, ["C1", "C2"], "T",
                              comp.AncillaPool(register))
    report = check_gate(register, prog, ideal_logical_gate("kcnot", [], 3),
                        ["C1", "C2", "T"], 1e-9)
    return CheckResult.from_report("kcnot-toffoli", report)


def run_builtin_suite(seed: int = 2024) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [
        check_cbs_decomposition(rng),
        check_tnp_phase(rng),
        check_rzz(rng),
        check_cnot_directions(),
        check_rxx(rng),
        check_cswap(),
        check_su2(rng),
        check_qnd(rng),
        check_kcnot(),
    ]
