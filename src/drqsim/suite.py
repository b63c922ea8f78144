"""Built-in identity suite: machine-checks of the gate catalogue.

Each check compiles a construction and compares it against an
independently built target (a direct matrix exponential or a textbook
gate), up to a global phase, in one `verify.EquivalenceReport`.  The
gate checks build document records and check them with
`verify.check_records`, as `verify <doc>` does, through the
`compiler.GATES` rows; a check that reads the lowering itself lowers
the records and checks the programs with `verify.check_gates`.  The CLI
`verify --builtin` command runs the whole list and reports one entry
per check, holding each entry's error to the report's tolerance as
well.
"""
from __future__ import annotations

import numpy as np

from . import compiler as comp
from .document import GateRecord
from .encoding import define_register
from .fock import (
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
    check_gates,
    check_records,
    ideal_logical_gate,
    program_unitary,
    qnd_parity_check,
)

SEED = 2024


def _hybrid_pair():
    layout = create_layout([
        ("q", "qubit", 2), ("anc", "qubit", 2),
        ("m0", "mode", 4), ("m1", "mode", 4),
    ])
    return define_register(
        layout,
        [("Q", "internal", ("q",)), ("D", "dual_rail", ("m0", "m1"))],
        ancilla_qubits=("anc",))


def _dual_pair():
    layout = create_layout([
        ("anc", "qubit", 2),
        ("a0", "mode", 4), ("a1", "mode", 4),
        ("b0", "mode", 4), ("b1", "mode", 4),
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


def check_cbs_decomposition(rng: np.random.Generator) -> EquivalenceReport:
    """Two-factor CBS sequence vs the directly exponentiated generator."""
    layout = create_layout([("q", "qubit", 2), ("m0", "mode", 4),
                            ("m1", "mode", 4)])
    worst = 0.0
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi)
        phi = rng.uniform(-np.pi, np.pi)
        seq = cbs_factors(theta, phi, "q", "m0", "m1")
        built = program_unitary(seq, layout).matrix
        direct = exp_hermitian(cbs_generator(phi, 4), theta)
        worst = max(worst, float(np.max(np.abs(built - direct))))
    return EquivalenceReport(worst <= 1e-10, worst, 0.0,
                             name="cbs-decomposition")


def check_tnp_phase(rng: np.random.Generator) -> EquivalenceReport:
    """Parity-dependent phase on every Fock pair with n+m <= 2."""
    layout = create_layout([("q", "qubit", 2), ("m0", "mode", 4),
                            ("m1", "mode", 4)])
    worst = 0.0
    for _ in range(3):
        theta = rng.uniform(-np.pi, np.pi)
        seq = comp.tnp_sequence(theta, "q", "m0", "m1")
        for n in range(3):
            for m in range(3 - n):
                state = basis_state(layout, {"m0": n, "m1": m})
                out = apply_pulses(state, seq)
                want = np.exp(1j * ((-1) ** (n + m + 1)) * theta / 2)
                idx = layout.basis_index([0, n, m])
                worst = max(worst, abs(out.amplitude_at([idx])[0] - want))
    return EquivalenceReport(worst <= 1e-10, worst, 0.0, name="tnp-phase")


def check_rzz(rng: np.random.Generator) -> EquivalenceReport:
    thetas = [rng.uniform(-np.pi, np.pi) for _ in range(3)]
    reports = check_records(
        _dual_pair(),
        [GateRecord("rzz", (t,), ("D1", "D2")) for t in thetas], 1e-9)
    worst = max(r.max_entry_error for r in reports)
    return EquivalenceReport(worst <= 1e-9, worst, reports[-1].inferred_phase,
                             name="rzz-truth-table")


def check_cnot_directions() -> EquivalenceReport:
    reports = check_records(
        _hybrid_pair(),
        [GateRecord("cnot", (), ops) for ops in (("Q", "D"), ("D", "Q"))],
        1e-9)
    worst = max(r.max_entry_error for r in reports)
    ok = worst <= 1e-9 and all(
        abs(np.exp(1j * r.inferred_phase) - np.exp(-1j * np.pi / 4)) < 1e-8
        for r in reports)
    return EquivalenceReport(ok, worst, reports[0].inferred_phase,
                             name="hybrid-cnot")


def check_rxx(rng: np.random.Generator) -> EquivalenceReport:
    register = _hybrid_pair()
    records = [GateRecord("rxx", (rng.uniform(-2 * np.pi, 2 * np.pi),),
                          ("Q", "D")) for _ in range(5)]
    programs = [step.program for step in comp.lower(register, records)]
    # The hybrid RXX takes no ancilla from the pool.
    if any(prog.ancilla_manifest for prog in programs):
        return EquivalenceReport(False, 1.0, 0.0, name="hybrid-rxx")
    ideals = [ideal_logical_gate("rxx", rec.params, 2) for rec in records]
    worst = max(r.max_entry_error for r in check_gates(
        register, programs, ideals, ("Q", "D"), 1e-9))
    return EquivalenceReport(worst <= 1e-9, worst, 0.0, name="hybrid-rxx")


def check_cswap() -> EquivalenceReport:
    layout = create_layout(
        [("q", "qubit", 2), ("anc", "qubit", 2)]
        + [(f"m{i}", "mode", 3) for i in range(4)])
    register = define_register(
        layout,
        [("Q", "internal", ("q",)),
         ("D1", "dual_rail", ("m0", "m1")),
         ("D2", "dual_rail", ("m2", "m3"))],
        ancilla_qubits=("anc",))
    report, = check_records(
        register, [GateRecord("cswap", (), ("Q", "D1", "D2"))], 1e-9)
    return report._replace(name="cswap")


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-random dim x dim unitary: the QR of a complex Gaussian
    matrix with R's diagonal phases moved into Q.  The expressions follow
    `scipy.stats.unitary_group.rvs` in order, so the draws match it bit
    for bit without importing scipy.stats."""
    z = 1 / np.sqrt(2) * (rng.normal(size=(dim, dim))
                          + 1j * rng.normal(size=(dim, dim)))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    return q * (d / abs(d))


def check_su2(rng: np.random.Generator) -> EquivalenceReport:
    # An arbitrary U has no GATES row: its pulses come from compile_su2,
    # three zbs on (anc, m0, m1) whatever U is, so all draws are checked
    # in one batch.
    register = _hybrid_pair()
    us = [haar_unitary(rng, 2) for _ in range(10)]
    programs = [comp.compile_su2(register, u, "D") for u in us]
    worst = max(r.max_entry_error
                for r in check_gates(register, programs, us, ["D"], 1e-9))
    return EquivalenceReport(worst <= 1e-9, worst, 0.0,
                             name="su2-universality")


def check_qnd(rng: np.random.Generator) -> EquivalenceReport:
    layout = create_layout([("q", "qubit", 2), ("m0", "mode", 4),
                            ("m1", "mode", 4)])
    worst = 0.0
    ok = True
    for _ in range(20):
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
        # The check hands the modes back untouched, the flag in ground.
        fid = sum(np.conj(amps) * post.amplitude_at(
            [layout.basis_index([0, n, m]) for n, m in pairs]))
        worst = max(worst, abs(abs(fid) - 1.0))
    return EquivalenceReport(ok and worst <= 1e-10, worst, 0.0,
                             name="qnd-parity")


def check_kcnot() -> EquivalenceReport:
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
    report, = check_records(
        register, [GateRecord("kcnot", (), ("C1", "C2", "T"))], 1e-9)
    return report._replace(name="kcnot-toffoli")


def run_builtin_suite() -> list[EquivalenceReport]:
    rng = np.random.default_rng(SEED)
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
