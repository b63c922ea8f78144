from unittest import mock

import numpy as np
import pytest

from drqsim import create_layout, define_register, pulses
from drqsim.document import GateRecord
from drqsim.pulses import apply_pulse

from oracles import dense_state


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def hybrid_system():
    """One internal + one dual-rail logical qubit with an ancilla."""
    layout = create_layout([
        ("q", "qubit", 2), ("anc", "qubit", 2),
        ("m0", "mode", 4), ("m1", "mode", 4),
    ])
    register = define_register(
        layout,
        [("Q", "internal", ("q",)), ("D", "dual_rail", ("m0", "m1"))],
        ancilla_qubits=("anc",))
    return layout, register


@pytest.fixture
def dual_pair_system():
    """Two dual-rail qubits with an ancilla."""
    layout = create_layout(
        [("anc", "qubit", 2)]
        + [(f"m{i}", "mode", 4) for i in range(4)])
    register = define_register(
        layout,
        [("D1", "dual_rail", ("m0", "m1")),
         ("D2", "dual_rail", ("m2", "m3"))],
        ancilla_qubits=("anc",))
    return layout, register


def random_state(layout, rng):
    amps = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    amps /= np.linalg.norm(amps)
    return dense_state(layout, amps)


def probing(probe):
    """A patch of `pulses.apply_pulse`, the one place every pulse passes
    through, that calls `probe` on the state, or `verify`'s batch, after
    every pulse."""
    def pulse(state, op, *others):
        state = apply_pulse(state, op, *others)
        probe(state)
        return state
    return mock.patch.object(pulses, "apply_pulse", side_effect=pulse)


def gate(name, *args):
    """Document record `name params... operands...`: numbers are params."""
    return GateRecord(name,
                      tuple(float(a) for a in args if not isinstance(a, str)),
                      tuple(a for a in args if isinstance(a, str)))
