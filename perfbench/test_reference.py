"""Closed-form checks of the reference simulator.

Run with `python3 -m pytest perfbench/test_reference.py`; `run.py` also
calls every test here before it times anything.
"""
import math

import numpy as np

from reference import Gate, PulseSim, gate_matrix, pulse_unitary, read_circuit

TOL = 1e-12


def basis(dims, levels):
    v = np.zeros(int(np.prod(dims)), dtype=complex)
    v[np.ravel_multi_index(levels, dims)] = 1.0
    return v


def test_carrier_pi_flips_the_qubit():
    u = pulse_unitary("carrier", math.pi, 0.0, [2])
    assert np.allclose(u @ basis([2], [0]), -1j * basis([2], [1]), atol=TOL)


def test_rsb_pi_moves_a_phonon_into_the_qubit():
    u = pulse_unitary("rsb", math.pi, 0.0, [2, 4])
    got = u @ basis([2, 4], [0, 1])
    assert np.allclose(got, -1j * basis([2, 4], [1, 0]), atol=TOL)


def test_bs_half_pi_swaps_a_single_phonon():
    for phi in (0.0, 0.7):
        u = pulse_unitary("bs", math.pi / 2, phi, [4, 4])
        got = u @ basis([4, 4], [1, 0])
        want = 1j * np.exp(-1j * phi) * basis([4, 4], [0, 1])
        assert np.allclose(got, want, atol=TOL)


def test_zbs_sign_follows_the_qubit():
    theta, phi = 0.9, 0.3
    u = pulse_unitary("zbs", theta, phi, [2, 3, 3])
    for level, sign in ((0, 1), (1, -1)):
        bs = pulse_unitary("bs", sign * theta, phi, [3, 3])
        for n1, n2 in ((1, 0), (0, 1), (1, 1), (2, 0)):
            got = (u @ basis([2, 3, 3], [level, n1, n2])).reshape(2, 9)
            want = bs @ basis([3, 3], [n1, n2])
            assert np.allclose(got[level], want, atol=TOL)
            assert np.allclose(got[1 - level], 0.0, atol=TOL)


def test_qphase_is_diagonal():
    theta = 1.1
    u = pulse_unitary("qphase", theta, 0.0, [2])
    want = np.diag([np.exp(1j * theta / 2), np.exp(-1j * theta / 2)])
    assert np.allclose(u, want, atol=TOL)


def test_cnot_control_is_the_first_operand():
    u = gate_matrix(Gate("cnot", [], ["A", "B"]))
    assert np.allclose(u @ basis([2, 2], [1, 0]), basis([2, 2], [1, 1]))
    assert np.allclose(u @ basis([2, 2], [0, 1]), basis([2, 2], [0, 1]))


def test_dual_rail_readout_of_a_codeword():
    circ = read_circuit("""\
system:
  qubits: a
  modes: m0 m1
  cutoff: 4
registers:
  D dual_rail m0 m1
ancillas:
  qubits: a
""")
    sim = PulseSim(circ)
    sim.state[sim.codeword_index([0])] = 0.6
    sim.state[sim.codeword_index([1])] = 0.8
    sim.state[(0, 0, 0)] = 0.0
    probs = sim.readout_distribution()
    assert abs(probs["0"] - 0.36) < TOL and abs(probs["1"] - 0.64) < TOL
