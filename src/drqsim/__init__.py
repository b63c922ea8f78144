"""drqsim: dual-rail phonon qubits on a trapped-ion phononic network.

Simulates truncated qubit-boson Fock spaces, lowers logical gates on
dual-rail and logical internal qubits to five pulse primitives, and
machine-verifies the gate-construction identities.
"""
from . import compiler, document, encoding, fock, pulses, suite, verify
from .compiler import CompiledProgram
from .document import CircuitDocument, parse_circuit, serialize_circuit
from .encoding import (
    LogicalRegister,
    LogicalStateReport,
    define_register,
    extract_logical_state,
    measure_dual_rail,
    prepare_dual_rail_zero,
)
from .errors import (
    CompileError,
    DocumentError,
    HealthError,
    LayoutError,
    PulseError,
    RegisterError,
    SimulationError,
    StateError,
)
from .fock import (
    HilbertLayout,
    StateVector,
    basis_state,
    create_layout,
    exp_hermitian,
    ground_state,
    measure_qubit_z,
)
from .pulses import (
    PhysicalOp,
    apply_pulse,
    apply_pulses,
    beamsplitter,
    carrier,
    cbs,
    qphase,
    rsb,
    zbs,
)
from .verify import (
    EquivalenceReport,
    equivalent_up_to_phase,
    inject_heating_error,
    program_unitary,
    qnd_parity_check,
    run_program,
    sample_counts,
)

__version__ = "0.1.0"
