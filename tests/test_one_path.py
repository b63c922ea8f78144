"""`src/drqsim` holds one path per job; `tests/oracles.py` the second.

Each function or method that the package defines, dunders aside, must
be loaded by name or attribute in `src/drqsim` outside `__init__.py`,
be wrapped or read by the benchmark's tracer (`perfbench/spans.py`
TRACED, `StateVector.norm` and `.amplitudes`), or be a keeper below.
The match is coarse: by name, not by owner, and a caller need not be
live itself.  A `StateVector.copy` would pass behind numpy's `.copy`,
and a `check_norm` whose one caller is another unused function would
pass too.
"""
import ast
from pathlib import Path

from test_bench_contract import _traced

SRC = Path(__file__).resolve().parent.parent / "src" / "drqsim"

# The paper's pulse arithmetic and sideband count, which the acceptance
# tests reproduce, and the document format's only writer (the sixth
# keeper, `pulses.PulseParams`, is a class).
KEEPERS = {"raman_detunings", "zbs_angle_from_pulse",
           "zbs_duration_for_angle", "rsb_unitary_count",
           "serialize_circuit"}


def test_every_function_in_src_has_a_caller_in_src():
    defined, loaded = {}, {"norm", "amplitudes", *KEEPERS}
    loaded.update(attribute for _, attribute, _ in _traced())
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name[:2] != "__":
                defined[node.name] = path.name
            elif path.name == "__init__.py":
                continue
            elif isinstance(node, ast.Name) and type(node.ctx) is ast.Load:
                loaded.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and type(node.ctx) is ast.Load):
                loaded.add(node.attr)
    assert KEEPERS <= set(defined)
    assert sorted(f"{defined[name]}:{name}"
                  for name in set(defined) - loaded) == []


def _sites(match) -> set[str]:
    """`file:function` of each node in `src/drqsim` that `match` accepts,
    named by its innermost enclosing function (`<module>` outside any)."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        # ast.walk visits an outer function before the ones inside it.
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        sites.update(f"{path.name}:{owner.get(id(node), '<module>')}"
                     for node in ast.walk(tree) if match(node))
    return sites


def _loads(name):
    def match(node):
        loaded = getattr(node, "id", getattr(node, "attr", None))
        return (isinstance(node, (ast.Name, ast.Attribute))
                and type(node.ctx) is ast.Load and loaded == name)
    return match


def _carrier_pi(node) -> bool:
    """A `carrier(pi, ...)` call, pi spelled `np.pi` or `_PI`."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "carrier" and node.args):
        return False
    theta = node.args[0]
    return (isinstance(theta, ast.Attribute) and theta.attr == "pi"
            or isinstance(theta, ast.Name) and theta.id == "_PI")


def test_pulses_reach_a_state_only_through_apply_pulses():
    # `apply_pulses` checks the norm after every pulse, so no pulse
    # applied to a state can skip that check.
    assert _sites(_loads("apply_pulse")) == {"pulses.py:apply_pulses"}


def test_pulses_reach_the_kernel_only_through_apply_pulse():
    # `run` and `verify` walk their pulses through one loop; `fock`'s own
    # `apply_matrix` is left for the tests and the benchmark's tracer.
    assert _sites(_loads("apply_matrix_support")) == {
        "pulses.py:apply_pulse", "fock.py:apply_matrix"}


def test_read_and_reset_owns_the_readout_and_its_reset():
    # Every fluorescence read and every carrier(pi) back to ground is in
    # `read_and_reset`; the other carrier(pi) excites the ground ancilla
    # that loads a phonon.
    assert _sites(_loads("measure_qubit_z")) == {
        "encoding.py:read_and_reset"}
    assert _sites(_carrier_pi) == {"encoding.py:prepare_dual_rail_zero",
                                   "encoding.py:read_and_reset"}


def test_sample_counts_is_one_draw():
    # Histograms are one multinomial draw over the exact outcome
    # distribution: no draw per register, no byte-string keys.
    assert _sites(_loads("multinomial")) == {"verify.py:sample_counts"}
    assert _sites(_loads("binomial")) == set()
    assert _sites(_loads("char")) == set()


def _digit(node) -> bool:
    """`a // b % c`: one level read from a mixed-radix basis index."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.FloorDiv))


def test_the_basis_index_has_one_decoder():
    # Every level read goes through `HilbertLayout.levels`, the one place
    # that knows the index's format, except the support kernel's own plan.
    assert _sites(_digit) == {"fock.py:levels", "fock.py:_plan"}


def _two_axis_values(node) -> bool:
    """`x.values[a, b]`: a `.values` attribute subscripted with a tuple."""
    return (isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "values"
            and isinstance(node.slice, ast.Tuple))


def test_states_hold_one_amplitude_per_row():
    # A batch of programs is more labels of one column, not more columns,
    # so no code reads or adds a second axis of a state's values.
    assert _sites(_two_axis_values) == set()
