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
