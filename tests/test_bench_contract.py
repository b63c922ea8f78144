"""The benchmark under perfbench/ reaches into drqsim by module attribute.

The traced run wraps every (module, attribute) listed in
`perfbench/spans.py` TRACED, and `perfbench/setup_probe.py` imports
`drqsim.cli.build_system`.  A rename inside drqsim would crash the
benchmark rather than fail a test, so these checks pin the names.  The
tracer also reads some arguments by position; a reordering would
silently zero a per-layer count, so those positions are pinned too.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module,attribute,span", _traced())
def test_traced_attribute_resolves(module, attribute, span):
    mod = importlib.import_module(f"drqsim.{module}")
    assert callable(getattr(mod, attribute, None)), span


def test_setup_probe_entry_point():
    from drqsim import cli
    assert callable(cli.build_system)


@pytest.mark.parametrize("module,function,leading", [
    ("verify", "sample_counts", ["state", "register", "measured_ids",
                                 "shots"]),
    ("pulses", "apply_pulse", ["state", "op"]),
    ("pulses", "pulse_matrix", ["op", "layout"]),
    ("fock", "apply_matrix", ["state", "matrix", "sids"]),
    ("fock", "apply_matrix_columns", ["columns", "layout", "matrix", "sids"]),
    ("verify", "program_unitary", ["program", "layout", "restrict"]),
])
def test_traced_argument_positions(module, function, leading):
    fn = getattr(importlib.import_module(f"drqsim.{module}"), function)
    params = list(inspect.signature(fn).parameters)
    assert params[:len(leading)] == leading
