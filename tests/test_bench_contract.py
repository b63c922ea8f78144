"""The benchmark under perfbench/ reaches into drqsim by module attribute.

The traced run wraps every (module, attribute) listed in
`perfbench/spans.py` TRACED, and `perfbench/setup_probe.py` imports
`drqsim.cli.build_system`.  A rename inside drqsim would crash the
benchmark rather than fail a test, so these checks pin the names.  The
tracer also reads some arguments by position; a reordering would
silently zero a per-layer count, so those positions are pinned too.
"""
import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
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


def _modules_after(code, package="scipy"):
    """The modules of `package` a fresh interpreter has loaded after `code`."""
    src = str(SPANS.parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run(
        [sys.executable, "-c", code + "\nprint(sorted("
         f"m for m in sys.modules if m.partition('.')[0] == {package!r}))"],
        env=env, capture_output=True, text=True, check=True).stdout
    return ast.literal_eval(out.splitlines()[-1])


def test_cli_import_leaves_scipy_unloaded():
    # Every command pays the import in setup_s; only the few oracles that
    # need scipy import it, inside the function.
    assert _modules_after("import sys, drqsim.cli") == []


def test_cli_import_leaves_dataclasses_unloaded():
    # drqsim's records are NamedTuples and plain classes.  A `@dataclass`
    # generates its methods' source and execs it at every import, which
    # cost 8-12 ms of setup_s for 14 records.
    assert _modules_after("import sys, drqsim.cli", "dataclasses") == []


def test_src_imports_no_dataclasses():
    imported = set()
    for path in sorted((SPANS.parent.parent / "src" / "drqsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((path.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add((path.name, node.module))
    assert sorted(f"{f}:{m}" for f, m in imported
                  if m.partition(".")[0] == "dataclasses") == []


def test_verify_builtin_leaves_scipy_stats_unloaded():
    # scipy.stats alone costs ~40 MB and ~0.8 s; the su2 check draws its
    # Haar unitaries with numpy.  scipy.linalg stays, for the expm oracle.
    loaded = _modules_after(
        "import contextlib, io, sys\nfrom drqsim.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify', '--builtin']) == 0")
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith("scipy.stats")]


@pytest.mark.parametrize("module,function,leading", [
    ("verify", "sample_counts", ["state", "register", "measured_ids",
                                 "shots"]),
    ("pulses", "apply_pulse", ["state", "op"]),
    ("pulses", "pulse_matrix", ["op", "layout"]),
    ("fock", "apply_matrix", ["state", "matrix", "sids"]),
    ("fock", "apply_matrix_columns", ["columns", "layout", "matrix", "sids"]),
    ("verify", "program_unitary", ["program", "layout", "restrict"]),
    # New cases go last: the ids are numbered by position in this table.
    ("fock", "apply_matrix_support", ["index", "amplitudes", "layout",
                                      "matrix", "sids"]),
    ("compiler", "compile_gate", ["register", "record"]),
    ("verify", "ancilla_reset_defect", ["state", "register"]),
    ("verify", "check_sentinel", ["state"]),
])
def test_traced_argument_positions(module, function, leading):
    fn = getattr(importlib.import_module(f"drqsim.{module}"), function)
    params = list(inspect.signature(fn).parameters)
    assert params[:len(leading)] == leading


def test_run_program_calls_health_checks_by_module_attribute(monkeypatch):
    # The tracer times `verify.health_s` by wrapping these two module
    # attributes; `run_program` must reach each through them, once per
    # step exit, or the traced health time silently reads 0.
    from drqsim import verify
    from drqsim.cli import build_system
    from drqsim.compiler import lower, preparation
    from drqsim.document import parse_circuit
    from drqsim.fock import ground_state

    root = SPANS.parent.parent
    doc = parse_circuit((root / "circuits" / "bell.drq").read_text())
    layout, register = build_system(doc)
    calls = []
    for name in ("ancilla_reset_defect", "check_sentinel"):
        def spy(state, *args, _name=name, _original=getattr(verify, name)):
            calls.append(_name)
            return _original(state, *args)
        monkeypatch.setattr(verify, name, spy)
    state = verify.run_program(ground_state(layout), preparation(register))
    assert calls == []
    steps = [s for s in lower(register, doc.program) if s.program is not None]
    assert steps
    for step in steps:
        state = verify.run_program(state, step.program, register=register)
    assert calls == ["ancilla_reset_defect", "check_sentinel"] * len(steps)
