"""The report's byte format, and `main` called many times in one process.

- stdout is `json.dumps(report, indent=2, sort_keys=True)` and a newline,
  and the `--report` file holds the same bytes;
- `cli._dumps` writes exactly what that `json.dumps` call writes;
- consecutive in-process `main` calls share one parser and each prints
  what a call in a fresh process prints;
- in-process commands do not pile up layouts in the caches.
"""
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from drqsim import cli, fock
from drqsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
CIRCUITS = sorted(str(p) for p in ROOT.glob("circuits/*.drq"))
COMMANDS = [[command, doc] for doc in CIRCUITS
            for command in ("compile", "run", "verify")]
COMMANDS.append(["verify", "--builtin"])


def _reindented(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_report_bytes_are_the_indented_sorted_json(argv, tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main([*argv, "--report", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == _reindented(out)
    assert target.read_text(encoding="utf-8") == out


# Report trees: every JSON type the reports use, plus the edges of the
# encoder (signed zero, NaN, infinities, big ints, bool beside int,
# tuples, empty containers, escapes).
_leaves = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-2 ** 200, 2 ** 200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-320,
                     1.7976931348623157e308, True, 1, False, 0]),
    st.text(),
    st.text(st.characters(max_codepoint=0x1f)),
    st.sampled_from(["", "é", " ", "😀", "\ud800",
                     '"\\/\b\f\n\r\t', "\x7f"]))
_trees = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
        st.just([[], {}, [[]], {"": {}}, ()])),
    max_leaves=40)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(tree=_trees)
def test_dumps_writes_what_json_dumps_writes(tree):
    assert cli._dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(tree=_trees)
def test_dumps_of_shared_subtrees(tree):
    listing = [tree, {"x": tree}]
    children = [tree, [tree], {"y": tree}]
    cases = [
        # the same subtree at several depths
        {"b": tree, "a": [tree, (tree, {"x": tree})]},
        # one list shared many times at the same depth, as steps of
        # equal records share one pulse listing
        {"steps": [{"pulses": listing, "step": i} for i in range(6)]},
        [listing] * 5,
        # a tuple and a list holding the same children
        [tuple(children), children, {"t": tuple(children), "l": children}],
    ]
    for shared in cases:
        assert cli._dumps(shared) == json.dumps(shared, indent=2,
                                                sort_keys=True)
    # A list changed between two calls is written as it is now.
    listing.append(len(listing))
    children[1] = (tree,)
    for shared in cases:
        assert cli._dumps(shared) == json.dumps(shared, indent=2,
                                                sort_keys=True)


@pytest.mark.parametrize("value", [
    {1: 0}, {"a": {None: 0}}, [object()], {"a": {1j}}, b"x"])
def test_dumps_refuses_what_it_cannot_write(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


def test_compile_steps_with_equal_records_share_one_listing():
    doc = cli.parse_circuit((ROOT / "circuits" / "bell.drq").read_text()
                            .replace("  cnot D Q\n",
                                     "  cnot D Q\n  h D\n  cnot D Q\n"))
    report, _ = cli.cmd_compile(doc, cli._PARSER.parse_args(
        ["compile", "unused"]))
    steps = report["steps"]
    assert [s["gate"] for s in steps] == ["h D", "cnot D Q"] * 2
    assert steps[0]["pulses"] is steps[2]["pulses"]
    assert steps[1]["pulses"] is steps[3]["pulses"]
    assert steps[0]["pulses"] is not steps[1]["pulses"]


def _fresh(argv: list[str]) -> tuple[int, str, str]:
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "drqsim.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(argv: list[str], capsys) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BELL = str(ROOT / "circuits" / "bell.drq")


@pytest.mark.parametrize("sequence", [
    [["run", BELL, "--shots", "5"], ["run", BELL]],
    [["verify", BELL, "--tol", "1e-18"], ["verify", BELL]],
    [["run", BELL, "--shots", "-5"], ["compile", BELL]],
], ids=["shots-flag-then-document", "tol-flag-then-document",
        "argparse-error-then-valid"])
def test_consecutive_calls_print_what_fresh_processes_print(sequence, capsys):
    got = [_in_process(argv, capsys) for argv in sequence]
    assert got == [_fresh(argv) for argv in sequence]
    assert got[0][0] != 0 or got[0][1] != got[1][1]


def test_main_does_not_build_a_parser(monkeypatch, capsys):
    def refuse():
        raise AssertionError("main built a parser")
    monkeypatch.setattr(cli, "make_parser", refuse)
    assert main(["compile", BELL]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "compile"


def _live_layouts() -> list:
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, fock.HilbertLayout)]


def test_in_process_commands_leave_the_caches_bounded(capsys):
    docs = [*CIRCUITS, *sorted(str(p) for p in
                               ROOT.glob("perfbench/inputs/*.drq")
                               if "wide" not in p.name)]
    argvs = [[c, d] for d in docs for c in ("compile", "run", "verify")]
    argvs.append(["verify", "--builtin"])
    # Held, so that no new layout can take the id of one freed later.
    before = _live_layouts()
    known = {id(o) for o in before}
    for k in range(40):
        assert main(argvs[k % len(argvs)]) == 0
    capsys.readouterr()
    info = fock._offsets.cache_info()
    assert info.currsize <= info.maxsize == 64
    # Each command builds its own layouts, and no memo keys on one: the
    # kernel's memos key on target dims and strides, and each layout's
    # tables live on it.  So none outlives its command.
    assert sum(id(o) not in known for o in _live_layouts()) == 0
