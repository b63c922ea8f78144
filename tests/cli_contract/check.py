"""The command contract of `drqsim`: checks that run whole commands, as a
user would, and read their exit codes and reports.

    python tests/cli_contract/check.py drqsim
    PYTHONPATH=src python tests/cli_contract/check.py python -m drqsim.cli

The leading arguments are the command to check: the installed entry
point, or the package's module under some interpreter.  The script finds
its documents next to itself and `circuits/bell.drq` in the checkout
above it, writes what it generates to a temporary directory of its own,
and runs every command from the directory it was started in.  It stops
at the first failed check, names it and exits 1; it exits 0 when every
check holds.  It imports nothing from drqsim, so it checks whatever
package the command loads.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
BELL = HERE.parent.parent / "circuits" / "bell.drq"


class Failure(Exception):
    pass


def _drqsim(command, *args, expect=0) -> bytes:
    """Stdout of `command args`, which must exit `expect`."""
    proc = subprocess.run([*command, *args], capture_output=True)
    if proc.returncode != expect:
        raise Failure(f"`{' '.join(map(str, args))}` exited "
                      f"{proc.returncode}, not {expect}: "
                      f"{proc.stderr.decode(errors='replace')[-2000:]}")
    return proc.stdout


def _variant(text: str, old: str, new: str) -> str:
    if text.count(old) != 1:
        raise Failure(f"{old!r} is not in the document once")
    return text.replace(old, new)


def _expect(held: bool, detail) -> None:
    if not held:
        raise Failure(str(detail))


def import_loads_no_dataclasses(command, work):
    """The package's records must not load `dataclasses`, whose code
    generation every command would pay for at start-up.  This runs the
    interpreter that runs this script, on the caller's path."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, drqsim.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True)
    _expect(proc.stdout == "False\n", proc.stdout + proc.stderr)


def empty_path_exits_2(command, work):
    """An empty path is a path: it fails to open and exits 2, as a
    missing file does."""
    _drqsim(command, "run", "", expect=2)
    _drqsim(command, "compile", "", expect=2)


def builtin_suite_passes(command, work):
    _drqsim(command, "verify", "--builtin")


def bell_runs(command, work):
    _drqsim(command, "run", BELL, "--shots", "100")


def seed_flag_reads_as_option(command, work):
    """A flag and its document option share one reader, so `--seed 1e3`
    and `seed: 1e3` give the same report."""
    flag = _drqsim(command, "run", BELL, "--seed", "1e3", "--shots", "100")
    doc = work / "seed.drq"
    doc.write_text(_variant(BELL.read_text(), "seed: 7", "seed: 1e3"))
    option = _drqsim(command, "run", doc, "--shots", "100")
    _expect(flag == option, "the flag's report differs from the option's")


def parity_check_flags_odd(command, work):
    """A healthy dual-rail qubit holds one phonon, so its parity check
    flags odd and resets the flag qubit, which no benchmark workload
    reaches."""
    report = json.loads(_drqsim(command, "run", HERE / "qnd.drq",
                                "--shots", "100"))
    flags = [check["parity"] for check in report["parity_checks"]]
    _expect(flags == ["odd"], flags)


def heated_run_is_deterministic(command, work):
    """A `gain` leaves rail m1 at level 2, whose read splits its rows.
    One seed draws one histogram, which holds every shot."""
    doc = work / "heated.drq"
    doc.write_text(_variant(BELL.read_text(), "  cnot D Q\n",
                            "  cnot D Q\n  gain m1\n"))
    first, second = (_drqsim(command, "run", doc, "--seed", "5",
                             "--shots", "100000") for _ in range(2))
    _expect(first == second, "two runs with one seed differ")
    histogram = json.loads(first)["histogram"]
    _expect(sum(histogram.values()) == 100000 and len(histogram) > 2,
            histogram)


def ghz26_runs(command, work):
    """The GHZ state on 26 internal qubits has 2**26 codewords, which
    readout never tabulates: it works on the two support rows."""
    n = 26
    doc = work / "ghz26.drq"
    doc.write_text("\n".join([
        "system:",
        "  qubits: " + " ".join(f"q{i}" for i in range(n)),
        "registers:",
        *(f"  Q{i} internal q{i}" for i in range(n)),
        "program:",
        "  h Q0",
        *(f"  cnot Q0 Q{i}" for i in range(1, n)),
    ]) + "\n")
    _drqsim(command, "run", doc, "--shots", "100")


def mcx10_verifies(command, work):
    _drqsim(command, "verify", HERE / "mcx10.drq")


def grouped_checks_match_alone(command, work):
    """`verify` evolves group.drq's records as two groups; each record's
    check must equal, name and number, its check in a document of its
    own."""
    keys = ("max_entry_error", "inferred_phase", "leakage_max")
    grouped = HERE / "group.drq"
    group = json.loads(_drqsim(command, "verify", grouped))["checks"]
    header, _, body = grouped.read_text().partition("program:\n")
    records = body.splitlines(keepends=True)
    _expect(len(group) == len(records) == 5, group)
    for i, (record, check) in enumerate(zip(records, group), 1):
        doc = work / f"alone_{i}.drq"
        doc.write_text(header + "program:\n" + record)
        (alone,) = json.loads(_drqsim(command, "verify", doc))["checks"]
        _expect(alone["name"].partition(":")[2]
                == check["name"].partition(":")[2], (alone, check))
        _expect([alone[k] for k in keys] == [check[k] for k in keys],
                (alone, check))


CHECKS = (import_loads_no_dataclasses, empty_path_exits_2,
          builtin_suite_passes, bell_runs, seed_flag_reads_as_option,
          parity_check_flags_odd, heated_run_is_deterministic, ghz26_runs,
          mcx10_verifies, grouped_checks_match_alone)


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="drqsim-contract-") as tmp:
        for check in CHECKS:
            try:
                check(argv, Path(tmp))
            except Failure as exc:
                print(f"FAIL {check.__name__}: {exc}", file=sys.stderr)
                return 1
            print(f"ok {check.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
