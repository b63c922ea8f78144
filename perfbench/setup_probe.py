"""Set-up a CLI invocation pays: import, parse every document, build_system.

`run.py` times this script from process start to exit, several times,
for the `setup_s` metric.  Usage: python3 perfbench/setup_probe.py DOC...
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from drqsim.cli import build_system  # noqa: E402
from drqsim.document import parse_circuit  # noqa: E402

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        build_system(parse_circuit(fh.read()))
