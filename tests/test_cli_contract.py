"""`tests/cli_contract/check.py` holds every whole-command check.

Tier-1 runs it against `src`, and CI's "Installed command" step runs it
against the installed entry point, with no command check of its own.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tests" / "cli_contract" / "check.py"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_command_contract_holds_on_src(tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, SCRIPT, sys.executable, "-m", "drqsim.cli"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _step(name: str) -> str:
    """The text of the workflow step called `name`, up to the next step."""
    text = WORKFLOW.read_text(encoding="utf-8")
    match = re.search(rf"^( *)- name: {re.escape(name)}\n(.*?)(?=^\1- |\Z)",
                      text, re.M | re.S)
    assert match, f"no step {name!r} in {WORKFLOW.name}"
    return match.group(2)


def test_installed_command_step_only_runs_the_contract_script():
    step = _step("Installed command")
    assert re.search(r"tests/cli_contract/check\.py\"? drqsim$", step, re.M)
    # No inline document, no inline program and no edited copy.
    for inline in (r"<<", r"python3? -c", r"\bsed\b"):
        assert not re.search(inline, step), inline
