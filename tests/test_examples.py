"""Every script under ``examples/`` runs to completion and says what it shows."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Script -> one line its output must contain.
EXPECTED_LINES = {
    "quickstart.py": "Relays that learned the message besides Bob: none",
    "anonymity_study.py": "Exact anonymity (entropy / log N) for N=10000 nodes",
    "censorship_circumvention.py": (
        "Destination decoded: 'report: the dam is failing, publish at 09:00'"
    ),
    "churn_resilient_transfer.py": "with redundancy (d=2, d'=3): 20/20 chunks delivered",
}


def test_every_example_is_covered():
    scripts = {path.name for path in (REPO_ROOT / "examples").glob("*.py")}
    assert scripts == set(EXPECTED_LINES)


@pytest.mark.parametrize("script", sorted(EXPECTED_LINES))
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert EXPECTED_LINES[script] in [line.strip() for line in result.stdout.splitlines()]
