"""Importing the package loads the standard library and ``repro`` only.

Every ``repro`` process (``repro answer``, ``repro serve``, a benchmark
interpreter) pays for what ``import repro`` loads, so a third-party import
at module level is a start-up cost on every one of them.  The check runs in
a fresh interpreter, so modules this test session already holds do not
hide one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = """
import json, sys
before = set(sys.modules)
import repro, repro.cli, repro.serve.http
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_no_third_party_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    loaded = json.loads(completed.stdout)
    assert "repro" in loaded
    third_party = [
        name
        for name in loaded
        if name != "repro" and name not in sys.stdlib_module_names
    ]
    assert third_party == []
