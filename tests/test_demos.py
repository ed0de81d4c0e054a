"""Each demo's standard output, pinned by its sha256.

Every script in ``demos/`` runs in its own interpreter with the package
from ``src`` on the path, as CI runs it; a new demo fails here until
its digest is pinned.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "01_observation_channel.py": "19c7633bee21d92dae7107eef05ab2398669bd92827cd6af803f4903e2cd3bfa",
    "02_agent_solver.py": "f26fd8bbd25126c89af57c5dc349b1b0510e82d2d8495598a17ee9eb517a34d9",
    "03_deception_gap.py": "8e1a75fec971170e3cc172796f8ebb9adf7db0e4184b916f281e74dc85f747d1",
    "04_simulation.py": "08e4f971f09f8a8c7c112cb1909cfbc62d270e4893c3fe74a6d5b5a7330107de",
    "05_random_games.py": "7ebb74bc6b22f9eadf8cff920aeeba47d8a7de6de4cd25676e8c1292106b195b",
}


@pytest.mark.parametrize("name", sorted(path.name for path in (ROOT / "demos").glob("*.py")))
def test_demo_output_frozen(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                         capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == DEMOS.get(name)
