"""Every script under demos/ runs to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_demo_runs():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                              timeout=120, env=env)
        assert proc.returncode == 0, (demo.name, proc.stderr[-2000:])
