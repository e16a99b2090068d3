"""Every script under demos/ runs to completion against this checkout, and
the README's Python blocks print what their comments promise."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _env() -> dict:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def test_every_demo_runs():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    env = _env()
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                              timeout=120, env=env)
        assert proc.returncode == 0, (demo.name, proc.stderr[-2000:])


def test_readme_python_blocks_print_what_they_promise():
    """Each print at the top level of a block writes one line; a print with
    a trailing comment promises that line."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    promised = 0
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                              timeout=120, env=_env())
        assert proc.returncode == 0, proc.stderr[-2000:]
        prints = [re.match(r"print\(.*\)\s*(?:#\s*(.*))?$", line)
                  for line in block.splitlines() if line.startswith("print(")]
        lines = proc.stdout.splitlines()
        assert len(lines) == len(prints), (lines, block)
        for match, line in zip(prints, lines):
            if match.group(1) is not None:
                assert line == match.group(1), (line, match.group(0))
                promised += 1
    assert promised >= 2
