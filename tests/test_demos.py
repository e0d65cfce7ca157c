"""Each narrative demo, and each Python block of the README, runs to completion against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


@pytest.mark.parametrize(
    "args",
    [[str(d)] for d in DEMOS] + [["-c", code] for code in README_BLOCKS],
    ids=[d.name for d in DEMOS] + [f"README.md-python-{i}" for i in range(1, len(README_BLOCKS) + 1)],
)
def test_demo_exits_cleanly(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
