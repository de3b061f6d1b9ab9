"""Every python example in README.md runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                      flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert EXAMPLES


@pytest.mark.parametrize("code", EXAMPLES, ids=[f"example{i + 1}" for i in range(len(EXAMPLES))])
def test_readme_example_runs(code, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
