"""Every public name the demos and the README use exists in ptspec.

The name scan is textual; the crossing-scan demo is also run, small."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ptspec

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"\bps\.([A-Za-z_]\w*)")


def readme_python():
    text = (ROOT / "README.md").read_text()
    return "\n".join(re.findall(r"```python\n(.*?)```", text, re.S))


SOURCES = {path.name: path.read_text()
           for path in sorted((ROOT / "demos").glob("*.py"))}
SOURCES["README.md"] = readme_python()


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_used_names_resolve(source):
    names = set(NAME.findall(SOURCES[source]))
    assert names, f"no ps.<name> use found in {source}"
    missing = sorted(n for n in names if not hasattr(ptspec, n))
    assert not missing, f"{source} uses names ptspec lacks: {missing}"


def test_crossing_scan_demo_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "demo_crossing_scan.py"),
         "--steps", "9", "--npoints", "200"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    found = [float(x) for x in
             re.findall(r"crossing near alpha=([-+.\d]+)", proc.stdout)]
    assert found, proc.stdout
    assert all(min(abs(x - 1), abs(x - 2)) <= 0.02 for x in found), found
    assert {round(x) for x in found} == {1, 2}, found
