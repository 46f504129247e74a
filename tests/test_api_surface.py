"""Every public name the demos and the README use exists in ptspec.

The name scan is textual; the crossing-scan and oscillator-spectrum demos
are also run, small, and the angular-spectrum demo at its defaults."""

import ast
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


def run_demo(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *args],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_crossing_scan_demo_runs():
    proc = run_demo("demo_crossing_scan.py", "--steps", "9",
                    "--npoints", "200")
    found = [float(x) for x in
             re.findall(r"crossing near alpha=([-+.\d]+)", proc.stdout)]
    assert found, proc.stdout
    assert all(min(abs(x - 1), abs(x - 2)) <= 0.02 for x in found), found
    assert {round(x) for x in found} == {1, 2}, found


def test_angular_spectrum_demo_matches_closed_form():
    # each row is "numeric  closed-form  abs-err"; a dropped doublet
    # member would set every later row beside the next square
    proc = run_demo("demo_angular_spectrum.py")
    rows = re.findall(r"^ *(\S+) +(\S+) +(\d\.\d\de[-+]\d\d)$",
                      proc.stdout, re.M)
    assert [float(ana) for _, ana, _ in rows] == [0, 1, 1, 4, 4, 9, 9]
    assert all(float(err) <= 5e-3 for _, _, err in rows), proc.stdout
    assert "splitting of the exact degeneracies" in proc.stdout


def test_oscillator_demo_counts_plain_labels():
    # the counts line is a dict literal of plain str keys: a numpy string
    # key would print as np.str_('real')
    proc = run_demo("demo_oscillator_spectrum.py", "--npoints", "300")
    line, = re.findall(r"^classification counts: (.*)$", proc.stdout, re.M)
    counts = ast.literal_eval(line)
    assert set(counts) <= {"real", "pair", "spurious"} and "real" in counts
    assert all(type(key) is str for key in counts), line
    assert sum(counts.values()) == 300
