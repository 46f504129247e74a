"""Every public name the demos and the README use exists in ptspec.

The scan is textual, so the demos are not run."""

import re
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
