"""The package's public names and the README's examples."""

import re
from pathlib import Path

import gdmopt

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve_once():
    assert len(set(gdmopt.__all__)) == len(gdmopt.__all__)
    for name in gdmopt.__all__:
        assert hasattr(gdmopt, name), name


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
