"""Run the examples in the docstrings of every `ybk` module and in the README."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ybk

README = Path(__file__).resolve().parent.parent / "README.md"

MODULES = ["ybk"] + sorted(info.name for info in pkgutil.iter_modules(ybk.__path__, "ybk."))


def test_every_module_is_listed():
    assert "ybk.solution" in MODULES and "ybk.kgraph" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples in {name} fail"


def test_readme_python_examples():
    # each fenced Python block runs as one doctest, in a fresh namespace
    text = README.read_text(encoding="utf-8")
    blocks = [
        (text.count("\n", 0, match.start(1)), match.group(1))
        for match in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S)
    ]
    assert blocks, "the README has no fenced Python block"
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    for lineno, block in blocks:
        test = parser.get_doctest(block, {}, f"README.md:{lineno + 1}", str(README), lineno)
        assert test.examples, test.name
        runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.failed == 0, f"{result.failed} of {result.attempted} README examples fail"
