"""Run the examples in the docstrings of every `ybk` module."""

import doctest
import importlib
import pkgutil

import pytest

import ybk

MODULES = ["ybk"] + sorted(info.name for info in pkgutil.iter_modules(ybk.__path__, "ybk."))


def test_every_module_is_listed():
    assert "ybk.solution" in MODULES and "ybk.kgraph" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples in {name} fail"
