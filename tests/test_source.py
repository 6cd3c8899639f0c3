import warnings
from pathlib import Path

import pytest

import seedtrace

MODULES = sorted(Path(seedtrace.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_compiles_without_warnings(path):
    # cached bytecode hides compile-time warnings such as invalid string
    # escapes on normal imports, so compile the source afresh
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")
