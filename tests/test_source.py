import importlib.util
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


def test_benchmark_tracer_targets_exist():
    # the benchmark's tracer wraps these attributes by name; a renamed or
    # deleted one would break every traced benchmark run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {"harness": seedtrace.harness, "likelihood": seedtrace.likelihood}
    for module, attr, *_ in tracing.TRACED:
        assert callable(getattr(modules[module], attr, None)), (module, attr)
