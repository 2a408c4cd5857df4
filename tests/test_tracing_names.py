"""Every entry point the benchmark's span tracer rebinds still exists.

``perfbench/tracing.py`` rebinds traced functions by name and records a
name it cannot find as missing, which only the benchmark run would show.
This loads its ``ENTRY_POINTS`` table by path, without importing the
benchmark package, and resolves each name in its ``dyadica`` module.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _entry_points() -> dict:
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


@pytest.mark.parametrize("layer,entry", [
    (layer, entry) for layer, entries in _entry_points().items()
    for entry in entries])
def test_traced_name_resolves(layer, entry):
    owner = importlib.import_module(f"dyadica.{layer}")
    if "." in entry:
        cls_name, entry = entry.split(".")
        owner = getattr(owner, cls_name)
        assert entry in vars(owner), f"{layer}.{cls_name}.{entry}"
    assert callable(getattr(owner, entry, None)), f"{layer}.{entry}"
