"""The program names that the benchmark's tracer binds.

`perfbench/tracing.py` patches program functions, two methods and three
caches, each looked up by name with a bare getattr, so a renamed or deleted
name breaks only a traced benchmark round.  These tests load the tracer by
its file path, as it stands, and look each name up in the program."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _layer(layer: str):
    return importlib.import_module(f"parafusion.{layer}")


def test_each_spanned_and_counted_name_is_a_program_function():
    names = [(layer, attr) for layer, attrs in tracing.SPANNED.items() for attr in attrs]
    names += tracing.COUNTED.values()
    assert names
    missing = [f"{layer}.{attr}" for layer, attr in names
               if not callable(getattr(_layer(layer), attr, None))]
    assert missing == []


def test_each_traced_method_is_on_its_class():
    # defined on the class itself: an inherited __init__ is object's
    assert tracing.METHODS
    missing = [name for name, (layer, cls, attr) in tracing.METHODS.items()
               if not callable(vars(getattr(_layer(layer), cls, object)).get(attr))]
    assert missing == []


def test_each_traced_cache_reports_its_hits():
    assert tracing.CACHES
    missing = [name for name, (layer, attr) in tracing.CACHES.items()
               if not callable(getattr(getattr(_layer(layer), attr, None), "cache_info", None))]
    assert missing == []
