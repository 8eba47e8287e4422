"""The traced benchmark wraps module attributes by name; each must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # its dataclasses look their module up
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    assert tracer._PATCHES
    missing = [
        f"hffs.{module}.{attribute}"
        for module, attribute, *_ in tracer._PATCHES
        if not hasattr(importlib.import_module(f"hffs.{module}"), attribute)
    ]
    assert missing == []
