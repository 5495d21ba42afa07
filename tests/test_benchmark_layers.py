"""The benchmark's layer tracer (``perfbench/spans.py``) wraps functions by
name and skips a name it cannot find, so a refactor that renames one
would silently drop its layer from ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.mark.skipif(not SPANS.is_file(), reason="no perfbench/ in this checkout")
def test_every_name_the_layer_tracer_wraps_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, targets in spans.LAYERS.items():
        for module_name, *path in targets:
            obj = importlib.import_module(module_name)
            for attr in path:
                obj = getattr(obj, attr, None)
            if obj is None:
                missing.append((layer, module_name, *path))
    assert not missing
