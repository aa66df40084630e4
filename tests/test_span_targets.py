"""Every name the benchmark's span recorder wraps must exist.

``bench/spans.py`` swaps timing wrappers in for (module, attribute) pairs of
the package; a renamed or removed attribute breaks a traced benchmark run
at install time.  The recorder needs only the standard library, so this
check runs wherever the package imports."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_is_a_callable():
    missing = [
        f"{module}.{attr}"
        for module, attr, _span in _targets()
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"span targets not bound to a callable: {missing}"
