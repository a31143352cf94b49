"""perfbench's tracer looks robustmix functions up by name, so a rename
in the library fails here, not only in a benchmark run."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_patches_every_traced_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    importlib.import_module("workloads")
    with tracing.Tracer().installed():
        wrapped = [
            getattr(value, "__wrapped__", None)
            for module in tracing.PATCH_MODULES
            for value in vars(module).values()
        ]
    missing = [
        fn.__qualname__
        for fn in tracing.TRACED
        if fn is not tracing.FROM_CSV and not any(w is fn for w in wrapped)
    ]
    assert missing == []
