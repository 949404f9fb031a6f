"""The benchmark's traced run wraps library attributes that it looks up by
name (``bench/workloads.py::trace_targets``); a renamed or moved function
would crash every traced workload.  This checks each name where the
benchmark looks for it."""

import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_trace_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    targets = workloads.trace_targets()
    assert targets
    for target in targets:
        where = f"{getattr(target.owner, '__name__', target.owner)}.{target.attr}"
        if inspect.isclass(target.owner):
            assert target.attr in vars(target.owner), where
        else:
            assert hasattr(target.owner, target.attr), where
