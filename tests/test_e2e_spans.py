"""The traced e2e round wraps layer functions by attribute name
(``benchmarks/e2e/spans.py``); a rename in ``src/`` that one of its
patches misses would crash ``run.py --trace``. Installing and removing
every hook here turns that crash into a tier-1 failure."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_span_hooks_resolve_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks" / "e2e"))
    import spans

    rec = spans.SpanRecorder()
    spans.install_server(rec)
    spans.install_client(rec)
    spans.install_sweep(rec)
    # Server and client both wrap the wire codec; the first record of
    # an attribute holds the unwrapped original.
    originals = {}
    for owner, attr, original in rec._undo:
        originals.setdefault((owner, attr), original)
    try:
        assert originals
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        rec.uninstall()
    assert rec._undo == []
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, (owner, attr)
