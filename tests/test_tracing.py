"""The benchmark tracer's patch targets against the package's names."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_targets_exist(monkeypatch):
    # the tracer installs its wrappers with getattr, so a refactor that
    # removes or renames a traced name breaks `perfbench/run.py --trace 1`
    # while every other test still passes
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    targets = Tracer()._targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in targets if not hasattr(owner, attr)]
    assert targets
    assert missing == []
