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


def test_tracer_counts_the_multistart_search(monkeypatch):
    # the search reaches every start's Picard loop and every best response
    # through the wrapped module globals, so the counters see all of them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    from refequil.config import fixture_path, load_config
    from refequil.equilibrium import find_equilibria

    config = load_config(fixture_path("asymmetric_eex_t2"))
    with Tracer().section("search") as sample:
        result = find_equilibria(config.market, config.preferences,
                                 config.solver, config.initial_capital,
                                 seed=7)
    iterations = sum(r.iterations for r in result.reports)
    assert iterations == 40
    assert sample.count["equilibrium.picard.starts"] == 8
    assert sample.count["equilibrium.picard.iters"] == iterations
    assert sample.count["bestresponse.best_response.calls"] == iterations
