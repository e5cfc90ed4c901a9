import math

import pytest

from refequil.equilibrium import EquilibriumConfig
from refequil.market import Market, ScenarioTree, TablePriceModel
from refequil.verify import (
    INVARIANT_COVERAGE,
    SUITES,
    CheckReport,
    _fold,
    report_rows,
    run_suite,
)

from conftest import fair_coin, last_coordinate_scaler

SMALL = dict(samples=60, config=EquilibriumConfig(starts=3,
                                                  max_iterations=60))


def test_full_suite_passes_on_symmetric_model(symmetric_market, desk_prefs,
                                              symmetric_stack):
    reports = run_suite(symmetric_market, desk_prefs, 0.0, suite="all",
                        seed=5, stack=symmetric_stack, **SMALL)
    failed = [r.name for r in reports if not r.passed]
    assert failed == []
    names = {r.name for r in reports}
    for suite_names in SUITES.values():
        assert set(suite_names) <= names


@pytest.mark.parametrize("suite", list(SUITES))
def test_suite_selector_restricts_reports(symmetric_market, desk_prefs,
                                          symmetric_stack, suite):
    reports = run_suite(symmetric_market, desk_prefs, 0.0, suite=suite,
                        seed=5, stack=symmetric_stack, **SMALL)
    assert [r.name for r in reports] == sorted(SUITES[suite])
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(symmetric_market, desk_prefs, 0.0, suite="nope",
                  stack=symmetric_stack, **SMALL)


def test_checks_are_looked_up_when_a_suite_runs(symmetric_market, desk_prefs,
                                                symmetric_stack, monkeypatch):
    # perfbench's tracer times each suite by swapping the module's check
    # functions, so the runner must not bind them at import time
    import refequil.verify as verify

    calls = []
    original = verify._check_foc
    monkeypatch.setattr(verify, "_check_foc",
                        lambda s: calls.append(s) or original(s))
    run_suite(symmetric_market, desk_prefs, 0.0, suite="foc", seed=5,
              stack=symmetric_stack, **SMALL)
    assert len(calls) == 1


def test_suite_is_deterministic(symmetric_market, desk_prefs,
                                symmetric_stack):
    a = run_suite(symmetric_market, desk_prefs, 0.0, suite="bounds",
                  seed=12, stack=symmetric_stack, **SMALL)
    b = run_suite(symmetric_market, desk_prefs, 0.0, suite="bounds",
                  seed=12, stack=symmetric_stack, **SMALL)
    assert report_rows(a) == report_rows(b)
    c = run_suite(symmetric_market, desk_prefs, 0.0, suite="bounds",
                  seed=13, stack=symmetric_stack, **SMALL)
    assert report_rows(c) != report_rows(a)


def test_understated_modulus_is_caught(desk_prefs):
    # increments +-0.5 at history distance 2 with exponent 1/2 need a
    # constant of at least 1/2^0.5; 0.6 understates it while the uniform
    # bound stays valid, so only the modulus check trips
    tree = ScenarioTree([fair_coin(), fair_coin()])
    prices = TablePriceModel(1.0, 0.6, 0.5, func=last_coordinate_scaler(0.5))
    market = Market.assemble(tree, prices)
    market.require_certified()
    reports = run_suite(market, desk_prefs, 0.0, suite="hoelder", seed=2,
                        **SMALL)
    by_name = {r.name: r for r in reports}
    assert not by_name["price_modulus"].passed
    assert by_name["price_modulus"].witness != ""
    assert by_name["no_arbitrage_recheck"].passed


def test_every_listed_invariant_has_exactly_one_check():
    implemented = {name for names in SUITES.values() for name in names}
    for invariant, check in INVARIANT_COVERAGE.items():
        assert check in implemented, (invariant, check)
    # distinct invariants map to distinct checks
    values = list(INVARIANT_COVERAGE.values())
    assert len(values) == len(set(values))
    # the documented invariant groups are all covered
    prefixes = {slug.split("-")[0] for slug in INVARIANT_COVERAGE}
    assert {"foc", "optimizer", "curvature", "value", "hoelder", "sup",
            "linear", "satisfaction", "envelope", "fixed", "oracle",
            "preferred", "equilibria", "damping", "derivative"} <= prefixes


def test_fold_keeps_the_first_witness_of_the_smallest_margin():
    cases = [(0.5, dict(k=0)), (-1.0, dict(k=1)), (math.nan, dict(k=2)),
             (-1.0, dict(k=3)), (2.0, dict(k=4))]
    report = _fold("x", iter(cases), tolerance=0.25)
    assert report == CheckReport("x", 5, -1.0, "k=1", tolerance=0.25)
    # a NaN margin never becomes the worst, even when it comes first
    assert _fold("x", [(math.nan, dict(k=0)), (3.0, dict(k=1))]) == (
        CheckReport("x", 2, 3.0, "k=1"))
    # no case beats +inf: no witness, and no case gives no instances
    assert _fold("x", [(math.inf, dict(k=0))]) == CheckReport(
        "x", 1, math.inf, "")
    assert _fold("x", []) == CheckReport("x", 0, math.inf, "")


def test_check_report_tolerance_semantics():
    assert CheckReport("x", 1, 0.0).passed
    assert not CheckReport("x", 1, -1e-15).passed
    assert CheckReport("x", 1, -1e-13, tolerance=1e-12).passed


def test_report_rows_schema(symmetric_market, desk_prefs, symmetric_stack):
    reports = run_suite(symmetric_market, desk_prefs, 0.0, suite="foc",
                        seed=1, stack=symmetric_stack, **SMALL)
    header, rows = report_rows(reports)
    assert header == ["check", "instances", "worst_margin", "passed",
                      "witness"]
    assert rows[0][0] == "foc_residual"
    assert rows[0][3] is True


@pytest.mark.parametrize("fixture", ["symmetric_t2", "asymmetric_eex_t2"])
@pytest.mark.parametrize("damping", [0.5, 0.3])
def test_damping_invariance_reuses_the_zero_start_run(fixture, damping,
                                                      monkeypatch):
    # no fallback round fires on these fixtures, so the search's zero start
    # never read the damping: verify takes it for every damping and runs
    # no best response of its own through the Picard loop
    import refequil.equilibrium as equilibrium
    import refequil.verify as verify
    from refequil.bestresponse import Strategy
    from refequil.config import fixture_path, load_config
    from refequil.equilibrium import find_equilibria, iterate_fixed_point
    from refequil.preferences import build_envelope_stack

    config = load_config(fixture_path(fixture))
    market, prefs, x0 = (config.market, config.preferences,
                         config.initial_capital)
    cfg = EquilibriumConfig(damping=damping, starts=2, max_iterations=60)
    searches, dampings, responses = [], [], []

    def find(*args, **kwargs):
        searches.append(find_equilibria(*args, **kwargs))
        return searches[-1]

    def iterate(market_, prefs_, sub, *args, **kwargs):
        dampings.append(sub.damping)
        return iterate_fixed_point(market_, prefs_, sub, *args, **kwargs)

    response = equilibrium.best_response

    def counted(*args, **kwargs):
        responses.append(1)
        return response(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "best_response", counted)
    monkeypatch.setattr(verify, "find_equilibria", find)
    monkeypatch.setattr(verify, "iterate_fixed_point", iterate)
    reports = run_suite(market, prefs, x0, suite="equilibrium", samples=8,
                        seed=4, config=cfg)
    assert all(r.passed for r in reports)
    invariance, = [r for r in reports if r.name == "damping_invariance"]
    assert invariance.instances == 3
    assert dampings == []
    # and the oracle check's certify_equilibrium makes one more
    assert len(responses) == sum(r.iterations
                                 for r in searches[0].reports) + 1
    zero = searches[0].reports[0]
    assert zero.fallbacks == 0
    stack = build_envelope_stack(prefs, market.certificate.alpha_star,
                                 market.prices.c_f, market.prices.chi,
                                 market.horizon)
    # what verify would have rerun: the same report at any damping
    for other in (0.25, 1.0):
        fresh = iterate_fixed_point(
            market, prefs, EquilibriumConfig(damping=other, starts=1,
                                             max_iterations=60),
            Strategy.constant(market.tree, 0.0), x0, stack=stack)
        assert (zero.strategy.positions.tolist()
                == fresh.strategy.positions.tolist())
        assert (zero.residual, zero.value, zero.iterations, zero.converged,
                zero.start_id, zero.residual_trace, zero.fallbacks) == (
            fresh.residual, fresh.value, fresh.iterations, fresh.converged,
            fresh.start_id, fresh.residual_trace, fresh.fallbacks)
