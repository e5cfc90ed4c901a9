import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refequil.bestresponse as bestresponse
import refequil.equilibrium as equilibrium
import refequil.preferences as preferences
from refequil.bestresponse import (
    SolveError,
    SolveStats,
    Strategy,
    best_response,
    terminal_wealth_law,
)
from refequil.config import fixture_path, load_config
from refequil.equilibrium import (
    EquilibriumConfig,
    _oracle_sweep,
    _starts,
    certify_equilibrium,
    evaluate_self_value,
    find_equilibria,
    iterate_fixed_point,
)
from refequil.market import MarketError, roll, wealth
from refequil.preferences import (
    ReferenceDistribution,
    build_envelope_stack,
    satisfaction,
)

from conftest import random_certified_instance, zero_strategy


# ---------------------------------------------------------------------------
# reference distributions from strategies
# ---------------------------------------------------------------------------

def test_zero_strategy_reference_is_degenerate(symmetric_market):
    ref = terminal_wealth_law(symmetric_market.tree,
                              symmetric_market.prices,
                              zero_strategy(symmetric_market), 1.7)
    assert ref.atoms() == [(1.7, 1.0)]


def test_one_period_unit_strategy_reference(skewed_market):
    ref = terminal_wealth_law(skewed_market.tree, skewed_market.prices,
                              Strategy.constant(skewed_market.tree, 1.0),
                              0.0)
    assert ref.atoms() == [(-0.5, pytest.approx(0.3)),
                           (0.5, pytest.approx(0.7))]


def test_two_period_reference_merges_middle_paths(symmetric_market):
    ref = terminal_wealth_law(symmetric_market.tree,
                              symmetric_market.prices,
                              Strategy.constant(symmetric_market.tree, 1.0),
                              0.0)
    assert [(w, pytest.approx(q)) for w, q in ref.atoms()] == \
        [(-1.0, pytest.approx(0.25)), (0.0, pytest.approx(0.5)),
         (1.0, pytest.approx(0.25))]


# ---------------------------------------------------------------------------
# self-value
# ---------------------------------------------------------------------------

def test_self_value_of_zero_strategy_is_direct_utility(symmetric_market,
                                                       desk_prefs):
    got = evaluate_self_value(symmetric_market, desk_prefs,
                              zero_strategy(symmetric_market), 0.4)
    assert got == pytest.approx(float(desk_prefs.utility.u(0.4)), abs=1e-15)


def test_self_value_four_term_hand_sum():
    # T=1 fair +-0.5 with unit position: exact double sum over the two
    # terminal wealths and the two reference atoms, written out by hand
    from refequil.market import (FactorDistribution, Market, ScenarioTree,
                                 TablePriceModel)
    from refequil.preferences import (ArctanGainLoss, ExponentialUtility,
                                      Preferences)

    dist = FactorDistribution.from_atoms([(0.5, 0.5), (-0.5, 0.5)])
    tree = ScenarioTree([dist])
    market = Market.assemble(tree, TablePriceModel(1.0, 0.5, 1.0,
                                                   func=lambda e: e[-1]))
    prefs = Preferences(ExponentialUtility(1.0, c_u=1.0),
                        ArctanGainLoss(2.0, 1.0))

    u = lambda y: -math.exp(-y)
    nu = lambda z: 2.0 * math.atan(z) if z > 0 else 2.0 * z
    hand = 0.0
    for w, pw in ((0.5, 0.5), (-0.5, 0.5)):
        for b, qb in ((0.5, 0.5), (-0.5, 0.5)):
            hand += pw * qb * (u(w) + nu(u(w) - u(b)))
    got = evaluate_self_value(market, prefs,
                              Strategy.constant(tree, 1.0), 0.0)
    assert got == pytest.approx(hand, abs=1e-14)
    assert got == pytest.approx(-1.2456939146040686, abs=1e-12)


def test_self_value_bounded_by_cap(symmetric_market, desk_prefs):
    rng = np.random.default_rng(2)
    cap = desk_prefs.satisfaction_cap
    tree = symmetric_market.tree
    for _ in range(50):
        strategy = Strategy({n.id: float(rng.uniform(-3, 3))
                             for n in tree.interior})
        val = evaluate_self_value(symmetric_market, desk_prefs, strategy,
                                  float(rng.uniform(-1, 1)))
        assert val <= cap


# ---------------------------------------------------------------------------
# fixed-point iteration
# ---------------------------------------------------------------------------

def test_symmetric_zero_start_converges_immediately(symmetric_market,
                                                    desk_prefs,
                                                    symmetric_stack):
    report = iterate_fixed_point(symmetric_market, desk_prefs,
                                 EquilibriumConfig(),
                                 zero_strategy(symmetric_market), 0.0,
                                 stack=symmetric_stack)
    assert report.converged
    assert report.iterations == 1
    assert report.residual == 0.0
    assert report.value == pytest.approx(float(desk_prefs.utility.u(0.0)),
                                         abs=1e-15)


def test_far_start_converges_to_zero(symmetric_market, desk_prefs,
                                     symmetric_stack):
    report = iterate_fixed_point(symmetric_market, desk_prefs,
                                 EquilibriumConfig(),
                                 Strategy.constant(symmetric_market.tree, 5.0),
                                 0.0, stack=symmetric_stack)
    assert report.converged
    assert report.residual <= 1e-8
    assert report.strategy.max_abs() <= 1e-7


def test_non_convergence_is_reported_not_raised(symmetric_market, desk_prefs,
                                                symmetric_stack):
    # one round is too few: the first step only lands on the fixed point
    config = EquilibriumConfig(max_iterations=1, damping=0.25)
    report = iterate_fixed_point(symmetric_market, desk_prefs, config,
                                 Strategy.constant(symmetric_market.tree,
                                                   40.0),
                                 0.0, stack=symmetric_stack)
    assert not report.converged
    assert report.residual > config.tolerance
    assert len(report.residual_trace) == 1


def _oscillating(monkeypatch, center=0.0):
    """Run the Picard loop on the linear map R(c) = a - 0.9 (c - a), with
    a the constant strategy ``center``, in place of the best response.

    Its fixed point is a, and a full step shrinks the residual by 0.9 only,
    so the safeguard must act.  Its stage-0 evaluator carries only
    unflagged stats, which is all ``certify_equilibrium`` reads of it.
    """

    def response(market, preferences, current, x0, **kwargs):
        return (Strategy(center - 0.9 * (current.positions - center)),
                [SimpleNamespace(stats=SolveStats())])

    monkeypatch.setattr(equilibrium, "best_response", response)


def test_residual_trace_decays_under_damping(symmetric_market, desk_prefs,
                                             symmetric_stack, monkeypatch):
    start = Strategy.constant(symmetric_market.tree, 4.0)
    report = iterate_fixed_point(symmetric_market, desk_prefs,
                                 EquilibriumConfig(max_iterations=20), start,
                                 0.0, stack=symmetric_stack)
    # the response is identically zero, so the full step lands on it
    assert report.residual_trace == (4.0, 0.0)
    assert (report.converged, report.fallbacks) == (True, 0)

    _oscillating(monkeypatch)
    report = iterate_fixed_point(symmetric_market, desk_prefs,
                                 EquilibriumConfig(), start, 0.0,
                                 stack=symmetric_stack)
    trace = report.residual_trace
    # a full step shrinks the residual by 0.9, too little, so the next
    # round falls back to the damped blend, which moves the iterate to
    # 0.5 c + 0.5 R(c) = 0.05 c; the rounds alternate until convergence
    assert trace[0] == pytest.approx(1.9 * 4.0, rel=1e-12)
    for k, (earlier, later) in enumerate(zip(trace, trace[1:])):
        assert later == pytest.approx(earlier * (0.9 if k % 2 == 0
                                                 else 0.05), rel=1e-9)
    assert report.converged and report.fallbacks == len(trace) // 2 >= 1
    assert report.strategy.max_abs() <= 1e-8


def test_full_step_alone_never_halves_the_oscillating_residual(
        symmetric_market, desk_prefs, symmetric_stack, monkeypatch):
    # at damping 1.0 the fallback blend is the full step itself
    _oscillating(monkeypatch)
    report = iterate_fixed_point(symmetric_market, desk_prefs,
                                 EquilibriumConfig(damping=1.0),
                                 Strategy.constant(symmetric_market.tree,
                                                   4.0),
                                 0.0, stack=symmetric_stack)
    trace = report.residual_trace
    assert not report.converged and len(trace) == 50
    for earlier, later in zip(trace, trace[1:]):
        assert later == pytest.approx(0.9 * earlier, rel=1e-9)
        assert later > 0.5 * earlier
    assert report.fallbacks == 49


def test_dampings_take_different_paths_to_the_oscillating_limit(
        symmetric_market, desk_prefs, symmetric_stack, monkeypatch):
    # the map's fixed point is the constant 1.0, so the zero start that
    # verify runs at every damping oscillates and falls back
    from refequil.verify import run_suite

    _oscillating(monkeypatch, center=1.0)
    zero = zero_strategy(symmetric_market)
    reports = [iterate_fixed_point(symmetric_market, desk_prefs,
                                   EquilibriumConfig(damping=damping,
                                                     max_iterations=200),
                                   zero, 0.0, stack=symmetric_stack)
               for damping in (0.25, 0.5, 1.0)]
    assert all(r.converged and r.fallbacks >= 1 for r in reports)
    traces = [r.residual_trace for r in reports]
    assert len(set(traces)) == 3
    for i, a in enumerate(reports):
        for b in reports[i + 1:]:
            assert a.strategy.sup_distance(b.strategy) <= 10.0 * 1e-8

    # the search's zero start falls back, so verify reruns it at the two
    # other dampings: its Picard loops make every report's best responses
    calls = []
    response = equilibrium.best_response

    def counted(*args, **kwargs):
        calls.append(1)
        return response(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "best_response", counted)
    checks = run_suite(symmetric_market, desk_prefs, 0.0, suite="equilibrium",
                       samples=4, seed=3,
                       config=EquilibriumConfig(starts=1, max_iterations=200),
                       stack=symmetric_stack)
    invariance, = [r for r in checks if r.name == "damping_invariance"]
    assert invariance.instances == 3 and invariance.passed
    # and the oracle check's certify_equilibrium makes one more
    assert len(calls) == sum(r.iterations for r in reports) + 1


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_certify_true_equilibrium(symmetric_market, desk_prefs,
                                  symmetric_stack):
    report = certify_equilibrium(symmetric_market, desk_prefs,
                                 zero_strategy(symmetric_market), 0.0,
                                 config=EquilibriumConfig(
                                     oracle_radius=2.0, oracle_resolution=21),
                                 stack=symmetric_stack)
    assert report.certified
    assert report.analytic_residual == 0.0
    assert not report.oracle_skipped
    assert report.oracle_margin <= 1e-12


def test_certify_rejects_perturbed_candidate(symmetric_market, desk_prefs,
                                             symmetric_stack):
    candidate = Strategy.constant(symmetric_market.tree, 0.1)
    report = certify_equilibrium(symmetric_market, desk_prefs, candidate, 0.0,
                                 config=EquilibriumConfig(
                                     oracle_radius=2.0, oracle_resolution=21),
                                 stack=symmetric_stack)
    assert not report.certified
    # the best response to any reference here is zero, so the analytic
    # residual equals the perturbation itself
    assert report.analytic_residual == pytest.approx(0.1, abs=1e-12)
    assert report.oracle_margin > 0.0


def test_oracle_sweep_equals_rolling_each_grid_strategy():
    # the sweep rolls its whole grid forward at once; its optimum must equal
    # rolling each grid strategy through ``wealth`` and applying the same
    # kernel and leaf probabilities
    rng = np.random.default_rng(23)
    for k in range(40):
        horizon, atoms = 1 + k % 2, 2 + (k // 2) % 2
        market, prefs, x0 = random_certified_instance(rng, horizon, atoms)
        tree, prices = market.tree, market.prices
        reference = terminal_wealth_law(tree, prices, Strategy(rng.uniform(
            -1.0, 1.0, size=len(tree.interior))), x0)
        radius, resolution = float(rng.uniform(0.5, 3.0)), 6
        grid = np.linspace(-radius, radius, resolution)
        leaf_wealth = np.array([
            [w for w, _ in wealth(tree, prices, np.array(h),
                                  x0).leaf_law(tree)]
            for h in itertools.product(grid, repeat=len(tree.interior))])
        probs = np.asarray([leaf.prob for leaf in tree.leaves])
        values = satisfaction(prefs.utility, prefs.gain_loss, leaf_wealth,
                              reference) @ probs
        assert _oracle_sweep(market, prefs, reference, x0, radius,
                             resolution) == float(np.max(values)), k


def _full_grid_sweep(market, prefs, reference, x0, radius, resolution):
    """The sweep over every grid strategy: roll the whole mesh, apply the
    kernel, then weight by the leaf probabilities."""
    tree = market.tree
    grids = [np.linspace(-radius, radius, resolution) for _ in tree.interior]
    mesh = np.meshgrid(*grids, indexing="ij")
    positions = np.stack([m.ravel() for m in mesh], axis=-1)
    leaf_wealth = roll(market.prices.stages(tree), positions, float(x0))[-1]
    probs = np.asarray([leaf.prob for leaf in tree.leaves])
    values = satisfaction(prefs.utility, prefs.gain_loss, leaf_wealth,
                          reference) @ probs
    return float(np.max(values))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), horizon=st.integers(1, 3),
       atoms=st.integers(2, 3), data=st.data())
def test_oracle_sweep_on_the_path_grid_equals_the_full_grid(seed, horizon,
                                                            atoms, data):
    # the kernel runs on the path grid only, and each leaf's column is
    # broadcast over the off-path positions: the optimum is bit-equal to
    # the one over every grid strategy
    rng = np.random.default_rng(seed)
    market, prefs, x0 = random_certified_instance(rng, horizon, atoms)
    nodes = len(market.tree.interior)
    top = max(r for r in range(2, 42)
              if r ** nodes <= equilibrium._ORACLE_CAP)
    resolution = data.draw(st.integers(2, top), label="resolution")
    size = data.draw(st.integers(1, 4), label="reference atoms")
    weights = rng.uniform(0.1, 1.0, size)
    reference = ReferenceDistribution(zip(rng.uniform(-3.0, 3.0, size),
                                          weights / weights.sum()))
    radius = float(rng.uniform(0.5, 3.0))
    assert _oracle_sweep(market, prefs, reference, x0, radius, resolution) \
        == _full_grid_sweep(market, prefs, reference, x0, radius, resolution)


def test_oracle_sweep_evaluates_each_leaf_wealth_once(monkeypatch):
    # a leaf's wealth depends on the positions on its path alone, so the
    # kernel sees at most leaves x resolution^T wealths, not one per leaf
    # of every grid strategy (4 x 41^3 = 275,684 on symmetric_t2)
    config = load_config(fixture_path("symmetric_t2"))
    market, prefs = config.market, config.preferences
    reference = terminal_wealth_law(market.tree, market.prices,
                                    Strategy.constant(market.tree, 0.3), 0.0)
    kernel, sizes = equilibrium.satisfaction, []

    def counted(utility, gain_loss, x, *args, **kwargs):
        sizes.append(np.size(x))
        return kernel(utility, gain_loss, x, *args, **kwargs)

    monkeypatch.setattr(equilibrium, "satisfaction", counted)
    _oracle_sweep(market, prefs, reference, 0.0, 2.0, 41)
    assert 0 < sum(sizes) <= len(market.tree.leaves) * 41 ** 2


def test_self_value_and_best_response_are_blocked_by_the_kernel(
        monkeypatch):
    # the kernel alone bounds its gap matrix: with blocks of 40 cells the
    # self-value (27 leaves against 27 atoms) and a cold best response
    # split their kernel calls and still equal the unblocked ones bit for
    # bit
    rng = np.random.default_rng(41)
    market, prefs, x0 = random_certified_instance(rng, 3, 3)
    strategy = Strategy(rng.uniform(-1.0, 1.0, len(market.tree.interior)))
    value = evaluate_self_value(market, prefs, strategy, x0)
    response = best_response(market, prefs, strategy, x0)[0]
    monkeypatch.setattr(preferences, "_KERNEL_CELLS", 40)
    assert evaluate_self_value(market, prefs, strategy, x0) == value
    assert best_response(market, prefs, strategy, x0)[0].positions.tolist() \
        == response.positions.tolist()


def test_certify_oracle_margin_within_quadratic_slack(skewed_market,
                                                      desk_prefs,
                                                      skewed_stack):
    config = EquilibriumConfig(oracle_radius=3.0, oracle_resolution=41)
    eq = iterate_fixed_point(skewed_market, desk_prefs, config,
                             zero_strategy(skewed_market), 0.0,
                             stack=skewed_stack)
    assert eq.converged
    report = certify_equilibrium(skewed_market, desk_prefs, eq.strategy, 0.0,
                                 config=config, stack=skewed_stack)
    assert not report.oracle_skipped
    assert report.grid_resolution == 41
    assert report.oracle_margin <= report.oracle_slack
    assert report.certified


def test_certify_skips_oversized_oracle(symmetric_market, desk_prefs,
                                        symmetric_stack):
    # 67 positions on each of 3 interior nodes: 300,763 grid strategies,
    # over the 300,000 cap
    config = EquilibriumConfig(oracle_resolution=67)
    report = certify_equilibrium(symmetric_market, desk_prefs,
                                 zero_strategy(symmetric_market), 0.0,
                                 config=config, stack=symmetric_stack)
    assert report.oracle_skipped
    assert report.oracle_margin is None
    assert "analytic check only" in report.notice
    assert report.certified  # analytic residual alone still certifies


def test_certify_and_best_response_reject_foreign_strategies():
    # a strategy is a vector indexed by node id; one that does not match
    # the tree raises instead of being certified or rolled forward
    config = load_config(fixture_path("symmetric_t2"))
    market, prefs = config.market, config.preferences
    x0 = config.initial_capital
    zero = {node.id: 0.0 for node in market.tree.interior}
    assert certify_equilibrium(market, prefs, Strategy(zero), x0).certified
    with pytest.raises(SolveError):
        certify_equilibrium(market, prefs, Strategy({**zero, 99: 5.0}), x0)
    with pytest.raises(SolveError):
        Strategy({k: h for k, h in zero.items() if k != 1})
    with pytest.raises(MarketError, match="missing node"):
        certify_equilibrium(market, prefs, Strategy(list(zero.values())[:-1]),
                            x0)
    with pytest.raises(MarketError):
        best_response(market, prefs, Strategy([0.0] * (len(zero) + 1)), x0)


# ---------------------------------------------------------------------------
# multistart search
# ---------------------------------------------------------------------------

def test_multistart_finds_the_symmetric_equilibrium(symmetric_market,
                                                    desk_prefs,
                                                    symmetric_stack):
    config = EquilibriumConfig(starts=5)
    result = find_equilibria(symmetric_market, desk_prefs, config, 0.0,
                             seed=11, stack=symmetric_stack)
    assert len(result.reports) == 5
    assert all(r.converged for r in result.reports)
    # every start lands on the same equilibrium
    assert result.distinct == (0,)
    assert result.preferred == 0
    pref = result.preferred_report
    assert pref.residual == 0.0
    assert pref.strategy.max_abs() == 0.0


def test_single_converged_start_is_preferred(skewed_market, desk_prefs,
                                             skewed_stack):
    config = EquilibriumConfig(starts=1)
    result = find_equilibria(skewed_market, desk_prefs, config, 0.0,
                             seed=1, stack=skewed_stack)
    assert result.preferred == 0
    assert result.preferred_report is result.reports[0]


def test_preferred_weakly_dominates_converged(symmetric_market, desk_prefs,
                                              symmetric_stack):
    result = find_equilibria(symmetric_market, desk_prefs,
                             EquilibriumConfig(starts=6), 0.0, seed=4,
                             stack=symmetric_stack)
    best = result.preferred_report.value
    for report in result.converged_reports:
        assert best >= report.value - 1e-12


def test_explicit_starts_are_used(symmetric_market, desk_prefs,
                                  symmetric_stack):
    explicit = Strategy.constant(symmetric_market.tree, 1.5)
    config = EquilibriumConfig(starts=2, explicit_starts=(explicit,))
    result = find_equilibria(symmetric_market, desk_prefs, config, 0.0,
                             seed=0, stack=symmetric_stack)
    assert len(result.reports) == 2  # zero start + the explicit one
    assert all(r.converged for r in result.reports)


def test_damping_invariance_on_symmetric_model(symmetric_market, desk_prefs,
                                               symmetric_stack):
    limits = []
    for damping in (0.25, 0.5, 1.0):
        config = EquilibriumConfig(damping=damping, max_iterations=80)
        report = iterate_fixed_point(symmetric_market, desk_prefs, config,
                                     zero_strategy(symmetric_market), 0.0,
                                     stack=symmetric_stack)
        assert report.converged
        limits.append(report.strategy)
    for i, a in enumerate(limits):
        for b in limits[i + 1:]:
            assert a.sup_distance(b) <= 10.0 * 1e-8


def test_equilibria_stay_inside_certified_ball(symmetric_market, desk_prefs,
                                               symmetric_stack):
    from refequil.preferences import strategy_bound
    result = find_equilibria(symmetric_market, desk_prefs,
                             EquilibriumConfig(starts=4), 0.0, seed=9,
                             stack=symmetric_stack)
    ball = strategy_bound(symmetric_stack, symmetric_market.prices.c_f, 0.0)
    for report in result.converged_reports:
        assert report.strategy.max_abs() <= ball


def test_fixed_point_idempotence(skewed_market, desk_prefs, skewed_stack):
    config = EquilibriumConfig(starts=2)
    result = find_equilibria(skewed_market, desk_prefs, config, 0.0, seed=5,
                             stack=skewed_stack)
    for report in result.converged_reports:
        again, _ = best_response(skewed_market, desk_prefs, report.strategy,
                                 0.0, stack=skewed_stack)
        assert again.sup_distance(report.strategy) <= config.tolerance


def test_config_validation():
    with pytest.raises(ValueError):
        EquilibriumConfig(damping=0.0)
    with pytest.raises(ValueError):
        EquilibriumConfig(tolerance=-1.0)
    with pytest.raises(ValueError):
        EquilibriumConfig(starts=0)
    with pytest.raises(ValueError):
        EquilibriumConfig(max_iterations=0)


# ---------------------------------------------------------------------------
# the multistart search against its starts run one by one
# ---------------------------------------------------------------------------

def sequential_search(market, prefs, config, x0, seed, stack):
    """The search's starts run one after another, each through
    iterate_fixed_point: the reference for the multistart search."""
    return [iterate_fixed_point(market, prefs, config, start, x0,
                                stack=stack, start_id=k)
            for k, start in enumerate(_starts(market, config, x0, seed,
                                              stack))]


def _stack(market, prefs):
    return build_envelope_stack(prefs, market.certificate.alpha_star,
                                market.prices.c_f, market.prices.chi,
                                market.horizon)


def _fields(report):
    return (report.strategy.positions.tolist(), report.residual, report.value,
            report.iterations, report.converged, report.start_id,
            report.residual_trace, report.fallbacks)


def _compare_searches(market, prefs, config, x0, seed, monkeypatch):
    """Reports of the search, after checking that they and the search's
    work (kernel calls, Newton iterations, step halvings) equal those of
    its starts run one by one."""
    stack = _stack(market, prefs)
    work = [0, 0, 0]
    kernel, record = bestresponse.satisfaction, bestresponse._record

    def counted_kernel(*args, **kwargs):
        work[0] += 1
        return kernel(*args, **kwargs)

    def counted_record(values, *args):
        record(values, *args)
        work[1] += values[0].stats.newton_iterations
        work[2] += values[0].stats.halvings

    monkeypatch.setattr(bestresponse, "satisfaction", counted_kernel)
    monkeypatch.setattr(bestresponse, "_record", counted_record)
    search = find_equilibria(market, prefs, config, x0, seed=seed,
                             stack=stack)
    search_work, work[:] = tuple(work), [0, 0, 0]
    sequential = sequential_search(market, prefs, config, x0, seed, stack)
    assert ([_fields(r) for r in search.reports]
            == [_fields(r) for r in sequential])
    assert search_work == tuple(work)
    return search.reports


@pytest.mark.parametrize("fixture", ["asymmetric_eex_t2", "symmetric_t2",
                                     "stress_t3"])
def test_search_equals_sequential_on_fixtures(fixture, monkeypatch):
    # no start's run leaves state behind that changes a later start's
    config = load_config(fixture_path(fixture))
    reports = _compare_searches(config.market, config.preferences,
                                config.solver, config.initial_capital, 7,
                                monkeypatch)
    assert any(r.converged for r in reports)


@pytest.mark.parametrize("horizon,atoms", [(1, 2), (1, 3), (2, 2), (2, 3),
                                           (3, 2), (3, 3)])
def test_search_equals_sequential_on_random_trees(horizon, atoms,
                                                  monkeypatch):
    # an explicit start, a start at a converged limit, random draws and a
    # budget too small for the starts away from the limit, so that runs
    # of different lengths follow each other
    rng = np.random.default_rng([29, horizon, atoms])
    market, prefs, x0 = random_certified_instance(rng, horizon, atoms)
    explicit = Strategy({node.id: float(rng.uniform(-2.0, 2.0))
                         for node in market.tree.interior})
    limit = iterate_fixed_point(market, prefs, EquilibriumConfig(), explicit,
                                x0)
    assert limit.converged
    config = EquilibriumConfig(starts=5, max_iterations=4,
                               explicit_starts=(explicit, limit.strategy))
    reports = _compare_searches(market, prefs, config, x0, 3, monkeypatch)
    assert len(reports) == 5
    assert any(not r.converged and r.iterations == 4 for r in reports)
    assert any(r.converged and r.iterations < 4 for r in reports)


def test_search_runs_each_start_once_in_order(monkeypatch):
    # the search calls iterate_fixed_point through the module global, once
    # per start and in start order, so a tracer wrapping it sees every run
    market, prefs, x0 = random_certified_instance(
        np.random.default_rng(43), 2, 2)
    config = EquilibriumConfig(starts=5, max_iterations=6)
    runs, iterate = [], equilibrium.iterate_fixed_point

    def recording(*args, **kwargs):
        runs.append(kwargs["start_id"])
        return iterate(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "iterate_fixed_point", recording)
    result = find_equilibria(market, prefs, config, x0, seed=3)
    assert runs == list(range(5))
    assert [r.start_id for r in result.reports] == runs


@pytest.mark.parametrize("fixture,parent", [("symmetric_t2", 235),
                                            ("asymmetric_eex_t2", 257),
                                            ("stress_t3", 194)])
def test_safeguarded_search_on_fixtures(fixture, parent):
    # ``parent``: best responses of the search at seed 7 when every round
    # blended at the damping 0.5
    config = load_config(fixture_path(fixture))
    result = find_equilibria(config.market, config.preferences,
                             config.solver, config.initial_capital, seed=7)
    assert all(r.converged for r in result.reports)
    assert len(result.distinct) == 1
    assert 3 * sum(r.iterations for r in result.reports) <= parent
    assert sum(r.fallbacks for r in result.reports) == 0


def test_lockstep_search_raises_the_lowest_failing_start(monkeypatch):
    # a start fails when its best response raises; the search surfaces
    # the error of the lowest-index failing start, as the sequence of runs
    # does, even when a later start fails in an earlier round
    market, prefs, x0 = random_certified_instance(
        np.random.default_rng(41), 2, 2)
    stack = _stack(market, prefs)
    config = EquilibriumConfig(starts=5, max_iterations=6)
    law = bestresponse.terminal_wealth_law
    seen = []

    def recording(tree, prices, strategy, x0_):
        seen[-1].append(strategy.positions.tolist())
        return law(tree, prices, strategy, x0_)

    monkeypatch.setattr(bestresponse, "terminal_wealth_law", recording)
    for k, start in enumerate(_starts(market, config, x0, 3, stack)):
        seen.append([])
        iterate_fixed_point(market, prefs, config, start, x0, stack=stack,
                            start_id=k)
    marked = {}

    def failing(tree, prices, strategy, x0_):
        for k, positions in marked.items():
            if strategy.positions.tolist() == positions:
                raise SolveError(f"start {k} failed")
        return law(tree, prices, strategy, x0_)

    monkeypatch.setattr(bestresponse, "terminal_wealth_law", failing)
    for marks, failed in (({1: seen[1][3], 3: seen[3][0]}, 1),
                          ({4: seen[4][0], 3: seen[3][2]}, 3)):
        marked.clear()
        marked.update(marks)
        for search in (find_equilibria, sequential_search):
            with pytest.raises(SolveError, match=f"start {failed} failed"):
                search(market, prefs, config, x0, 3, stack)
