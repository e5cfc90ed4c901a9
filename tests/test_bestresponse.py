import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refequil.bestresponse import (
    NewtonValue,
    OneStepSolution,
    RecursiveValue,
    SolveError,
    SolveStats,
    Strategy,
    TerminalValue,
    best_response,
    newton_values,
    one_step_objective,
    solve_one_step,
    terminal_wealth_law,
    value_recursion,
)
from refequil.cli import main
from refequil.config import fixture_path, load_config
from refequil.equilibrium import (
    EquilibriumConfig,
    certify_equilibrium,
    find_equilibria,
)
from refequil.market import (
    FactorDistribution,
    Market,
    MarketError,
    NoArbitrageCertificate,
    ScenarioTree,
    TablePriceModel,
    wealth,
)
from refequil.preferences import (
    ArctanGainLoss,
    ExponentialUtility,
    Preferences,
    ReferenceDistribution,
    TabulatedUtility,
    build_envelope_stack,
    satisfaction,
)
from refequil.verify import run_suite

from conftest import fair_coin, last_coordinate_scaler, random_certified_instance


class PairByPair:
    """A next-stage double: ``evaluate_many`` asks ``evaluate`` one pair at
    a time, in request order, and returns the columns (v, v', v'')."""

    def evaluate_many(self, nodes, xs):
        rows = [self.evaluate(node, x) for node, x in zip(nodes, xs)]
        return tuple(list(column) for column in zip(*rows))


class PlainExponential(PairByPair):
    """Reference-free exponential next-stage value, for the worked examples."""

    def evaluate(self, node, x):
        e = math.exp(-x) if x < 700 else math.inf
        return (-e, e, -e)


@pytest.fixture(scope="module")
def one_step_market():
    tree = ScenarioTree([fair_coin()])
    prices = TablePriceModel(1.0, 0.5, 1.0, func=last_coordinate_scaler(0.5))
    return Market.assemble(tree, prices)


# ---------------------------------------------------------------------------
# the one-step objective
# ---------------------------------------------------------------------------

def test_gamma_big_zero_position(one_step_market):
    tree, prices = one_step_market.tree, one_step_market.prices
    v = PlainExponential()
    expected = sum(c.edge_prob * v.evaluate(c, 0.3)[0]
                   for c in tree.root.children)
    got = one_step_objective(v, prices, tree.root, 0.3, 0.0)[0]
    assert got == expected


def test_gamma_big_matches_cosh_value(one_step_market):
    tree, prices = one_step_market.tree, one_step_market.prices
    got = one_step_objective(PlainExponential(), prices, tree.root, 0.0,
                             1.0)[0]
    assert got == pytest.approx(-math.cosh(0.5), abs=1e-14)


def test_gamma_big_respects_satisfaction_cap(one_step_market, desk_prefs):
    tree, prices = one_step_market.tree, one_step_market.prices
    ref = ReferenceDistribution([(0.4, 0.5), (-0.4, 0.5)])
    vt = TerminalValue(desk_prefs, ref)
    cap = desk_prefs.satisfaction_cap
    for h in (-2.0, 0.0, 1.0, 5.0):
        assert one_step_objective(vt, prices, tree.root, 0.1, h)[0] <= cap


def test_gamma_big_rejects_terminal_node(one_step_market):
    tree, prices = one_step_market.tree, one_step_market.prices
    with pytest.raises(SolveError):
        one_step_objective(PlainExponential(), prices, tree.leaves[0], 0.0,
                           0.0)


@pytest.mark.parametrize("seed", range(6))
def test_objective_equals_per_child_terminal_sum(seed):
    # the objective evaluates a terminal next stage once over all children;
    # each sum must equal the child-by-child evaluation bit for bit
    rng = np.random.default_rng(seed)
    market, prefs, x0 = random_certified_instance(rng, 1 + seed % 3,
                                                  2 + seed % 2)
    tree, prices = market.tree, market.prices
    reference = Strategy({n.id: float(rng.uniform(-1.0, 1.0))
                          for n in tree.interior})
    vt = TerminalValue(prefs, terminal_wealth_law(tree, prices, reference,
                                                  x0))
    for node in tree.levels[-2]:
        x = x0 + float(rng.uniform(-1.0, 1.0))
        h = float(rng.uniform(-2.0, 2.0))
        big = small = slope = 0.0
        for child in node.children:
            f = prices.increment(child)
            v, v1, v2 = vt.evaluate(child, x + h * f)
            p = child.edge_prob
            big += p * v
            small += p * v1 * f
            slope += p * v2 * f * f
        assert one_step_objective(vt, prices, node, x, h) == (big, small,
                                                              slope)


def test_gamma_small_vanishes_at_zero_for_symmetric_market(one_step_market):
    tree, prices = one_step_market.tree, one_step_market.prices
    _, got, _ = one_step_objective(PlainExponential(), prices, tree.root,
                                   0.2, 0.0)
    assert got == 0.0


def test_gamma_small_is_derivative_of_gamma_big(one_step_market, desk_prefs):
    tree, prices = one_step_market.tree, one_step_market.prices
    ref = ReferenceDistribution([(0.0, 0.3), (0.5, 0.7)])
    vt = TerminalValue(desk_prefs, ref)
    step = 1e-6
    for x, h in ((0.0, 0.0), (0.4, 0.8), (-0.5, -1.2)):
        up = one_step_objective(vt, prices, tree.root, x, h + step)[0]
        down = one_step_objective(vt, prices, tree.root, x, h - step)[0]
        fd = (up - down) / (2 * step)
        got = one_step_objective(vt, prices, tree.root, x, h)[1]
        assert got == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_gamma_small_sign_change_over_bracket(one_step_market, desk_prefs,
                                              skewed_stack):
    tree, prices = one_step_market.tree, one_step_market.prices
    vt = TerminalValue(desk_prefs, ReferenceDistribution.degenerate(0.0))
    k = float(skewed_stack[0].position_bound(0.0))
    assert one_step_objective(vt, prices, tree.root, 0.0, -k)[1] >= 0.0
    assert one_step_objective(vt, prices, tree.root, 0.0, k)[1] <= 0.0


# ---------------------------------------------------------------------------
# the one-step solver
# ---------------------------------------------------------------------------

def test_solver_returns_zero_for_symmetric_foc(one_step_market, desk_prefs):
    tree, prices = one_step_market.tree, one_step_market.prices
    vt = TerminalValue(desk_prefs, ReferenceDistribution.degenerate(0.0))
    sol = solve_one_step(vt, prices, tree.root, 0.0, bracket=10.0)
    assert sol.position == 0.0
    assert sol.residual == 0.0
    assert not sol.clamped


@pytest.mark.parametrize("p,a", [(0.7, 1.3), (0.55, 0.5), (0.9, 2.0)])
def test_solver_matches_closed_form(p, a):
    # with a reference beyond every reachable wealth, the comparison stays
    # on the linear branch and the optimizer has the exponential closed form
    dist = FactorDistribution.from_atoms([(0.5, p), (-0.5, 1.0 - p)])
    tree = ScenarioTree([dist])
    prices = TablePriceModel(1.0, 0.5, 1.0, func=last_coordinate_scaler(1.0))
    prefs = Preferences(ExponentialUtility(a, c_u=0.05),
                        ArctanGainLoss.tight(0.25))
    vt = TerminalValue(prefs, ReferenceDistribution.degenerate(500.0))
    sol = solve_one_step(vt, prices, tree.root, 0.3, bracket=200.0)
    assert sol.position == pytest.approx(math.log(p / (1 - p)) / a, abs=1e-8)
    assert sol.residual <= 1e-10


def test_solver_flags_exhausted_iteration_budget(skewed_market, desk_prefs):
    tree, prices = skewed_market.tree, skewed_market.prices
    vt = TerminalValue(desk_prefs, ReferenceDistribution([(0.3, 0.4),
                                                          (-0.2, 0.6)]))
    short = solve_one_step(vt, prices, tree.root, 0.1, bracket=50.0,
                           max_iterations=1)
    full = solve_one_step(vt, prices, tree.root, 0.1, bracket=50.0)
    assert short.exhausted
    assert short.residual > full.residual
    assert not full.exhausted


def test_solver_rejects_degenerate_bracket(one_step_market, desk_prefs):
    tree, prices = one_step_market.tree, one_step_market.prices
    vt = TerminalValue(desk_prefs, ReferenceDistribution.degenerate(0.0))
    with pytest.raises(SolveError, match="bracket"):
        solve_one_step(vt, prices, tree.root, 0.0, bracket=0.0)


def test_solver_flags_one_sided_objective(desk_prefs):
    # increments all positive: the derivative keeps one sign and the solver
    # must clamp and flag instead of fabricating a root
    tree = ScenarioTree([fair_coin()])
    prices = TablePriceModel(1.0, 0.5, 1.0, func=lambda e: 0.25)
    vt = TerminalValue(desk_prefs, ReferenceDistribution.degenerate(0.0))
    sol = solve_one_step(vt, prices, tree.root, 0.0, bracket=4.0)
    assert sol.clamped
    assert abs(sol.position) == pytest.approx(4.0)


#: the engine and its oracle build their stage evaluators alike
ENGINES = [newton_values, value_recursion]


@pytest.mark.parametrize("engine", ENGINES)
def test_optimizer_stays_inside_position_bound(engine):
    rng = np.random.default_rng(42)
    for _ in range(40):
        market, prefs, x0 = random_certified_instance(
            rng, int(rng.integers(1, 3)), int(rng.integers(2, 4)))
        stack = build_envelope_stack(prefs, market.certificate.alpha_star,
                                     market.prices.c_f, market.prices.chi,
                                     market.horizon)
        vt = TerminalValue(prefs, ReferenceDistribution.degenerate(x0))
        values = engine(market.tree, market.prices, vt, stack)
        for node in market.tree.interior:
            x = x0 + float(rng.uniform(-1.0, 1.0))
            sol = values[node.depth].solution(node, x)
            assert abs(sol.position) <= float(
                stack[node.depth].position_bound(x))
            assert not sol.clamped
            assert sol.residual <= 1e-10


# ---------------------------------------------------------------------------
# terminal and recursive values
# ---------------------------------------------------------------------------

def test_terminal_value_at_degenerate_reference(desk_prefs):
    vt = TerminalValue(desk_prefs, ReferenceDistribution.degenerate(1.2))
    v, v1, v2 = vt.evaluate(None, 1.2)
    assert v == pytest.approx(float(desk_prefs.utility.u(1.2)), abs=1e-15)
    assert v1 > 0.0 and v2 < 0.0


def test_terminal_derivatives_match_finite_differences(desk_prefs):
    ref = ReferenceDistribution([(0.0, 0.2), (0.7, 0.5), (-0.4, 0.3)])
    vt = TerminalValue(desk_prefs, ref)
    step = 1e-5
    for x in (-1.0, 0.0, 0.9, 2.5):
        v, v1, v2 = vt.evaluate(None, x)
        up = vt.evaluate(None, x + step)[0]
        down = vt.evaluate(None, x - step)[0]
        assert (up - down) / (2 * step) == pytest.approx(v1, rel=1e-4)
        assert (up - 2 * v + down) / step ** 2 == pytest.approx(
            v2, rel=1e-3, abs=1e-6)


def test_terminal_value_bounded_by_cap(desk_prefs):
    rng = np.random.default_rng(3)
    cap = desk_prefs.satisfaction_cap
    for _ in range(200):
        wealths = rng.uniform(-3, 3, size=3)
        probs = rng.dirichlet(np.ones(3))
        probs[-1] = 1.0 - math.fsum(probs[:-1])
        ref = ReferenceDistribution(zip(wealths, probs))
        x = float(rng.uniform(-3, 3))
        assert TerminalValue(desk_prefs, ref).evaluate(None, x)[0] <= cap


@pytest.mark.parametrize("engine", ENGINES)
def test_one_period_recursion_collapses_to_single_solve(one_step_market,
                                                        desk_prefs,
                                                        skewed_stack, engine):
    tree, prices = one_step_market.tree, one_step_market.prices
    ref = ReferenceDistribution([(0.2, 0.5), (-0.2, 0.5)])
    vt = TerminalValue(desk_prefs, ref)
    values = engine(tree, prices, vt, skewed_stack)
    x = 0.15
    sol = values[0].solution(tree.root, x)
    direct = one_step_objective(vt, prices, tree.root, x, sol.position)[0]
    assert values[0].evaluate(tree.root, x)[0] == pytest.approx(direct,
                                                                abs=1e-14)


@pytest.mark.parametrize("engine", ENGINES)
def test_value_dominates_zero_position(symmetric_market, desk_prefs,
                                       symmetric_stack, engine):
    tree, prices = symmetric_market.tree, symmetric_market.prices
    ref = ReferenceDistribution([(0.5, 0.4), (-0.5, 0.6)])
    values = engine(tree, prices, TerminalValue(desk_prefs, ref),
                    symmetric_stack)
    rng = np.random.default_rng(5)
    for _ in range(25):
        node = tree.interior[int(rng.integers(0, len(tree.interior)))]
        x = float(rng.uniform(-1.5, 1.5))
        v = values[node.depth].evaluate(node, x)[0]
        zero = one_step_objective(values[node.depth + 1], prices, node, x,
                                  0.0)[0]
        assert v >= zero - 1e-12


@pytest.mark.parametrize("engine", ENGINES)
def test_envelope_derivative_matches_finite_difference(symmetric_market,
                                                       desk_prefs,
                                                       symmetric_stack,
                                                       engine):
    tree, prices = symmetric_market.tree, symmetric_market.prices
    ref = ReferenceDistribution([(0.4, 0.3), (0.0, 0.4), (-0.6, 0.3)])
    values = engine(tree, prices, TerminalValue(desk_prefs, ref),
                    symmetric_stack)
    rng = np.random.default_rng(9)
    step = 1e-5
    for _ in range(10):
        node = tree.interior[int(rng.integers(0, len(tree.interior)))]
        x = float(rng.uniform(-1.0, 1.0))
        v, v1, v2 = values[node.depth].evaluate(node, x)
        up = values[node.depth].evaluate(node, x + step)
        down = values[node.depth].evaluate(node, x - step)
        assert (up[0] - down[0]) / (2 * step) == pytest.approx(v1, rel=1e-5)
        assert (up[1] - down[1]) / (2 * step) == pytest.approx(v2, rel=1e-3)


@pytest.mark.parametrize("engine", ENGINES)
def test_curvature_floor_at_sampled_positions(symmetric_market, desk_prefs,
                                              symmetric_stack, engine):
    tree, prices = symmetric_market.tree, symmetric_market.prices
    ref = ReferenceDistribution.degenerate(0.0)
    values = engine(tree, prices, TerminalValue(desk_prefs, ref),
                    symmetric_stack)
    rng = np.random.default_rng(13)
    for _ in range(20):
        node = tree.interior[int(rng.integers(0, len(tree.interior)))]
        x = float(rng.uniform(-1.0, 1.0))
        k = min(float(symmetric_stack[node.depth].position_bound(x)), 3.0)
        h = float(rng.uniform(-k, k))
        slope = one_step_objective(values[node.depth + 1], prices, node, x,
                                   h)[2]
        log_floor = float(symmetric_stack[node.depth]
                          .log_families(np.asarray(x)).curve_floor)
        floor = prices.c_f ** 2 * math.exp(log_floor)
        # the floor may saturate to zero far down the stack; its log form
        # must still be a number (positivity holds in log space)
        assert -slope >= floor >= 0.0
        assert not math.isnan(log_floor)


# ---------------------------------------------------------------------------
# the best response
# ---------------------------------------------------------------------------

def test_best_response_is_zero_on_symmetric_market(symmetric_market,
                                                   desk_prefs,
                                                   symmetric_stack):
    for reference in (Strategy.constant(symmetric_market.tree, 0.0),
                      Strategy.constant(symmetric_market.tree, 2.0)):
        psi, _ = best_response(symmetric_market, desk_prefs, reference, 0.0,
                               stack=symmetric_stack)
        assert all(h == 0.0 for h in psi.positions.tolist())


def test_best_response_matches_scalar_oracle(skewed_market, desk_prefs,
                                             skewed_stack):
    # independent oracle: maximize expected satisfaction of x0 + h f over h
    # by golden-section on the satisfaction sums directly
    x0 = 0.25
    reference = Strategy.constant(skewed_market.tree, 0.8)
    law = terminal_wealth_law(skewed_market.tree, skewed_market.prices,
                              reference, x0)
    tree, prices = skewed_market.tree, skewed_market.prices
    u, nu = desk_prefs.utility, desk_prefs.gain_loss

    def objective(h: float) -> float:
        total = 0.0
        for child in tree.root.children:
            w = x0 + h * prices.increment(child)
            total += child.edge_prob * satisfaction(u, nu, w, law)
        return total

    # derivative-free bisection on central differences of the objective
    step = 1e-6
    lo, hi = -20.0, 20.0
    slope = lambda h: (objective(h + step) - objective(h - step)) / (2 * step)
    assert slope(lo) > 0.0 > slope(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    psi, _ = best_response(skewed_market, desk_prefs, reference, x0,
                           stack=skewed_stack)
    assert psi.positions[tree.root.id] == pytest.approx(oracle, abs=1e-8)


def test_best_response_continuity_under_reference_perturbation(
        symmetric_market, desk_prefs, symmetric_stack):
    rng = np.random.default_rng(21)
    tree = symmetric_market.tree
    base_positions = {n.id: float(rng.uniform(-1, 1)) for n in tree.interior}
    base = Strategy(base_positions)
    bumped = Strategy({k: v + 1e-6 * float(s) for (k, v), s in
                       zip(base_positions.items(),
                           rng.choice([-1.0, 1.0], len(base_positions)))})
    psi_a, _ = best_response(symmetric_market, desk_prefs, base, 0.0,
                             stack=symmetric_stack)
    psi_b, _ = best_response(symmetric_market, desk_prefs, bumped, 0.0,
                             stack=symmetric_stack)
    assert psi_a.sup_distance(psi_b) <= 1e-3


def test_best_response_refuses_uncertified_market(desk_prefs):
    tree = ScenarioTree([fair_coin()])
    bad = Market.assemble(tree, TablePriceModel(1.0, 0.5, 1.0,
                                                func=lambda e: 0.3))
    with pytest.raises(MarketError, match="not certified"):
        best_response(bad, desk_prefs, Strategy.constant(tree, 0.0), 0.0)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def test_strategy_blend_and_distance(symmetric_market):
    tree = symmetric_market.tree
    a = Strategy.constant(tree, 1.0)
    b = Strategy.constant(tree, 3.0)
    mid = a.blend(b, 0.5)
    assert all(h == 2.0 for h in mid.positions.tolist())
    assert a.sup_distance(b) == 2.0
    assert a.positions.shape == (len(tree.interior),)


def test_strategy_rejects_non_finite_positions():
    with pytest.raises(SolveError):
        Strategy({0: math.inf})


# ---------------------------------------------------------------------------
# the engine's stage evaluators against the depth-first oracle
# ---------------------------------------------------------------------------

def recursion_best_response(market, prefs, reference, x0, stack,
                            foc_tolerance=1e-10):
    """The exact recursion's best response: ``value_recursion`` against
    the reference's terminal law, then ``solution`` forward from the root
    at the wealths ``market.wealth`` rolls out."""
    tree, prices = market.tree, market.prices
    values = value_recursion(tree, prices, TerminalValue(
        prefs, terminal_wealth_law(tree, prices, reference, x0)), stack,
        foc_tolerance)
    positions = np.empty(len(tree.interior))
    node_wealth = {tree.root.id: x0}
    for node in tree.interior:
        x = node_wealth[node.id]
        sol = values[node.depth].solution(node, x)
        positions[node.id] = sol.position
        for child, f in zip(node.children, prices.row(node)[0]):
            node_wealth[child.id] = x + sol.position * f
    return Strategy(positions), values


def _random_instance(seed, horizon, atoms):
    rng = np.random.default_rng([seed, horizon, atoms])
    market, prefs, x0 = random_certified_instance(rng, horizon, atoms)
    stack = build_envelope_stack(prefs, market.certificate.alpha_star,
                                 market.prices.c_f, market.prices.chi,
                                 horizon)
    reference = Strategy({n.id: float(rng.uniform(-1.0, 1.0))
                          for n in market.tree.interior})
    return market, prefs, x0, stack, reference


def _both_engines(market, prefs, reference, x0, stack):
    """Fresh stage evaluators of the engine and of the oracle against the
    reference's terminal law."""
    tree, prices = market.tree, market.prices
    law = terminal_wealth_law(tree, prices, reference, x0)
    return [engine(tree, prices, TerminalValue(prefs, law), stack)
            for engine in ENGINES]


def _assert_engine_matches_oracle(market, prefs, reference, x0, stack,
                                  pairs):
    """At every ``(node, x)`` where the oracle's solution is not clamped,
    the engine's position lies within 1e-11 max(1, |h|) of the oracle's,
    its value within 1e-12 max(1, |v|), and v' and v'' within 1e-9
    relative.  Returns the number of pairs compared."""
    engine, oracle = _both_engines(market, prefs, reference, x0, stack)
    compared = 0
    for node, x in pairs:
        exact = oracle[node.depth].solution(node, x)
        if exact.clamped:
            continue
        mine = engine[node.depth].solution(node, x)
        assert abs(mine.position - exact.position) <= 1e-11 * max(
            1.0, abs(exact.position))
        assert not mine.exhausted and mine.residual <= 1e-10
        v, v1, v2 = engine[node.depth].evaluate(node, x)
        w, w1, w2 = oracle[node.depth].evaluate(node, x)
        assert abs(v - w) <= 1e-12 * max(1.0, abs(w))
        assert v1 == pytest.approx(w1, rel=1e-9, abs=0.0)
        assert v2 == pytest.approx(w2, rel=1e-9, abs=0.0)
        compared += 1
    return compared


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), horizon=st.integers(1, 4),
       atoms=st.sampled_from([2, 3]))
def test_newton_value_matches_the_oracle(seed, horizon, atoms):
    rng = np.random.default_rng(seed)
    market, prefs, x0 = random_certified_instance(rng, horizon, atoms)
    stack = _stack(market, prefs)
    reference = Strategy(rng.uniform(-1.0, 1.0, len(market.tree.interior)))
    pairs = [(level[int(rng.integers(len(level)))],
              x0 + float(rng.uniform(-2.0, 2.0)))
             for level in market.tree.levels[:-1]]
    _assert_engine_matches_oracle(market, prefs, reference, x0, stack, pairs)


def _tabulated_instance():
    """``random_certified_instance(default_rng(54), 3, 3)`` with its
    exponential utility tabulated on the knots of
    ``test_tabulated_utility_tracks_its_source``, and a uniform(-1, 1)
    reference: a C^1 utility whose scanned envelopes are not valid
    bounds, so that its stage-0 bracket at x0 excludes the optimizer."""
    rng = np.random.default_rng(54)
    market, prefs, x0 = random_certified_instance(rng, 3, 3)
    source = prefs.utility
    knots = np.concatenate([np.linspace(-6.0, 6.0, 481),
                            np.linspace(6.5, 90.0, 168)])
    prefs = Preferences(TabulatedUtility(knots, source.u(knots),
                                         source.du(knots), source.d2u(knots),
                                         c_u=source.c_u), prefs.gain_loss)
    reference = Strategy(rng.uniform(-1.0, 1.0, len(market.tree.interior)))
    return market, prefs, x0, _stack(market, prefs), reference


def test_newton_value_matches_the_oracle_on_a_tabulated_utility():
    market, prefs, x0, stack, reference = _tabulated_instance()
    pairs = [(node, x0 + dx) for node in market.tree.interior
             for dx in (-2.0, -0.5, 0.25, 1.5)]
    assert _assert_engine_matches_oracle(market, prefs, reference, x0,
                                         stack, pairs) >= 40


def test_off_path_optimizer_outside_the_bracket_is_reported_not_clamped():
    # the exact recursion can only return the bracket edge, with a residual
    # far above the tolerance; the engine returns the optimizer and flags
    # that it lies outside the bracket
    market, prefs, x0, stack, reference = _tabulated_instance()
    root, x = market.tree.root, x0 + 0.01
    engine, oracle = _both_engines(market, prefs, reference, x0, stack)
    bound = float(stack[0].position_bound(x))
    exact = oracle[0].solution(root, x)
    assert exact.clamped and abs(exact.position) == bound
    assert exact.residual > 0.1
    solution = engine[0].solution(root, x)
    assert solution.clamped and not solution.exhausted
    assert solution.bracket == (-bound, bound)
    assert abs(solution.position) > 2.0 and solution.residual <= 1e-10
    assert engine[0].stats.clamped == 1
    # the first-order condition against the engine's own next stage
    assert abs(one_step_objective(engine[1], market.prices, root, x,
                                  solution.position)[1]) <= 1e-10


_MANY = _random_instance(11, 3, 2)


@settings(max_examples=25, deadline=None)
@given(stage=st.integers(0, 2),
       picks=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                      min_size=1, max_size=7),
       order=st.randoms(use_true_random=False))
def test_evaluate_many_equals_one_by_one(stage, picks, order):
    # a batch of shuffled pairs, repeats included, returns and stores what
    # asking a fresh evaluator one pair at a time does, bit for bit
    market, prefs, x0, stack, reference = _MANY
    level = market.tree.levels[stage]
    pairs = [(level[i % len(level)], x0 + 0.4 * (j - 1)) for i, j in picks]
    order.shuffle(pairs)
    many = _both_engines(market, prefs, reference, x0, stack)[0][stage]
    got = list(zip(*many.evaluate_many([n for n, _ in pairs],
                                       [x for _, x in pairs])))
    for node, x in pairs:
        one = _both_engines(market, prefs, reference, x0, stack)[0][stage]
        assert one.evaluate(node, x) == many.evaluate(node, x)
        assert one.solution(node, x) == many.solution(node, x)
    assert got == [many.evaluate(node, x) for node, x in pairs]
    assert many.stats.solves == len(set(pairs))


def _references(market, reference):
    # references whose terminal laws have 1, 2 and more atoms
    tree = market.tree
    return [Strategy.constant(tree, 0.0), reference,
            Strategy(reference.positions + 0.25),
            Strategy.constant(tree, 0.5),
            Strategy(reference.positions - 0.5)]


def test_newton_best_responses_in_sequence_equal_single_runs():
    # best responses made one after another on one market and stack, as
    # the search and verify make them, equal each made alone on a fresh
    # instance, in the reverse order: no call leaves state behind that
    # changes a later one
    market, prefs, x0, stack, reference = _random_instance(7, 3, 2)
    together = [best_response(market, prefs, ref, x0, stack=stack)
                for ref in _references(market, reference)]
    for k, (psi, values) in reversed(list(enumerate(together))):
        market, prefs, x0, stack, reference = _random_instance(7, 3, 2)
        ref_psi, ref_values = best_response(
            market, prefs, _references(market, reference)[k], x0,
            stack=stack)
        assert psi.positions.tolist() == ref_psi.positions.tolist()
        assert values[0].stats == ref_values[0].stats
        assert values[0]._memo == ref_values[0]._memo


@pytest.mark.parametrize("horizon,atoms", [(1, 2), (1, 3), (2, 2), (2, 3),
                                           (3, 2), (3, 3), (4, 2), (4, 3)])
def test_root_run_equals_the_best_response(horizon, atoms):
    # a fresh stage-0 evaluator at (root, x0) runs the best response's batch
    # of one: its position and value equal the stored on-path ones bit for
    # bit
    market, prefs, x0, stack, reference = _random_instance(5, horizon,
                                                           atoms)
    psi, values = best_response(market, prefs, reference, x0, stack=stack)
    fresh = _both_engines(market, prefs, reference, x0, stack)[0][0]
    root = market.tree.root
    assert fresh.solution(root, x0) == values[0].solution(root, x0)
    assert fresh.solution(root, x0).position == psi.at(root)
    assert fresh.evaluate(root, x0) == values[0].evaluate(root, x0)
    assert fresh.stats.kernel_calls == values[0].stats.kernel_calls


def test_position_bound_array_equals_scalar():
    # a batch asks the bracket once over an array of wealths; its solutions
    # depend on it matching the scalar call exactly
    rng = np.random.default_rng(17)
    for horizon, atoms in ((2, 2), (3, 3), (4, 3)):
        market, _, x0, stack, _ = _random_instance(int(rng.integers(99)),
                                                   horizon, atoms)
        for stage in stack[:-1]:
            xs = x0 + rng.uniform(-6.0, 6.0, 600)
            assert stage.position_bound(xs).tolist() == [
                stage.position_bound(float(x)) for x in xs]


def test_batch_makes_one_kernel_call_per_trial_point(monkeypatch):
    # a batch asks the terminal stage once per trial point, over the leaves
    # of every row still searching, whatever its size
    market, prefs, x0, stack, reference = _random_instance(3, 3, 3)
    values = _both_engines(market, prefs, reference, x0, stack)[0]
    calls = []
    evaluate = TerminalValue.evaluate

    def counted(self, node, x):
        calls.append(len(x))
        return evaluate(self, node, x)

    monkeypatch.setattr(TerminalValue, "evaluate", counted)
    rng = np.random.default_rng(3)
    level = market.tree.levels[1]
    nodes = [level[k % len(level)] for k in range(30)]
    xs = (x0 + rng.uniform(-2.0, 2.0, len(nodes))).tolist()
    values[1].evaluate_many(nodes, xs)
    stats = values[1].stats
    assert len(calls) == stats.kernel_calls < len(nodes)
    assert calls[0] == len(nodes) * 9
    assert stats.solves == stats.stage_solves[1] == len(nodes)
    assert stats.clamped == stats.exhausted == 0


def test_large_batches_split_without_changing_answers(monkeypatch):
    # a batch whose kernel cells would pass the bound runs in parts, each
    # within it, and answers as the batch run whole does
    import refequil.bestresponse as bestresponse

    market, prefs, x0, stack, reference = _random_instance(3, 3, 3)
    level = market.tree.levels[1]
    nodes = [level[k % len(level)] for k in range(12)]
    xs = np.linspace(x0 - 1.0, x0 + 1.0, len(nodes)).tolist()
    whole = _both_engines(market, prefs, reference, x0, stack)[0][1]
    expected = whole.evaluate_many(nodes, xs)
    cells = 9 * len(whole.terminal.reference)
    monkeypatch.setattr(bestresponse, "_BATCH_CELLS", 5 * cells + 1)
    calls = []
    evaluate = TerminalValue.evaluate

    def counted(self, node, x):
        calls.append(len(x))
        return evaluate(self, node, x)

    monkeypatch.setattr(TerminalValue, "evaluate", counted)
    split = _both_engines(market, prefs, reference, x0, stack)[0][1]
    assert split.evaluate_many(nodes, xs) == expected
    assert max(calls) == 5 * 9
    assert calls.count(5 * 9) >= 2 and 2 * 9 in calls


def test_solution_stores_its_value(skewed_market, desk_prefs, skewed_stack,
                                   monkeypatch):
    # solution() stores the value its run found, so a later evaluate at the
    # same state is a memo hit that asks the next stage nothing more
    tree, prices = skewed_market.tree, skewed_market.prices
    vt = TerminalValue(desk_prefs, ReferenceDistribution([(0.3, 0.4),
                                                          (-0.2, 0.6)]))
    calls = []
    evaluate = TerminalValue.evaluate

    def counted(self, node, x):
        calls.append(x)
        return evaluate(self, node, x)

    monkeypatch.setattr(TerminalValue, "evaluate", counted)
    for engine in ENGINES:
        calls.clear()
        value = engine(tree, prices, vt, skewed_stack)[0]
        solution = value.solution(tree.root, 0.1)
        assert not (solution.exhausted or solution.clamped)
        made = len(calls)
        got = value.evaluate(tree.root, 0.1)
        assert len(calls) == made
        assert value.stats.solves == 1 and value.stats.memo_hits == 1
        assert got[0] == pytest.approx(one_step_objective(
            vt, prices, tree.root, 0.1, solution.position)[0], abs=1e-15)


def test_edge_table_is_built_once_per_market(desk_prefs):
    # the stage arrays are a market's one edge table: the price model's
    # increment runs while they are built, at assembly, and never again for
    # the best response, the wealth roll-forward, the one-step objective
    # or a verify suite
    calls = []

    def increment(history):
        calls.append(1)
        return 0.5 * history[-1]

    tree = ScenarioTree([fair_coin(), fair_coin()])
    prices = TablePriceModel(1.0, 0.5, 1.0, func=increment)
    market = Market.assemble(tree, prices)
    assert len(calls) == len(tree.nodes) - 1
    table = prices.stages(tree)
    for node in tree.interior:
        increments, probs = prices.row(node)
        assert increments == [0.5 * c.point[-1] for c in node.children]
        assert probs == [c.edge_prob for c in node.children]
    calls.clear()
    for h in (0.0, 0.3):
        best_response(market, desk_prefs, Strategy.constant(tree, h), 0.1)
    law = terminal_wealth_law(tree, prices, Strategy.constant(tree, 0.2), 0.1)
    for node in tree.interior:
        one_step_objective(TerminalValue(desk_prefs, law), prices, node, 0.1,
                           0.2)
    assert all(r.passed for r in run_suite(market, desk_prefs, 0.1,
                                           suite="hoelder", samples=8))
    assert prices.stages(tree) is table
    assert calls == []
    other = ScenarioTree([fair_coin(), fair_coin()])
    assert prices.stages(other) is not table
    assert len(calls) == len(other.nodes) - 1


def test_solve_stats_are_shared_and_consistent():
    market, prefs, x0, stack, reference = _random_instance(7, 3, 3)
    _, values = recursion_best_response(market, prefs, reference, x0, stack)
    stats = values[0].stats
    assert all(v.stats is stats for v in values[:-1])
    assert stats.solves == sum(stats.stage_solves.values())
    assert stats.stage_solves[0] == 1
    assert stats.foc_evals >= stats.solves
    assert stats.memo_hits > 0
    assert stats.clamped == stats.exhausted == 0
    assert 0.0 <= stats.max_residual <= 1e-10


def test_solve_stats_record_flags():
    stats = SolveStats()
    stats.record(OneStepSolution(0.5, 1e-3, (-1.0, 1.0), 4, exhausted=True),
                 2)
    stats.record(OneStepSolution(1.0, 2e-3, (-1.0, 1.0), 3, clamped=True), 2)
    assert (stats.solves, stats.foc_evals, stats.clamped,
            stats.exhausted) == (2, 7, 1, 1)
    assert stats.max_residual == 2e-3
    assert stats.stage_solves == {2: 2}
    assert stats.unbounded == 0
    stats.record(OneStepSolution(0.0, 0.0, (-math.inf, math.inf), 1), 0)
    assert stats.unbounded == 1


def _cold_best_response(seed, horizon, atoms):
    market, prefs, x0 = random_certified_instance(
        np.random.default_rng(seed), horizon, atoms)
    stack = _stack(market, prefs)
    _, values = best_response(market, prefs,
                              Strategy.constant(market.tree, 0.0), x0,
                              stack=stack)
    return stack, x0, values[0].stats


def test_solve_stats_count_unbounded_brackets():
    stack, x0, stats = _cold_best_response(1, 3, 2)
    assert stack[0].position_bound(x0) == math.inf
    assert stats.unbounded > 0
    config = load_config(fixture_path("symmetric_t2"))
    market, prefs = config.market, config.preferences
    _, values = best_response(market, prefs,
                              Strategy.constant(market.tree, 0.0),
                              config.initial_capital, stack=_stack(market,
                                                                   prefs))
    assert len(values[0]._memo) == 1
    assert values[0].stats.unbounded == 0


def test_deep_cold_best_response_saturates_without_nan():
    # at T = 6 the slope floor at 0 saturates to 0 at the deep stages; the
    # brackets above it must saturate to inf, not NaN
    stack, x0, stats = _cold_best_response(1, 6, 2)
    assert stack[0].position_bound(x0) == math.inf
    assert stats.clamped == stats.exhausted == 0
    assert stats.unbounded > 0
    assert stats.max_residual <= 1e-10


# ---------------------------------------------------------------------------
# the one-step solver's flow
# ---------------------------------------------------------------------------

class SteepExponential(PairByPair):
    """v' = scale e^(-x): on the skewed market the first-order condition's
    root is ln(7/3) at every wealth, and a large ``scale`` makes it so
    steep that no double meets the 1e-13 target near the root."""

    def __init__(self, scale):
        self.scale = scale

    def evaluate(self, node, x):
        e = self.scale * math.exp(-x)
        return (-e, e, -e)


def test_solve_on_the_noise_floor_ends_at_its_narrowest_pair(skewed_market):
    tree, prices = skewed_market.tree, skewed_market.prices
    steep = SteepExponential(3e5)
    h = math.log(7.0 / 3.0)
    for _ in range(8):
        h = math.nextafter(h, -math.inf)
    for _ in range(17):
        assert abs(one_step_objective(steep, prices, tree.root, 0.0,
                                      h)[1]) > 1e-13
        h = math.nextafter(h, math.inf)
    # no double meets the target: the solve ends where the pair its probes
    # straddle is a few ulps wide, at its best probe, and is not exhausted
    sol = solve_one_step(steep, prices, tree.root, 0.0, bracket=4.0)
    assert not (sol.clamped or sol.exhausted)
    assert sol.residual > 1e-13
    assert sol.position == pytest.approx(math.log(7.0 / 3.0), abs=1e-12)


def test_iteration_budget_bounds_every_evaluation(skewed_market, desk_prefs):
    tree, prices = skewed_market.tree, skewed_market.prices
    vt = TerminalValue(desk_prefs, ReferenceDistribution([(0.3, 0.4),
                                                          (-0.2, 0.6)]))
    full = solve_one_step(vt, prices, tree.root, 0.1, bracket=50.0)
    assert full.residual <= 1e-13 and not full.exhausted
    assert full.iterations > 1
    for k in range(1, 7):
        sol = solve_one_step(vt, prices, tree.root, 0.1, bracket=50.0,
                             max_iterations=k)
        assert sol.iterations <= k
        assert sol.exhausted == (sol.residual > 1e-13)
        if k >= full.iterations:
            assert sol == full


def _oracle_value(market, next_value, bracket=lambda x: 4.0 + 0.0 * x):
    return RecursiveValue(market.prices, next_value, bracket, stage=0)


def test_recursion_rejects_non_positive_bracket(skewed_market, desk_prefs):
    vt = TerminalValue(desk_prefs, ReferenceDistribution.degenerate(0.0))
    value = _oracle_value(skewed_market, vt, bracket=lambda x: 0.0 * x)
    with pytest.raises(SolveError, match="degenerate position bracket"):
        value.evaluate(skewed_market.tree.root, 0.1)
    assert value._memo == {}
    assert value.stats.solves == 0


def test_recursion_rejects_terminal_node(skewed_market, desk_prefs):
    vt = TerminalValue(desk_prefs, ReferenceDistribution.degenerate(0.0))
    value = _oracle_value(skewed_market, vt)
    with pytest.raises(SolveError, match="non-terminal"):
        value.evaluate(skewed_market.tree.leaves[0], 0.1)


def test_recursion_rejects_non_finite_foc(skewed_market):
    class FiniteAtStart(PairByPair):
        # finite only at the starting wealth: every probe away is NaN
        def evaluate(self, node, x):
            return (-1.0, 1.0, -1.0) if x == 0.3 else (math.nan,) * 3

    value = _oracle_value(skewed_market, FiniteAtStart())
    with pytest.raises(SolveError, match="not finite"):
        value.evaluate(skewed_market.tree.root, 0.3)
    assert value._memo == {}


@pytest.mark.parametrize("engine", ENGINES)
def test_stage_values_reject_flat_foc(desk_prefs, engine):
    tree = ScenarioTree([fair_coin()])
    market = Market.assemble(tree, TablePriceModel(1.0, 0.5, 1.0,
                                                   func=lambda e: 0.0))
    vt = TerminalValue(desk_prefs, ReferenceDistribution.degenerate(0.0))
    value = engine(tree, market.prices, vt,
                   [NarrowBrackets(4.0)])[0]
    with pytest.raises(SolveError, match="flat first-order condition at "
                                         "node 0"):
        value.evaluate(tree.root, 0.1)
    assert value._memo == {}


def test_newton_value_rejects_nodes_of_another_stage(skewed_market,
                                                     desk_prefs,
                                                     skewed_stack):
    vt = TerminalValue(desk_prefs, ReferenceDistribution.degenerate(0.0))
    value = newton_values(skewed_market.tree, skewed_market.prices, vt,
                          skewed_stack)[0]
    assert isinstance(value, NewtonValue)
    with pytest.raises(SolveError, match="not the evaluator's stage 0"):
        value.evaluate_many([skewed_market.tree.root,
                             skewed_market.tree.leaves[0]], [0.1, 0.1])
    assert value._memo == {} and value.stats.solves == 0


# ---------------------------------------------------------------------------
# the best response by Newton's method on the whole tree
# ---------------------------------------------------------------------------

def _stack(market, prefs):
    return build_envelope_stack(prefs, market.certificate.alpha_star,
                                market.prices.c_f, market.prices.chi,
                                market.horizon)


def _agrees_with_recursion(market, prefs, reference, x0, stack, psi,
                           values):
    """Each position of the Newton best response ``(psi, values)`` within
    1e-11 relative (plus 1e-12) of the exact recursion's forward pass, plus
    (r + r') / |d gamma / dh|: two passes that each stop under the 1e-13
    target may sit that far apart on a flat first-order condition.
    Returns the recursion's stage values."""
    tree, prices = market.tree, market.prices
    oracle, exact = recursion_best_response(market, prefs, reference, x0,
                                            stack)
    ours, theirs = wealth(tree, prices, psi, x0), wealth(tree, prices,
                                                         oracle, x0)
    for node in tree.interior:
        mine = values[node.depth].solution(node, ours.at(node))
        sol = exact[node.depth].solution(node, theirs.at(node))
        curvature = one_step_objective(exact[node.depth + 1], prices, node,
                                       theirs.at(node), sol.position)[2]
        allowed = (1e-11 * abs(sol.position) + 1e-12
                   + 2.0 * (mine.residual + sol.residual) / -curvature)
        assert abs(mine.position - sol.position) <= allowed
    return exact


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), horizon=st.integers(1, 4),
       atoms=st.sampled_from([2, 3]))
def test_newton_agrees_with_the_exact_recursion(seed, horizon, atoms):
    rng = np.random.default_rng(seed)
    market, prefs, x0 = random_certified_instance(rng, horizon, atoms)
    tree, prices = market.tree, market.prices
    stack = _stack(market, prefs)
    reference = Strategy(rng.uniform(-1.0, 1.0, len(tree.interior)))
    psi, values = best_response(market, prefs, reference, x0, stack=stack)
    exact = _agrees_with_recursion(market, prefs, reference, x0, stack, psi,
                                   values)
    stats = values[0].stats
    assert stats.clamped == stats.exhausted == 0
    # one call at the start and one per trial point
    assert 0 < stats.kernel_calls <= (1 + stats.newton_iterations
                                      + stats.halvings)
    path = wealth(tree, prices, psi, x0)
    for node in tree.interior:
        x = path.at(node)
        solution = values[node.depth].solution(node, x)
        # the stored on-path solution is the strategy's position bit for
        # bit, unclamped and inside its certified bracket
        assert solution.position.hex() == psi.at(node).hex()
        assert not (solution.clamped or solution.exhausted)
        bound = float(stack[node.depth].position_bound(x))
        assert solution.bracket == (-bound, bound)
        assert abs(solution.position) <= bound
        assert solution.residual <= 1e-10
        # the first-order condition against the exact next stage
        gamma = one_step_objective(exact[node.depth + 1], prices, node, x,
                                   solution.position)[1]
        assert abs(gamma) <= 1e-10
    assert stats.solves == 0 and stats.max_residual <= 1e-10


def test_newton_warm_start_at_the_response_returns_it():
    # a start that already meets the target is returned as it is, after
    # one kernel call
    market, prefs, x0, stack, reference = _random_instance(3, 3, 3)
    psi, values = best_response(market, prefs, reference, x0, stack=stack)
    again, values = best_response(market, prefs, reference, x0, stack=stack,
                                  initial=psi)
    assert again.positions.tolist() == psi.positions.tolist()
    stats = values[0].stats
    assert (stats.newton_iterations, stats.kernel_calls) == (0, 1)
    warm, _ = best_response(market, prefs, reference, x0, stack=stack,
                            initial=Strategy(psi.positions + 0.1))
    assert np.max(np.abs(warm.positions - psi.positions)) <= 1e-12


def _sharp_tabulated_instance():
    """A monotone-cubic utility, tabulated value, slope and curvature
    apart, with a sharp gain arm on a T = 2 binomial tree: the first Newton
    steps overshoot and the line search halves them."""
    source = ExponentialUtility(1.0, c_u=0.05)
    knots = np.concatenate([np.linspace(-6.0, 6.0, 481),
                            np.linspace(6.5, 90.0, 168)])
    prefs = Preferences(TabulatedUtility(knots, source.u(knots),
                                         source.du(knots),
                                         source.d2u(knots), c_u=0.05),
                        ArctanGainLoss(2.0, 0.05))
    dist = FactorDistribution.from_atoms([(0.5, 0.3), (-0.5, 0.7)])
    tree = ScenarioTree([dist, dist])
    market = Market.assemble(tree, TablePriceModel(
        1.0, 1.0, 1.0, func=last_coordinate_scaler(1.0)))
    return market, prefs, 0.0, _stack(market, prefs), \
        Strategy.constant(tree, 0.5)


def test_newton_on_tabulated_utility_backtracks_and_matches_recursion():
    # the line search halves the overshooting steps, and the run still
    # meets its target
    market, prefs, x0, stack, reference = _sharp_tabulated_instance()
    psi, values = best_response(market, prefs, reference, x0, stack=stack)
    stats = values[0].stats
    assert stats.halvings > 0
    assert stats.exhausted == stats.clamped == 0
    assert stats.max_residual <= 1e-13
    _agrees_with_recursion(market, prefs, reference, x0, stack, psi,
                           values)


def test_newton_does_not_cycle_on_a_sharp_tabulated_utility():
    # a falling FOC alone used to accept a step down in value, and the
    # Armijo rule the step back: from (root, -1.25) the run cycled between
    # two points until its budget ran out, at residual 0.31
    market, prefs, x0, stack, reference = _sharp_tabulated_instance()
    engine, oracle = _both_engines(market, prefs, reference, x0, stack)
    xs = np.linspace(-3.0, 3.0, 241).tolist()
    for stage, level in enumerate(market.tree.levels[:-1]):
        engine[stage].evaluate_many([node for node in level for _ in xs],
                                    xs * len(level))
    stats = engine[0].stats
    assert stats.solves == 3 * len(xs)
    assert stats.exhausted == 0 and stats.max_residual <= 1e-10
    root = market.tree.root
    assert engine[0].solution(root, -1.25).position == pytest.approx(
        oracle[0].solution(root, -1.25).position, abs=1e-11)


@pytest.mark.parametrize("stage", [0, 1])
def test_batches_that_backtrack_equal_runs_alone(stage):
    # some rows halve their steps while others take them whole or have
    # stopped: the frozen rows and the merged trial points leave every row
    # equal to its run alone
    market, prefs, x0, stack, reference = _sharp_tabulated_instance()
    level = market.tree.levels[stage]
    pairs = [(level[k % len(level)], x0 + dx)
             for k, dx in enumerate(np.linspace(-1.5, 1.5, 13).tolist())]
    many = _both_engines(market, prefs, reference, x0, stack)[0][stage]
    got = list(zip(*many.evaluate_many(*zip(*pairs))))
    iterations = {many.solution(node, x).iterations for node, x in pairs}
    assert many.stats.halvings > 0 and len(iterations) > 1
    for (node, x), value in zip(pairs, got):
        one = _both_engines(market, prefs, reference, x0, stack)[0][stage]
        assert one.evaluate(node, x) == value
        solution = many.solution(node, x)
        assert one.solution(node, x) == solution
        assert not solution.exhausted and solution.residual <= 1e-10


def _forged_market(increment):
    """A T = 2 binomial market carrying a certificate its increments need
    not earn, so that a degenerate law reaches the engine."""
    tree = ScenarioTree([fair_coin(), fair_coin()])
    prices = TablePriceModel(1.0, 0.5, 1.0, func=increment)
    return Market(tree, prices, NoArbitrageCertificate(0.5, {}, None))


def test_newton_flags_flat_foc_on_degenerate_increments(desk_prefs):
    # the edges out of node 1 carry no increment: its curvature Q_hh is 0
    market = _forged_market(
        lambda e: 0.0 if e.size == 2 and e[0] > 0 else 0.5 * e[-1])
    stack = _stack(market, desk_prefs)
    for start in (None, Strategy.constant(market.tree, 0.3)):
        with pytest.raises(SolveError,
                           match="flat first-order condition at node 1"):
            best_response(market, desk_prefs,
                          Strategy.constant(market.tree, 0.2), 0.1,
                          stack=stack, initial=start)


def test_newton_flags_exhausted_budget(monkeypatch):
    import refequil.bestresponse as bestresponse

    market, prefs, x0, stack, reference = _random_instance(5, 3, 3)
    full, full_values = best_response(market, prefs, reference, x0,
                                      stack=stack)
    assert full_values[0].stats.newton_iterations > 2
    monkeypatch.setattr(bestresponse, "_NEWTON_ITERATIONS", 1)
    psi, values = best_response(market, prefs, reference, x0, stack=stack)
    stats = values[0].stats
    assert stats.newton_iterations == 1 and stats.exhausted > 0
    assert stats.max_residual > 1e-13
    path = wealth(market.tree, market.prices, psi, x0)
    flagged = 0
    for node in market.tree.interior:
        solution = values[node.depth].solution(node, path.at(node))
        assert solution.exhausted == (solution.residual > 1e-13)
        flagged += solution.exhausted
    assert flagged == stats.exhausted


def test_newton_values_flag_an_exhausted_budget(monkeypatch):
    import refequil.bestresponse as bestresponse

    market, prefs, x0, stack, reference = _random_instance(5, 3, 3)
    monkeypatch.setattr(bestresponse, "_NEWTON_ITERATIONS", 1)
    values = _both_engines(market, prefs, reference, x0, stack)[0]
    level = market.tree.levels[1]
    xs = np.linspace(x0 - 1.0, x0 + 1.0, 5).tolist()
    values[1].evaluate_many([node for node in level for _ in xs],
                            xs * len(level))
    flagged = 0
    for node in level:
        for x in xs:
            solution = values[1].solution(node, x)
            assert solution.iterations == 1
            assert solution.exhausted == (solution.residual > 1e-13)
            flagged += solution.exhausted
    assert 0 < flagged == values[1].stats.exhausted


class NarrowBrackets:
    """Stage envelopes whose optimizer bracket is one fixed radius; the
    curvature cap is that of ``stage``, the real stage, when given."""

    def __init__(self, radius, stage=None):
        self.radius, self.stage = radius, stage

    def position_bound(self, x):
        return np.full(np.shape(x), self.radius) if np.ndim(x) \
            else self.radius

    def curve_cap(self, x):
        return self.stage.curve_cap(x)


def test_newton_flags_positions_outside_the_bracket():
    market, prefs, x0, stack, reference = _random_instance(5, 2, 3)
    psi, _ = best_response(market, prefs, reference, x0, stack=stack)
    radius = 0.5 * psi.max_abs()
    narrow = [NarrowBrackets(radius) for _ in stack]
    again, values = best_response(market, prefs, reference, x0,
                                  stack=narrow)
    assert again.positions.tolist() == psi.positions.tolist()
    path = wealth(market.tree, market.prices, psi, x0)
    outside = [abs(psi.at(node)) > radius for node in market.tree.interior]
    assert 0 < sum(outside) == values[0].stats.clamped
    for node, out in zip(market.tree.interior, outside):
        solution = values[node.depth].solution(node, path.at(node))
        assert solution.clamped == out
        assert solution.bracket == (-radius, radius)


def test_certify_fails_on_a_clamped_best_response():
    # an equilibrium that certifies against its real stack is refused, with
    # a notice, once the candidate's best response has a clamped solution
    market, prefs, x0 = random_certified_instance(np.random.default_rng(0),
                                                  2, 2)
    stack = _stack(market, prefs)
    config = EquilibriumConfig()
    candidate = find_equilibria(market, prefs, config, x0, seed=0,
                                stack=stack).preferred_report.strategy
    report = certify_equilibrium(market, prefs, candidate, x0, config=config,
                                 stack=stack)
    assert report.certified and report.notice == ""
    narrow = [NarrowBrackets(0.5 * candidate.max_abs(), stage)
              for stage in stack]
    report = certify_equilibrium(market, prefs, candidate, x0, config=config,
                                 stack=narrow)
    assert report.analytic_residual <= config.tolerance
    assert not report.certified
    assert report.notice.startswith("best response flagged: 1 clamped, 0 "
                                    "exhausted")


def test_cli_best_response_exits_1_when_flagged(tmp_path, capsys,
                                                monkeypatch):
    import refequil.bestresponse as bestresponse

    cfg = str(fixture_path("asymmetric_eex_t2"))
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--seed", "7", "--out",
                 str(out)]) == 0
    args = ["best-response", "--config", cfg, "--out", str(out),
            "--reference", str(out / "preferred.csv")]
    assert main(args) == 0
    with (out / "best_response.csv").open() as fh:
        radius = 0.5 * max(abs(float(row["position"]))
                           for row in csv.DictReader(fh))
    capsys.readouterr()
    real = bestresponse.build_envelope_stack
    monkeypatch.setattr(bestresponse, "build_envelope_stack",
                        lambda *a: [NarrowBrackets(radius, stage)
                                    for stage in real(*a)])
    (out / "best_response.csv").unlink()
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("best response flagged: ")
    assert (out / "best_response.csv").exists()


#: kernel calls of one cold Newton best response per rung of the seed-1
#: ladder, summed
NEWTON_LADDER_CEILING = 61


def test_cold_ladder_newton_work_stays_under_ceiling():
    """Kernel calls of one cold Newton best response against the zero
    strategy per rung of the seed-1 ladder (2 atoms T = 1..5, 3 atoms
    T = 1..4), summed.  The ladder takes 59 calls (50 iterations), against
    2,468 one-step solves of the exact recursion; the ceiling is that count
    plus 5 %, as for ``LADDER_CEILINGS``."""
    total = 0
    for atoms, horizons in ((2, range(1, 6)), (3, range(1, 5))):
        for horizon in horizons:
            market, prefs, x0 = random_certified_instance(
                np.random.default_rng(1), horizon, atoms)
            _, values = best_response(market, prefs,
                                      Strategy.constant(market.tree, 0.0),
                                      x0, stack=_stack(market, prefs))
            stats = values[0].stats
            assert stats.clamped == stats.exhausted == 0
            total += stats.kernel_calls
    assert total <= NEWTON_LADDER_CEILING, total
