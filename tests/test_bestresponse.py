import math

import numpy as np
import pytest

from refequil.bestresponse import (
    GridValue,
    SolveError,
    Strategy,
    TerminalValue,
    best_response,
    one_step_objective,
    solve_one_step,
    terminal_wealth_law,
    value_recursion,
)
from refequil.market import (
    FactorDistribution,
    Market,
    MarketError,
    ScenarioTree,
    TablePriceModel,
)
from refequil.preferences import (
    ArctanGainLoss,
    ExponentialUtility,
    Preferences,
    ReferenceDistribution,
    build_envelope_stack,
    satisfaction,
)

from conftest import fair_coin, last_coordinate_scaler, random_certified_instance


class PlainExponential:
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


def test_solver_warm_start_agrees_with_cold(skewed_market, desk_prefs):
    tree, prices = skewed_market.tree, skewed_market.prices
    vt = TerminalValue(desk_prefs, ReferenceDistribution([(0.3, 0.4),
                                                          (-0.2, 0.6)]))
    cold = solve_one_step(vt, prices, tree.root, 0.1, bracket=50.0)
    warm = solve_one_step(vt, prices, tree.root, 0.1, bracket=50.0,
                          initial=cold.position + 1e-4)
    assert warm.position == pytest.approx(cold.position, abs=1e-10)
    assert warm.iterations <= cold.iterations


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


def test_optimizer_stays_inside_position_bound():
    rng = np.random.default_rng(42)
    for _ in range(40):
        market, prefs, x0 = random_certified_instance(
            rng, int(rng.integers(1, 3)), int(rng.integers(2, 4)))
        stack = build_envelope_stack(prefs, market.certificate.alpha_star,
                                     market.prices.c_f, market.prices.chi,
                                     market.horizon)
        vt = TerminalValue(prefs, ReferenceDistribution.degenerate(x0))
        values = value_recursion(market.tree, market.prices, vt, stack)
        for node in market.tree.interior:
            x = x0 + float(rng.uniform(-1.0, 1.0))
            sol = values[node.depth].solution(node, x)
            assert abs(sol.position) <= float(
                stack[node.depth].position_bound(x))
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


def test_one_period_recursion_collapses_to_single_solve(one_step_market,
                                                        desk_prefs,
                                                        skewed_stack):
    tree, prices = one_step_market.tree, one_step_market.prices
    ref = ReferenceDistribution([(0.2, 0.5), (-0.2, 0.5)])
    vt = TerminalValue(desk_prefs, ref)
    values = value_recursion(tree, prices, vt, skewed_stack)
    x = 0.15
    sol = values[0].solution(tree.root, x)
    direct = one_step_objective(vt, prices, tree.root, x, sol.position)[0]
    assert values[0].evaluate(tree.root, x)[0] == pytest.approx(direct,
                                                                abs=1e-14)


def test_value_dominates_zero_position(symmetric_market, desk_prefs,
                                       symmetric_stack):
    tree, prices = symmetric_market.tree, symmetric_market.prices
    ref = ReferenceDistribution([(0.5, 0.4), (-0.5, 0.6)])
    values = value_recursion(tree, prices, TerminalValue(desk_prefs, ref),
                             symmetric_stack)
    rng = np.random.default_rng(5)
    for _ in range(25):
        node = tree.interior[int(rng.integers(0, len(tree.interior)))]
        x = float(rng.uniform(-1.5, 1.5))
        v = values[node.depth].evaluate(node, x)[0]
        zero = one_step_objective(values[node.depth + 1], prices, node, x,
                                  0.0)[0]
        assert v >= zero - 1e-12


def test_envelope_derivative_matches_finite_difference(symmetric_market,
                                                       desk_prefs,
                                                       symmetric_stack):
    tree, prices = symmetric_market.tree, symmetric_market.prices
    ref = ReferenceDistribution([(0.4, 0.3), (0.0, 0.4), (-0.6, 0.3)])
    values = value_recursion(tree, prices, TerminalValue(desk_prefs, ref),
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


def test_curvature_floor_at_sampled_positions(symmetric_market, desk_prefs,
                                              symmetric_stack):
    tree, prices = symmetric_market.tree, symmetric_market.prices
    ref = ReferenceDistribution.degenerate(0.0)
    values = value_recursion(tree, prices, TerminalValue(desk_prefs, ref),
                             symmetric_stack)
    rng = np.random.default_rng(13)
    for _ in range(20):
        node = tree.interior[int(rng.integers(0, len(tree.interior)))]
        x = float(rng.uniform(-1.0, 1.0))
        k = min(float(symmetric_stack[node.depth].position_bound(x)), 3.0)
        h = float(rng.uniform(-k, k))
        slope = one_step_objective(values[node.depth + 1], prices, node, x,
                                   h)[2]
        stage = symmetric_stack[node.depth]
        floor = prices.c_f ** 2 * float(stage.curve_floor(x))
        # the floor may saturate to zero far down the stack; its log form
        # must still be a number (positivity holds in log space)
        assert -slope >= floor >= 0.0
        assert not math.isnan(float(stage.log_curve_floor(x)))


def test_grid_backing_agrees_with_exact(symmetric_market, desk_prefs,
                                        symmetric_stack):
    tree, prices = symmetric_market.tree, symmetric_market.prices
    ref = ReferenceDistribution([(0.3, 0.5), (-0.3, 0.5)])
    vt = TerminalValue(desk_prefs, ref)
    exact = value_recursion(tree, prices, vt, symmetric_stack)
    grid = value_recursion(tree, prices, vt, symmetric_stack, backing="grid",
                           grid_points=161, grid_radius=2.0)
    for node, x in ((tree.root, 0.17), (tree.interior[1], -0.42),
                    (tree.interior[2], 0.9)):
        ve = exact[node.depth].evaluate(node, x)
        vg = grid[node.depth].evaluate(node, x)
        assert vg[0] == pytest.approx(ve[0], abs=1e-5)
        assert vg[1] == pytest.approx(ve[1], rel=1e-4)
    assert isinstance(grid[0], GridValue)


def test_value_recursion_rejects_unknown_backing(symmetric_market, desk_prefs,
                                                 symmetric_stack):
    with pytest.raises(SolveError, match="backing"):
        value_recursion(symmetric_market.tree, symmetric_market.prices,
                        TerminalValue(desk_prefs,
                                      ReferenceDistribution.degenerate(0.0)),
                        symmetric_stack, backing="magic")


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
        assert all(h == 0.0 for h in psi.positions.values())


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
    assert all(h == 2.0 for h in mid.positions.values())
    assert a.sup_distance(b) == 2.0
    assert a.covers(tree)


def test_strategy_ball_membership(symmetric_market):
    tree = symmetric_market.tree
    ids = [n.id for n in tree.interior]
    flat = Strategy({ids[0]: 0.5, ids[1]: 0.5, ids[2]: 0.5})
    assert flat.in_position_ball(tree, 0.5, chi=1.0)
    assert not flat.in_position_ball(tree, 0.4, chi=1.0)
    # depth-1 nodes sit distance 2 apart at exponent chi/2: the position
    # gap of 2 needs a ball radius of at least 2 / 2**0.5
    kink = Strategy({ids[0]: 0.0, ids[1]: 1.0, ids[2]: -1.0})
    assert kink.in_position_ball(tree, 1.5, chi=1.0)
    assert not kink.in_position_ball(tree, 1.2, chi=1.0)


def test_strategy_rejects_non_finite_positions():
    with pytest.raises(SolveError):
        Strategy({0: math.inf})
