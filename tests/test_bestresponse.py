import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refequil.bestresponse import (
    GridValue,
    OneStepSolution,
    RecursiveValue,
    SolveError,
    SolveStats,
    Strategy,
    TerminalValue,
    best_response,
    one_step_objective,
    solve_one_step,
    terminal_wealth_law,
    value_recursion,
)
from refequil.config import fixture_path, load_config
from refequil.market import (
    FactorDistribution,
    Market,
    MarketError,
    ScenarioTree,
    TablePriceModel,
    edge_table,
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


# ---------------------------------------------------------------------------
# lockstep rounds against the depth-first recursion
# ---------------------------------------------------------------------------

class PerPair(PairByPair):
    """A terminal value asked one wealth at a time."""

    def __init__(self, terminal):
        self.terminal = terminal

    def evaluate(self, node, x):
        return self.terminal.evaluate(node, x)


class DepthFirstValue(PairByPair):
    """The exact recursion one node and one probe at a time, as a reference.

    Every probe of every solve evaluates the next stage child by child, so
    each node sees its requests in depth-first order.
    """

    def __init__(self, prices, next_value, bracket_fn, warm, counts):
        self.prices, self.next_value = prices, next_value
        self.bracket_fn, self.warm, self.counts = bracket_fn, warm, counts
        self.solutions, self.values = {}, {}

    def solution(self, node, x):
        key = (node.id, float(x))
        if key not in self.solutions:
            sol = solve_one_step(self.next_value, self.prices, node, x,
                                 float(self.bracket_fn(x)),
                                 initial=self.warm.get(node.id))
            self.solutions[key] = sol
            self.warm[node.id] = sol.position
            self.counts[0] += 1
            self.counts[1] += sol.iterations
        return self.solutions[key]

    def evaluate(self, node, x):
        key = (node.id, float(x))
        if key not in self.values:
            h = self.solution(node, x).position
            value = slope = dgam_dx = dgam_dh = 0.0
            terms = []
            for child in node.children:
                f, p = self.prices.increment(child), child.edge_prob
                v, v1, v2 = self.next_value.evaluate(child, x + h * f)
                value += p * v
                slope += p * v1
                dgam_dx += p * v2 * f
                dgam_dh += p * v2 * f * f
                terms.append((p, v2, f))
            dh_dx = -dgam_dx / dgam_dh
            curve = math.fsum(p * v2 * (1.0 + f * dh_dx) for p, v2, f in terms)
            self.values[key] = (value, slope, curve)
        return self.values[key]


def depth_first_values(market, prefs, law, stack, warm, counts):
    values = [PerPair(TerminalValue(prefs, law))]
    for t in range(market.horizon - 1, -1, -1):
        values.insert(0, DepthFirstValue(market.prices, values[0],
                                         stack[t].position_bound, warm,
                                         counts))
    return values


def _lockstep_instance(seed, horizon, atoms):
    rng = np.random.default_rng([seed, horizon, atoms])
    market, prefs, x0 = random_certified_instance(rng, horizon, atoms)
    stack = build_envelope_stack(prefs, market.certificate.alpha_star,
                                 market.prices.c_f, market.prices.chi,
                                 horizon)
    reference = Strategy({n.id: float(rng.uniform(-1.0, 1.0))
                          for n in market.tree.interior})
    return market, prefs, x0, stack, reference


@pytest.mark.parametrize("horizon,atoms", [(1, 2), (1, 3), (2, 2), (2, 3),
                                           (3, 2), (3, 3), (4, 2), (4, 3)])
def test_lockstep_matches_depth_first_reference(horizon, atoms):
    market, prefs, x0, stack, reference = _lockstep_instance(5, horizon,
                                                             atoms)
    tree, prices = market.tree, market.prices
    warm = {}
    psi, values = best_response(market, prefs, reference, x0, stack=stack,
                                warm=warm)
    root = values[0].evaluate(tree.root, x0)

    law = terminal_wealth_law(tree, prices, reference, x0)
    ref_warm, counts = {}, [0, 0]
    ref_values = depth_first_values(market, prefs, law, stack, ref_warm,
                                    counts)
    positions, wealth = {}, {tree.root.id: x0}
    for node in tree.interior:
        x = wealth[node.id]
        positions[node.id] = h = ref_values[node.depth].solution(node,
                                                                 x).position
        for child in node.children:
            wealth[child.id] = x + h * prices.increment(child)

    assert psi.positions == positions
    assert root == ref_values[0].evaluate(tree.root, x0)
    assert warm == ref_warm
    stats = values[0].stats
    assert (stats.solves, stats.foc_evals) == tuple(counts)


_MANY = _lockstep_instance(11, 3, 2)


@settings(max_examples=25, deadline=None)
@given(stage=st.integers(0, 1),
       picks=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                      min_size=1, max_size=7))
def test_evaluate_many_equals_one_by_one(stage, picks):
    market, prefs, x0, stack, reference = _MANY
    tree, prices = market.tree, market.prices
    law = terminal_wealth_law(tree, prices, reference, x0)
    level = tree.levels[stage]
    pairs = [(level[i % len(level)], x0 + 0.4 * (j - 1)) for i, j in picks]

    def recursion(warm):
        return value_recursion(tree, prices, TerminalValue(prefs, law),
                               stack, warm=warm)

    many_warm, one_warm, ref_warm = {}, {}, {}
    many, one = recursion(many_warm), recursion(one_warm)
    ref = depth_first_values(market, prefs, law, stack, ref_warm, [0, 0])
    got = list(zip(*many[stage].evaluate_many([n for n, _ in pairs],
                                              [x for _, x in pairs])))
    assert got == [one[stage].evaluate(node, x) for node, x in pairs]
    assert got == [ref[stage].evaluate(node, x) for node, x in pairs]
    assert many_warm == one_warm == ref_warm
    for a, b in zip(many[:-1], one[:-1]):
        assert a._values == b._values
        assert a._solutions == b._solutions
    assert many[0].stats == one[0].stats


def test_position_bound_array_equals_scalar():
    # each lockstep wave asks the bracket once over an array of wealths;
    # the solver's outputs depend on it matching the scalar call exactly
    rng = np.random.default_rng(17)
    for horizon, atoms in ((2, 2), (3, 3), (4, 3)):
        market, _, x0, stack, _ = _lockstep_instance(int(rng.integers(99)),
                                                     horizon, atoms)
        for stage in stack[:-1]:
            xs = x0 + rng.uniform(-6.0, 6.0, 600)
            assert stage.position_bound(xs).tolist() == [
                stage.position_bound(float(x)) for x in xs]


def test_terminal_calls_below_last_stage_solves(monkeypatch):
    # one kernel call per lockstep round: a per-probe engine makes at
    # least one call per stage-(T-1) solve
    market, prefs, x0, stack, reference = _lockstep_instance(3, 3, 3)
    calls = []
    evaluate = TerminalValue.evaluate

    def counted(self, node, x):
        calls.append(1)
        return evaluate(self, node, x)

    monkeypatch.setattr(TerminalValue, "evaluate", counted)
    _, values = best_response(market, prefs, reference, x0, stack=stack)
    last = values[0].stats.stage_solves[market.horizon - 1]
    assert 0 < len(calls) < last


@pytest.mark.parametrize("horizon,atoms", [(1, 2), (1, 3), (2, 2), (2, 3),
                                           (3, 2), (3, 3), (4, 2), (4, 3)])
def test_terminal_sees_only_probe_wealths(horizon, atoms, monkeypatch):
    # every solve that stops at its last probe takes its envelope from that
    # probe's columns: the terminal stage is asked for the children of FOC
    # probes only, and for the optimizer's children once
    market, prefs, x0, stack, reference = _lockstep_instance(5, horizon,
                                                             atoms)
    asked = Counter()
    many = TerminalValue.evaluate_many

    def recorded(self, nodes, xs):
        asked.update(zip((node.id for node in nodes), xs))
        return many(self, nodes, xs)

    monkeypatch.setattr(TerminalValue, "evaluate_many", recorded)
    _, values = best_response(market, prefs, reference, x0, stack=stack)
    assert values[0].stats.exhausted == 0
    last = values[horizon - 1]
    edges = edge_table(market.tree, market.prices)
    assert sum(asked.values()) == atoms * sum(
        solution.iterations for solution in last._solutions.values())
    for (node_id, x), solution in last._solutions.items():
        row = edges[node_id]
        for child, f in zip(row.children, row.increments):
            assert asked[(child.id, x + solution.position * f)] == 1


def test_stop_before_last_probe_asks_again_at_optimizer(one_step_market):
    # a double whose FOC is +1 below h = 0.3 and -4 above it, with a
    # non-negative slope: bisection closes in on 0.3 while the best residual
    # stays the one at h = 0, so the solve stops away from its last probe
    # and the envelope needs one more round at the optimizer
    tree, prices = one_step_market.tree, one_step_market.prices
    up = next(c for c in tree.root.children if prices.increment(c) > 0.0)
    asked = Counter()

    class StepFoc(PairByPair):
        def evaluate(self, node, x):
            asked[(node.id, x)] += 1
            if node.id != up.id:
                return (0.0, 0.0, 1.0)
            return (0.0, 4.0 if x < 0.3 + 0.5 * 0.3 else -16.0, 1.0)

    bracket = lambda x: 4.0 + 0.0 * x  # noqa: E731
    value = RecursiveValue(prices, StepFoc(), bracket,
                           edge_table(tree, prices), stage=0)
    got = value.evaluate(tree.root, 0.3)
    solution = value.solution(tree.root, 0.3)
    assert solution.position == 0.0
    assert not (solution.exhausted or solution.clamped)
    assert solution.iterations > 2
    assert asked[(up.id, 0.3)] == 2

    reference = DepthFirstValue(prices, StepFoc(), bracket, {}, [0, 0])
    assert got == reference.evaluate(tree.root, 0.3)
    assert value._solutions == reference.solutions


def test_edge_table_is_built_once_per_market(desk_prefs):
    # the recursion, the forward pass and the wealth roll-forward of every
    # best response on a market read one edge table
    calls = []

    def increment(history):
        calls.append(1)
        return 0.5 * history[-1]

    tree = ScenarioTree([fair_coin(), fair_coin()])
    prices = TablePriceModel(1.0, 0.5, 1.0, func=increment)
    market = Market.assemble(tree, prices)
    table = edge_table(tree, prices)
    for row in table.values():
        assert row.increments == tuple(prices.increment(c)
                                       for c in row.children)
    calls.clear()
    for h in (0.0, 0.3):
        best_response(market, desk_prefs, Strategy.constant(tree, h), 0.1)
    terminal_wealth_law(tree, prices, Strategy.constant(tree, 0.2), 0.1)
    assert edge_table(tree, prices) is table
    assert calls == []
    other = ScenarioTree([fair_coin(), fair_coin()])
    assert edge_table(other, prices) is not table
    assert calls


def test_solve_stats_are_shared_and_consistent():
    market, prefs, x0, stack, reference = _lockstep_instance(7, 3, 3)
    _, values = best_response(market, prefs, reference, x0, stack=stack)
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
    stack = build_envelope_stack(prefs, market.certificate.alpha_star,
                                 market.prices.c_f, market.prices.chi,
                                 horizon)
    _, values = best_response(market, prefs,
                              Strategy.constant(market.tree, 0.0), x0,
                              stack=stack)
    return stack, x0, values[0].stats


def test_solve_stats_count_unbounded_brackets():
    stack, x0, stats = _cold_best_response(1, 3, 2)
    assert stack[0].position_bound(x0) == math.inf
    assert stats.unbounded > 0
    config = load_config(fixture_path("symmetric_t2"))
    _, values = best_response(config.market, config.preferences,
                              Strategy.constant(config.market.tree, 0.0),
                              config.initial_capital)
    assert values[0].stats.solves > 0
    assert values[0].stats.unbounded == 0


def test_deep_cold_best_response_saturates_without_nan():
    # at T = 6 the slope floor at 0 saturates to 0 at the deep stages; the
    # brackets above it must saturate to inf, not NaN
    stack, x0, stats = _cold_best_response(1, 6, 2)
    assert stack[0].position_bound(x0) == math.inf
    assert stats.clamped == stats.exhausted == 0
    assert stats.unbounded > 0
    assert stats.max_residual <= 1e-10


def _lane_value(market, next_value, bracket=lambda x: 4.0 + 0.0 * x):
    return RecursiveValue(market.prices, next_value, bracket,
                          edge_table(market.tree, market.prices), stage=0)


def test_lane_rejects_non_positive_bracket(skewed_market, desk_prefs):
    vt = TerminalValue(desk_prefs, ReferenceDistribution.degenerate(0.0))
    value = _lane_value(skewed_market, vt, bracket=lambda x: 0.0 * x)
    with pytest.raises(SolveError, match="degenerate position bracket"):
        value.evaluate(skewed_market.tree.root, 0.1)
    assert value._values == {} and value._solutions == {}
    assert value.warm == {} and value.stats.solves == 0


def test_lane_rejects_terminal_node(skewed_market, desk_prefs):
    vt = TerminalValue(desk_prefs, ReferenceDistribution.degenerate(0.0))
    value = _lane_value(skewed_market, vt)
    with pytest.raises(SolveError, match="non-terminal"):
        value.evaluate(skewed_market.tree.leaves[0], 0.1)


def test_lane_rejects_non_finite_foc(skewed_market):
    class FiniteAtStart(PairByPair):
        # finite only at the starting wealth: every probe away is NaN
        def evaluate(self, node, x):
            return (-1.0, 1.0, -1.0) if x == 0.3 else (math.nan,) * 3

    value = _lane_value(skewed_market, FiniteAtStart())
    with pytest.raises(SolveError, match="not finite"):
        value.evaluate(skewed_market.tree.root, 0.3)
    assert value._values == {} and value._solutions == {}


def test_lane_rejects_flat_foc(desk_prefs):
    tree = ScenarioTree([fair_coin()])
    market = Market.assemble(tree, TablePriceModel(1.0, 0.5, 1.0,
                                                   func=lambda e: 0.0))
    vt = TerminalValue(desk_prefs, ReferenceDistribution.degenerate(0.0))
    value = _lane_value(market, vt)
    with pytest.raises(SolveError, match="flat first-order condition"):
        value.evaluate(tree.root, 0.1)
    assert value._values == {}

