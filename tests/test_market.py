import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refequil.bestresponse import Strategy
from refequil.config import fixture_path, load_config
from refequil.market import (
    FactorDistribution,
    Market,
    MarketError,
    ScenarioTree,
    TablePriceModel,
    build_eex_model,
    check_uniform_no_arbitrage,
    tree_rows,
    wealth,
)

from conftest import (
    fair_coin,
    last_coordinate_scaler,
    random_certified_instance,
)


# ---------------------------------------------------------------------------
# tree construction
# ---------------------------------------------------------------------------

def test_one_period_fair_coin_tree():
    tree = ScenarioTree([fair_coin()])
    assert len(tree.levels[0]) == 1
    assert len(tree.leaves) == 2
    assert [leaf.prob for leaf in tree.leaves] == [0.5, 0.5]


def test_node_ids_index_nodes_and_interior_breadth_first():
    # a node id is the index of a strategy vector: ids run breadth first
    # from 0, so nodes[k] and interior[k] both carry id k
    trees = {name: load_config(fixture_path(name)).market.tree
             for name in ("symmetric_t2", "asymmetric_eex_t2", "stress_t3")}
    vector = FactorDistribution.from_atoms([
        ((1.0, 0.5), 0.45), ((-1.0, 0.5), 0.45), ((0.0, -1.0), 0.1)])
    trees["vector_factor"] = ScenarioTree([vector, vector])
    rng = np.random.default_rng(17)
    for horizon, atoms in ((1, 2), (2, 3), (3, 2), (4, 3)):
        market, _, _ = random_certified_instance(rng, horizon, atoms)
        trees[f"random_{horizon}_{atoms}"] = market.tree
    for name, tree in trees.items():
        assert [n.id for n in tree.nodes] == list(range(len(tree.nodes))), name
        interior = tree.interior
        assert [n.id for n in interior] == list(range(len(interior))), name
        assert interior == tree.nodes[:len(interior)], name
        assert [n.depth for n in tree.nodes] == sorted(
            n.depth for n in tree.nodes), name


def test_two_period_fair_coin_tree():
    tree = ScenarioTree([fair_coin(), fair_coin()])
    assert len(tree.leaves) == 4
    assert all(leaf.prob == 0.25 for leaf in tree.leaves)


def test_three_atom_product_probabilities():
    dist = FactorDistribution.from_atoms([(1.0, 0.3), (0.0, 0.3), (-1.0, 0.4)])
    tree = ScenarioTree([dist, dist])
    assert len(tree.leaves) == 9
    # independent oracle: enumerate all pairwise products
    expected = sorted(p * q for p, q in
                      itertools.product([0.3, 0.3, 0.4], repeat=2))
    assert sorted(leaf.prob for leaf in tree.leaves) == pytest.approx(expected)
    assert math.fsum(leaf.prob for leaf in tree.leaves) == pytest.approx(
        1.0, abs=1e-12)


def test_tree_rejects_empty_and_bad_probabilities():
    with pytest.raises(MarketError):
        ScenarioTree([])
    with pytest.raises(MarketError):
        FactorDistribution.from_atoms([(1.0, 0.5), (-1.0, 0.4)])


def test_factor_needs_two_atoms_and_bound():
    with pytest.raises(MarketError):
        FactorDistribution.from_atoms([(1.0, 1.0)])
    with pytest.raises(MarketError):
        FactorDistribution(((1.0,), (-3.0,)), (0.5, 0.5), bound=1.0)


@pytest.mark.parametrize("atoms,bound", [
    ([(math.nan, 0.5), (-1.0, 0.5)], None),
    ([(math.inf, 0.5), (-1.0, 0.5)], None),
    ([(1.0, 0.5), (-math.inf, 0.5)], None),
    ([((0.0, math.nan), 0.5), ((1.0, 0.0), 0.5)], None),
    ([(math.nan, 0.5), (-1.0, 0.5)], 2.0),
    ([(1.0, 0.5), (-1.0, 0.5)], math.nan),
    ([(1.0, 0.5), (-1.0, 0.5)], math.inf),
], ids=["nan_atom", "inf_atom", "minus_inf_atom", "nan_coordinate",
        "nan_atom_stated_bound", "nan_bound", "inf_bound"])
def test_factor_refuses_non_finite_atoms_and_bounds(atoms, bound):
    # the default bound is the largest atom norm, so a non-finite atom
    # makes a non-finite bound that no atom norm exceeds
    with pytest.raises(MarketError, match="finite"):
        FactorDistribution.from_atoms(atoms, bound)


# ---------------------------------------------------------------------------
# uniform no-arbitrage
# ---------------------------------------------------------------------------

def test_no_arbitrage_symmetric_two_point():
    tree = ScenarioTree([fair_coin()])
    prices = TablePriceModel(1.0, 0.5, 1.0, func=last_coordinate_scaler(0.5))
    cert = check_uniform_no_arbitrage(tree, prices)
    assert cert.certified
    assert cert.alpha_star == 0.5


def test_no_arbitrage_down_mass_binds():
    dist = FactorDistribution.from_atoms([(1.0, 0.9), (-1.0, 0.1)])
    tree = ScenarioTree([dist])
    prices = TablePriceModel(1.0, 0.5, 1.0, func=last_coordinate_scaler(0.5))
    cert = check_uniform_no_arbitrage(tree, prices)
    assert cert.alpha_star == 0.1


def test_no_arbitrage_violated_by_one_sided_increments():
    tree = ScenarioTree([fair_coin()])
    prices = TablePriceModel(1.0, 0.5, 1.0, func=lambda e: 0.3)
    cert = check_uniform_no_arbitrage(tree, prices)
    assert not cert.certified
    assert cert.violating_node == tree.root.id
    assert "violated" in cert.status


def test_no_arbitrage_rechecked_by_exact_summation(symmetric_market):
    cert = symmetric_market.certificate
    prices = symmetric_market.prices
    for node in symmetric_market.tree.interior:
        a = cert.node_alphas[node.id]
        up = math.fsum(c.edge_prob for c in node.children
                       if prices.increment(c) >= a)
        down = math.fsum(c.edge_prob for c in node.children
                         if prices.increment(c) <= -a)
        assert up >= a and down >= a


def _scanned_node_alpha(increments, probs):
    # the exact candidate scan, node by node: every |increment| and 1, and
    # the tail masses at those levels
    def up_mass(a):
        return math.fsum(p for f, p in zip(increments, probs) if f >= a)

    def down_mass(a):
        return math.fsum(p for f, p in zip(increments, probs) if f <= -a)

    candidates = {1.0}
    for f in increments:
        if f != 0.0:
            candidates.add(abs(f))
    for a in list(candidates):
        candidates.add(up_mass(a))
        candidates.add(down_mass(a))
    best = 0.0
    for a in candidates:
        if 0.0 < a <= 1.0 and up_mass(a) >= a and down_mass(a) >= a:
            best = max(best, a)
    return best


def _per_node_certificate(tree, prices):
    node_alphas, alpha_star, violating = {}, 1.0, None
    for node in tree.interior:
        a = _scanned_node_alpha(*prices.row(node))
        node_alphas[node.id] = a
        if a <= 0.0 and violating is None:
            violating = node.id
        alpha_star = min(alpha_star, a)
    return (0.0 if violating is not None else alpha_star), node_alphas, \
        violating


_INCREMENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0]),
    st.floats(-1.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_certificate_equals_the_per_node_scan(data):
    # random trees of 2-4 atoms a period whose edge rows repeat, hold zero
    # increments or move one way only: the certificate scans each distinct
    # row once and must equal the node-by-node scan bit for bit
    horizon = data.draw(st.integers(1, 3))
    factors = []
    for _ in range(horizon):
        weights = data.draw(st.lists(st.floats(0.05, 1.0), min_size=2,
                                     max_size=4))
        total = math.fsum(weights)
        factors.append(FactorDistribution.from_atoms(
            [(float(k), w / total) for k, w in enumerate(weights)]))
    tree = ScenarioTree(factors)
    table, rows = {}, []
    for node in tree.interior:
        atoms = len(node.children)
        reusable = [row for row in rows if len(row) == atoms]
        kind = data.draw(st.sampled_from(["repeat", "one-sided", "free"]))
        if kind == "repeat" and reusable:
            row = data.draw(st.sampled_from(reusable))
        else:
            row = data.draw(st.lists(_INCREMENTS, min_size=atoms,
                                     max_size=atoms))
            if kind == "one-sided":
                sign = data.draw(st.sampled_from([1.0, -1.0]))
                row = [sign * abs(f) for f in row]
            rows.append(row)
        for child, f in zip(node.children, row):
            table[child.path] = f
    prices = TablePriceModel(1.0, 1.0, 1.0, table=table)
    cert = check_uniform_no_arbitrage(tree, prices)
    alpha_star, node_alphas, violating = _per_node_certificate(tree, prices)
    assert cert.violating_node == violating
    assert cert.alpha_star.hex() == alpha_star.hex()
    assert list(cert.node_alphas) == list(node_alphas)
    assert [a.hex() for a in cert.node_alphas.values()] == \
        [a.hex() for a in node_alphas.values()]


def test_bound_violation_names_the_first_offending_node():
    tree = ScenarioTree([fair_coin(), fair_coin()])
    table = {(0,): 0.5, (1,): -0.5, (0, 0): 0.5, (0, 1): -0.75,
             (1, 0): 0.75, (1, 1): -0.5}
    prices = TablePriceModel(1.0, 0.5, 1.0, table=table)
    with pytest.raises(MarketError, match=r"^increment -0\.75 at node 4 "
                       r"exceeds the stated bound c_f=0\.5$"):
        check_uniform_no_arbitrage(tree, prices)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "minus_inf"])
def test_bound_violation_by_a_non_finite_increment_says_so(value):
    # NaN exceeds no bound, so the message names the value's kind instead
    tree = ScenarioTree([fair_coin(), fair_coin()])
    table = {(0,): 0.5, (1,): -0.5, (0, 0): 0.5, (0, 1): value,
             (1, 0): 0.75, (1, 1): -0.5}
    prices = TablePriceModel(1.0, 0.5, 1.0, table=table)
    with pytest.raises(MarketError, match=rf"^increment {value!r} at node 4 "
                       r"is not a finite number$"):
        prices.validate_bounds(tree)


# ---------------------------------------------------------------------------
# the drift/volatility builder
# ---------------------------------------------------------------------------

def three_point(width=2.5, tail=0.4):
    return FactorDistribution.from_atoms(
        [(-width, tail), (0.0, 1.0 - 2 * tail), (width, tail)])


def test_eex_zero_drift_certificate():
    market = build_eex_model([0.0], [1.0], [three_point()],
                             beta=0.4, c=1.0, C=1.0)
    model, cert, tree = market.prices, market.certificate, market.tree
    assert cert.certified
    assert cert.alpha_star == 0.4
    incs = sorted(model.increment(c) for c in tree.root.children)
    assert incs == pytest.approx([-2.5, 0.0, 2.5])
    # the a-priori level is confirmed by the exact scan
    scan = check_uniform_no_arbitrage(tree, model)
    assert scan.alpha_star >= 0.4


def test_eex_with_drift_keeps_level():
    market = build_eex_model([0.1], [1.0], [three_point()],
                             beta=0.4, c=1.0, C=1.1)
    model, cert, tree = market.prices, market.certificate, market.tree
    incs = sorted(model.increment(c) for c in tree.root.children)
    assert incs == pytest.approx([-2.4, 0.1, 2.6])
    assert cert.alpha_star == 0.4
    assert check_uniform_no_arbitrage(tree, model).alpha_star == \
        pytest.approx(0.4)


def test_eex_rejects_thin_tails():
    thin = FactorDistribution.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
    with pytest.raises(MarketError, match="period 1"):
        build_eex_model([0.0], [1.0], [thin], beta=0.4, c=1.0, C=1.0)


def test_eex_rejects_volatility_below_its_floor():
    dist = three_point(width=3.0)
    with pytest.raises(MarketError, match="sigma"):
        build_eex_model([0.0, 0.0], [1.0, lambda h: 0.05], [dist, dist],
                        beta=0.4, c=0.5, C=1.05)


@pytest.mark.parametrize("name,value", [
    ("beta", math.nan), ("beta", math.inf), ("c", math.nan), ("c", math.inf),
    ("C", math.nan), ("C", -math.inf), ("delta", math.nan),
    ("delta", math.inf), ("delta", 0.0)])
def test_eex_names_each_constant_it_refuses(name, value):
    # NaN fails every comparison, so each check states what passes; delta
    # is checked by its own name before the price model checks it as chi
    constants = {"beta": 0.4, "c": 1.0, "C": 1.0, "delta": 1.0, name: value}
    with pytest.raises(MarketError, match=f"^{name} must "):
        build_eex_model([0.0], [1.0], [three_point()], **constants)


def test_eex_records_conservative_increment_bound():
    model = build_eex_model([0.0], [1.0], [three_point()],
                            beta=0.4, c=1.0, C=1.0).prices
    # 5 C (1 + C_eps) with C_eps = max(1, atom bound)
    assert model.c_f == pytest.approx(5.0 * 1.0 * 3.5)


# ---------------------------------------------------------------------------
# wealth accounting
# ---------------------------------------------------------------------------

def test_zero_strategy_keeps_capital(symmetric_market):
    tree, prices = symmetric_market.tree, symmetric_market.prices
    path = wealth(tree, prices, {n.id: 0.0 for n in tree.interior}, 3.25)
    assert all(w == 3.25 for w in path.node_wealth.tolist())


def test_one_step_wealth_arithmetic():
    tree = ScenarioTree([fair_coin()])
    prices = TablePriceModel(1.0, 0.5, 1.0, func=last_coordinate_scaler(0.5))
    path = wealth(tree, prices, {tree.root.id: 2.0}, 10.0)
    assert sorted(path.node_wealth[leaf.id] for leaf in tree.leaves) == \
        pytest.approx([9.0, 11.0])


def test_two_period_unit_strategy_leaf_wealths(symmetric_market):
    tree, prices = symmetric_market.tree, symmetric_market.prices
    path = wealth(tree, prices, {n.id: 1.0 for n in tree.interior}, 0.0)
    leaf_wealths = sorted(path.node_wealth[leaf.id] for leaf in tree.leaves)
    assert leaf_wealths == pytest.approx([-1.0, 0.0, 0.0, 1.0])


def test_wealth_missing_node_raises(symmetric_market):
    tree, prices = symmetric_market.tree, symmetric_market.prices
    with pytest.raises(MarketError, match="missing node"):
        wealth(tree, prices, {tree.root.id: 1.0}, 0.0)


def test_wealth_mapping_with_stray_keys_names_missing_node(symmetric_market):
    # the right number of positions, under the wrong node ids
    tree, prices = symmetric_market.tree, symmetric_market.prices
    with pytest.raises(MarketError, match="strategy is missing node 2"):
        wealth(tree, prices, {0: 0.0, 1: 0.0, 5: 0.0}, 0.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), horizon=st.integers(1, 4),
       atoms=st.integers(2, 3),
       form=st.sampled_from(["strategy", "array", "mapping"]))
def test_wealth_equals_the_per_node_loop(seed, horizon, atoms, form):
    # the roll-forward over the stage arrays equals, bit for bit, rolling
    # node by node with the price model's own increments
    rng = np.random.default_rng(seed)
    market, _, x0 = random_certified_instance(rng, horizon, atoms)
    tree, prices = market.tree, market.prices
    h = rng.uniform(-3.0, 3.0, size=len(tree.interior))
    expected = {tree.root.id: x0}
    for node in tree.interior:
        w = expected[node.id]
        for child in node.children:
            expected[child.id] = w + h[node.id] * prices.increment(child)
    positions = {"strategy": Strategy(h), "array": h,
                 "mapping": dict(enumerate(h.tolist()))}[form]
    path = wealth(tree, prices, positions, x0)
    assert path.x0 == x0
    assert [path.at(node) for node in tree.nodes] == \
        [expected[node.id] for node in tree.nodes]
    assert path.leaf_law(tree) == [(expected[leaf.id], leaf.prob)
                                   for leaf in tree.leaves]
    increments = np.concatenate([stage.increments.ravel()
                                 for stage in prices.stages(tree)])
    assert increments.tolist() == [prices.increment(node)
                                   for node in tree.nodes[1:]]


def test_interior_is_built_once(symmetric_market):
    tree = symmetric_market.tree
    assert tree.interior is tree.interior


@settings(max_examples=40, deadline=None)
@given(h1=st.floats(-5, 5), h2=st.floats(-5, 5), g1=st.floats(-5, 5),
       g2=st.floats(-5, 5), x0=st.floats(-3, 3))
def test_wealth_is_linear_in_the_strategy(h1, h2, g1, g2, x0):
    tree = ScenarioTree([fair_coin(), fair_coin()])
    prices = TablePriceModel(1.0, 0.5, 1.0, func=last_coordinate_scaler(0.5))
    ids = [n.id for n in tree.interior]
    phi = {ids[0]: h1, ids[1]: h2, ids[2]: g1}
    psi = {ids[0]: g2, ids[1]: h1, ids[2]: h2}
    combined = wealth(tree, prices,
                      {k: phi[k] + psi[k] for k in phi}, x0)
    part_a = wealth(tree, prices, phi, 0.0)
    part_b = wealth(tree, prices, psi, 0.0)
    for node in tree.nodes:
        assert combined.node_wealth[node.id] - x0 == pytest.approx(
            part_a.node_wealth[node.id] + part_b.node_wealth[node.id],
            abs=1e-9)


# ---------------------------------------------------------------------------
# assembled market and CSV export
# ---------------------------------------------------------------------------

def test_market_assembly_and_gate(symmetric_market):
    symmetric_market.require_certified()
    tree = ScenarioTree([fair_coin()])
    bad = Market.assemble(tree, TablePriceModel(1.0, 0.5, 1.0,
                                                func=lambda e: 0.25))
    with pytest.raises(MarketError, match="not certified"):
        bad.require_certified()


def test_tree_rows_schema(symmetric_market):
    header, rows = tree_rows(symmetric_market.tree, symmetric_market.prices,
                             symmetric_market.certificate)
    assert header == ["node_id", "depth", "path", "probability", "increment",
                      "alpha"]
    assert len(rows) == len(symmetric_market.tree.nodes)
    root_row = rows[0]
    assert root_row[2] == "" and root_row[4] == ""
    assert root_row[5] != ""  # the root carries a per-node level
    leaf_row = rows[-1]
    assert leaf_row[5] == ""  # terminal nodes do not


def test_table_price_model_requires_full_table():
    tree = ScenarioTree([fair_coin()])
    model = TablePriceModel(1.0, 1.0, 1.0, table={(0,): 0.5})
    with pytest.raises(MarketError, match="no increment"):
        check_uniform_no_arbitrage(tree, model)
