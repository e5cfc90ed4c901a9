"""
Building a scenario-tree market and certifying it
=================================================

A market here is three things: finitely supported factor laws per period,
the product tree of their histories, and a price-increment model on that
tree.  The no-arbitrage certificate then checks, node by node, that the
conditional increment moves up and down by a uniform amount with uniform
probability.
"""

from refequil import (
    FactorDistribution,
    Market,
    ScenarioTree,
    TablePriceModel,
    build_eex_model,
    check_uniform_no_arbitrage,
)
from refequil.market import tree_rows

# two periods of a fair +-1 coin
coin = FactorDistribution.from_atoms([(1.0, 0.5), (-1.0, 0.5)])
tree = ScenarioTree([coin, coin])
print(f"{len(tree.nodes)} nodes, {len(tree.leaves)} leaves")

# price increments: half of the latest factor move
prices = TablePriceModel(s0=100.0, c_f=0.5, chi=1.0,
                         func=lambda history: 0.5 * history[-1])
certificate = check_uniform_no_arbitrage(tree, prices)
print("certificate:", certificate.status, "level:", certificate.alpha_star)

market = Market.assemble(tree, prices)
market.require_certified()

# the same tabulated, ready for CSV export
header, rows = tree_rows(tree, prices, certificate)
print(header)
for row in rows[:4]:
    print(row)

# a skewed market moves the level to the thinner tail mass
skewed = FactorDistribution.from_atoms([(1.0, 0.9), (-1.0, 0.1)])
cert = check_uniform_no_arbitrage(ScenarioTree([skewed]), prices)
print("skewed level (down-mass binds):", cert.alpha_star)

# drift/volatility variant with an a-priori level: tails of the factor law
# must reach past (C + beta) / c with mass at least beta
wide = FactorDistribution.from_atoms([(-2.5, 0.4), (0.0, 0.2), (2.5, 0.4)])
eex = build_eex_model(mu=[0.1], sigma=[1.0], factor_dists=[wide],
                      beta=0.4, c=1.0, C=1.1)
print("drift/vol certificate level:", eex.certificate.alpha_star,
      "recorded increment bound:", eex.prices.c_f)
