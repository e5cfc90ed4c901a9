"""
Best responses by backward induction
====================================

Against a fixed reference strategy, the optimal strategy solves one
strictly concave scalar problem per node, backward from the terminal
satisfaction.  ``best_response`` finds all of them at once, by Newton's
method on the whole tree (one backward sweep and one forward roll per
step), and ``values[t].evaluate`` answers any other node and wealth by
the same method on the node's subtree.  On a
symmetric zero-drift market the answer is the zero strategy at every
node; on a skewed market it tilts toward the favourable tail and matches
the exponential closed form when the gain-loss comparison stays on its
linear branch.
"""

import math

from refequil import (
    FactorDistribution,
    Market,
    Preferences,
    ArctanGainLoss,
    ExponentialUtility,
    ReferenceDistribution,
    ScenarioTree,
    Strategy,
    TablePriceModel,
    TerminalValue,
    best_response,
    build_envelope_stack,
    solve_one_step,
)

prefs = Preferences(ExponentialUtility(1.0, c_u=0.05),
                    ArctanGainLoss.tight(0.25))

# symmetric two-period market: the response to any reference is zero
coin = FactorDistribution.from_atoms([(1.0, 0.5), (-1.0, 0.5)])
tree = ScenarioTree([coin, coin])
market = Market.assemble(tree, TablePriceModel(100.0, 0.5, 1.0,
                                               func=lambda h: 0.5 * h[-1]))
psi, values = best_response(market, prefs,
                            Strategy.constant(tree, 2.0), x0=0.0)
print("response to a constant reference on the symmetric market:",
      psi.positions)
print("optimal value at the root:",
      values[0].evaluate(tree.root, 0.0)[0])

# a single skewed period with a reference far above every reachable
# wealth: the comparison is linear there and the optimizer has the
# closed form log(p / (1 - p)) / a
p, a = 0.7, 1.3
skewed = ScenarioTree([FactorDistribution.from_atoms([(0.5, p),
                                                      (-0.5, 1.0 - p)])])
prices = TablePriceModel(1.0, 0.5, 1.0, func=lambda h: h[-1])
far_reference = ReferenceDistribution.degenerate(500.0)
vt = TerminalValue(Preferences(ExponentialUtility(a, c_u=0.05),
                               ArctanGainLoss.tight(0.25)), far_reference)
solution = solve_one_step(vt, prices, skewed.root, x=0.3, bracket=200.0)
print("solver:", solution.position,
      " closed form:", math.log(p / (1.0 - p)) / a,
      " residual:", solution.residual)

# the full response on the skewed market, against its own zero reference
skewed_market = Market.assemble(skewed, prices)
stack = build_envelope_stack(prefs, skewed_market.certificate.alpha_star,
                             prices.c_f, prices.chi, 1)
psi, values = best_response(skewed_market, prefs,
                            Strategy.constant(skewed, 0.0), x0=0.0,
                            stack=stack)
root = skewed.root
print("skewed-market response:", psi.at(root))
v, dv, d2v = values[0].evaluate(root, 0.0)
print("value / slope / curvature at the root:", v, dv, d2v)
print("inside the certified bracket:",
      abs(psi.at(root)) <= stack[0].position_bound(0.0))
