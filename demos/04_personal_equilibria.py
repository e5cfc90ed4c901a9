"""
Searching for personal equilibria
=================================

A personal equilibrium is a strategy that is its own best response once
its terminal wealth (an independent copy of it) becomes the reference.
Existence is a fixed-point fact; finding one is Picard iteration from
several starts, with honest reporting when a start does not settle.  Each
round steps to the best response itself, and blends at the damping only
when the residual fails to halve.
A converged candidate is certified twice: by its best-response residual
and, on small trees, by brute-force enumeration over a position grid.
"""

from refequil import (
    EquilibriumConfig,
    Strategy,
    certify_equilibrium,
    evaluate_self_value,
    find_equilibria,
    iterate_fixed_point,
    terminal_wealth_law,
)
from refequil.config import fixture_path, load_config

config = load_config(fixture_path("asymmetric_eex_t2"))
market, prefs = config.market, config.preferences
x0 = config.initial_capital
print("certified at level:", market.certificate.alpha_star)

# one run from the zero strategy; the damping weighs the fallback blend
controls = EquilibriumConfig(damping=0.5, tolerance=1e-8, max_iterations=50)
report = iterate_fixed_point(market, prefs, controls,
                             Strategy.constant(market.tree, 0.0), x0)
print("converged:", report.converged, "after", report.iterations,
      "iterations,", report.fallbacks, "damped, residual", report.residual)
print("equilibrium positions:", report.strategy.positions)
print("self value:", report.value)

# the reference its terminal wealth generates
law = terminal_wealth_law(market.tree, market.prices, report.strategy, x0)
print("reference atoms:", law.atoms())

# multistart search with deduplication and preferred selection
result = find_equilibria(market, prefs, controls, x0, seed=7)
print(f"{len(result.converged_reports)} of {len(result.reports)} starts "
      f"converged; {len(result.distinct)} distinct equilibria")
preferred = result.preferred_report
print("preferred self value:", preferred.value)

# two-sided certification of the preferred candidate
cert = certify_equilibrium(market, prefs, preferred.strategy, x0,
                           config=EquilibriumConfig(oracle_resolution=21,
                                                    oracle_radius=3.0))
print("analytic residual:", cert.analytic_residual)
print("oracle margin:", cert.oracle_margin, "within slack:",
      cert.oracle_slack)
print("certified:", cert.certified)

# self values are comparable across strategies, which is what the
# preferred selection maximises
for h in (0.0, 0.1, 0.2):
    trial = Strategy.constant(market.tree, h)
    print(f"self value of constant {h}:",
          evaluate_self_value(market, prefs, trial, x0))
