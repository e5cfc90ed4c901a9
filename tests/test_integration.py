"""Cross-module paths not covered by the per-module suites."""

import ast
from pathlib import Path

import numpy as np
import pytest

import refequil.bestresponse as bestresponse
from refequil.bestresponse import Strategy, best_response
from refequil.cli import main
from refequil.config import fixture_path, load_config
from refequil.equilibrium import EquilibriumConfig, find_equilibria
from refequil.market import (
    FactorDistribution,
    Market,
    ScenarioTree,
    TablePriceModel,
)
from refequil.preferences import (
    ArctanGainLoss,
    ExponentialUtility,
    Preferences,
    ReferenceDistribution,
    TabulatedUtility,
    build_envelope_stack,
    satisfaction,
    validate_preferences,
)
from refequil.verify import run_suite


def test_vector_factor_market_end_to_end():
    # two-dimensional factors: the price reacts to the first coordinate,
    # the second only widens the history geometry
    dist = FactorDistribution.from_atoms([
        ((1.0, 0.5), 0.45), ((-1.0, 0.5), 0.45), ((0.0, -1.0), 0.1)])
    tree = ScenarioTree([dist, dist])
    assert tree.nodes[1].point.shape == (2,)
    assert tree.leaves[0].point.shape == (4,)
    prices = TablePriceModel(10.0, 0.5, 1.0,
                             func=lambda history: 0.5 * history[-2])
    market = Market.assemble(tree, prices)
    assert market.certificate.certified
    assert market.certificate.alpha_star == pytest.approx(0.45)

    prefs = Preferences(ExponentialUtility(0.8, c_u=0.03),
                        ArctanGainLoss.tight(0.2))
    stack = build_envelope_stack(prefs, market.certificate.alpha_star,
                                 prices.c_f, prices.chi, 2)
    psi, values = best_response(market, prefs,
                                Strategy.constant(tree, 0.3), 0.1,
                                stack=stack)
    assert psi.positions.shape == (len(tree.interior),)
    for node in tree.interior:
        sol = values[node.depth].solution(
            node, 0.1 if node.depth == 0 else 0.0)
        assert sol.residual <= 1e-10


FIXTURES = ("symmetric_t2", "asymmetric_eex_t2", "stress_t3")


@pytest.mark.parametrize("fixture", FIXTURES)
def test_full_suite_passes_on_drift_vol_fixture(fixture):
    # at T = 3 the sampled pairs of depths 1 and 2 are subtrees of two and
    # one periods, which verify reaches only here
    config = load_config(fixture_path(fixture))
    reports = run_suite(config.market, config.preferences,
                        config.initial_capital, suite="all", samples=80,
                        seed=17,
                        config=EquilibriumConfig(starts=3,
                                                 max_iterations=60))
    failed = [r.name for r in reports if not r.passed]
    assert failed == []


def test_tabulated_utility_tracks_its_source():
    # tabulating the exponential on a knot grid reproduces satisfaction
    # and validates, within interpolation accuracy
    source = ExponentialUtility(1.0, c_u=0.05)
    # dense where the curvature lives, coarse along the flat tail
    knots = np.concatenate([np.linspace(-6.0, 6.0, 481),
                            np.linspace(6.5, 90.0, 168)])
    tabulated = TabulatedUtility(knots, source.u(knots), source.du(knots),
                                 source.d2u(knots), c_u=0.05)
    nu = ArctanGainLoss.tight(0.25)
    ref = ReferenceDistribution([(0.0, 0.5), (1.0, 0.5)])
    for x in (-1.0, 0.3, 2.0):
        assert satisfaction(tabulated, nu, x, ref) == pytest.approx(
            satisfaction(source, nu, x, ref), abs=1e-6)
    report = validate_preferences(tabulated, nu,
                                  np.linspace(-5.0, 80.0, 600))
    assert report.passed, [c.name for c in report.failed()]


def test_stress_fixture_regression_pin():
    # frozen from two independent deterministic runs; guards numerical
    # drift in the deep (three-period) path
    config = load_config(fixture_path("stress_t3"))
    result = find_equilibria(config.market, config.preferences,
                             config.solver, config.initial_capital,
                             seed=config.seed)
    pref = result.preferred_report
    assert pref.converged
    assert pref.residual <= 1e-8
    assert pref.value == pytest.approx(-0.8161887867031362, abs=1e-9)
    assert len(result.distinct) == 1


@pytest.mark.parametrize("fixture", FIXTURES)
def test_commands_never_build_the_exact_recursion(fixture, tmp_path,
                                                  monkeypatch):
    # the depth-first recursion is the tests' oracle: solving, certifying,
    # verifying and dumping a best response's values use the Newton engine
    def refuse(*args, **kwargs):
        raise AssertionError("the exact recursion was built")

    monkeypatch.setattr(bestresponse.RecursiveValue, "__init__", refuse)
    cfg = str(fixture_path(fixture))
    out = tmp_path / "run"
    preferred = str(out / "preferred.csv")
    for args in (["solve", "--seed", "7"], ["certify", "--candidate",
                                            preferred],
                 ["verify", "--suite", "all", "--samples", "50"],
                 ["best-response", "--reference", preferred]):
        assert main([*args, "--config", cfg, "--out", str(out)]) == 0, args


def _console_writes(tree: ast.AST) -> list[int]:
    """Lines of ``print`` calls and of any use of sys.stdout / sys.stderr."""
    streams = {"stdout", "stderr", "__stdout__", "__stderr__"}
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in streams
              and isinstance(node.value, ast.Name)
              and node.value.id == "sys"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "sys"
              and any(alias.name in streams for alias in node.names)):
            lines.append(node.lineno)
    return lines


def test_library_code_never_prints():
    # only the command-line interface writes to the console; the library
    # reports through return values and exceptions
    package = Path(bestresponse.__file__).resolve().parent
    modules = sorted(p for p in package.rglob("*.py") if p.name != "cli.py")
    assert len(modules) >= 7
    found = {str(p.relative_to(package)): lines for p in modules
             if (lines := _console_writes(ast.parse(p.read_text())))}
    assert found == {}
    assert _console_writes(ast.parse((package / "cli.py").read_text()))
