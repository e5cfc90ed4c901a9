import numpy as np
import pytest

from refequil.bestresponse import Strategy
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
    build_envelope_stack,
)


def fair_coin(move: float = 1.0) -> FactorDistribution:
    return FactorDistribution.from_atoms([(move, 0.5), (-move, 0.5)])


def last_coordinate_scaler(scale: float):
    return lambda history: scale * history[-1]


@pytest.fixture(scope="session")
def symmetric_market() -> Market:
    """Zero-drift T=2 binomial: increments +-0.5, certified at alpha 0.5."""
    tree = ScenarioTree([fair_coin(), fair_coin()])
    prices = TablePriceModel(100.0, 0.5, 1.0,
                             func=last_coordinate_scaler(0.5))
    return Market.assemble(tree, prices)


@pytest.fixture(scope="session")
def desk_prefs() -> Preferences:
    return Preferences(ExponentialUtility(1.0, c_u=0.05),
                       ArctanGainLoss.tight(0.25))


@pytest.fixture(scope="session")
def symmetric_stack(symmetric_market, desk_prefs):
    return build_envelope_stack(
        desk_prefs, symmetric_market.certificate.alpha_star,
        symmetric_market.prices.c_f, symmetric_market.prices.chi,
        symmetric_market.horizon)


@pytest.fixture(scope="session")
def skewed_market() -> Market:
    """T=1 two-point market with up-probability 0.7 and unit spread."""
    dist = FactorDistribution.from_atoms([(0.5, 0.7), (-0.5, 0.3)])
    tree = ScenarioTree([dist])
    prices = TablePriceModel(10.0, 0.5, 1.0,
                             func=last_coordinate_scaler(1.0))
    return Market.assemble(tree, prices)


@pytest.fixture(scope="session")
def skewed_stack(skewed_market, desk_prefs):
    return build_envelope_stack(
        desk_prefs, skewed_market.certificate.alpha_star,
        skewed_market.prices.c_f, skewed_market.prices.chi, 1)


def zero_strategy(market: Market) -> Strategy:
    return Strategy.constant(market.tree, 0.0)


def random_certified_instance(rng: np.random.Generator, horizon: int,
                              n_atoms: int):
    """One randomized certified market plus preferences for sweep tests.

    Symmetric-support factors with bounded-below masses and per-period
    drifts small against the move size keep every draw certifiable.
    """
    move = float(rng.uniform(0.8, 1.3))
    if n_atoms == 2:
        p = float(rng.uniform(0.25, 0.75))
        atoms = [(move, p), (-move, 1.0 - p)]
    else:
        p_mid = float(rng.uniform(0.1, 0.3))
        p_up = float(rng.uniform(0.25, 0.45))
        atoms = [(move, p_up), (0.0, p_mid), (-move, 1.0 - p_up - p_mid)]
    dists = [FactorDistribution.from_atoms(atoms) for _ in range(horizon)]
    tree = ScenarioTree(dists)

    scale = float(rng.uniform(0.3, 0.8))
    drifts = rng.uniform(-0.25, 0.25, size=horizon) * scale * move
    c_f = float(np.max(np.abs(drifts)) + scale * move)

    def increment(history: np.ndarray, _d=drifts, _s=scale) -> float:
        t = history.size  # depth of the node carrying this increment
        return float(_d[t - 1] + _s * history[-1])

    prices = TablePriceModel(50.0, c_f, 1.0, func=increment)
    market = Market.assemble(tree, prices)
    prefs = Preferences(
        ExponentialUtility(float(rng.uniform(0.3, 1.2)),
                           c_u=float(rng.uniform(0.01, 0.1))),
        ArctanGainLoss.tight(float(rng.uniform(0.05, 0.4))))
    x0 = float(rng.uniform(-1.0, 1.0))
    return market, prefs, x0
