"""Configuration ingestion: one JSON file describes one reproducible run.

Sections: ``market`` (factor atoms per period and the price variant),
``preferences`` (utility and gain-loss family parameters), ``solver``
(fixed-point search controls), ``initial_capital``, ``seed`` and
``output``.  Bundled example configurations live in
``refequil/fixtures``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any

import numpy as np

from .equilibrium import EquilibriumConfig
from .market import (
    FactorDistribution,
    Market,
    MarketError,
    PriceModel,
    ScenarioTree,
    TablePriceModel,
    build_eex_model,
    check_uniform_no_arbitrage,
)
from .preferences import (
    ArctanGainLoss,
    ExponentialUtility,
    GainLoss,
    Preferences,
    TabulatedUtility,
    Utility,
)


class ConfigError(ValueError):
    """Raised when a configuration file cannot be parsed or validated."""


class CertificationError(ValueError):
    """Raised when a drift/vol market fails its a-priori certificate."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one solver invocation needs, seeded and reproducible."""

    market: Market
    preferences: Preferences
    solver: EquilibriumConfig
    initial_capital: float
    seed: int
    output_dir: Path
    backing: str = "exact"
    grid_points: int = 129
    raw: dict = field(default_factory=dict, repr=False)


def _require(section: dict, key: str, context: str) -> Any:
    if key not in section:
        raise ConfigError(f"missing key {key!r} in {context}")
    return section[key]


def _factor(spec: list, period: int) -> FactorDistribution:
    atoms = []
    for entry in spec:
        atoms.append((_require(entry, "value", f"factor atom (period {period})"),
                      _require(entry, "prob", f"factor atom (period {period})")))
    try:
        return FactorDistribution.from_atoms(atoms)
    except ValueError as exc:
        raise ConfigError(f"invalid factor law for period {period}: {exc}") \
            from exc


def _coefficient(spec: Any, name: str, factors=None, period: int = 0):
    """A per-period drift/vol coefficient.

    Accepts a bare number (constant), a polynomial in the summed history,
    or a table keyed by the history path (atom indices joined by '/').
    """
    if isinstance(spec, (int, float)):
        return float(spec)
    kind = _require(spec, "type", name)
    if kind == "constant":
        return float(_require(spec, "value", name))
    if kind == "poly_sum":
        coeffs = [float(c) for c in _require(spec, "coeffs", name)]

        def poly(history: np.ndarray) -> float:
            s = float(np.sum(history))
            return float(sum(c * s ** k for k, c in enumerate(coeffs)))

        return poly
    if kind == "table":
        values = {key: float(v)
                  for key, v in _require(spec, "values", name).items()}
        atom_values = [[float(v[0]) for v in dist.values]
                       for dist in factors[: period - 1]] if factors else []

        def lookup(history: np.ndarray) -> float:
            path = []
            for coords, atoms in zip(history, atom_values):
                gaps = [abs(float(coords) - a) for a in atoms]
                path.append(str(int(np.argmin(gaps))))
            key = "/".join(path)
            try:
                return values[key]
            except KeyError:
                raise ConfigError(f"{name}: no tabulated value for history "
                                  f"path {key!r}") from None

        return lookup
    raise ConfigError(f"unknown coefficient type {kind!r} in {name}")


def _build_market(section: dict) -> Market:
    factors = [_factor(spec, t + 1)
               for t, spec in enumerate(_require(section, "factors", "market"))]
    price = _require(section, "price", "market")
    variant = _require(price, "variant", "market.price")
    s0 = float(price.get("s0", 100.0))
    if variant == "table":
        tree = ScenarioTree(factors)
        table = {}
        for key, value in _require(price, "increments", "market.price").items():
            path = tuple(int(k) for k in key.split("/")) if key else ()
            table[path] = float(value)
        model: PriceModel = TablePriceModel(
            s0, float(_require(price, "c_f", "market.price")),
            float(price.get("chi", 1.0)), table=table)
        certificate = check_uniform_no_arbitrage(tree, model)
        return Market(tree, model, certificate)
    if variant == "drift_vol":
        mu = [_coefficient(m, "mu", factors, t + 1) for t, m
              in enumerate(_require(price, "mu", "market.price"))]
        sigma = [_coefficient(sg, "sigma", factors, t + 1) for t, sg
                 in enumerate(_require(price, "sigma", "market.price"))]
        try:
            model, certificate = build_eex_model(
                mu, sigma, factors,
                beta=float(_require(price, "beta", "market.price")),
                c=float(_require(price, "c", "market.price")),
                C=float(_require(price, "C", "market.price")),
                s0=s0, delta=float(price.get("delta", 1.0)))
        except MarketError as exc:
            raise CertificationError(str(exc)) from exc
        return Market(ScenarioTree(factors), model, certificate)
    raise ConfigError(f"unknown price variant {variant!r}")


def _build_utility(spec: dict) -> Utility:
    family = _require(spec, "family", "preferences.utility")
    if family == "exponential":
        return ExponentialUtility(float(_require(spec, "a",
                                                 "preferences.utility")),
                                  c_u=float(spec.get("c_u", 1.0)))
    if family == "table":
        return TabulatedUtility(_require(spec, "x", "preferences.utility"),
                                _require(spec, "u", "preferences.utility"),
                                _require(spec, "du", "preferences.utility"),
                                _require(spec, "d2u", "preferences.utility"),
                                c_u=float(spec.get("c_u", 1.0)))
    raise ConfigError(f"unknown utility family {family!r}")


def _build_gain_loss(spec: dict) -> GainLoss:
    family = _require(spec, "family", "preferences.gain_loss")
    if family == "arctan":
        k_minus = float(_require(spec, "k_minus", "preferences.gain_loss"))
        if "s" in spec:
            return ArctanGainLoss(k_minus, float(spec["s"]))
        return ArctanGainLoss.tight(k_minus)
    raise ConfigError(f"unknown gain-loss family {family!r}")


#: solver keys read only by the ``best-response`` command
GRID_KEYS = ("backing", "grid_points")


def _build_solver(spec: dict) -> EquilibriumConfig:
    known = {"damping", "tolerance", "max_iterations", "starts",
             "start_radius", "foc_tolerance", "oracle_resolution",
             "oracle_cap", "oracle_radius", "dedup_factor"}
    unknown = set(spec) - known - set(GRID_KEYS)
    if unknown:
        raise ConfigError(f"unknown solver keys {sorted(unknown)}")
    kwargs = {k: spec[k] for k in known if k in spec and spec[k] is not None}
    try:
        return EquilibriumConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid solver configuration: {exc}") from exc


def load_config(path: str | Path,
                overrides: dict | None = None,
                grid_settings: bool = True) -> RunConfig:
    """Parse and validate a run configuration file.

    ``overrides`` replaces top-level or solver entries (used by the CLI
    flags).  With ``grid_settings`` false, a solver block that sets one of
    :data:`GRID_KEYS` is an error (for commands that never read them).
    Raises :class:`ConfigError` on any parse or schema problem, including
    values of the wrong type or out of range, and
    :class:`CertificationError` when a drift/vol market fails the
    conditions its builder certifies.  Certification of table markets and
    preference validation are the caller's responsibility (they carry
    their own exit codes).
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"configuration file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    try:
        if overrides:
            raw = _merged(raw, overrides)
        market = _build_market(_require(raw, "market", "configuration"))
        prefs_spec = _require(raw, "preferences", "configuration")
        preferences = Preferences(
            _build_utility(_require(prefs_spec, "utility", "preferences")),
            _build_gain_loss(_require(prefs_spec, "gain_loss",
                                      "preferences")))
        solver_spec = dict(raw.get("solver", {}))
        solver = _build_solver(solver_spec)
        if not grid_settings:
            stray = [k for k in GRID_KEYS if solver_spec.get(k) is not None]
            if stray:
                raise ConfigError(f"solver keys {stray} apply only to the "
                                  "best-response command")
        output = raw.get("output", {})
        return RunConfig(
            market=market,
            preferences=preferences,
            solver=solver,
            initial_capital=float(raw.get("initial_capital", 0.0)),
            seed=int(raw.get("seed", 0)),
            output_dir=Path(output.get("directory", "out")),
            backing=str(solver_spec.get("backing", "exact")),
            grid_points=int(solver_spec.get("grid_points", 129)),
            raw=raw,
        )
    except (ConfigError, CertificationError):
        raise
    except (TypeError, ValueError, AttributeError) as exc:
        # a value of the wrong JSON type or out of range for its field
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _merged(raw: dict, overrides: dict) -> dict:
    out = json.loads(json.dumps(raw))
    for key, value in overrides.items():
        if value is None:
            continue
        if key in ("damping", "tolerance", "max_iterations", "starts",
                   "foc_tolerance", "backing", "grid_points"):
            out.setdefault("solver", {})[key] = value
        elif key == "output_directory":
            out.setdefault("output", {})["directory"] = value
        else:
            out[key] = value
    return out


def fixture_path(name: str) -> Path:
    """Path of a bundled example configuration (without the .json suffix)."""
    ref = resources.files("refequil") / "fixtures" / f"{name}.json"
    with resources.as_file(ref) as concrete:
        return Path(concrete)


def bundled_fixtures() -> list[str]:
    folder = resources.files("refequil") / "fixtures"
    return sorted(p.name[:-5] for p in folder.iterdir()
                  if p.name.endswith(".json"))
