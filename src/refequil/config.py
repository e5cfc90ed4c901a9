"""Configuration ingestion: one JSON file describes one reproducible run.

Sections: ``market`` (factor atoms per period and the price variant),
``preferences`` (utility and gain-loss family parameters), ``solver``
(fixed-point search controls), ``initial_capital``, ``seed`` and
``output``.  Bundled example configurations live in
``refequil/fixtures``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Any

import numpy as np

from .equilibrium import EquilibriumConfig
from .market import (
    FactorDistribution,
    Market,
    MarketError,
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


#: the ``solver`` section's keys: every search control but the starts given
#: as strategies
_SOLVER_KEYS = tuple(f.name for f in fields(EquilibriumConfig)
                    if f.name != "explicit_starts")


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


def _finite(value: Any, path: str) -> float:
    # also refuses a quoted "nan", which the walk of JSON numbers skips
    number = float(value)
    if not math.isfinite(number):
        raise ConfigError(f"{path} must be finite, not {number!r}")
    return number


def _finite_leaves(node: dict | list, path: str = "") -> None:
    """Refuse a NaN or infinite number anywhere below ``node`` by its key
    path, such as ``market.price.mu[1].coeffs[0]`` or
    ``market.price.increments["0/1"]``."""
    for key, value in (node.items() if isinstance(node, dict)
                       else enumerate(node)):
        if type(value) is float and not math.isfinite(value):
            _finite(value, _key_path(path, key))
        elif isinstance(value, (dict, list)):
            _finite_leaves(value, _key_path(path, key))


def _key_path(path: str, key: str | int) -> str:
    if type(key) is int:
        return f"{path}[{key}]"
    if key.isidentifier():
        return f"{path}.{key}" if path else key
    return f"{path}[{json.dumps(key)}]"


def _coefficient(spec: Any, name: str, factors=None, period: int = 0):
    """A per-period drift/vol coefficient.

    Accepts a bare number (constant), a polynomial in the summed history,
    or a table keyed by the history path (atom indices joined by '/').  A
    table matches each history coordinate to the atom of that value (the
    first such atom); a coordinate that is no atom is an error.
    """
    if isinstance(spec, (int, float)):
        return float(spec)
    kind = _require(spec, "type", name)
    if kind == "poly_sum":
        coeffs = [float(c) for c in _require(spec, "coeffs", name)]

        def poly(history: np.ndarray) -> float:
            s = float(np.sum(history))
            return float(sum(c * s ** k for k, c in enumerate(coeffs)))

        return poly
    if kind == "table":
        values = {key: float(v)
                  for key, v in _require(spec, "values", name).items()}
        atom_index = [{float(v[0]): str(k)
                       for k, v in reversed(list(enumerate(dist.values)))}
                      for dist in factors[: period - 1]] if factors else []

        def lookup(history: np.ndarray) -> float:
            path = []
            for t, (coord, atoms) in enumerate(zip(history, atom_index), 1):
                try:
                    path.append(atoms[float(coord)])
                except KeyError:
                    raise ConfigError(f"{name}: history coordinate "
                                      f"{float(coord)!r} of period {t} is "
                                      "not an atom") from None
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
    s0 = _finite(price.get("s0", 100.0), "market.price.s0")
    if variant == "table":
        tree = ScenarioTree(factors)
        table = {}
        for key, value in _require(price, "increments", "market.price").items():
            path = tuple(int(k) for k in key.split("/")) if key else ()
            table[path] = _finite(value,
                                  f'market.price.increments["{key}"]')
        model = TablePriceModel(
            s0, _finite(_require(price, "c_f", "market.price"),
                        "market.price.c_f"),
            float(price.get("chi", 1.0)), table=table)
        certificate = check_uniform_no_arbitrage(tree, model)
        return Market(tree, model, certificate)
    if variant == "drift_vol":
        coefficients = {}
        for name in ("mu", "sigma"):
            specs = _require(price, name, "market.price")
            if not isinstance(specs, list) or len(specs) != len(factors):
                raise ConfigError(f"market.price.{name} needs one entry per "
                                  f"period ({len(factors)})")
            coefficients[name] = [_coefficient(spec, name, factors, t + 1)
                                  for t, spec in enumerate(specs)]
        mu, sigma = coefficients["mu"], coefficients["sigma"]
        try:
            return build_eex_model(
                mu, sigma, factors,
                beta=float(_require(price, "beta", "market.price")),
                c=float(_require(price, "c", "market.price")),
                C=float(_require(price, "C", "market.price")),
                s0=s0, delta=float(price.get("delta", 1.0)))
        except MarketError as exc:
            raise CertificationError(str(exc)) from exc
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


def _build_solver(spec: dict) -> EquilibriumConfig:
    unknown = set(spec) - set(_SOLVER_KEYS)
    if unknown:
        raise ConfigError(f"unknown solver keys {sorted(unknown)}")
    kwargs = {k: v for k, v in spec.items() if v is not None}
    try:
        return EquilibriumConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid solver configuration: {exc}") from exc


def load_config(path: str | Path,
                overrides: dict | None = None) -> RunConfig:
    """Parse and validate a run configuration file.

    ``overrides`` replaces top-level or solver entries (used by the CLI
    flags).  Raises :class:`ConfigError` on any parse or schema problem,
    including values of the wrong type or out of range, and
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
        _finite_leaves(raw)
        market = _build_market(_require(raw, "market", "configuration"))
        prefs_spec = _require(raw, "preferences", "configuration")
        preferences = Preferences(
            _build_utility(_require(prefs_spec, "utility", "preferences")),
            _build_gain_loss(_require(prefs_spec, "gain_loss",
                                      "preferences")))
        solver = _build_solver(dict(raw.get("solver", {})))
        initial_capital = _finite(raw.get("initial_capital", 0.0),
                                  "initial_capital")
        seed = raw.get("seed", 0)
        # JSON true is a bool, which Python takes as 1; NaN is a float
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, not "
                              f"{seed!r}")
        output = raw.get("output", {})
        return RunConfig(
            market=market,
            preferences=preferences,
            solver=solver,
            initial_capital=initial_capital,
            seed=seed,
            output_dir=Path(output.get("directory", "out")),
        )
    except (ConfigError, CertificationError):
        raise
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        # a value of the wrong JSON type or out of range for its field
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _merged(raw: dict, overrides: dict) -> dict:
    out = json.loads(json.dumps(raw))
    for key, value in overrides.items():
        if value is None:
            continue
        if key in _SOLVER_KEYS:
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
