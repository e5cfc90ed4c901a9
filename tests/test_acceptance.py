"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criteria 3-6 and 9 share one randomized sweep of certified instances
(module-scoped); its composition satisfies the stated floor of 1000
instances with horizons up to 3 and at most 3 factor atoms.
"""

import csv
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from refequil.bestresponse import (
    Strategy,
    TerminalValue,
    best_response,
    solve_one_step,
)
from refequil.cli import main
from refequil.config import fixture_path, load_config
from refequil.equilibrium import (
    EquilibriumConfig,
    certify_equilibrium,
    find_equilibria,
    iterate_fixed_point,
)
from refequil.market import (
    FactorDistribution,
    ScenarioTree,
    TablePriceModel,
)
from refequil.preferences import (
    ArctanGainLoss,
    ExponentialUtility,
    Preferences,
    ReferenceDistribution,
    build_envelope_stack,
)
from refequil.verify import CheckReport, run_suite

from conftest import random_certified_instance

FIXTURES = ("symmetric_t2", "asymmetric_eex_t2", "stress_t3")


def verdict(number: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status}  {label}" +
          (f"  ({detail})" if detail else ""))


# ---------------------------------------------------------------------------
# the shared randomized sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepRecord:
    horizon: int
    n_atoms: int
    residuals: list = field(default_factory=list)
    position_margins: list = field(default_factory=list)
    sandwich_margins: list = field(default_factory=list)
    fd_first: list = field(default_factory=list)
    fd_second: list = field(default_factory=list)
    pair_margins: list = field(default_factory=list)
    oracle: tuple | None = None
    oracle_seconds: float = 0.0
    distinct_values: list = field(default_factory=list)


COMPOSITION = (
    (1, 2, 80), (1, 3, 620),
    (2, 2, 50), (2, 3, 180),
    (3, 2, 30), (3, 3, 45),
)


def _sweep_instance(rng, horizon, n_atoms, run_oracle) -> SweepRecord:
    market, prefs, x0 = random_certified_instance(rng, horizon, n_atoms)
    tree, prices = market.tree, market.prices
    stack = build_envelope_stack(prefs, market.certificate.alpha_star,
                                 prices.c_f, prices.chi, horizon)
    record = SweepRecord(horizon, n_atoms)

    draw = rng.uniform(-1.0, 1.0, size=len(tree.interior))
    reference = Strategy({n.id: float(h)
                          for n, h in zip(tree.interior, draw)})
    response, values = best_response(market, prefs, reference, x0,
                                     stack=stack)

    # sampling stays where double precision keeps the absolute targets
    # meaningful: four decades of slope around the initial capital
    radius = min(horizon * prices.c_f * 2.0,
                 4.0 * math.log(10.0) / prefs.utility.a)
    states = []
    for _ in range(3):
        node = tree.interior[int(rng.integers(0, len(tree.interior)))]
        states.append((node, x0 + float(rng.uniform(-radius, radius))))

    for node, x in states:
        stage = stack[node.depth]
        sol = values[node.depth].solution(node, x)
        record.residuals.append(sol.residual)
        with np.errstate(over="ignore"):
            record.position_margins.append(
                float(stage.position_bound(x)) - abs(sol.position))
            v, v1, v2 = values[node.depth].evaluate(node, x)
            floor_j, cap_j, floor_l, cap_l = (
                float(np.exp(f))
                for f in stage.log_families(np.asarray(x))[:4])
            record.sandwich_margins.append(min(
                v1 - floor_j, cap_j - v1, (-v2) - floor_l, cap_l - (-v2)))

    node, x = states[0]
    step = 1e-5
    v, v1, v2 = values[node.depth].evaluate(node, x)
    up = values[node.depth].evaluate(node, x + step)
    down = values[node.depth].evaluate(node, x - step)
    record.fd_first.append(abs((up[0] - down[0]) / (2 * step) - v1)
                           / max(abs(v1), 1e-12))
    record.fd_second.append(abs((up[1] - down[1]) / (2 * step) - v2)
                            / max(abs(v2), 1e-12))

    if horizon >= 2:
        t = int(rng.integers(1, horizon))
        level = tree.levels[t]
        i, j = rng.choice(len(level), size=2, replace=False)
        a, b = level[int(i)], level[int(j)]
        dist = a.distance(b)
        if dist > 0.0:
            x = x0 + float(rng.uniform(-radius, radius))
            stage = stack[t]
            gap_h = abs(values[t].solution(a, x).position
                        - values[t].solution(b, x).position)
            gap_v = abs(values[t].evaluate(a, x)[0]
                        - values[t].evaluate(b, x)[0])
            log_dist = math.log(dist)
            families = stage.log_families(np.asarray(x))
            for gap, log_coeff in (
                    (gap_h, float(families.position_past_coeff)),
                    (gap_v, float(families.past_coeff))):
                if gap == 0.0:
                    record.pair_margins.append(math.inf)
                    continue
                record.pair_margins.append(
                    log_coeff + stage.exponent * log_dist - math.log(gap))

    if run_oracle:
        started = time.perf_counter()
        config = EquilibriumConfig(oracle_radius=3.0, oracle_resolution=41,
                                   max_iterations=80)
        eq = iterate_fixed_point(market, prefs, config,
                                 Strategy.constant(tree, 0.0), x0,
                                 stack=stack)
        if eq.converged:
            cert = certify_equilibrium(market, prefs, eq.strategy, x0,
                                       config=config, stack=stack)
            record.oracle = (cert.oracle_margin, cert.oracle_slack,
                             cert.oracle_skipped)
        record.oracle_seconds = time.perf_counter() - started

    return record


@pytest.fixture(scope="module")
def sweep():
    rng = np.random.default_rng(20260810)
    records: list[SweepRecord] = []
    multistart_values: list[list[float]] = []
    for horizon, n_atoms, count in COMPOSITION:
        for k in range(count):
            run_oracle = horizon <= 2 and n_atoms == 2
            records.append(_sweep_instance(rng, horizon, n_atoms, run_oracle))
    # a multistart slice for the preferred-selection criterion
    for _ in range(25):
        market, prefs, x0 = random_certified_instance(
            rng, int(rng.integers(1, 3)), 2)
        stack = build_envelope_stack(prefs, market.certificate.alpha_star,
                                     market.prices.c_f, market.prices.chi,
                                     market.horizon)
        config = EquilibriumConfig(starts=4, start_radius=5.0,
                                   max_iterations=80)
        result = find_equilibria(market, prefs, config, x0,
                                 seed=int(rng.integers(0, 2 ** 31)),
                                 stack=stack)
        if result.preferred is not None:
            values = [result.reports[k].value for k in result.distinct]
            multistart_values.append(
                (result.preferred_report.value, values))
    return records, multistart_values


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_symmetric_fixed_point(tmp_path):
    started = time.perf_counter()
    code = main(["solve", "--config", str(fixture_path("symmetric_t2")),
                 "--seed", "7", "--out", str(tmp_path / "run")])
    elapsed = time.perf_counter() - started
    summary = (tmp_path / "run" / "summary.txt").read_text()
    lines = dict(line.split(": ", 1) for line in summary.splitlines()
                 if ": " in line)
    residual = float(lines["preferred residual"])
    value = float(lines["preferred value"])
    with (tmp_path / "run" / "preferred.csv").open() as fh:
        positions = [float(r["position"]) for r in csv.DictReader(fh)]
    passed = (code == 0 and residual <= 1e-12
              and abs(value - (-1.0)) <= 1e-12
              and all(h == 0.0 for h in positions)
              and elapsed < 1.0)
    verdict(1, "symmetric fixed point is exactly the zero strategy", passed,
            f"residual={residual!r} value={value!r} elapsed={elapsed:.3f}s")
    assert passed


def test_criterion_2_closed_form_best_response():
    p, a = 0.7, 1.3
    dist = FactorDistribution.from_atoms([(0.5, p), (-0.5, 1.0 - p)])
    tree = ScenarioTree([dist])
    prices = TablePriceModel(1.0, 0.5, 1.0, func=lambda e: e[-1])
    prefs = Preferences(ExponentialUtility(a, c_u=0.05),
                        ArctanGainLoss.tight(0.25))
    vt = TerminalValue(prefs, ReferenceDistribution.degenerate(500.0))
    started = time.perf_counter()
    sol = solve_one_step(vt, prices, tree.root, 0.3, bracket=200.0)
    elapsed = time.perf_counter() - started
    target = math.log(p / (1.0 - p)) / a
    gap = abs(sol.position - target)
    passed = gap <= 1e-8 and elapsed < 0.1
    verdict(2, "one-step solver matches the exponential closed form", passed,
            f"gap={gap:.2e} elapsed={elapsed * 1e3:.2f}ms")
    assert passed


def test_criterion_3_foc_certification(sweep):
    records, _ = sweep
    total = len(records)
    worst_residual = max(max(r.residuals) for r in records)
    worst_position = min(min(r.position_margins) for r in records)
    passed = (total >= 1000 and worst_residual <= 1e-10
              and worst_position >= 0.0)
    verdict(3, "first-order conditions certified across the sweep", passed,
            f"instances={total} worst |gamma|={worst_residual:.2e} "
            f"worst bracket margin={worst_position:.3g}")
    assert passed


def test_criterion_4_envelope_sandwich(sweep):
    records, _ = sweep
    worst_sandwich = min(min(r.sandwich_margins) for r in records)
    worst_fd1 = max(max(r.fd_first) for r in records)
    worst_fd2 = max(max(r.fd_second) for r in records)
    passed = (worst_sandwich >= 0.0 and worst_fd1 <= 1e-4
              and worst_fd2 <= 1e-3)
    verdict(4, "derivative envelopes hold with finite-difference agreement",
            passed, f"worst margin={worst_sandwich:.3g} "
            f"fd1={worst_fd1:.2e} fd2={worst_fd2:.2e}")
    assert passed


def test_criterion_5_hoelder_moduli(sweep):
    records, _ = sweep
    margins = [m for r in records for m in r.pair_margins]
    worst = min(margins)
    passed = len(margins) > 0 and worst >= 0.0
    verdict(5, "optimizer and value Hoelder moduli hold on node pairs",
            passed, f"pairs={len(margins)} worst log-margin={worst:.3g}")
    assert passed


def test_criterion_6_oracle_equivalence(sweep):
    records, _ = sweep
    checked = [r for r in records if r.oracle is not None]
    slow = max((r.oracle_seconds for r in checked), default=0.0)
    violations = sum(
        1 for r in checked
        if not r.oracle[2] and r.oracle[0] > r.oracle[1])
    passed = (len(checked) > 0 and violations == 0 and slow < 10.0)
    verdict(6, "grid oracle never beats a converged equilibrium", passed,
            f"instances={len(checked)} violations={violations} "
            f"slowest={slow:.2f}s")
    assert passed


def test_criterion_7_best_response_continuity():
    worst = 0.0
    rng = np.random.default_rng(77)
    for name in FIXTURES:
        config = load_config(fixture_path(name))
        market, prefs = config.market, config.preferences
        x0 = config.initial_capital
        stack = build_envelope_stack(prefs, market.certificate.alpha_star,
                                     market.prices.c_f, market.prices.chi,
                                     market.horizon)
        base_positions = {n.id: float(rng.uniform(-0.5, 0.5))
                          for n in market.tree.interior}
        for base in (Strategy.constant(market.tree, 0.0),
                     Strategy(base_positions)):
            signs = rng.choice([-1.0, 1.0], size=len(base_positions))
            bumped = Strategy(base.positions + 1e-6 * signs)
            psi_a, _ = best_response(market, prefs, base, x0, stack=stack)
            psi_b, _ = best_response(market, prefs, bumped, x0, stack=stack)
            worst = max(worst, psi_a.sup_distance(psi_b))
    passed = worst <= 1e-3
    verdict(7, "best response moves continuously with the reference", passed,
            f"worst sup-norm response={worst:.2e}")
    assert passed


def _price_modulus(config) -> CheckReport:
    reports = run_suite(config.market, config.preferences,
                        config.initial_capital, suite="hoelder", samples=20,
                        seed=8, config=config.solver)
    return next(r for r in reports if r.name == "price_modulus")


def test_criterion_8_price_modulus(tmp_path):
    # the extension lemma of the existence argument rests on increments
    # that keep their stated modulus c_f dist^chi between same-depth
    # histories; verify's price_modulus row checks every such pair, and
    # it fails a market whose stated exponent the increments break
    rows = {name: _price_modulus(load_config(fixture_path(name)))
            for name in FIXTURES}
    raw = json.loads(fixture_path("symmetric_t2").read_text())
    raw["market"]["price"]["chi"] = 0.5
    broken = tmp_path / "chi_half.json"
    broken.write_text(json.dumps(raw))
    row = _price_modulus(load_config(broken))
    passed = (all(r.passed and r.instances > 0 for r in rows.values())
              and not row.passed and row.witness == "a=1 b=2"
              and row.worst_margin == pytest.approx(
                  0.5 * math.sqrt(2.0) - 1.0, abs=1e-15))
    verdict(8, "increments keep their stated Hoelder modulus in the history",
            passed, "pairs=" + " ".join(f"{name}:{r.instances}"
                                        for name, r in rows.items())
            + f"; chi=0.5 copy margin={row.worst_margin:.4f}")
    assert passed


def test_criterion_9_preferred_selection(sweep):
    _, multistart_values = sweep
    checked = 0
    violations = 0
    for preferred_value, distinct_values in multistart_values:
        if len(distinct_values) >= 2:
            checked += 1
            if any(preferred_value < v - 1e-12 for v in distinct_values):
                violations += 1
    passed = violations == 0
    verdict(9, "preferred equilibrium weakly dominates all converged ones",
            passed, f"multi-equilibrium cases={checked} "
            f"(searches run={len(multistart_values)})")
    assert passed


@pytest.mark.parametrize("name", FIXTURES)
def test_criterion_10_determinism(name, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = str(fixture_path(name))
    assert main(["solve", "--config", cfg, "--seed", "7",
                 "--out", str(out_a)]) == 0
    assert main(["solve", "--config", cfg, "--seed", "7",
                 "--out", str(out_b)]) == 0
    identical = all(
        (out_a / p.name).read_bytes() == (out_b / p.name).read_bytes()
        for p in sorted(out_a.iterdir()))
    verdict(10, f"solve --seed 7 is byte-identical on {name}", identical)
    assert identical
