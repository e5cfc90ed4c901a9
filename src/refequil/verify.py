"""Executable invariant suites.

Each check samples instances within the certified brackets, measures the
worst signed margin (positive means satisfied with slack) and names a
witness on failure.  Checks never raise on a failed inequality; they
report.  Given the same seed and inputs the reports are byte-for-byte
identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bestresponse import (
    Strategy,
    best_response,
    best_response_steps,
    one_step_objective,
    run_lockstep,
)
from .equilibrium import (
    VALUE_TOL,
    EquilibriumConfig,
    certify_equilibrium,
    find_equilibria,
    iterate_fixed_point,
)
from .market import Market, node_increments
from .preferences import (
    LogFamilies,
    Preferences,
    ReferenceDistribution,
    build_envelope_stack,
    satisfaction,
    strategy_bound,
    validate_preferences,
)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named invariant check."""

    name: str
    instances: int
    worst_margin: float
    witness: str = ""
    tolerance: float = 0.0

    @property
    def passed(self) -> bool:
        return self.worst_margin >= -self.tolerance


SUITES: dict[str, tuple[str, ...]] = {
    "foc": ("foc_residual",),
    "bounds": ("optimizer_bound", "curvature_floor", "value_bounds",
               "derivative_sandwich", "derivative_fd_first",
               "derivative_fd_second", "value_shape", "dominance",
               "linear_branch", "satisfaction_sandwich",
               "satisfaction_derivative_sandwich", "satisfaction_concavity",
               "envelope_positivity", "elasticity"),
    "hoelder": ("hoelder_optimizer", "hoelder_value", "price_modulus",
                "no_arbitrage_recheck"),
    "continuity": ("best_response_continuity",),
    "equilibrium": ("fixed_point_idempotence", "preferred_dominance",
                    "certified_ball", "damping_invariance",
                    "oracle_agreement"),
}

#: one named check per documented invariant (uniqueness is unit-tested)
INVARIANT_COVERAGE: dict[str, str] = {
    # bestresponse
    "foc-residual-at-optimizer": "foc_residual",
    "optimizer-within-brackets": "optimizer_bound",
    "curvature-floor-on-objective": "curvature_floor",
    "value-within-floor-and-cap": "value_bounds",
    "derivative-envelopes": "derivative_sandwich",
    "hoelder-in-past-optimizer": "hoelder_optimizer",
    "hoelder-in-past-value": "hoelder_value",
    "value-monotone-concave": "value_shape",
    "sup-dominates-feasible": "dominance",
    # preferences
    "linear-loss-branch": "linear_branch",
    "satisfaction-sandwich": "satisfaction_sandwich",
    "satisfaction-derivative-sandwich": "satisfaction_derivative_sandwich",
    "envelope-positivity": "envelope_positivity",
    "satisfaction-strictly-concave": "satisfaction_concavity",
    # equilibrium
    "fixed-point-idempotence": "fixed_point_idempotence",
    "oracle-agreement": "oracle_agreement",
    "preferred-dominance": "preferred_dominance",
    "equilibria-in-certified-ball": "certified_ball",
    "damping-invariance": "damping_invariance",
}

FD_FIRST_TOL = 1e-4
FD_SECOND_TOL = 1e-3
FD_STEP = 1e-5


def _fmt_witness(**kv) -> str:
    return " ".join(f"{k}={v!r}" for k, v in kv.items())


def _derivative_scale_radius(utility, x0: float, decades: float = 4.0) -> float:
    """Largest radius keeping the utility slope within 10**decades of centre.

    Absolute first-order-condition targets (1e-10) and finite-difference
    relative tolerances are meaningful only while value/derivative scales
    stay a few decades of the centre scale; sampling beyond that measures
    round-off, not the solver.
    """
    du0 = float(utility.du(float(x0)))
    cap = 10.0 ** decades

    def ok(r: float) -> bool:
        lo = float(utility.du(float(x0 - r)))
        hi = float(utility.du(float(x0 + r)))
        return (math.isfinite(lo) and lo <= cap * du0
                and hi >= du0 / cap and hi > 0.0)

    r = 1.0
    if not ok(r):
        while r > 1e-6 and not ok(r):
            r *= 0.5
        return max(r, 1e-6)
    while r < 1e6 and ok(2.0 * r):
        r *= 2.0
    lo_r, hi_r = r, 2.0 * r
    for _ in range(40):
        mid = 0.5 * (lo_r + hi_r)
        if ok(mid):
            lo_r = mid
        else:
            hi_r = mid
    return lo_r


class _Session:
    """Shared sampling state for one suite run."""

    def __init__(self, market: Market, preferences: Preferences, x0: float,
                 seed: int, samples: int, config: EquilibriumConfig,
                 stack, wealth_radius: float | None) -> None:
        market.require_certified()
        self.market = market
        self.preferences = preferences
        self.x0 = float(x0)
        self.samples = int(samples)
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.tree = market.tree
        self.prices = market.prices
        self.stack = stack if stack is not None else build_envelope_stack(
            preferences, market.certificate.alpha_star, self.prices.c_f,
            self.prices.chi, self.tree.horizon)
        ball = strategy_bound(self.stack, self.prices.c_f, self.x0)
        #: practical position scale: the certified ball clipped to a range
        #: where double precision keeps the absolute FOC target meaningful
        self.position_scale = min(ball, 2.0)
        if wealth_radius is None:
            wealth_radius = min(
                self.tree.horizon * self.prices.c_f * self.position_scale,
                _derivative_scale_radius(preferences.utility, x0))
        self.wealth_radius = float(wealth_radius)
        self.reference_strategy = Strategy(self.rng.uniform(
            -self.position_scale, self.position_scale,
            size=len(self.tree.interior)))
        self.response, self.values = best_response(
            market, preferences, self.reference_strategy, self.x0,
            stack=self.stack, foc_tolerance=config.foc_tolerance)
        #: one master sample, shared by the per-state checks
        self.states = self.sample_states(self.samples)
        by_depth: dict[int, tuple[list[int], list[float]]] = {}
        for idx, (node, x) in enumerate(self.states):
            ids, xs = by_depth.setdefault(node.depth, ([], []))
            ids.append(idx)
            xs.append(x)
        self._by_depth = {d: (ids, np.asarray(xs))
                          for d, (ids, xs) in by_depth.items()}
        self._env_cache: dict[int, LogFamilies] = {}

    def sample_states(self, count: int) -> list[tuple]:
        interior = self.tree.interior
        picks = self.rng.integers(0, len(interior), size=count)
        xs = self.x0 + self.rng.uniform(-self.wealth_radius,
                                        self.wealth_radius, size=count)
        return [(interior[i], float(x)) for i, x in zip(picks, xs)]

    def env_family(self, depth: int, name: str) -> np.ndarray:
        """Envelope family values on the master sample of one depth; the
        log families come from one record per depth."""
        _, xs = self._by_depth[depth]
        if name not in LogFamilies._fields:  # a closed form
            return getattr(self.stack[depth], name)(xs)
        if depth not in self._env_cache:
            self._env_cache[depth] = self.stack[depth].log_families(xs)
        with np.errstate(over="ignore"):
            return np.exp(getattr(self._env_cache[depth], name))


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _check_foc(s: _Session) -> CheckReport:
    worst, witness = math.inf, ""
    for node, x in s.states:
        sol = s.values[node.depth].solution(node, x)
        margin = s.config.foc_tolerance - sol.residual
        if margin < worst:
            worst, witness = margin, _fmt_witness(node=node.id, x=x,
                                                  residual=sol.residual)
    return CheckReport("foc_residual", len(s.states), worst, witness)


def _check_optimizer_bound(s: _Session) -> CheckReport:
    worst, witness = math.inf, ""
    for depth, (ids, xs) in s._by_depth.items():
        bounds = s.env_family(depth, "position_bound")
        coeffs = s.env_family(depth, "position_past_coeff")
        for k, idx in enumerate(ids):
            node, x = s.states[idx]
            h = s.values[depth].solution(node, x).position
            margin = min(float(bounds[k]) - abs(h), float(coeffs[k]) - abs(h))
            if margin < worst:
                worst, witness = margin, _fmt_witness(node=node.id, x=x, h=h)
    return CheckReport("optimizer_bound", len(s.states), worst, witness)


def _check_curvature_floor(s: _Session) -> CheckReport:
    worst, witness = math.inf, ""
    count = 0
    for depth, (ids, xs) in s._by_depth.items():
        floors = s.prices.c_f ** 2 * s.env_family(depth, "curve_floor")
        brackets = s.env_family(depth, "position_bound")
        for k, idx in enumerate(ids):
            if idx % 2:
                continue
            node, x = s.states[idx]
            cap = min(float(brackets[k]), 3.0)
            h = float(s.rng.uniform(-cap, cap))
            slope = one_step_objective(s.values[depth + 1], s.prices, node,
                                       x, h)[2]
            count += 1
            margin = -slope - float(floors[k])
            if margin < worst:
                worst, witness = margin, _fmt_witness(node=node.id, x=x, h=h)
    return CheckReport("curvature_floor", count, worst, witness)


def _check_value_bounds(s: _Session) -> CheckReport:
    worst, witness = math.inf, ""
    cap = s.preferences.satisfaction_cap
    for depth, (ids, xs) in s._by_depth.items():
        floors = s.env_family(depth, "value_floor")
        for k, idx in enumerate(ids):
            node, x = s.states[idx]
            v = s.values[depth].evaluate(node, x)[0]
            margin = min(v - float(floors[k]), cap - v)
            if margin < worst:
                worst, witness = margin, _fmt_witness(node=node.id, x=x, v=v)
    return CheckReport("value_bounds", len(s.states), worst, witness)


def _check_derivative_sandwich(s: _Session) -> CheckReport:
    worst, witness = math.inf, ""
    for depth, (ids, xs) in s._by_depth.items():
        j = s.env_family(depth, "slope_floor")
        J = s.env_family(depth, "slope_cap")
        lo = s.env_family(depth, "curve_floor")
        hi = s.env_family(depth, "curve_cap")
        for k, idx in enumerate(ids):
            node, x = s.states[idx]
            _, v1, v2 = s.values[depth].evaluate(node, x)
            margin = min(v1 - float(j[k]), float(J[k]) - v1,
                         (-v2) - float(lo[k]), float(hi[k]) - (-v2))
            if margin < worst:
                worst, witness = margin, _fmt_witness(node=node.id, x=x,
                                                      v1=v1, v2=v2)
    return CheckReport("derivative_sandwich", len(s.states), worst, witness)


def _fd_checks(s: _Session) -> list[CheckReport]:
    first_worst, first_wit = math.inf, ""
    second_worst, second_wit = math.inf, ""
    states = s.states[: max(1, s.samples // 10)]
    for node, x in states:
        value = s.values[node.depth]
        v, v1, v2 = value.evaluate(node, x)
        up = value.evaluate(node, x + FD_STEP)
        down = value.evaluate(node, x - FD_STEP)
        fd1 = (up[0] - down[0]) / (2.0 * FD_STEP)
        fd2 = (up[1] - down[1]) / (2.0 * FD_STEP)
        m1 = FD_FIRST_TOL - abs(fd1 - v1) / max(abs(v1), 1e-12)
        m2 = FD_SECOND_TOL - abs(fd2 - v2) / max(abs(v2), 1e-12)
        if m1 < first_worst:
            first_worst, first_wit = m1, _fmt_witness(node=node.id, x=x)
        if m2 < second_worst:
            second_worst, second_wit = m2, _fmt_witness(node=node.id, x=x)
    return [CheckReport("derivative_fd_first", len(states), first_worst,
                        first_wit),
            CheckReport("derivative_fd_second", len(states), second_worst,
                        second_wit)]


def _check_value_shape(s: _Session) -> CheckReport:
    worst, witness = math.inf, ""
    count = 0
    nodes = s.tree.interior
    for node in nodes[: min(len(nodes), 8)]:
        xs = np.linspace(s.x0 - s.wealth_radius, s.x0 + s.wealth_radius, 9)
        vals = [s.values[node.depth].evaluate(node, float(x))[0]
                for x in xs]
        first = np.diff(vals)
        second = np.diff(vals, 2)
        count += 1
        margin = min(float(np.min(first)), float(np.min(-second)))
        if margin < worst:
            worst, witness = margin, _fmt_witness(node=node.id)
    return CheckReport("value_shape", count, worst, witness)


def _check_dominance(s: _Session) -> CheckReport:
    worst, witness = math.inf, ""
    states = s.states[: max(1, s.samples // 4)]
    for node, x in states:
        v = s.values[node.depth].evaluate(node, x)[0]
        zero = one_step_objective(s.values[node.depth + 1], s.prices, node,
                                  x, 0.0)[0]
        margin = v - zero
        if margin < worst:
            worst, witness = margin, _fmt_witness(node=node.id, x=x)
    return CheckReport("dominance", len(states), worst, witness,
                       tolerance=1e-12)


def _check_linear_branch(s: _Session) -> CheckReport:
    nu = s.preferences.gain_loss
    xs = -np.abs(s.rng.uniform(0.0, 5.0, size=s.samples))
    gaps = np.abs(np.asarray(nu.nu(xs)) - nu.k_minus * xs)
    worst = -float(np.max(gaps))
    witness = _fmt_witness(x=float(xs[int(np.argmax(gaps))]))
    return CheckReport("linear_branch", len(xs), worst, witness)


def _random_reference(s: _Session) -> ReferenceDistribution:
    n = int(s.rng.integers(1, 5))
    wealths = s.x0 + s.rng.uniform(-s.wealth_radius, s.wealth_radius, size=n)
    weights = s.rng.uniform(0.2, 1.0, size=n)
    weights = weights / weights.sum()
    # exact renormalisation so the atom sum passes the 1e-12 gate
    weights[-1] = 1.0 - math.fsum(weights[:-1])
    return ReferenceDistribution.from_weights(zip(wealths, weights))


def _check_satisfaction_sandwich(s: _Session) -> CheckReport:
    worst, witness = math.inf, ""
    u, nu = s.preferences.utility, s.preferences.gain_loss
    cap = s.preferences.satisfaction_cap
    count = max(1, s.samples // 2)
    for _ in range(count):
        ref = _random_reference(s)
        x = s.x0 + float(s.rng.uniform(-s.wealth_radius, s.wealth_radius))
        val = satisfaction(u, nu, x, ref)
        floor = (1.0 + nu.k_minus) * float(u.u(x)) - nu.k_minus * u.c_u
        margin = min(val - floor, cap - val)
        if margin < worst:
            worst, witness = margin, _fmt_witness(x=x)
    return CheckReport("satisfaction_sandwich", count, worst, witness)


def _check_satisfaction_derivative(s: _Session) -> CheckReport:
    worst, witness = math.inf, ""
    u, nu = s.preferences.utility, s.preferences.gain_loss
    count = max(1, s.samples // 2)
    for _ in range(count):
        ref = _random_reference(s)
        x = s.x0 + float(s.rng.uniform(-s.wealth_radius, s.wealth_radius))
        fd = (satisfaction(u, nu, x + FD_STEP, ref)
              - satisfaction(u, nu, x - FD_STEP, ref)) / (2.0 * FD_STEP)
        du = float(u.du(x))
        slack = FD_FIRST_TOL * (1.0 + nu.k_minus) * du
        margin = min(fd - du + slack, (1.0 + nu.k_minus) * du - fd + slack)
        if margin < worst:
            worst, witness = margin, _fmt_witness(x=x)
    return CheckReport("satisfaction_derivative_sandwich", count, worst,
                       witness)


def _check_satisfaction_concavity(s: _Session) -> CheckReport:
    worst, witness = math.inf, ""
    u, nu = s.preferences.utility, s.preferences.gain_loss
    count = max(1, s.samples // 2)
    for _ in range(count):
        ref = _random_reference(s)
        x = s.x0 + float(s.rng.uniform(-s.wealth_radius, s.wealth_radius))
        second = (satisfaction(u, nu, x + FD_STEP, ref)
                  - 2.0 * satisfaction(u, nu, x, ref)
                  + satisfaction(u, nu, x - FD_STEP, ref)) / FD_STEP ** 2
        margin = -second
        if margin < worst:
            worst, witness = margin, _fmt_witness(x=x)
    return CheckReport("satisfaction_concavity", count, worst, witness)


def _check_envelope_positivity(s: _Session) -> CheckReport:
    """Every envelope family is positive on the probe grid.

    Floors may saturate to zero (-inf log) far out, which keeps every
    certified inequality valid; only NaN logs (a genuinely nonpositive
    family, broken preconditions) fail.  Caps must stay nonzero.
    """
    xs = np.linspace(s.x0 - s.wealth_radius, s.x0 + s.wealth_radius, 17)
    worst, witness = math.inf, ""
    count = 0
    for t, stage in enumerate(s.stack[:-1]):
        logs = stage.log_families(xs)
        count += len(xs)
        for name in ("slope_floor", "curve_floor", "slope_cap", "curve_cap",
                     "position_past_coeff", "past_coeff"):
            arr = getattr(logs, name)
            bad = np.isnan(arr)
            if not name.endswith("floor"):
                bad |= np.isneginf(arr)
            if bool(np.any(bad)) and worst > -1.0:
                worst = -1.0
                witness = _fmt_witness(stage=t,
                                       x=float(xs[int(np.argmax(bad))]))
    if worst > 0.0 or worst == math.inf:
        worst = 1.0
    return CheckReport("envelope_positivity", count, worst, witness)


def _check_elasticity(s: _Session) -> CheckReport:
    grid = np.linspace(min(-1.0, s.x0 - 1.0), max(60.0, s.x0 + 60.0), 400)
    report = validate_preferences(s.preferences.utility,
                                  s.preferences.gain_loss, grid)
    probe = next(c for c in report.checks if c.name == "elasticity_probe")
    margin = 1.0 if probe.passed else -1.0
    witness = "" if probe.witness is None else _fmt_witness(x=probe.witness)
    return CheckReport("elasticity", len(grid), margin, witness)


def _pair_margin(log_coeff: float, exponent: float, dist: float,
                 gap: float) -> float:
    """bound - gap with the bound exp(log_coeff) * dist^exponent, saturating."""
    if gap == 0.0:
        return math.inf
    with np.errstate(over="ignore"):
        log_allowed = log_coeff + exponent * math.log(dist)
        allowed = float(np.exp(log_allowed))
    return allowed - gap


def _check_hoelder(s: _Session) -> list[CheckReport]:
    h_worst, h_wit = math.inf, ""
    v_worst, v_wit = math.inf, ""
    budget = max(1, s.samples // 4)
    pairs: list[tuple] = []
    if s.tree.horizon > 1:
        for _ in range(budget):
            t = int(s.rng.integers(1, s.tree.horizon))
            level = s.tree.levels[t]
            if len(level) < 2:
                continue
            i, j = s.rng.choice(len(level), size=2, replace=False)
            a, b = level[int(i)], level[int(j)]
            if a.distance(b) == 0.0:
                continue
            x = s.x0 + float(s.rng.uniform(-s.wealth_radius,
                                           s.wealth_radius))
            pairs.append((t, a, b, x))
    by_stage: dict[int, list[int]] = {}
    for k, (t, *_rest) in enumerate(pairs):
        by_stage.setdefault(t, []).append(k)
    for t, idxs in by_stage.items():
        stage = s.stack[t]
        value = s.values[t]
        xs = np.asarray([pairs[k][3] for k in idxs])
        logs = stage.log_families(xs)
        h_logs, v_logs = logs.position_past_coeff, logs.past_coeff
        for pos, k in enumerate(idxs):
            _, a, b, x = pairs[k]
            dist = a.distance(b)
            m_h = _pair_margin(float(h_logs[pos]), stage.exponent, dist,
                               abs(value.solution(a, x).position
                                   - value.solution(b, x).position))
            if m_h < h_worst:
                h_worst, h_wit = m_h, _fmt_witness(a=a.id, b=b.id, x=x)
            m_v = _pair_margin(float(v_logs[pos]), stage.exponent, dist,
                               abs(value.evaluate(a, x)[0]
                                   - value.evaluate(b, x)[0]))
            if m_v < v_worst:
                v_worst, v_wit = m_v, _fmt_witness(a=a.id, b=b.id, x=x)
    return [CheckReport("hoelder_optimizer", len(pairs), h_worst, h_wit),
            CheckReport("hoelder_value", len(pairs), v_worst, v_wit)]


def _check_price_modulus(s: _Session) -> CheckReport:
    worst, witness = math.inf, ""
    count = 0
    incs = node_increments(s.tree, s.prices)
    for t in range(1, s.tree.horizon + 1):
        level = s.tree.levels[t]
        for i, a in enumerate(level):
            for b in level[i + 1:]:
                dist = a.distance(b)
                if dist == 0.0:
                    continue
                count += 1
                gap = abs(incs[a.id] - incs[b.id])
                margin = s.prices.c_f * dist ** s.prices.chi - gap
                if margin < worst:
                    worst, witness = margin, _fmt_witness(a=a.id, b=b.id)
    return CheckReport("price_modulus", count, worst, witness,
                       tolerance=1e-12)


def _check_no_arbitrage(s: _Session) -> CheckReport:
    worst, witness = math.inf, ""
    alpha = s.market.certificate.alpha_star
    count = 0
    edges = s.prices.edges(s.tree)
    for node in s.tree.interior:
        row = edges[node.id]
        up = math.fsum(p for f, p in zip(row.increments, row.probs)
                       if f >= alpha)
        down = math.fsum(p for f, p in zip(row.increments, row.probs)
                         if f <= -alpha)
        count += 1
        margin = min(up - alpha, down - alpha)
        if margin < worst:
            worst, witness = margin, _fmt_witness(node=node.id)
    return CheckReport("no_arbitrage_recheck", count, worst, witness)


def _check_continuity(s: _Session) -> CheckReport:
    base = s.response
    bump = 1e-6
    signs = s.rng.choice([-1.0, 1.0], size=len(s.tree.interior))
    perturbed = Strategy(s.reference_strategy.positions + bump * signs)
    moved, _ = best_response(s.market, s.preferences, perturbed, s.x0,
                             stack=s.stack,
                             foc_tolerance=s.config.foc_tolerance)
    gap = moved.sup_distance(base)
    return CheckReport("best_response_continuity", 1, 1e-3 - gap,
                       _fmt_witness(gap=gap))


def _equilibrium_checks(s: _Session) -> list[CheckReport]:
    cfg = s.config
    eqs = find_equilibria(s.market, s.preferences, cfg, s.x0,
                          seed=int(s.rng.integers(0, 2 ** 31)), stack=s.stack)
    reports: list[CheckReport] = []

    worst, wit = math.inf, ""
    converged = eqs.converged_reports
    # one cold best response per converged report, run as one lockstep batch
    responses = run_lockstep([
        best_response_steps(s.market, s.preferences, rep.strategy, s.x0,
                            stack=s.stack, foc_tolerance=cfg.foc_tolerance)
        for rep in converged])
    for rep, (again, _) in zip(converged, responses):
        margin = cfg.tolerance - again.sup_distance(rep.strategy)
        if margin < worst:
            worst, wit = margin, _fmt_witness(start=rep.start_id)
    if not converged:
        worst, wit = math.inf, "no converged start"
    reports.append(CheckReport("fixed_point_idempotence", len(converged),
                               worst, wit))

    if eqs.preferred is not None:
        pref = eqs.preferred_report.value
        worst = min((pref - rep.value + VALUE_TOL for rep in converged),
                    default=math.inf)
        reports.append(CheckReport("preferred_dominance", len(converged),
                                   worst))
    else:
        reports.append(CheckReport("preferred_dominance", 0, math.inf,
                                   "no converged start"))

    ball = strategy_bound(s.stack, s.prices.c_f, s.x0)
    worst = min((ball - rep.strategy.max_abs() for rep in converged),
                default=math.inf)
    reports.append(CheckReport("certified_ball", len(converged), worst))

    limits = []
    for damping in (0.25, 0.5, 1.0):
        if damping == cfg.damping:
            # the search's first run: the zero start under these settings
            rep = eqs.reports[0]
        else:
            sub = EquilibriumConfig(damping=damping, tolerance=cfg.tolerance,
                                    max_iterations=cfg.max_iterations,
                                    starts=1,
                                    foc_tolerance=cfg.foc_tolerance)
            rep = iterate_fixed_point(s.market, s.preferences, sub,
                                      Strategy.constant(s.tree, 0.0), s.x0,
                                      stack=s.stack)
        if rep.converged:
            limits.append(rep.strategy)
    if len(limits) >= 2:
        gap = max(a.sup_distance(b) for i, a in enumerate(limits)
                  for b in limits[i + 1:])
        reports.append(CheckReport("damping_invariance", len(limits),
                                   10.0 * cfg.tolerance - gap))
    else:
        reports.append(CheckReport("damping_invariance", len(limits),
                                   math.inf, "fewer than 2 damping runs "
                                   "converged"))

    if converged:
        cert = certify_equilibrium(s.market, s.preferences,
                                   converged[0].strategy, s.x0,
                                   cfg.oracle_resolution, cfg, s.stack)
        if cert.oracle_skipped:
            reports.append(CheckReport("oracle_agreement", 0, math.inf,
                                       cert.notice))
        else:
            reports.append(CheckReport(
                "oracle_agreement", cfg.oracle_resolution,
                cert.oracle_slack - cert.oracle_margin))
    else:
        reports.append(CheckReport("oracle_agreement", 0, math.inf,
                                   "no converged start"))
    return reports


# ---------------------------------------------------------------------------
# the suite runner
# ---------------------------------------------------------------------------

def run_suite(market: Market, preferences: Preferences, x0: float,
              suite: str = "all", samples: int = 1000, seed: int = 0,
              config: EquilibriumConfig | None = None, stack=None,
              wealth_radius: float | None = None) -> list[CheckReport]:
    """Run the selected invariant suite and report worst margins.

    ``suite`` is one of ``all``, ``foc``, ``bounds``, ``hoelder``,
    ``continuity``, ``equilibrium``.  Sampling is deterministic in the
    seed.  Wealths are sampled inside ``x0 +- wealth_radius``; the default
    radius is the reachable-wealth window of the certified position ball,
    clipped to the range where the absolute first-order-condition target is
    meaningful in double precision.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick from "
                         f"{'all|' + '|'.join(SUITES)}")
    config = config or EquilibriumConfig(starts=4, max_iterations=60)
    session = _Session(market, preferences, x0, seed, samples, config, stack,
                       wealth_radius)
    wanted = set(SUITES[suite]) if suite != "all" else {
        name for names in SUITES.values() for name in names}

    reports: list[CheckReport] = []
    if "foc_residual" in wanted:
        reports.append(_check_foc(session))
    if "optimizer_bound" in wanted:
        reports.append(_check_optimizer_bound(session))
    if "curvature_floor" in wanted:
        reports.append(_check_curvature_floor(session))
    if "value_bounds" in wanted:
        reports.append(_check_value_bounds(session))
    if "derivative_sandwich" in wanted:
        reports.append(_check_derivative_sandwich(session))
    if "derivative_fd_first" in wanted or "derivative_fd_second" in wanted:
        reports.extend(_fd_checks(session))
    if "value_shape" in wanted:
        reports.append(_check_value_shape(session))
    if "dominance" in wanted:
        reports.append(_check_dominance(session))
    if "linear_branch" in wanted:
        reports.append(_check_linear_branch(session))
    if "satisfaction_sandwich" in wanted:
        reports.append(_check_satisfaction_sandwich(session))
    if "satisfaction_derivative_sandwich" in wanted:
        reports.append(_check_satisfaction_derivative(session))
    if "satisfaction_concavity" in wanted:
        reports.append(_check_satisfaction_concavity(session))
    if "envelope_positivity" in wanted:
        reports.append(_check_envelope_positivity(session))
    if "elasticity" in wanted:
        reports.append(_check_elasticity(session))
    if "hoelder_optimizer" in wanted or "hoelder_value" in wanted:
        reports.extend(_check_hoelder(session))
    if "price_modulus" in wanted:
        reports.append(_check_price_modulus(session))
    if "no_arbitrage_recheck" in wanted:
        reports.append(_check_no_arbitrage(session))
    if "best_response_continuity" in wanted:
        reports.append(_check_continuity(session))
    if wanted & set(SUITES["equilibrium"]):
        reports.extend(_equilibrium_checks(session))
    reports.sort(key=lambda r: r.name)
    return reports


def report_rows(reports: Sequence[CheckReport]) -> tuple[list[str], list[list]]:
    """CSV rows: check, samples, worst margin, witness."""
    header = ["check", "instances", "worst_margin", "passed", "witness"]
    rows = [[r.name, r.instances, repr(r.worst_margin), r.passed, r.witness]
            for r in reports]
    return header, rows
