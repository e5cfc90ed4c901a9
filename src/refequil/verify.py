"""Executable invariant suites.

Each check samples instances within the certified brackets and measures a
signed margin per instance (positive means satisfied with slack).  Its
report holds the worst margin, the smallest one seen; the witness of the
first instance that reaches it; and the number of instances examined.  A
NaN margin never becomes the worst.  Checks never raise on a failed
inequality; they report.  Given the same seed and inputs the reports are
byte-for-byte identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bestresponse import (
    Strategy,
    best_response,
    envelope_stack,
    one_step_objective,
)
from .equilibrium import (
    VALUE_TOL,
    EquilibriumConfig,
    certify_equilibrium,
    find_equilibria,
    iterate_fixed_point,
)
from .market import Market
from .preferences import (
    LogFamilies,
    Preferences,
    ReferenceDistribution,
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


#: (suite, check function, names it reports) in run order.  The checks draw
#: from one generator per session, so this order fixes every sample.  The
#: functions are looked up by name when a suite runs.
_CHECKS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("foc", "_check_foc", ("foc_residual",)),
    ("bounds", "_check_optimizer_bound", ("optimizer_bound",)),
    ("bounds", "_check_curvature_floor", ("curvature_floor",)),
    ("bounds", "_check_value_bounds", ("value_bounds",)),
    ("bounds", "_check_derivative_sandwich", ("derivative_sandwich",)),
    ("bounds", "_fd_checks", ("derivative_fd_first", "derivative_fd_second")),
    ("bounds", "_check_value_shape", ("value_shape",)),
    ("bounds", "_check_dominance", ("dominance",)),
    ("bounds", "_check_linear_branch", ("linear_branch",)),
    ("bounds", "_check_satisfaction_sandwich", ("satisfaction_sandwich",)),
    ("bounds", "_check_satisfaction_derivative",
     ("satisfaction_derivative_sandwich",)),
    ("bounds", "_check_satisfaction_concavity", ("satisfaction_concavity",)),
    ("bounds", "_check_envelope_positivity", ("envelope_positivity",)),
    ("bounds", "_check_elasticity", ("elasticity",)),
    ("hoelder", "_check_hoelder", ("hoelder_optimizer", "hoelder_value")),
    ("hoelder", "_check_price_modulus", ("price_modulus",)),
    ("hoelder", "_check_no_arbitrage", ("no_arbitrage_recheck",)),
    ("continuity", "_check_continuity", ("best_response_continuity",)),
    ("equilibrium", "_equilibrium_checks",
     ("fixed_point_idempotence", "preferred_dominance", "certified_ball",
      "damping_invariance", "oracle_agreement")),
)

SUITES: dict[str, tuple[str, ...]] = {
    suite: tuple(name for owner, _, names in _CHECKS if owner == suite
                 for name in names)
    for suite in dict.fromkeys(suite for suite, _, _ in _CHECKS)}

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


def _derivative_scale_radius(utility, x0: float) -> float:
    """Largest radius keeping the utility slope within 10**4 of centre.

    Absolute first-order-condition targets (1e-10) and finite-difference
    relative tolerances are meaningful only while value/derivative scales
    stay a few decades of the centre scale; sampling beyond that measures
    round-off, not the solver.
    """
    du0 = float(utility.du(float(x0)))
    cap = 1e4

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
                 stack) -> None:
        market.require_certified()
        self.market = market
        self.preferences = preferences
        self.x0 = float(x0)
        self.samples = int(samples)
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.tree = market.tree
        self.prices = market.prices
        self.stack = (stack if stack is not None
                      else envelope_stack(market, preferences))
        #: the certified bound on every best-response position
        self.ball = strategy_bound(self.stack, self.prices.c_f, self.x0)
        #: practical position scale: the certified ball clipped to a range
        #: where double precision keeps the absolute FOC target meaningful
        self.position_scale = min(self.ball, 2.0)
        #: sampled wealths lie in x0 +- this radius: the reachable-wealth
        #: window of the position scale, clipped to four decades of slope
        self.wealth_radius = float(min(
            self.tree.horizon * self.prices.c_f * self.position_scale,
            _derivative_scale_radius(preferences.utility, x0)))
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
        self.ask(self.states)

    def ask(self, pairs) -> None:
        """Evaluate ``(node, x)`` pairs, one batch per stage t < T, so that
        the checks read them from the stage evaluators' memos."""
        by_depth: dict[int, list] = {}
        for node, x in pairs:
            if not node.is_terminal:
                by_depth.setdefault(node.depth, []).append((node, x))
        for depth, batch in by_depth.items():
            self.values[depth].evaluate_many(*zip(*batch))

    def ask_children(self, states) -> None:
        """:meth:`ask` for the children of each ``(node, x, h)``, at the
        wealths :func:`one_step_objective` reads."""
        self.ask((child, x + h * f) for node, x, h in states
                 for child, f in zip(node.children, self.prices.row(node)[0]))

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

    def per_state(self, *families: str):
        """``(index, node, x, *family values)`` for every master-sample
        state, depth by depth, with the named envelope families at x."""
        for depth, (ids, _) in self._by_depth.items():
            columns = [self.env_family(depth, name) for name in families]
            for k, idx in enumerate(ids):
                yield (idx, *self.states[idx],
                       *(float(column[k]) for column in columns))


def _fold(name: str, cases, tolerance: float = 0.0) -> CheckReport:
    """A check's report from its ``(margin, witness fields)`` cases.

    The worst margin is the smallest one (strict ``<`` against a running
    minimum from +inf, so a NaN margin never wins), the witness is that of
    the first case reaching it, and ``instances`` counts the cases.
    """
    worst, witness, count = math.inf, None, 0
    for count, (margin, fields) in enumerate(cases, 1):
        if margin < worst:
            worst, witness = margin, fields
    return CheckReport(name, count, worst,
                       "" if witness is None else _fmt_witness(**witness),
                       tolerance)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _check_foc(s: _Session) -> CheckReport:
    def cases():
        for node, x in s.states:
            sol = s.values[node.depth].solution(node, x)
            yield (s.config.foc_tolerance - sol.residual,
                   dict(node=node.id, x=x, residual=sol.residual))
    return _fold("foc_residual", cases())


def _check_optimizer_bound(s: _Session) -> CheckReport:
    def cases():
        for _, node, x, bound, coeff in s.per_state("position_bound",
                                                    "position_past_coeff"):
            h = s.values[node.depth].solution(node, x).position
            yield (min(bound - abs(h), coeff - abs(h)),
                   dict(node=node.id, x=x, h=h))
    return _fold("optimizer_bound", cases())


def _check_curvature_floor(s: _Session) -> CheckReport:
    draws = []
    for idx, node, x, floor, bracket in s.per_state("curve_floor",
                                                    "position_bound"):
        if idx % 2 == 0:
            cap = min(bracket, 3.0)
            draws.append((node, x, float(s.rng.uniform(-cap, cap)), floor))
    s.ask_children(draw[:3] for draw in draws)

    def cases():
        for node, x, h, floor in draws:
            slope = one_step_objective(s.values[node.depth + 1], s.prices,
                                       node, x, h)[2]
            yield (-slope - s.prices.c_f ** 2 * floor,
                   dict(node=node.id, x=x, h=h))
    return _fold("curvature_floor", cases())


def _check_value_bounds(s: _Session) -> CheckReport:
    cap = s.preferences.satisfaction_cap

    def cases():
        for _, node, x, floor in s.per_state("value_floor"):
            v = s.values[node.depth].evaluate(node, x)[0]
            yield min(v - floor, cap - v), dict(node=node.id, x=x, v=v)
    return _fold("value_bounds", cases())


def _check_derivative_sandwich(s: _Session) -> CheckReport:
    def cases():
        for _, node, x, j, J, lo, hi in s.per_state(
                "slope_floor", "slope_cap", "curve_floor", "curve_cap"):
            _, v1, v2 = s.values[node.depth].evaluate(node, x)
            yield (min(v1 - j, J - v1, (-v2) - lo, hi - (-v2)),
                   dict(node=node.id, x=x, v1=v1, v2=v2))
    return _fold("derivative_sandwich", cases())


def _fd_checks(s: _Session) -> list[CheckReport]:
    cases = []
    states = s.states[: max(1, s.samples // 10)]
    s.ask(pair for node, x in states
          for pair in ((node, x), (node, x + FD_STEP), (node, x - FD_STEP)))
    for node, x in states:
        value = s.values[node.depth]
        _, v1, v2 = value.evaluate(node, x)
        up = value.evaluate(node, x + FD_STEP)
        down = value.evaluate(node, x - FD_STEP)
        fd1 = (up[0] - down[0]) / (2.0 * FD_STEP)
        fd2 = (up[1] - down[1]) / (2.0 * FD_STEP)
        cases.append((FD_FIRST_TOL - abs(fd1 - v1) / max(abs(v1), 1e-12),
                      FD_SECOND_TOL - abs(fd2 - v2) / max(abs(v2), 1e-12),
                      dict(node=node.id, x=x)))
    return [_fold("derivative_fd_first", ((m, w) for m, _, w in cases)),
            _fold("derivative_fd_second", ((m, w) for _, m, w in cases))]


def _check_value_shape(s: _Session) -> CheckReport:
    xs = np.linspace(s.x0 - s.wealth_radius, s.x0 + s.wealth_radius, 9)
    s.ask((node, float(x)) for node in s.tree.interior[:8] for x in xs)

    def cases():
        for node in s.tree.interior[:8]:
            vals = [s.values[node.depth].evaluate(node, float(x))[0]
                    for x in xs]
            yield (min(float(np.min(np.diff(vals))),
                       float(np.min(-np.diff(vals, 2)))),
                   dict(node=node.id))
    return _fold("value_shape", cases())


def _check_dominance(s: _Session) -> CheckReport:
    states = s.states[: max(1, s.samples // 4)]
    s.ask_children((node, x, 0.0) for node, x in states)

    def cases():
        for node, x in states:
            v = s.values[node.depth].evaluate(node, x)[0]
            zero = one_step_objective(s.values[node.depth + 1], s.prices,
                                      node, x, 0.0)[0]
            yield v - zero, dict(node=node.id, x=x)
    return _fold("dominance", cases(), tolerance=1e-12)


def _check_linear_branch(s: _Session) -> CheckReport:
    nu = s.preferences.gain_loss
    xs = -np.abs(s.rng.uniform(0.0, 5.0, size=s.samples))
    gaps = np.abs(np.asarray(nu.nu(xs)) - nu.k_minus * xs)
    worst = -float(np.max(gaps))
    witness = _fmt_witness(x=float(xs[int(np.argmax(gaps))]))
    return CheckReport("linear_branch", len(xs), worst, witness)


def _satisfaction_draws(s: _Session):
    """``(reference, wealth)`` draws for the satisfaction checks: a random
    reference law of one to four atoms, then a wealth in the window."""
    for _ in range(max(1, s.samples // 2)):
        n = int(s.rng.integers(1, 5))
        wealths = s.x0 + s.rng.uniform(-s.wealth_radius, s.wealth_radius,
                                       size=n)
        weights = s.rng.uniform(0.2, 1.0, size=n)
        weights = weights / weights.sum()
        # exact renormalisation so the atom sum passes the 1e-12 gate
        weights[-1] = 1.0 - math.fsum(weights[:-1])
        reference = ReferenceDistribution.from_weights(zip(wealths, weights))
        yield reference, s.x0 + float(s.rng.uniform(-s.wealth_radius,
                                                    s.wealth_radius))


def _check_satisfaction_sandwich(s: _Session) -> CheckReport:
    u, nu = s.preferences.utility, s.preferences.gain_loss
    cap = s.preferences.satisfaction_cap

    def cases():
        for ref, x in _satisfaction_draws(s):
            val = satisfaction(u, nu, x, ref)
            floor = (1.0 + nu.k_minus) * float(u.u(x)) - nu.k_minus * u.c_u
            yield min(val - floor, cap - val), dict(x=x)
    return _fold("satisfaction_sandwich", cases())


def _check_satisfaction_derivative(s: _Session) -> CheckReport:
    u, nu = s.preferences.utility, s.preferences.gain_loss

    def cases():
        for ref, x in _satisfaction_draws(s):
            up, down = satisfaction(u, nu, [x + FD_STEP, x - FD_STEP], ref)
            fd = (up - down) / (2.0 * FD_STEP)
            du = float(u.du(x))
            slack = FD_FIRST_TOL * (1.0 + nu.k_minus) * du
            yield (min(fd - du + slack, (1.0 + nu.k_minus) * du - fd + slack),
                   dict(x=x))
    return _fold("satisfaction_derivative_sandwich", cases())


def _check_satisfaction_concavity(s: _Session) -> CheckReport:
    u, nu = s.preferences.utility, s.preferences.gain_loss

    def cases():
        for ref, x in _satisfaction_draws(s):
            up, mid, down = satisfaction(u, nu, [x + FD_STEP, x, x - FD_STEP],
                                         ref)
            second = (up - 2.0 * mid + down) / FD_STEP ** 2
            yield -second, dict(x=x)
    return _fold("satisfaction_concavity", cases())


def _check_envelope_positivity(s: _Session) -> CheckReport:
    """Every envelope family is positive on the probe grid.

    Floors may saturate to zero (-inf log) far out, which keeps every
    certified inequality valid; only NaN logs (a genuinely nonpositive
    family, broken preconditions) fail.  Caps must stay nonzero.
    """
    xs = np.linspace(s.x0 - s.wealth_radius, s.x0 + s.wealth_radius, 17)
    witness = ""  # the first failing (stage, x)
    stages = s.stack[:-1]
    for t, stage in enumerate(stages):
        logs = stage.log_families(xs)
        for name in ("slope_floor", "curve_floor", "slope_cap", "curve_cap",
                     "position_past_coeff", "past_coeff"):
            arr = getattr(logs, name)
            bad = np.isnan(arr)
            if not name.endswith("floor"):
                bad |= np.isneginf(arr)
            if bool(np.any(bad)) and not witness:
                witness = _fmt_witness(stage=t,
                                       x=float(xs[int(np.argmax(bad))]))
    return CheckReport("envelope_positivity", len(xs) * len(stages),
                       -1.0 if witness else 1.0, witness)


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
    s.ask((node, x) for _, a, b, x in pairs for node in (a, b))
    by_stage: dict[int, list[int]] = {}
    for k, (t, *_rest) in enumerate(pairs):
        by_stage.setdefault(t, []).append(k)
    cases = []
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
            m_v = _pair_margin(float(v_logs[pos]), stage.exponent, dist,
                               abs(value.evaluate(a, x)[0]
                                   - value.evaluate(b, x)[0]))
            cases.append((m_h, m_v, dict(a=a.id, b=b.id, x=x)))
    return [_fold("hoelder_optimizer", ((m, w) for m, _, w in cases)),
            _fold("hoelder_value", ((m, w) for _, m, w in cases))]


def _check_price_modulus(s: _Session) -> CheckReport:
    def cases():
        for level in s.tree.levels[1:]:
            incs = [s.prices.row(node.parent)[0][node.path[-1]]
                    for node in level]
            for i, (a, f_a) in enumerate(zip(level, incs)):
                for b, f_b in zip(level[i + 1:], incs[i + 1:]):
                    dist = a.distance(b)
                    if dist == 0.0:
                        continue
                    gap = abs(f_a - f_b)
                    yield (s.prices.c_f * dist ** s.prices.chi - gap,
                           dict(a=a.id, b=b.id))
    return _fold("price_modulus", cases(), tolerance=1e-12)


def _check_no_arbitrage(s: _Session) -> CheckReport:
    alpha = s.market.certificate.alpha_star

    def cases():
        for node in s.tree.interior:
            increments, probs = s.prices.row(node)
            up = math.fsum(p for f, p in zip(increments, probs)
                           if f >= alpha)
            down = math.fsum(p for f, p in zip(increments, probs)
                             if f <= -alpha)
            yield min(up - alpha, down - alpha), dict(node=node.id)
    return _fold("no_arbitrage_recheck", cases())


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

    converged = eqs.converged_reports
    # one cold best response per converged report
    responses = [best_response(s.market, s.preferences, rep.strategy, s.x0,
                               stack=s.stack, foc_tolerance=cfg.foc_tolerance)
                 for rep in converged]
    if converged:
        reports.append(_fold("fixed_point_idempotence", (
            (cfg.tolerance - again.sup_distance(rep.strategy),
             dict(start=rep.start_id))
            for rep, (again, _) in zip(converged, responses))))
    else:
        reports.append(CheckReport("fixed_point_idempotence", 0, math.inf,
                                   "no converged start"))

    if eqs.preferred is not None:
        pref = eqs.preferred_report.value
        worst = min((pref - rep.value + VALUE_TOL for rep in converged),
                    default=math.inf)
        reports.append(CheckReport("preferred_dominance", len(converged),
                                   worst))
    else:
        reports.append(CheckReport("preferred_dominance", 0, math.inf,
                                   "no converged start"))

    worst = min((s.ball - rep.strategy.max_abs() for rep in converged),
                default=math.inf)
    reports.append(CheckReport("certified_ball", len(converged), worst))

    limits = []
    zero = eqs.reports[0]
    for damping in (0.25, 0.5, 1.0):
        if damping == cfg.damping or zero.fallbacks == 0:
            # the search's first run: the zero start under these settings;
            # without a fallback round it never read the damping, so a
            # run at another one would repeat its best responses exactly
            rep = zero
        else:
            sub = replace(cfg, damping=damping)
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
                                   converged[0].strategy, s.x0, cfg,
                                   s.stack)
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
              config: EquilibriumConfig | None = None,
              stack=None) -> list[CheckReport]:
    """Run the selected invariant suite and report worst margins.

    ``suite`` is ``all`` or a key of :data:`SUITES`.  Sampling is
    deterministic in the seed.  Wealths are sampled inside x0 plus or
    minus the reachable-wealth window of the certified position ball,
    clipped to the range where the absolute first-order-condition target is
    meaningful in double precision.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick from "
                         f"{'all|' + '|'.join(SUITES)}")
    if not samples >= 1:
        raise ValueError(f"samples must be at least 1, not {samples!r}")
    config = config or EquilibriumConfig(starts=4, max_iterations=60)
    session = _Session(market, preferences, x0, seed, samples, config, stack)
    reports: list[CheckReport] = []
    for owner, check, _ in _CHECKS:
        if suite in ("all", owner):
            found = globals()[check](session)
            reports.extend(found if isinstance(found, list) else [found])
    reports.sort(key=lambda r: r.name)
    return reports


def report_rows(reports: Sequence[CheckReport]) -> tuple[list[str], list[list]]:
    """CSV rows: check, samples, worst margin, witness."""
    header = ["check", "instances", "worst_margin", "passed", "witness"]
    rows = [[r.name, r.instances, repr(r.worst_margin), r.passed, r.witness]
            for r in reports]
    return header, rows
