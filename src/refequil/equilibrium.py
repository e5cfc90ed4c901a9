"""Personal equilibria: fixed points of the best-response map.

The existence theory is nonconstructive, so equilibria are searched for by
safeguarded Picard iteration from multiple starts: each round takes the full
step to the best response while the residual halves, and blends at the
configured damping in the rounds where it does not.  Non-convergence is
reported honestly, never raised.  Converged candidates can be certified two
ways: analytically (the best-response residual) and, on small trees, against
a brute-force grid oracle whose tolerance follows from the curvature
envelope.

Multistart runs are independent: :func:`find_equilibria` runs
:func:`iterate_fixed_point` once per start, in start order, and each of a
run's best responses starts Newton at its previous one.  So the error of
the lowest failing start surfaces, and equal seeds give equal reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bestresponse import (
    Strategy,
    best_response,
    envelope_stack,
    terminal_wealth_law,
)
from .market import Market, roll
from .preferences import (
    Preferences,
    ReferenceDistribution,
    satisfaction,
)

#: resolution of self-value comparisons (exact double sums of unit-scale terms)
VALUE_TOL = 1e-12
#: skip the brute-force oracle above this many grid strategies
_ORACLE_CAP = 300_000
#: converged strategies closer than this many tolerances count as one
_DEDUP_FACTOR = 10.0
#: a Picard round takes the full step (the best response itself) when its
#: residual is at most this factor times the last round's, else it blends
_SHRINK = 0.5


def evaluate_self_value(market: Market, preferences: Preferences,
                        strategy, x0: float) -> float:
    """Expected satisfaction of a strategy against its own wealth copy.

    Exact double sum over the terminal-wealth law and the reference atoms.
    """
    tree, prices = market.tree, market.prices
    law = terminal_wealth_law(tree, prices, strategy, x0)
    values = satisfaction(preferences.utility, preferences.gain_loss,
                          law.wealths, law)
    return float(np.dot(law.probs, values))


@dataclass(frozen=True)
class EquilibriumConfig:
    """Search controls for the fixed-point iteration."""

    damping: float = 0.5
    tolerance: float = 1e-8
    max_iterations: int = 50
    starts: int = 8
    #: radius of the uniform multistart draws; None uses the stage-0
    #: optimizer bracket at x0, capped at 50 (:func:`_default_radius`)
    start_radius: float | None = None
    explicit_starts: tuple = ()
    foc_tolerance: float = 1e-10
    #: oracle grid positions per node
    oracle_resolution: int = 41
    #: half-width of the oracle grid; None as for ``start_radius``
    oracle_radius: float | None = None

    def __post_init__(self) -> None:
        for key in ("max_iterations", "starts", "oracle_resolution"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{key} must be an integer, not {value!r}")
        for key in ("damping", "tolerance", "foc_tolerance", "start_radius",
                    "oracle_radius"):
            value = getattr(self, key)
            if isinstance(value, bool):
                raise ValueError(f"{key} must be a number, not {value!r}")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        # NaN fails every comparison, so each check also refuses it
        for key in ("tolerance", "foc_tolerance"):
            value = getattr(self, key)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{key} must be finite and positive, not "
                                 f"{value!r}")
        for key in ("start_radius", "oracle_radius"):
            value = getattr(self, key)
            if value is not None and not 0.0 < value < np.inf:
                raise ValueError(f"{key} must be null or finite and "
                                 f"positive, not {value!r}")
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be at least 1")
        if self.starts < 1 and not self.explicit_starts:
            raise ValueError("at least one start is required")
        if self.oracle_resolution < 2:
            raise ValueError("oracle_resolution must be at least 2")


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of one safeguarded Picard run."""

    strategy: Strategy
    residual: float
    value: float
    iterations: int
    converged: bool
    start_id: int = 0
    residual_trace: tuple[float, ...] = field(default=(), repr=False)
    #: rounds that blended at the damping instead of taking the full step
    fallbacks: int = 0
    #: best responses with a clamped on-path solution
    clamped: int = 0
    #: best responses with an exhausted on-path solution
    exhausted: int = 0


@dataclass(frozen=True)
class EquilibriumSet:
    """All runs, the distinct converged strategies, and the preferred one."""

    reports: tuple[EquilibriumReport, ...]
    distinct: tuple[int, ...]
    preferred: int | None

    @property
    def converged_reports(self) -> list[EquilibriumReport]:
        return [r for r in self.reports if r.converged]

    @property
    def preferred_report(self) -> EquilibriumReport | None:
        return None if self.preferred is None else self.reports[self.preferred]


def _default_radius(stack, x0: float) -> float:
    """The stage-0 optimizer bracket at x0, capped at 50 so that wild
    references do not burn the iteration budget."""
    return min(float(stack[0].position_bound(x0)), 50.0)


def iterate_fixed_point(market: Market, preferences: Preferences,
                        config: EquilibriumConfig, start: Strategy,
                        x0: float, stack=None, start_id: int = 0,
                        ) -> EquilibriumReport:
    """Safeguarded Picard iteration on the best-response map.

    A round moves to its best response when the residual is at most
    ``_SHRINK`` times the previous round's (the first round always does),
    and otherwise to the blend at ``config.damping``, counted in the
    report's ``fallbacks``.  Stops once the sup-norm residual reaches the
    tolerance or the iteration budget runs out; always returns the
    lowest-residual iterate seen, with the converged flag telling the two
    outcomes apart.  Each best response after the first starts Newton at
    the previous one (:func:`~refequil.bestresponse.best_response`'s
    ``initial``).  The report counts the best responses with a clamped or
    an exhausted on-path solution.
    """
    market.require_certified()
    if stack is None:
        stack = envelope_stack(market, preferences)
    current = start
    response = None
    best: tuple[float, Strategy] | None = None
    trace: list[float] = []
    converged = False
    fallbacks = clamped = exhausted = 0
    for _ in range(config.max_iterations):
        response, values = best_response(
            market, preferences, current, x0, stack=stack,
            foc_tolerance=config.foc_tolerance, initial=response)
        clamped += values[0].stats.clamped > 0
        exhausted += values[0].stats.exhausted > 0
        residual = response.sup_distance(current)
        trace.append(residual)
        if best is None or residual < best[0]:
            best = (residual, current)
        if residual <= config.tolerance:
            converged = True
            break
        if len(trace) == 1 or residual <= _SHRINK * trace[-2]:
            current = response
        else:
            fallbacks += 1
            current = current.blend(response, config.damping)
    residual, strategy = best
    value = evaluate_self_value(market, preferences, strategy, x0)
    return EquilibriumReport(strategy, residual, value, len(trace),
                             converged, start_id, tuple(trace), fallbacks,
                             clamped, exhausted)


@dataclass(frozen=True)
class CertificationReport:
    """Two-sided check that a candidate is (epsilon-)optimal against itself."""

    analytic_residual: float
    oracle_margin: float | None
    oracle_slack: float | None
    oracle_skipped: bool
    grid_resolution: int
    certified: bool
    notice: str = ""


def _oracle_sweep(market: Market, preferences: Preferences,
                  reference: ReferenceDistribution, x0: float,
                  radius: float, resolution: int):
    """Best self-value over the full grid of strategies, or None if it has
    more than ``_ORACLE_CAP`` of them.

    A leaf's terminal wealth depends only on the T positions on its path,
    so the kernel runs once per distinct leaf wealth: on the path grid,
    resolution^T strategies that hold every node of depth t at the t-th
    grid coordinate.  Each leaf's column is then broadcast over the
    positions off its path into the (resolution^N x leaves) matrix of the
    full grid, whose entries equal the kernel's on every grid strategy.
    """
    tree = market.tree
    interior = tree.interior
    if resolution ** len(interior) > _ORACLE_CAP:
        return None
    grid = np.linspace(-radius, radius, resolution)
    mesh = np.meshgrid(*[grid] * tree.horizon, indexing="ij")
    path = np.stack([m.ravel() for m in mesh], axis=-1)  # (res^T, T)
    positions = path[:, [node.depth for node in interior]]
    leaf_wealth = roll(market.prices.stages(tree), positions, float(x0))[-1]
    kernel = satisfaction(preferences.utility, preferences.gain_loss,
                          leaf_wealth, reference)
    full = np.empty((resolution,) * len(interior) + (len(tree.leaves),))
    for j, leaf in enumerate(tree.leaves):
        # ids run breadth first, so the ancestors' axes come in path order
        shape = [1] * len(interior)
        node = leaf.parent
        while node is not None:
            shape[node.id] = resolution
            node = node.parent
        full[..., j] = kernel[:, j].reshape(shape)
    probs = np.asarray([leaf.prob for leaf in tree.leaves])
    values = full.reshape(-1, len(tree.leaves)) @ probs
    return float(np.max(values))


def certify_equilibrium(market: Market, preferences: Preferences,
                        candidate: Strategy, x0: float,
                        config: EquilibriumConfig | None = None,
                        stack=None) -> CertificationReport:
    """Check the equilibrium condition analytically and by enumeration.

    The analytic side measures the best-response residual at the candidate.
    The oracle side enumerates every strategy on the configured per-node
    position grid and verifies that none improves the candidate's self-value
    by more than the quadratic slack (half the curvature cap times the
    squared grid spacing times the horizon).  Trees whose grid would exceed
    ``_ORACLE_CAP`` strategies get the analytic check only.  A best response
    with a clamped or exhausted on-path solution is not certified, and the
    notice says so.
    """
    config = config or EquilibriumConfig()
    market.require_certified()
    if stack is None:
        stack = envelope_stack(market, preferences)
    response, values = best_response(market, preferences, candidate, x0,
                                     stack=stack,
                                     foc_tolerance=config.foc_tolerance)
    analytic = response.sup_distance(candidate)
    stats = values[0].stats
    flagged = stats.clamped or stats.exhausted
    passed = analytic <= config.tolerance and not flagged
    notices = ([f"best response flagged: {stats.clamped} clamped, "
                f"{stats.exhausted} exhausted on-path solutions"]
               if flagged else [])

    radius = config.oracle_radius
    if radius is None:
        radius = _default_radius(stack, x0)
    resolution = config.oracle_resolution
    spacing = 2.0 * radius / (resolution - 1)
    with np.errstate(over="ignore"):
        curve_cap = max(float(np.asarray(stack[t].curve_cap(x0)))
                        for t in range(market.horizon))
    slack = 0.5 * curve_cap * spacing ** 2 * market.horizon

    reference = terminal_wealth_law(market.tree, market.prices, candidate, x0)
    best_value = _oracle_sweep(market, preferences, reference, x0, radius,
                               resolution)
    self_value = evaluate_self_value(market, preferences, candidate, x0)
    if best_value is None:
        notices.append("grid too large; analytic check only")
        return CertificationReport(analytic, None, None, True, resolution,
                                   passed, "; ".join(notices))
    margin = best_value - self_value
    return CertificationReport(analytic, margin, slack, False, resolution,
                               passed and margin <= slack, "; ".join(notices))


def _starts(market: Market, config: EquilibriumConfig, x0: float,
            seed: int, stack) -> list[Strategy]:
    """The zero strategy, the explicit starts, then uniform draws."""
    tree = market.tree
    rng = np.random.default_rng(seed)
    radius = config.start_radius
    if radius is None:
        radius = _default_radius(stack, x0)
    starts: list[Strategy] = [Strategy.constant(tree, 0.0)]
    starts.extend(config.explicit_starts)
    while len(starts) < max(config.starts, len(starts)):
        starts.append(Strategy(rng.uniform(-radius, radius,
                                           size=len(tree.interior))))
    return starts


def find_equilibria(market: Market, preferences: Preferences,
                    config: EquilibriumConfig, x0: float,
                    seed: int = 0, stack=None) -> EquilibriumSet:
    """Multistart search: zero strategy, explicit starts, then random draws.

    Converged strategies within ``_DEDUP_FACTOR * tolerance`` of each other
    in sup-norm count as one equilibrium; the preferred index maximises the
    self-value among converged reports, with values within the 1e-12
    arithmetic tolerance tied and broken toward the lowest residual.  An
    empty converged set is a valid (honest) outcome.
    """
    market.require_certified()
    if stack is None:
        stack = envelope_stack(market, preferences)
    reports = [iterate_fixed_point(market, preferences, config, start, x0,
                                   stack=stack, start_id=k)
               for k, start in enumerate(_starts(market, config, x0, seed,
                                                 stack))]

    distinct: list[int] = []
    for k, report in enumerate(reports):
        if not report.converged:
            continue
        if all(report.strategy.sup_distance(reports[j].strategy)
               > _DEDUP_FACTOR * config.tolerance for j in distinct):
            distinct.append(k)

    preferred = None
    converged = [k for k, r in enumerate(reports) if r.converged]
    if converged:
        # maximise the self-value; values within the 1e-12 arithmetic
        # tolerance count as tied and the cleanest (lowest-residual) run wins
        top = max(reports[k].value for k in converged)
        tied = [k for k in converged if reports[k].value >= top - VALUE_TOL]
        preferred = min(tied, key=lambda k: (reports[k].residual, k))
    return EquilibriumSet(tuple(reports), tuple(distinct), preferred)
