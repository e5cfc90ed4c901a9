"""Backward dynamic programming and the best-response strategy.

One-step strictly concave maximization over the position (solved on the
first-order condition with a safeguarded Newton iteration), the backward
value recursion with exact envelope derivatives, and the forward pass that
turns the stage optimizers into a node-indexed strategy.

The Newton iteration is one coroutine (``_newton``) that yields probe
positions, so a stage can run all of its pending one-step problems in
lockstep rounds: each round asks the next stage once, through
``evaluate_many(nodes, xs)``, for the columns (v, v', v'') at the children
of every problem at its probe, so a terminal next stage costs one
satisfaction-kernel call per round.  A solve that stops at the probe just
evaluated takes its envelope from that probe's columns.  The rounds are
exact: ``evaluate_many`` returns, memoizes and warm-starts exactly as
evaluating the pairs one by one, depth first, would.

Evaluators are pure in (node, wealth); their memo tables are private per
solve instance, so distinct solves never share mutable state.  Grid caches
are filled at construction and read-only afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .market import (
    ChildEdges,
    Market,
    PriceModel,
    ScenarioTree,
    TreeNode,
    child_edges,
    edge_table,
    wealth,
)
from .preferences import (
    Preferences,
    ReferenceDistribution,
    StageEnvelopes,
    build_envelope_stack,
    satisfaction,
)


class SolveError(RuntimeError):
    """Raised when the one-step solver cannot run as contracted."""


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

class Strategy:
    """A position per non-terminal tree node."""

    def __init__(self, positions: Mapping[int, float]) -> None:
        self.positions = {int(k): float(v) for k, v in positions.items()}
        for h in self.positions.values():
            if not math.isfinite(h):
                raise SolveError("positions must be finite")

    @classmethod
    def constant(cls, tree: ScenarioTree, h: float) -> "Strategy":
        return cls({node.id: h for node in tree.interior})

    def at(self, node: TreeNode) -> float:
        return self.positions[node.id]

    def __getitem__(self, node_id: int) -> float:
        return self.positions[node_id]

    def covers(self, tree: ScenarioTree) -> bool:
        return all(node.id in self.positions for node in tree.interior)

    def sup_distance(self, other: "Strategy") -> float:
        keys = self.positions.keys() | other.positions.keys()
        return max(abs(self.positions.get(k, 0.0) - other.positions.get(k, 0.0))
                   for k in keys)

    def max_abs(self) -> float:
        return max(abs(h) for h in self.positions.values())

    def blend(self, other: "Strategy", weight: float) -> "Strategy":
        """(1 - weight) * self + weight * other, node-wise."""
        keys = self.positions.keys() | other.positions.keys()
        return Strategy({k: (1.0 - weight) * self.positions.get(k, 0.0)
                         + weight * other.positions.get(k, 0.0)
                         for k in keys})

    def shift(self, delta: Mapping[int, float] | float) -> "Strategy":
        if np.isscalar(delta):
            return Strategy({k: h + float(delta)
                             for k, h in self.positions.items()})
        return Strategy({k: h + float(delta.get(k, 0.0))
                         for k, h in self.positions.items()})

    def in_position_ball(self, tree: ScenarioTree, bound: float,
                         chi: float) -> bool:
        """Membership in the bounded Hoelder strategy ball.

        Positions at depth t (held for period t + 1) must be at most
        ``bound`` in absolute value and have Hoelder modulus ``bound`` at
        exponent chi / 2^(T - t) over same-depth node pairs.
        """
        if self.max_abs() > bound:
            return False
        for t, level in enumerate(tree.levels[:-1]):
            exponent = chi / 2.0 ** (tree.horizon - t)
            for i, node in enumerate(level):
                for other in level[i + 1:]:
                    gap = abs(self.at(node) - self.at(other))
                    if gap > bound * node.distance(other) ** exponent + 1e-12:
                        return False
        return True

    def rows(self, tree: ScenarioTree) -> list[list]:
        """CSV rows: node id, depth, position."""
        return [[node.id, node.depth, repr(self.at(node))]
                for node in tree.interior]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Strategy({self.positions})"


# ---------------------------------------------------------------------------
# one-step objective and its derivative
# ---------------------------------------------------------------------------

def one_step_objective(v_next, prices: PriceModel, node: TreeNode, x: float,
                       h: float) -> tuple[float, float, float]:
    """Value, position derivative and curvature of the one-step objective.

    Holding ``h`` at ``node`` with wealth ``x`` gives the expected
    next-stage value Gamma(h) = E v(x + h f), its derivative
    gamma(h) = E v'(x + h f) f and d gamma / dh = E v''(x + h f) f^2, which
    is strictly negative on certified models.
    """
    if node.is_terminal:
        raise SolveError("the one-step objective needs a non-terminal node")
    return _probe(v_next, child_edges(prices, node), x, h)


def _probe(v_next, edges: ChildEdges, x: float, h: float
           ) -> tuple[float, float, float]:
    """:func:`one_step_objective` from one ``evaluate_many`` call over the
    children, summed in child order."""
    v, v1, v2 = v_next.evaluate_many(edges.children,
                                     [x + h * f for f in edges.increments])
    big = small = slope = 0.0
    for a, a1, a2, f, p in zip(v, v1, v2, edges.increments, edges.probs):
        big += p * a
        small += p * a1 * f
        slope += p * a2 * f * f
    return big, small, slope


# ---------------------------------------------------------------------------
# one-step solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OneStepSolution:
    """Root of the one-step first-order condition."""

    position: float
    residual: float
    bracket: tuple[float, float]
    iterations: int
    #: set when the derivative kept one sign on the whole bracket, which
    #: cannot happen on a certified model; the returned position is the
    #: better bracket endpoint
    clamped: bool = False
    #: set when the safeguarded Newton loop used up ``max_iterations``
    #: without meeting its target; the returned position is the best iterate
    exhausted: bool = False


def _sign(value: float) -> int:
    if value > 0.0:
        return 1
    if value < 0.0:
        return -1
    return 0


def _newton(node: TreeNode, x: float, bracket: float,
            foc_tolerance: float = 1e-10, max_iterations: int = 100,
            initial: float | None = None):
    """The safeguarded Newton iteration of :func:`solve_one_step`.

    A generator: it yields each probe position ``h``, expects
    ``(gamma(h), d gamma / dh)`` sent back, and returns the
    :class:`OneStepSolution`.  It reads nothing else, so a driver may probe
    any number of such problems together.  The guards on the bracket and
    the node raise before the first probe.
    """
    if not bracket > 0.0:
        raise SolveError(f"degenerate position bracket {bracket!r}")
    if node.is_terminal:
        raise SolveError("the one-step objective needs a non-terminal node")
    target = min(foc_tolerance * 1e-3, foc_tolerance)

    evals = 0
    if initial is not None and abs(initial) < bracket and initial != 0.0:
        h, previous = float(initial), math.inf
        for _ in range(8):
            g_h, s_h = yield h
            evals += 1
            if not (math.isfinite(g_h) and math.isfinite(s_h) and s_h < 0.0):
                break
            if abs(g_h) <= target:
                return OneStepSolution(h, abs(g_h), (-bracket, bracket),
                                       evals)
            if abs(g_h) > 0.5 * previous:
                break
            previous = abs(g_h)
            step = h - g_h / s_h
            if not abs(step) < bracket:
                break
            h = step

    g0, _ = yield 0.0
    evals += 1
    if abs(g0) <= target or g0 == 0.0:
        return OneStepSolution(0.0, abs(g0), (-bracket, bracket), evals)

    # expand toward the root by doubling: the derivative is strictly
    # decreasing, so the root sits past any probe sharing the sign of g(0)
    direction = 1.0 if g0 > 0.0 else -1.0
    near, g_near = 0.0, g0
    probe = direction * min(1.0, bracket)
    far = None
    while far is None:
        g_probe, _ = yield probe
        evals += 1
        if math.isnan(g_probe):
            probe *= 0.5
            if abs(probe) < 1e-12:
                raise SolveError("the first-order condition is not finite "
                                 f"near node {node.id}, x={x!r}")
            continue
        if g_probe == 0.0:
            return OneStepSolution(probe, 0.0, (-bracket, bracket), evals)
        if _sign(g_probe) != _sign(g0):
            far = probe
            break
        near, g_near = probe, g_probe
        if abs(probe) >= bracket:
            # constant sign up to the bracket edge: the model violates its
            # certificate; clamp and flag
            return OneStepSolution(probe, abs(g_probe), (-bracket, bracket),
                                   evals, clamped=True)
        probe = direction * min(abs(probe) * 2.0, bracket)

    # orient so that g(lo) > 0 > g(hi)
    if g_near > 0.0:
        lo, hi = near, far
    else:
        lo, hi = far, near

    h = 0.5 * (lo + hi)
    best_h, best_res = 0.0, abs(g0)
    for _ in range(max_iterations):
        g_h, s_h = yield h
        evals += 1
        if math.isfinite(g_h) and abs(g_h) < best_res:
            best_h, best_res = h, abs(g_h)
        if not math.isfinite(g_h):
            h = 0.5 * (lo + hi)
            continue
        if abs(g_h) <= target or g_h == 0.0:
            break
        if g_h > 0.0:
            lo = h
        else:
            hi = h
        if abs(hi - lo) <= 4.0 * abs(h) * 2.3e-16 + 5e-324:
            break
        newton = h - g_h / s_h if (math.isfinite(s_h) and s_h < 0.0) else None
        lo_, hi_ = min(lo, hi), max(lo, hi)
        if newton is not None and lo_ < newton < hi_:
            h = newton
        else:
            h = 0.5 * (lo + hi)
    else:
        return OneStepSolution(best_h, best_res, (-bracket, bracket), evals,
                               exhausted=True)
    return OneStepSolution(best_h, best_res, (-bracket, bracket), evals)


def solve_one_step(v_next, prices: PriceModel, node: TreeNode, x: float,
                   bracket: float, foc_tolerance: float = 1e-10,
                   max_iterations: int = 100,
                   initial: float | None = None,
                   edges: ChildEdges | None = None) -> OneStepSolution:
    """Unique maximizer of the one-step objective at ``(node, x)``.

    The first-order condition is strictly decreasing in the position, so a
    sign-change interval inside ``[-bracket, bracket]`` pins the root; the
    interval is located by doubling outward from the origin and the root is
    polished by Newton steps safeguarded with bisection.  The target is as
    far below ``foc_tolerance`` as double precision allows.  ``initial``
    seeds a short unsafeguarded Newton burst (worth it when a nearby
    problem was just solved); the bracketed flow is the fallback.
    ``edges`` passes the node's row of a precomputed :func:`edge_table`.
    """
    newton = _newton(node, x, bracket, foc_tolerance, max_iterations,
                     initial)
    h = next(newton)
    if edges is None:
        edges = child_edges(prices, node)
    try:
        while True:
            h = newton.send(_probe(v_next, edges, x, h)[1:])
    except StopIteration as done:
        return done.value


# ---------------------------------------------------------------------------
# value functions
# ---------------------------------------------------------------------------

@dataclass
class SolveStats:
    """Work counters shared by the stages of one value recursion."""

    #: one-step problems solved
    solves: int = 0
    #: first-order-condition evaluations over all solves
    foc_evals: int = 0
    #: requests answered from a memo without a new solve
    memo_hits: int = 0
    #: solutions flagged ``clamped``
    clamped: int = 0
    #: solutions flagged ``exhausted``
    exhausted: int = 0
    #: solutions whose certified bracket is infinite
    unbounded: int = 0
    #: largest first-order-condition residual of any solution
    max_residual: float = 0.0
    #: one-step problems solved, per stage
    stage_solves: dict = field(default_factory=dict)

    def record(self, solution: OneStepSolution, stage: int | None) -> None:
        self.solves += 1
        self.stage_solves[stage] = self.stage_solves.get(stage, 0) + 1
        self.foc_evals += solution.iterations
        self.clamped += solution.clamped
        self.exhausted += solution.exhausted
        self.unbounded += math.isinf(solution.bracket[1])
        self.max_residual = max(self.max_residual, solution.residual)


class TerminalValue:
    """Stage-T value: expected satisfaction against a fixed reference law.

    Independent of the history; the evaluator returns the value and its
    first two derivatives in wealth as exact sums over the reference atoms.
    A list of wealths gives the three columns (v, v', v'') from one kernel
    call, each element equal to its single-wealth evaluation;
    ``evaluate_many`` makes that call over all of its wealths.
    """

    stage: int | None = None

    def __init__(self, preferences: Preferences,
                 reference: ReferenceDistribution) -> None:
        self.preferences = preferences
        self.reference = reference
        self._ref_u = np.asarray(preferences.utility.u(reference.wealths),
                                 dtype=float)

    def evaluate(self, node: TreeNode | None, x: float | list[float]):
        return satisfaction(self.preferences.utility,
                            self.preferences.gain_loss,
                            x if type(x) is list else float(x),
                            self.reference, derivatives=True,
                            ref_u=self._ref_u)

    def evaluate_many(self, nodes: Sequence[TreeNode], xs: Sequence[float]
                      ) -> tuple[list[float], list[float], list[float]]:
        return self.evaluate(None, list(xs))


class RecursiveValue:
    """Stage-t value backed by on-demand exact recursion.

    Each evaluation solves the one-step problem against the next stage's
    evaluator and returns the optimal value together with its derivatives
    from the envelope identities: the first derivative is the expected
    next-stage slope at the optimizer, the second combines the expected
    curvature with the optimizer's wealth sensitivity (implicit function
    rule on the first-order condition).

    ``evaluate_many(nodes, xs)`` returns the columns (v, v', v'') and solves
    its pending problems in lockstep rounds: each round gathers the
    children of every unsolved problem at its next probe (or of a solved
    one at its optimizer) and asks the next stage for all of them in one
    ``evaluate_many`` call, so a terminal next stage costs one kernel call
    per round.  A solve that stops at the probe just evaluated takes its
    envelope from that round's columns.  The results, the memos and the
    ``warm`` seeds equal those of evaluating the pairs one by one: a node's
    problems run in successive waves in request order, a repeated pair is
    solved once, and every sum accumulates in child order.

    ``bracket_fn`` maps a wealth, or an array of wealths (one call per
    wave), to the radius of the optimizer bracket.
    """

    def __init__(self, prices: PriceModel, next_value,
                 bracket_fn: Callable[..., float | np.ndarray],
                 edges: Mapping[int, ChildEdges],
                 foc_tolerance: float = 1e-10, stage: int | None = None,
                 warm: dict[int, float] | None = None,
                 stats: SolveStats | None = None) -> None:
        self.prices = prices
        self.next_value = next_value
        self.bracket_fn = bracket_fn
        self.foc_tolerance = foc_tolerance
        self.stage = stage
        #: last optimizer per node, shared across rebuilds to seed Newton
        self.warm = warm if warm is not None else {}
        #: the tree's :func:`edge_table`
        self.edges = edges
        self.stats = stats if stats is not None else SolveStats()
        self._solutions: dict[tuple[int, float], OneStepSolution] = {}
        self._values: dict[tuple[int, float], tuple[float, float, float]] = {}

    def solution(self, node: TreeNode, x: float) -> OneStepSolution:
        key = (node.id, float(x))
        hit = self._solutions.get(key)
        if hit is not None:
            self.stats.memo_hits += 1
            return hit
        hit = solve_one_step(self.next_value, self.prices, node, x,
                             float(self.bracket_fn(x)), self.foc_tolerance,
                             initial=self.warm.get(node.id),
                             edges=self.edges.get(node.id))
        self._store(key, hit)
        return hit

    def evaluate(self, node: TreeNode, x: float) -> tuple[float, float, float]:
        v, v1, v2 = self.evaluate_many([node], [x])
        return v[0], v1[0], v2[0]

    def evaluate_many(self, nodes: Sequence[TreeNode], xs: Sequence[float]
                      ) -> tuple[Sequence[float], ...]:
        keys = [(node.id, float(x)) for node, x in zip(nodes, xs)]
        waves: list[list[tuple[TreeNode, float]]] = []
        queued: dict[int, int] = {}
        seen = set()
        for node, key in zip(nodes, keys):
            if key in self._values or key in seen:
                self.stats.memo_hits += 1
                continue
            seen.add(key)
            wave = queued.get(node.id, 0)
            queued[node.id] = wave + 1
            if wave == len(waves):
                waves.append([])
            waves[wave].append((node, key[1]))
        for wave in waves:
            self._run(wave)
        return tuple(zip(*[self._values[key] for key in keys])) or ((), (), ())

    def _run(self, wave: list[tuple[TreeNode, float]]) -> None:
        """Solve and evaluate one wave of distinct nodes in lockstep.

        A lane is ``(node, x, edges, newton, h)``: the running :func:`_newton`
        and its next probe, or None and an optimizer still to be evaluated."""
        fresh = [x for node, x in wave if (node.id, x) not in self._solutions]
        # one bracket call per wave; equal to the scalar calls bit for bit
        brackets = iter(np.broadcast_to(self.bracket_fn(np.array(fresh)),
                                        (len(fresh),)).tolist()
                        if fresh else ())
        lanes = []
        for node, x in wave:
            solved = self._solutions.get((node.id, x))
            if solved is None:
                newton = _newton(node, x, next(brackets), self.foc_tolerance,
                                 initial=self.warm.get(node.id))
                h = next(newton)  # the node guards raise here
            else:
                self.stats.memo_hits += 1
                newton, h = None, solved.position
            lanes.append((node, x, self.edges[node.id], newton, h))
        while lanes:
            v, v1, v2 = self.next_value.evaluate_many(
                [c for lane in lanes for c in lane[2].children],
                [x + h * f for _, x, edges, _, h in lanes
                 for f in edges.increments])
            live, stop = [], 0
            for node, x, edges, newton, h in lanes:
                start = stop
                stop += len(edges.increments)
                if newton is not None:
                    small = slope = 0.0
                    for a1, a2, f, p in zip(v1[start:stop], v2[start:stop],
                                            edges.increments, edges.probs):
                        small += p * a1 * f
                        slope += p * a2 * f * f
                    try:
                        live.append((node, x, edges, newton,
                                     newton.send((small, slope))))
                        continue
                    except StopIteration as done:
                        solution = done.value
                    self._store((node.id, x), solution)
                    if solution.position.hex() != h.hex():
                        # the best iterate is an earlier probe
                        live.append((node, x, edges, None, solution.position))
                        continue
                self._values[(node.id, x)] = self._envelope(
                    node, edges, v[start:stop], v1[start:stop], v2[start:stop])
            lanes = live

    def _store(self, key: tuple[int, float], solution: OneStepSolution
               ) -> None:
        self._solutions[key] = solution
        self.warm[key[0]] = solution.position
        self.stats.record(solution, self.stage)

    @staticmethod
    def _envelope(node: TreeNode, edges: ChildEdges, v: Sequence[float],
                  v1: Sequence[float], v2: Sequence[float]
                  ) -> tuple[float, float, float]:
        """(v, v', v'') from the next-stage columns at the optimizer."""
        value = slope = dgam_dx = dgam_dh = 0.0
        for a, a1, a2, f, p in zip(v, v1, v2, edges.increments, edges.probs):
            value += p * a
            slope += p * a1
            dgam_dx += p * a2 * f
            dgam_dh += p * a2 * f * f
        if dgam_dh == 0.0:
            raise SolveError(f"flat first-order condition at node {node.id}; "
                             "the increment law is degenerate")
        dh_dx = -dgam_dx / dgam_dh
        curve = math.fsum(p * a2 * (1.0 + f * dh_dx)
                          for a2, f, p in zip(v2, edges.increments,
                                              edges.probs))
        return value, slope, curve


class GridValue:
    """Grid-cached stage value with monotone-cubic interpolation.

    An accelerator behind the same evaluator interface.  Its values are
    interpolated, not checked against the exact backing, and wealths
    outside the grid are extrapolated silently.
    """

    def __init__(self, exact: RecursiveValue, nodes: Sequence[TreeNode],
                 x_grid: np.ndarray) -> None:
        from scipy.interpolate import PchipInterpolator

        self.exact = exact
        #: one-step solves stay exact
        self.solution = exact.solution
        self.stage = exact.stage
        self.stats = exact.stats
        self.x_grid = np.asarray(x_grid, dtype=float)
        grid = self.x_grid.tolist()
        columns = np.asarray(exact.evaluate_many(
            [node for node in nodes for _ in grid], grid * len(nodes)))
        columns = columns.reshape(3, len(nodes), self.x_grid.size)
        self._interp: dict[int, tuple] = {
            node.id: tuple(PchipInterpolator(self.x_grid, column[i],
                                             extrapolate=True)
                           for column in columns)
            for i, node in enumerate(nodes)}

    def evaluate(self, node: TreeNode, x: float) -> tuple[float, float, float]:
        v, v1, v2 = self._interp[node.id]
        return float(v(x)), float(v1(x)), float(v2(x))

    def evaluate_many(self, nodes: Sequence[TreeNode], xs: Sequence[float]
                      ) -> tuple[list[float], ...]:
        rows = [self.evaluate(node, x) for node, x in zip(nodes, xs)]
        return tuple(map(list, zip(*rows))) or ([], [], [])


def value_recursion(tree: ScenarioTree, prices: PriceModel,
                    terminal: TerminalValue,
                    stack: Sequence[StageEnvelopes],
                    foc_tolerance: float = 1e-10,
                    backing: str = "exact",
                    grid_points: int = 129,
                    grid_radius: float | None = None,
                    x0: float = 0.0,
                    warm: dict[int, float] | None = None) -> list:
    """Evaluators for stages 0..T (index = stage).

    ``backing='exact'`` chains on-demand recursion (the ground truth);
    ``backing='grid'`` caches each stage on a per-node wealth grid spanning
    ``x0 +- grid_radius`` and interpolates.  Grid stages still solve their
    one-step problems exactly; only next-stage evaluations interpolate.
    Every stage reads one :func:`edge_table` built here and counts its work
    in one :class:`SolveStats` (``values[t].stats`` for t < T).
    """
    if backing not in ("exact", "grid"):
        raise SolveError(f"unknown backing {backing!r}")
    edges = edge_table(tree, prices)
    stats = SolveStats()
    values: list = [None] * (tree.horizon + 1)
    values[tree.horizon] = terminal
    if backing == "grid":
        if grid_radius is None:
            grid_radius = 2.0 * tree.horizon * prices.c_f
        x_grid = np.linspace(x0 - grid_radius, x0 + grid_radius,
                             int(grid_points))
    for t in range(tree.horizon - 1, -1, -1):
        exact = RecursiveValue(prices, values[t + 1],
                               stack[t].position_bound, edges, foc_tolerance,
                               stage=t, warm=warm, stats=stats)
        if backing == "grid":
            values[t] = GridValue(exact, tree.levels[t], x_grid)
        else:
            values[t] = exact
    return values


# ---------------------------------------------------------------------------
# the best response
# ---------------------------------------------------------------------------

def terminal_wealth_law(tree: ScenarioTree, prices: PriceModel, strategy,
                        x0: float) -> ReferenceDistribution:
    """Law of terminal wealth under a strategy, equal wealths merged."""
    path = wealth(tree, prices, strategy, x0)
    return ReferenceDistribution.from_weights(path.leaf_law(tree))


def best_response(market: Market, preferences: Preferences,
                  reference_strategy, x0: float,
                  stack: Sequence[StageEnvelopes] | None = None,
                  foc_tolerance: float = 1e-10,
                  backing: str = "exact", grid_points: int = 129,
                  warm: dict[int, float] | None = None,
                  ) -> tuple[Strategy, list]:
    """Optimal strategy against the reference generated by another strategy.

    Builds the reference law from the reference strategy's terminal wealth,
    runs the backward recursion, then substitutes forward from the root.
    Returns the strategy and the stage evaluators (stage 0 holds the
    optimal value at ``x0``).
    """
    market.require_certified()
    tree, prices = market.tree, market.prices
    if stack is None:
        stack = build_envelope_stack(preferences,
                                     market.certificate.alpha_star,
                                     prices.c_f, prices.chi, tree.horizon)
    reference = terminal_wealth_law(tree, prices, reference_strategy, x0)
    values = value_recursion(tree, prices,
                             TerminalValue(preferences, reference), stack,
                             foc_tolerance, backing=backing,
                             grid_points=grid_points, x0=x0, warm=warm)
    edges = edge_table(tree, prices)
    positions: dict[int, float] = {}
    node_wealth = {tree.root.id: float(x0)}
    for node in tree.interior:
        x = node_wealth[node.id]
        sol = values[node.depth].solution(node, x)
        positions[node.id] = sol.position
        row = edges[node.id]
        for child, f in zip(row.children, row.increments):
            node_wealth[child.id] = x + sol.position * f
    return Strategy(positions), values
