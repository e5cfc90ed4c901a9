"""The best-response strategy, and the exact recursion that is its oracle.

Against a fixed reference law, terminal wealth is affine in the vector h of
interior positions, so the self-value V(h) = sum_l pi_l s(W_l(h)) is one
smooth concave function of h.  :func:`best_response` maximizes it by
Newton's method on the whole tree (:func:`_tree_newton`).  Because the
dynamics are linear, differential dynamic programming with exact second
derivatives is Newton's method (Dunn and Bertsekas, JOTA 63(1), 1989):

* Stage arrays.  The market's one edge table, ``PriceModel.stages``,
  keeps per depth the edges out of its nodes as (nodes x atoms) increment
  and probability arrays; breadth first ids make each node's children
  contiguous, so a depth's quantities are the next depth's flat vector
  reshaped.  The exact recursion reads the same arrays, a node's row at a
  time (``PriceModel.row``).
* The pass.  The one roll-forward of wealth (:func:`~refequil.market.roll`,
  which :func:`~refequil.market.wealth` also runs) gives the leaves, and
  one kernel call there gives s, a = s' and b = s''.  The backward sweep
  (:func:`_sweep`) forms per node Q_h = E p f a, Q_x = E p a, Q_hh =
  E p f^2 b, Q_hx = E p f b and Q_xx = E p b, the step k = -Q_h/Q_hh and
  the gain K = -Q_hx/Q_hh, and hands the depth above the model a = Q_x +
  Q_hx k and b = Q_xx - Q_hx^2/Q_hh; alongside, the node's value
  E[s | node] and the raw conditional mean E[s' | node].  The forward pass
  (:func:`_direction`) rolls dh = k + K dx down the tree.
* The Armijo rule.  A step is accepted when the value rises by at least
  1e-4 of the first-order increase the model predicts, or when the
  largest conditional first-order condition falls by that fraction; it
  is halved up to ``_HALVINGS`` times.  A trial point costs one kernel
  call, and an accepted one's pass is the next iteration's.  Once the
  predicted increase is below the value's rounding resolution, only the
  full step is tried.
* Stopping.  The run stops when every node's conditional first-order
  condition sum p f E[s' | child] is at most the one-step target
  ``foc_tolerance * 1e-3``.  When no step is accepted (the rounding
  floor) it stops where it is, flagged ``exhausted`` unless that
  condition is at most ``foc_tolerance``; so it is after
  ``_NEWTON_ITERATIONS`` iterations.  Q_hh >= 0 or a non-finite Q_hh
  raises the flat-first-order-condition :class:`SolveError`.
* Starts.  A cold run starts at h = 0 and returns exactly 0 when 0 meets
  the target; a Picard run starts each best response at its previous one.

The exact recursion is the ground truth that verify's sampled (node, x)
checks and the tests read: :func:`value_recursion` chains on-demand
evaluators (:class:`RecursiveValue`) that solve the one-step problem
(strictly concave in the position, solved on its first-order condition by
a safeguarded Newton iteration) against the next stage and return the
value with exact envelope derivatives.  A best response returns those
evaluators with its on-path results stored in their memos
(:func:`_record`): each on-path solution, value and warm seed is the
pass's, so ``values[t].solution(node, x)`` at the strategy's wealths is
the strategy's position bit for bit, and any other (node, x) is solved
exactly.

The recursion's Newton iteration is one coroutine (``_newton``) that
yields probe positions: a Newton burst from the tangent seed, or from 0
when a node has no seed yet, then a bracketed flow that starts from the
burst's own probes.  A stage thus runs all of its pending one-step
problems together, as lanes, in rounds: each round asks the next stage
once, through ``evaluate_many(nodes, xs)``, for the columns (v, v', v'')
at the children of every problem at its probe, so a terminal next stage
costs one satisfaction-kernel call per round.  A solve that stops at the
probe just evaluated takes its envelope from that probe's columns.  The
rounds are exact: ``evaluate_many`` returns, memoizes and warm-starts
exactly as evaluating the pairs one by one, depth first, would.  A
depth-first recursion would give the same bits from about twice the
kernel calls.  :func:`solve_one_step` drives the same ``_newton`` one
problem and one probe at a time, through :func:`one_step_objective`.

Evaluators are pure in (node, wealth).  Their solution and value memos
are private to one value recursion.  Recursions on one tree may share
``warm``: per node, the wealth, optimizer and optimizer slope dh*/dx of
its last solve, which seed Newton on the tangent (see
:func:`tangent_seed`).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .market import (
    Market,
    PriceModel,
    ScenarioTree,
    StageArrays,
    TreeNode,
    roll,
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
    """A position per non-terminal tree node: one float64 vector indexed by
    node id, as ids run breadth first (``tree.interior[k].id == k``).

    Built from a sequence, or a mapping whose keys are exactly ``0..n-1``;
    every position must be finite.  :func:`wealth` checks the length.
    """

    def __init__(self, positions: Sequence[float] | Mapping[int, float]
                 ) -> None:
        if isinstance(positions, Mapping):
            if set(positions) != set(range(len(positions))):
                raise SolveError(f"node ids {list(positions)} are not 0..n-1")
            positions = [positions[k] for k in range(len(positions))]
        self.positions = np.array(positions, dtype=np.float64)
        # builtins over tolist(), here and in the norms: a numpy reduction
        # costs more than the whole list on the few positions of a tree
        if self.positions.ndim != 1 or not all(
                map(math.isfinite, self.positions.tolist())):
            raise SolveError("positions must be one vector of finite values")

    @classmethod
    def constant(cls, tree: ScenarioTree, h: float) -> "Strategy":
        return cls(np.full(len(tree.interior), float(h)))

    def at(self, node: TreeNode) -> float:
        return float(self.positions[node.id])

    def __getitem__(self, node_id: int) -> float:
        return float(self.positions[node_id])

    def __len__(self) -> int:
        return len(self.positions)

    def _paired(self, other: "Strategy") -> np.ndarray:
        if other.positions.shape != self.positions.shape:
            raise SolveError(f"strategies of {len(self)} and {len(other)} "
                             "positions do not share a tree")
        return other.positions

    def sup_distance(self, other: "Strategy") -> float:
        return max(np.abs(self.positions - self._paired(other)).tolist())

    def max_abs(self) -> float:
        return max(np.abs(self.positions).tolist())

    def blend(self, other: "Strategy", weight: float) -> "Strategy":
        """(1 - weight) * self + weight * other, node-wise."""
        return Strategy((1.0 - weight) * self.positions
                        + weight * self._paired(other))

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
    is strictly negative on certified models.  The sums run over the next
    stage's columns at the children, in child order, and read the node's
    row of the stage arrays (:meth:`~refequil.market.PriceModel.row`).
    """
    if node.is_terminal:
        raise SolveError("the one-step objective needs a non-terminal node")
    increments, probs = prices.row(node)
    v, v1, v2 = v_next.evaluate_many(node.children,
                                     [x + h * f for f in increments])
    big = small = slope = 0.0
    for a, a1, a2, f, p in zip(v, v1, v2, increments, probs):
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
    #: bracket edge on the side of the root
    clamped: bool = False
    #: set when the solve used up ``max_iterations`` FOC evaluations
    #: without meeting its target; the returned position is the best iterate
    exhausted: bool = False
    #: set when the Newton burst from the seed ``initial`` met the target, so
    #: the bracketed flow did not run; a burst from 0 does not set it
    seeded: bool = False


def _foc_target(foc_tolerance: float) -> float:
    """The target of a first-order condition: as far below
    ``foc_tolerance`` as double precision allows."""
    return min(foc_tolerance * 1e-3, foc_tolerance)


def _newton(node: TreeNode, x: float, bracket: float,
            foc_tolerance: float = 1e-10, max_iterations: int = 100,
            initial: float | None = None):
    """The safeguarded Newton iteration of :func:`solve_one_step`.

    A generator: it yields each probe position ``h``, expects
    ``(gamma(h), d gamma / dh)`` sent back, and returns the
    :class:`OneStepSolution`.  It reads nothing else, so a driver may probe
    any number of such problems together.  The guards on the bracket and
    the node raise before the first probe.

    One flow, in which every probe counts.  A Newton burst starts at the
    seed ``initial`` (when it lies strictly inside the bracket and is not
    0) or at 0, whose Newton step is then the burst's second probe: at
    most 8 probes, while the residual halves and the steps stay inside
    the bracket.  gamma is strictly decreasing, so each probe also narrows
    where the root can be: above the largest probe with gamma > 0 (``lo``)
    and below the smallest with gamma < 0 (``hi``).  Once the burst fails,
    a known pair [lo, hi] is polished by Newton steps safeguarded with
    bisection; with one end known, the step from that end doubles outward
    until gamma changes sign, starting from the end's own Newton step (1
    where that is unusable).  ``max_iterations`` bounds every evaluation.
    """
    if not bracket > 0.0:
        raise SolveError(f"degenerate position bracket {bracket!r}")
    if node.is_terminal:
        raise SolveError("the one-step objective needs a non-terminal node")
    target = _foc_target(foc_tolerance)
    full = (-bracket, bracket)
    inf = math.inf

    seeded = initial is not None and abs(initial) < bracket and initial != 0.0
    h = float(initial) if seeded else 0.0
    evals, burst, previous, step = 0, 8, inf, 0.0
    lo = hi = None
    best_h, best_res = h, inf
    while True:
        if evals >= max_iterations:
            return OneStepSolution(best_h, best_res, full, evals,
                                   exhausted=True)
        g, s = yield h
        evals += 1
        res = abs(g)
        if res < best_res:
            if res <= target or g == 0.0:
                return OneStepSolution(h, res, full, evals, seeded=seeded)
            best_h, best_res = h, res
        if g > 0.0:
            if lo is None or h > lo:
                lo = h
        elif g < 0.0:
            if hi is None or h < hi:
                hi = h
        newton = h - g / s if res < inf and s < 0.0 else math.nan
        if burst:
            burst -= 1
            if (burst and res <= 0.5 * previous and abs(newton) < bracket
                    and newton != h):
                previous, h = res, newton
                continue
            burst, seeded = 0, False
        if lo is not None and hi is not None:
            if hi - lo <= 4.0 * abs(h) * 2.3e-16 + 5e-324:
                # the pair is a few ulps wide, or the probes' rounding
                # noise breaks monotonicity: no double is closer
                return OneStepSolution(best_h, best_res, full, evals)
            h = newton if lo < newton < hi else 0.5 * (lo + hi)
        elif lo is None and hi is None:
            # no probe has a sign: start over at 0, once
            if h == 0.0:
                raise SolveError("the first-order condition is not finite "
                                 f"near node {node.id}, x={x!r}")
            h = 0.0
        else:
            near, direction = (lo, 1.0) if hi is None else (hi, -1.0)
            if not step:
                step = max(abs(newton - h) if h == near and newton == newton
                           else 1.0, 2.0 * abs(near) * 2.3e-16 + 5e-324)
            elif g != g:
                step *= 0.5
                if step < 1e-12:
                    raise SolveError("the first-order condition is not "
                                     f"finite near node {node.id}, x={x!r}")
            elif abs(h) >= bracket:
                # one sign up to the bracket edge: the model violates its
                # certificate; clamp and flag
                return OneStepSolution(h, res, full, evals, clamped=True)
            else:
                step *= 2.0
            h = near + direction * step
            if not abs(h) < bracket:
                h = direction * bracket


def solve_one_step(v_next, prices: PriceModel, node: TreeNode, x: float,
                   bracket: float, foc_tolerance: float = 1e-10,
                   max_iterations: int = 100,
                   initial: float | None = None) -> OneStepSolution:
    """Unique maximizer of the one-step objective at ``(node, x)``.

    The first-order condition is strictly decreasing in the position, so a
    sign-change interval inside ``[-bracket, bracket]`` pins the root.  A
    short unsafeguarded Newton burst starts at ``initial`` (worth it when a
    nearby problem was just solved) or, without a usable seed, at 0.  If it
    misses the target, the probes it made give the interval, or its
    nearer end, from which the interval is located by doubling outward;
    the root is then polished by Newton steps safeguarded with bisection.
    The target is as far below ``foc_tolerance`` as double precision
    allows, and ``max_iterations`` bounds the evaluations of the whole
    solve (``exhausted`` flags a solve that ran out).

    One problem, one probe at a time (:func:`one_step_objective`); the
    value recursion solves its problems together, as lanes, with the same
    Newton iteration and the same sums.
    """
    newton = _newton(node, x, bracket, foc_tolerance, max_iterations,
                     initial)
    h = next(newton)
    try:
        while True:
            _, small, slope = one_step_objective(v_next, prices, node, x, h)
            h = newton.send((small, slope))
    except StopIteration as done:
        return done.value


# ---------------------------------------------------------------------------
# value functions
# ---------------------------------------------------------------------------

@dataclass
class SolveStats:
    """Work counters shared by the stages of one value recursion, and those
    of the tree-Newton run whose on-path solutions it holds.

    ``clamped``, ``exhausted`` and ``max_residual`` count both the
    recursion's solves and the on-path solutions a best response stores.
    """

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
    #: solutions flagged ``seeded``: finished by the seeded Newton burst
    seeded: int = 0
    #: solutions whose certified bracket is infinite
    unbounded: int = 0
    #: largest first-order-condition residual of any solution
    max_residual: float = 0.0
    #: one-step problems solved, per stage
    stage_solves: dict = field(default_factory=dict)
    #: Newton iterations of the best response on the whole tree
    newton_iterations: int = 0
    #: step halvings of its line searches
    halvings: int = 0
    #: its terminal-kernel calls, one per point evaluated
    kernel_calls: int = 0

    def record(self, solution: OneStepSolution, stage: int | None) -> None:
        self.solves += 1
        self.stage_solves[stage] = self.stage_solves.get(stage, 0) + 1
        self.foc_evals += solution.iterations
        self.clamped += solution.clamped
        self.exhausted += solution.exhausted
        self.seeded += solution.seeded
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


#: per node id, the wealth x, optimizer h* and optimizer slope dh*/dx of the
#: node's last solve
WarmTable = dict[int, tuple[float, float, float]]


def tangent_seed(last: tuple[float, float, float] | None, x: float
                 ) -> float | None:
    """Newton seed at wealth ``x`` from a node's last solve ``(x', h*,
    dh*/dx)``: the first-order prediction h* + dh*/dx (x - x'), or h* when
    that is not finite; None without a last solve."""
    if last is None:
        return None
    x_last, h, dh_dx = last
    seed = h + dh_dx * (x - x_last)
    return seed if math.isfinite(seed) else h


class RecursiveValue:
    """Stage-t value backed by on-demand exact recursion.

    Each evaluation solves the one-step problem against the next stage's
    evaluator and returns the optimal value together with its derivatives
    from the envelope identities: the first derivative is the expected
    next-stage slope at the optimizer, the second combines the expected
    curvature with the optimizer's wealth sensitivity (implicit function
    rule on the first-order condition).  That rule's optimizer slope dh*/dx
    goes into ``warm`` beside the wealth and the optimizer, and the node's
    next solve starts on the tangent (:func:`tangent_seed`).

    ``evaluate_many(nodes, xs)`` returns the columns (v, v', v'') and solves
    its pending problems together, in rounds: each round gathers the
    children of every unsolved problem at its next probe (or of a solved
    one at its optimizer) and asks the next stage for all of them in one
    ``evaluate_many`` call, so a terminal next stage costs one kernel call
    per round.  A solve that stops at the probe just evaluated takes its
    envelope from that round's columns.  The results, the memos and the
    ``warm`` seeds equal those of evaluating the pairs one by one: a node's
    problems run in successive waves in request order, a repeated pair is
    solved once, and every sum accumulates in child order.

    ``bracket_fn`` maps a wealth, or an array of wealths, to the radius of
    the optimizer bracket; each wave makes one call over its fresh wealths,
    which equals the scalar calls bit for bit.
    """

    def __init__(self, prices: PriceModel, next_value,
                 bracket_fn: Callable[..., float | np.ndarray],
                 foc_tolerance: float = 1e-10, stage: int | None = None,
                 warm: WarmTable | None = None,
                 stats: SolveStats | None = None) -> None:
        self.prices = prices
        self.next_value = next_value
        self.bracket_fn = bracket_fn
        self.foc_tolerance = foc_tolerance
        self.stage = stage
        #: (x, h*, dh*/dx) of the last solve per node, shared across
        #: rebuilds to seed Newton
        self.warm = warm if warm is not None else {}
        self.stats = stats if stats is not None else SolveStats()
        self._solutions: dict[tuple[int, float], OneStepSolution] = {}
        self._values: dict[tuple[int, float], tuple[float, float, float]] = {}

    def solution(self, node: TreeNode, x: float) -> OneStepSolution:
        """The one-step solution at ``(node, x)``: a one-lane wave, which
        also stores the value there."""
        key = (node.id, float(x))
        hit = self._solutions.get(key)
        if hit is not None:
            self.stats.memo_hits += 1
            return hit
        self._run([(node, key[1])])
        return self._solutions[key]

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
        """Solve and evaluate one wave of distinct nodes together.

        A lane is ``(node, x, increments, probs, newton, h)``: the node's
        row of the stage arrays, read once, and the running :func:`_newton`
        and its next probe, or None and an optimizer still to be evaluated.
        """
        fresh = [x for node, x in wave if (node.id, x) not in self._solutions]
        brackets = iter(np.broadcast_to(
            self.bracket_fn(np.array(fresh)), (len(fresh),)).tolist()
            if fresh else [])
        lanes = []
        for node, x in wave:
            solved = self._solutions.get((node.id, x))
            if solved is None:
                newton = _newton(node, x, next(brackets), self.foc_tolerance,
                                 initial=tangent_seed(self.warm.get(node.id),
                                                      x))
                h = next(newton)  # the node guards raise here
            else:
                self.stats.memo_hits += 1
                newton, h = None, solved.position
            lanes.append((node, x, *self.prices.row(node), newton, h))
        while lanes:
            nodes = [c for lane in lanes for c in lane[0].children]
            xs = [x + h * f for _, x, increments, _, _, h in lanes
                  for f in increments]
            v, v1, v2 = self.next_value.evaluate_many(nodes, xs)
            live, stop = [], 0
            for node, x, increments, probs, newton, h in lanes:
                start = stop
                stop += len(increments)
                if newton is not None:
                    small = slope = 0.0
                    for a1, a2, f, p in zip(v1[start:stop], v2[start:stop],
                                            increments, probs):
                        small += p * a1 * f
                        slope += p * a2 * f * f
                    try:
                        live.append((node, x, increments, probs, newton,
                                     newton.send((small, slope))))
                        continue
                    except StopIteration as done:
                        solution = done.value
                    self._store((node.id, x), solution)
                    if solution.position.hex() != h.hex():
                        # the best iterate is an earlier probe
                        live.append((node, x, increments, probs, None,
                                     solution.position))
                        continue
                self._values[(node.id, x)], dh_dx = self._envelope(
                    node, increments, probs, v[start:stop], v1[start:stop],
                    v2[start:stop])
                self.warm[node.id] = (x, h, dh_dx)
            lanes = live

    def _store(self, key: tuple[int, float], solution: OneStepSolution
               ) -> None:
        self._solutions[key] = solution
        self.stats.record(solution, self.stage)

    @staticmethod
    def _envelope(node: TreeNode, increments: list[float],
                  probs: list[float], v: Sequence[float],
                  v1: Sequence[float], v2: Sequence[float]
                  ) -> tuple[tuple[float, float, float], float]:
        """(v, v', v'') from the next-stage columns at the optimizer, and
        the optimizer's slope dh*/dx."""
        value = slope = dgam_dx = dgam_dh = 0.0
        for a, a1, a2, f, p in zip(v, v1, v2, increments, probs):
            value += p * a
            slope += p * a1
            dgam_dx += p * a2 * f
            dgam_dh += p * a2 * f * f
        if dgam_dh == 0.0:
            raise SolveError(f"flat first-order condition at node {node.id}; "
                             "the increment law is degenerate")
        dh_dx = -dgam_dx / dgam_dh
        curve = math.fsum(p * a2 * (1.0 + f * dh_dx)
                          for a2, f, p in zip(v2, increments, probs))
        return (value, slope, curve), dh_dx


def value_recursion(tree: ScenarioTree, prices: PriceModel,
                    terminal: TerminalValue,
                    stack: Sequence[StageEnvelopes],
                    foc_tolerance: float = 1e-10,
                    warm: WarmTable | None = None) -> list:
    """Evaluators for stages 0..T (index = stage), chained on-demand exact
    recursions over the terminal stage.

    Every stage reads the tree's stage arrays and counts its work in one
    :class:`SolveStats` (``values[t].stats`` for t < T).  ``warm`` (node to
    the wealth, optimizer and optimizer slope of its last solve), filled
    here, may be shared with other recursions on the same tree.
    """
    prices.stages(tree)
    stats = SolveStats()
    values: list = [None] * (tree.horizon + 1)
    values[tree.horizon] = terminal
    for t in range(tree.horizon - 1, -1, -1):
        values[t] = RecursiveValue(prices, values[t + 1],
                                   stack[t].position_bound, foc_tolerance,
                                   stage=t, warm=warm, stats=stats)
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
                  initial: Strategy | None = None,
                  ) -> tuple[Strategy, list]:
    """Optimal strategy against the reference generated by another strategy.

    Builds the reference law from the reference strategy's terminal wealth
    and maximizes the self-value by Newton's method on the whole tree
    (:func:`_tree_newton`), from ``initial`` or, cold, from 0.  Returns the
    strategy and the stage evaluators of the exact recursion (stage 0 holds
    the optimal value at ``x0``), whose memos hold the pass's on-path
    solutions and values (:func:`_record`).
    """
    market.require_certified()
    tree, prices = market.tree, market.prices
    if stack is None:
        stack = build_envelope_stack(preferences,
                                     market.certificate.alpha_star,
                                     prices.c_f, prices.chi, tree.horizon)
    reference = terminal_wealth_law(tree, prices, reference_strategy, x0)
    terminal = TerminalValue(preferences, reference)
    start = np.zeros(len(tree.interior))
    if initial is not None:
        start = Strategy(start)._paired(initial)
    found, exhausted, counts = _tree_newton(prices.stages(tree), terminal,
                                            float(x0), start, foc_tolerance)
    values = value_recursion(tree, prices, terminal, stack, foc_tolerance,
                             warm={})
    _record(values, tree, stack, foc_tolerance, found, exhausted, counts)
    return Strategy(found.positions), values


# ---------------------------------------------------------------------------
# Newton's method on the whole tree
# ---------------------------------------------------------------------------

#: Newton iterations of one best response
_NEWTON_ITERATIONS = 50
#: step halvings of one backtracking line search
_HALVINGS = 20
#: sufficient-increase fraction of the Armijo rule
_ARMIJO = 1e-4
#: rounding resolution of the self-value, relative to its size: a step
#: whose predicted increase is below it is judged by the FOC instead
_VALUE_ULPS = 64 * 2.0 ** -52


class _Point(NamedTuple):
    """A Newton run at one position vector, after its pass."""

    #: one position per interior node, indexed by node id
    positions: np.ndarray
    #: wealth at every node, one array per depth 0..T
    #: (:func:`~refequil.market.roll`)
    wealths: list
    #: :func:`_sweep`'s per-depth rows
    rows: list
    #: the self-value
    value: float
    #: the first-order increase of the full Newton step
    rise: float
    #: the largest conditional |FOC| (NaN if any is)
    residual: float


def _sweep(stages: Sequence[StageArrays], columns) -> tuple[list, float,
                                                           float, float]:
    """The backward pass at one point, from the leaf columns (s, s', s'').

    Each depth reads five rows over its children: the model slope a and
    curvature b, the raw slope mean E[s' | child], the value E[s | child]
    and the model increase, and forms all their edge sums from one
    contraction with the depth's moments (sum_j p f^k for k = 0, 1, 2).
    Per depth it returns a tuple of per-node arrays: the conditional
    first-order condition sum p f E[s' | child], Q_hh, the step k =
    -Q_h/Q_hh, the gain K = -Q_hx/Q_hh, and the node's value, slope mean
    and model curvature b = Q_xx - Q_hx^2/Q_hh; the depth above reads a =
    Q_x + Q_hx k and b.  Also returns the self-value, the increase of the
    quadratic model along the full Newton step's first order (the sum over
    nodes of path probability times Q_h k) and the largest conditional
    |FOC| (NaN if any is).
    """
    s, s1, s2 = columns
    below = np.array((s1, s2, s1, s, [0.0] * len(s)))
    rows = []
    with np.errstate(all="ignore"):
        for stage in reversed(stages):
            sums = np.einsum("qij,ijk->qik",
                             below.reshape(5, *stage.increments.shape),
                             stage.moments)
            q_x, q_xx, mean, value, rise = sums[:, :, 0]
            q_h, q_hx, foc = sums[:3, :, 1]
            q_hh = sums[1, :, 2]
            k, gain = -q_h / q_hh, -q_hx / q_hh
            below = np.array((q_x + q_hx * k, q_xx + q_hx * gain, mean,
                              value, rise + q_h * k))
            rows.append((foc, q_hh, k, gain, value, mean, below[1]))
        rows.reverse()
        residual = float(np.max(np.abs(np.concatenate([r[0] for r in rows]))))
    return rows, float(below[3, 0]), float(below[4, 0]), residual


def _direction(stages: Sequence[StageArrays], rows: list) -> np.ndarray:
    """The Newton step: dh = k + K dx, rolled down the tree from dx = 0,
    as one vector indexed by node id."""
    dx = np.zeros(1)
    steps = []
    with np.errstate(all="ignore"):
        for stage, (_, _, k, gain, *_) in zip(stages, rows):
            dh = k + gain * dx
            steps.append(dh)
            dx = (dx[:, None] + dh[:, None] * stage.increments).ravel()
    return np.concatenate(steps)


def _check(stages: Sequence[StageArrays], point: _Point) -> None:
    """Raise unless every node's first-order condition is finite and its
    curvature Q_hh negative, naming the first offending node of the
    deepest depth: a failure spreads from there to every ancestor."""
    rows = point.rows
    if (math.isfinite(point.residual)
            and all((row[1] < 0.0).all() for row in rows)):
        return
    for stage, x, (foc, *_) in zip(stages[::-1], point.wealths[-2::-1],
                                   rows[::-1]):
        bad = ~np.isfinite(foc)
        if bad.any():
            i = int(np.argmax(bad))
            raise SolveError("the first-order condition is not finite near "
                             f"node {stage.offset + i}, x={float(x[i])!r}")
    for stage, (_, q_hh, *_) in zip(stages[::-1], rows[::-1]):
        bad = ~(q_hh < 0.0)
        if bad.any():
            raise SolveError("flat first-order condition at node "
                             f"{stage.offset + int(np.argmax(bad))}; the "
                             "increment law is degenerate")


def _tree_newton(stages: Sequence[StageArrays], terminal: TerminalValue,
                 x0: float, positions: np.ndarray, foc_tolerance: float
                 ) -> tuple[_Point, bool, tuple[int, int, int]]:
    """Maximize the self-value over the positions by Newton's method, from
    ``positions``, asking ``terminal`` for the leaf columns.

    Each iteration runs :func:`_sweep` and :func:`_direction` at the
    current point and tries the full step.  A trial point costs one kernel
    call, and an accepted one's pass is the next iteration's.  A step is
    accepted when the self-value rises by ``_ARMIJO`` of the predicted
    first-order increase (the Armijo rule) or the largest conditional FOC
    falls by that fraction, which a utility tabulated value and slope
    apart needs, as its value and slope disagree; else it is halved, up to
    ``_HALVINGS`` times.  Once the predicted increase is below the value's
    rounding resolution, only the full step is tried, on the FOC alone.
    The run stops when the largest FOC meets the one-step target
    ``foc_tolerance * 1e-3``; when no step is accepted (the rounding
    floor), or after ``_NEWTON_ITERATIONS``, it stops at the current point,
    which is ``exhausted`` unless its FOC is at most ``foc_tolerance`` at
    the floor.

    Returns the last :class:`_Point`, whether the run is ``exhausted`` and
    its ``(iterations, halvings, kernel calls)``.
    """
    target = _foc_target(foc_tolerance)
    calls = 0

    def point(h: np.ndarray) -> _Point:
        nonlocal calls
        xs = roll(stages, h, x0)
        calls += 1
        return _Point(h, xs, *_sweep(stages,
                                     terminal.evaluate(None, xs[-1].tolist())))

    current = point(positions)
    _check(stages, current)
    iterations = halvings = 0
    while True:
        if current.residual <= target:
            exhausted = False
            break
        if iterations == _NEWTON_ITERATIONS:
            exhausted = True
            break
        iterations += 1
        step = _direction(stages, current.rows)
        # below its rounding resolution the value cannot judge a step: then
        # only the full step is tried, on the first-order condition alone
        judged = current.rise > _VALUE_ULPS * abs(current.value)
        trial, alpha = None, 1.0
        for _ in range(_HALVINGS + 1 if judged else 1):
            moved = current.positions + alpha * step
            if np.array_equal(moved, current.positions):
                break
            candidate = point(moved)
            if (judged and candidate.value
                    >= current.value + _ARMIJO * alpha * current.rise
                    or candidate.residual
                    <= (1.0 - _ARMIJO * alpha) * current.residual):
                trial = candidate
                break
            alpha *= 0.5
            halvings += 1
        if trial is None:
            # the rounding floor: no step raises the value or lowers the
            # first-order condition
            exhausted = current.residual > foc_tolerance
            break
        current = trial
        _check(stages, current)
    return current, exhausted, (iterations, halvings, calls)


def _record(values: list, tree: ScenarioTree,
            stack: Sequence[StageEnvelopes], foc_tolerance: float,
            point: _Point, exhausted: bool,
            counts: tuple[int, int, int]) -> None:
    """Store a Newton run's on-path results in the exact recursion.

    At each interior node and its wealth in ``point`` (the keys
    :func:`~refequil.market.wealth` gives the returned strategy): a
    :class:`OneStepSolution` with the node's position, its conditional
    |FOC| as the residual and its certified bracket (one ``position_bound``
    call per depth), flagged ``clamped`` outside the bracket and
    ``exhausted`` above the target when the run was; the value (v, E s',
    b); and the warm seed (x, h*, K), K being dh*/dx.  The stats count the
    run's work and its flags.
    """
    target = _foc_target(foc_tolerance)
    stats, warm = values[0].stats, values[0].warm
    stats.newton_iterations, stats.halvings, stats.kernel_calls = counts
    iterations = counts[0]
    for t, (level, x, row) in enumerate(zip(tree.levels, point.wealths,
                                            point.rows)):
        foc, _, _, gain, v, slope, curve = row
        h = point.positions[level[0].id:level[0].id + len(level)]
        residual = np.abs(foc)
        bound = stack[t].position_bound(x)
        clamped = np.abs(h) > bound
        missed = residual > target if exhausted else np.zeros(len(x), bool)
        stats.clamped += int(clamped.sum())
        stats.exhausted += int(missed.sum())
        stats.max_residual = max(stats.max_residual, float(residual.max()))
        solutions, memo = values[t]._solutions, values[t]._values
        for node, xi, hi, ri, bi, ci, ei, ki, vi, si, bb in zip(
                level, x.tolist(), h.tolist(), residual.tolist(),
                bound.tolist(), clamped.tolist(), missed.tolist(),
                gain.tolist(), v.tolist(), slope.tolist(), curve.tolist()):
            key = (node.id, xi)
            solutions[key] = OneStepSolution(hi, ri, (-bi, bi), iterations,
                                             clamped=ci, exhausted=ei)
            memo[key] = (vi, si, bb)
            warm[node.id] = (xi, hi, ki)
