"""The best-response strategy and every stage value by Newton's method on
the tree, and the exact recursion that is the tests' oracle.

Against a fixed reference law, terminal wealth is affine in the vector h of
interior positions, so the self-value V(h) = sum_l pi_l s(W_l(h)) is one
smooth concave function of h, and so is the value below any node at any
wealth, over the positions of the node's subtree.  One engine maximizes
them all: Newton's method on a batch of subtrees rooted at nodes of one
depth, one start wealth per row (:func:`_tree_newton`).  Because the
dynamics are linear, differential dynamic programming with exact second
derivatives is Newton's method (Dunn and Bertsekas, JOTA 63(1), 1989).  A
pass rolls wealth forward to the leaves over the market's stage arrays
(:func:`~refequil.market.roll`), makes one kernel call there, sweeps the
model back (:func:`_sweep`) and rolls the step down (:func:`_direction`).
Breadth first ids make a node's subtree a contiguous row block of each
deeper stage array, so a batch is gathered with no new table
(:func:`_subtrees`).

:func:`best_response` runs the batch of one at the root and returns one
:class:`NewtonValue` per stage t < T, with the :class:`TerminalValue` at
T.  ``values[t].solution(node, x)`` and ``values[t].evaluate(node, x)``
answer any stage-t node at any wealth from the run on its subtree, and
``evaluate_many`` runs all of its misses as one batch.  The best
response's on-path results are stored in their memos (:func:`_record`),
so at the strategy's wealths ``solution`` returns the strategy's
positions bit for bit.

:func:`value_recursion` chains memoized depth-first evaluators
(:class:`RecursiveValue`) that solve the one-step problem (strictly
concave in the position, solved on its first-order condition by
:func:`solve_one_step`) against the next stage and return the value with
exact envelope derivatives.  Each probe asks the next stage for every
child, so its work grows as (probes x atoms)^(T - t); only tests build it.
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
    """The position at one (node, x), with its first-order residual."""

    position: float
    residual: float
    bracket: tuple[float, float]
    iterations: int
    #: set when the position lies outside its certified bracket, which
    #: cannot happen on a certified model: a Newton position is kept, a
    #: one-step solve returns the bracket edge on the side of the root
    clamped: bool = False
    #: set when the solve used up its iteration budget without meeting its
    #: target; the returned position is the best iterate
    exhausted: bool = False


def _foc_target(foc_tolerance: float) -> float:
    """The target of a first-order condition: as far below
    ``foc_tolerance`` as double precision allows."""
    return min(foc_tolerance * 1e-3, foc_tolerance)


def solve_one_step(v_next, prices: PriceModel, node: TreeNode, x: float,
                   bracket: float, foc_tolerance: float = 1e-10,
                   max_iterations: int = 100) -> OneStepSolution:
    """Unique maximizer of the one-step objective at ``(node, x)``.

    The first-order condition gamma(h) (:func:`one_step_objective`) is
    strictly decreasing, so a sign change inside ``[-bracket, bracket]``
    pins the root.  A Newton burst from 0 takes at most 8 probes while the
    residual halves and the steps stay inside the bracket; every probe
    narrows the root to above the largest probe with gamma > 0 (``lo``)
    and below the smallest with gamma < 0 (``hi``).  Then a known pair is
    polished by Newton steps safeguarded with bisection, or the step from
    the one known end doubles outward from its Newton step (or 1) until
    gamma changes sign.  ``max_iterations`` bounds the evaluations, and
    ``exhausted`` flags a solve that ran out.
    """
    if not bracket > 0.0:
        raise SolveError(f"degenerate position bracket {bracket!r}")
    if node.is_terminal:
        raise SolveError("the one-step objective needs a non-terminal node")
    target = _foc_target(foc_tolerance)
    full = (-bracket, bracket)
    inf = math.inf

    h, evals, burst, previous, step = 0.0, 0, 8, inf, 0.0
    lo = hi = None
    best_h, best_res = h, inf
    while True:
        if evals >= max_iterations:
            return OneStepSolution(best_h, best_res, full, evals,
                                   exhausted=True)
        _, g, s = one_step_objective(v_next, prices, node, x, h)
        evals += 1
        res = abs(g)
        if res < best_res:
            if res <= target or g == 0.0:
                return OneStepSolution(h, res, full, evals)
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
            burst = 0
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


# ---------------------------------------------------------------------------
# value functions
# ---------------------------------------------------------------------------

@dataclass
class SolveStats:
    """Work counters shared by the stages of one set of evaluators; the
    flags and ``max_residual`` count a best response's stored on-path
    solutions too."""

    #: (node, x) solutions computed after the best response
    solves: int = 0
    #: their iterations: Newton iterations, or the one-step solver's
    #: first-order-condition evaluations
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
    #: solutions computed, per stage
    stage_solves: dict = field(default_factory=dict)
    #: Newton iterations on the tree, summed over the rows of every run
    newton_iterations: int = 0
    #: step halvings of their line searches, summed likewise
    halvings: int = 0
    #: terminal-kernel calls of every run, one per point evaluated
    kernel_calls: int = 0

    def record(self, solution: OneStepSolution, stage: int | None) -> None:
        self.solves += 1
        self.stage_solves[stage] = self.stage_solves.get(stage, 0) + 1
        self.foc_evals += solution.iterations
        self.flag(solution)

    def flag(self, solution: OneStepSolution) -> None:
        """Count a solution's flags and residual."""
        self.clamped += solution.clamped
        self.exhausted += solution.exhausted
        self.unbounded += math.isinf(solution.bracket[1])
        self.max_residual = max(self.max_residual, solution.residual)


class TerminalValue:
    """Stage-T value: expected satisfaction against a fixed reference law,
    with its first two wealth derivatives, as exact sums over the reference
    atoms.  A list (an array) of wealths gives the three columns (v, v',
    v'') as lists (arrays) from one kernel call, each element equal to its
    single-wealth evaluation."""

    def __init__(self, preferences: Preferences,
                 reference: ReferenceDistribution) -> None:
        self.preferences = preferences
        self.reference = reference
        self._ref_u = np.asarray(preferences.utility.u(reference.wealths),
                                 dtype=float)

    def evaluate(self, node: TreeNode | None, x):
        return satisfaction(self.preferences.utility,
                            self.preferences.gain_loss, x, self.reference,
                            derivatives=True, ref_u=self._ref_u)

    def evaluate_many(self, nodes: Sequence[TreeNode], xs: Sequence[float]
                      ) -> tuple[list[float], list[float], list[float]]:
        return self.evaluate(None, list(xs))


class _StageValue:
    """A memoized stage-t evaluator: ``solution(node, x)`` gives the
    :class:`OneStepSolution` there, ``evaluate(node, x)`` the value and
    its wealth derivatives (v, v', v''), ``evaluate_many(nodes, xs)`` their
    columns.  The memo maps (node id, x) to the (solution, value) pair;
    ``_solve`` fills it for a list of distinct new pairs.  ``bracket_fn``
    maps a wealth, or an array of them, to the radius of the optimizer
    bracket."""

    def __init__(self, bracket_fn: Callable[..., float | np.ndarray],
                 foc_tolerance: float = 1e-10, stage: int | None = None,
                 stats: SolveStats | None = None) -> None:
        self.bracket_fn = bracket_fn
        self.foc_tolerance = foc_tolerance
        self.stage = stage
        self.stats = stats if stats is not None else SolveStats()
        self._memo: dict[tuple[int, float],
                         tuple[OneStepSolution, tuple[float, float, float]]] = {}

    def solution(self, node: TreeNode, x: float) -> OneStepSolution:
        key = (node.id, float(x))
        if key in self._memo:
            self.stats.memo_hits += 1
        else:
            self._solve([(node, key[1])])
        return self._memo[key][0]

    def evaluate(self, node: TreeNode, x: float) -> tuple[float, float, float]:
        v, v1, v2 = self.evaluate_many([node], [x])
        return v[0], v1[0], v2[0]

    def evaluate_many(self, nodes: Sequence[TreeNode], xs: Sequence[float]
                      ) -> tuple[Sequence[float], ...]:
        keys = [(node.id, float(x)) for node, x in zip(nodes, xs)]
        fresh = {key: node for node, key in zip(nodes, keys)
                 if key not in self._memo}
        self.stats.memo_hits += len(keys) - len(fresh)
        if fresh:
            self._solve([(node, x) for (_, x), node in fresh.items()])
        return tuple(zip(*[self._memo[key][1] for key in keys])) or ((), (), ())


class NewtonValue(_StageValue):
    """Stage-t value by Newton's method on the subtrees below the stage's
    nodes (:func:`_tree_newton`), over the tree's stage arrays.

    A solution is the root position of the run on the node's subtree from
    wealth x, with the node's conditional |FOC| as its residual: flagged
    ``clamped`` outside the bracket, never moved, and ``exhausted`` when
    the run stopped short and the residual misses the target.  The value
    is the run's (v, E[s' | node], b).  All misses of one call run as one
    batch (split only where it would pass ``_BATCH_CELLS``); each row
    equals its run alone, so no grouping of the pairs changes an answer.
    The terminal stage is reached only through ``terminal.evaluate``.
    """

    def __init__(self, stages: Sequence[StageArrays],
                 terminal: TerminalValue, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stages = stages
        self.terminal = terminal

    def _solve(self, pairs: list[tuple[TreeNode, float]]) -> None:
        for node, _ in pairs:
            if node.depth != self.stage:
                raise SolveError(f"node {node.id} has depth {node.depth}, "
                                 f"not the evaluator's stage {self.stage}")
        # rows per run bound the kernel's (leaves x reference atoms) gaps
        leaves = (self.stages[-1].increments.size
                  // len(self.stages[self.stage].increments))
        rows = max(1, _BATCH_CELLS // (leaves * len(self.terminal.reference)))
        for start in range(0, len(pairs), rows):
            self._run(pairs[start:start + rows])

    def _run(self, pairs: list[tuple[TreeNode, float]]) -> None:
        first = self.stages[self.stage].offset
        trees = _subtrees(self.stages, self.stage,
                          np.array([node.id - first for node, _ in pairs]))
        x0 = np.array([x for _, x in pairs])
        width = sum(stage.increments.shape[-2] for stage in trees.stages)
        point, exhausted, iterations, halvings, calls = _tree_newton(
            trees, self.terminal, x0, np.zeros((len(pairs), width)),
            self.foc_tolerance)
        self.stats.newton_iterations += sum(iterations)
        self.stats.halvings += sum(halvings)
        self.stats.kernel_calls += calls
        self._store([node for node, _ in pairs], x0, point.positions[:, 0],
                    point.rows[0], exhausted, iterations)

    def _store(self, nodes: Sequence[TreeNode], xs: np.ndarray,
               h: np.ndarray, row: tuple, exhausted: Sequence[bool],
               iterations: Sequence[int], solved: bool = True) -> None:
        """Memoize ``nodes`` at wealths ``xs`` from one depth of a pass
        (:func:`_sweep`'s ``row``): the positions ``h`` with the
        conditional |FOC| as residual and the bracket ``bracket_fn(xs)``,
        flagged ``clamped`` outside it and ``exhausted`` above the target
        where the run was; and the values (v, E s', b).  The stats count
        them as solves when ``solved``, else only their flags."""
        foc, *_, v, slope, curve = row
        bound = np.broadcast_to(self.bracket_fn(xs), xs.shape)
        target = _foc_target(self.foc_tolerance)
        for node, x, hi, r, b, e, n, *value in zip(
                nodes, xs.tolist(), h.tolist(), np.abs(foc).tolist(),
                bound.tolist(), exhausted, iterations, v.tolist(),
                slope.tolist(), curve.tolist()):
            solution = OneStepSolution(hi, r, (-b, b), n, clamped=abs(hi) > b,
                                       exhausted=e and r > target)
            self._memo[(node.id, x)] = (solution, tuple(value))
            if solved:
                self.stats.record(solution, self.stage)
            else:
                self.stats.flag(solution)


def newton_values(tree: ScenarioTree, prices: PriceModel,
                  terminal: TerminalValue, stack: Sequence[StageEnvelopes],
                  foc_tolerance: float = 1e-10) -> list:
    """Evaluators for stages 0..T (index = stage): a :class:`NewtonValue`
    per stage t < T, bracketed by ``stack[t].position_bound`` and counting
    in one :class:`SolveStats`, and ``terminal`` at T."""
    stages, stats = prices.stages(tree), SolveStats()
    return [NewtonValue(stages, terminal, stack[t].position_bound,
                        foc_tolerance, t, stats)
            for t in range(tree.horizon)] + [terminal]


class RecursiveValue(_StageValue):
    """Stage-t value by the exact recursion, depth first: the test oracle.

    A new (node, x) solves the one-step problem against the next stage's
    evaluator (:func:`solve_one_step`) and takes the value from the
    envelope identities at the optimizer: v' is the expected next-stage
    slope there, v'' combines the expected curvature with the optimizer's
    wealth sensitivity dh*/dx (implicit function rule on the first-order
    condition).
    """

    def __init__(self, prices: PriceModel, next_value, *args,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.prices = prices
        self.next_value = next_value

    def _solve(self, pairs: list[tuple[TreeNode, float]]) -> None:
        for node, x in pairs:
            solution = solve_one_step(self.next_value, self.prices, node, x,
                                      float(self.bracket_fn(x)),
                                      self.foc_tolerance)
            increments, probs = self.prices.row(node)
            v, v1, v2 = self.next_value.evaluate_many(
                node.children, [x + solution.position * f for f in increments])
            dgam_dx = dgam_dh = 0.0
            for a2, f, p in zip(v2, increments, probs):
                dgam_dx += p * a2 * f
                dgam_dh += p * a2 * f * f
            if dgam_dh == 0.0:
                raise _flat_foc(node.id, increments, x)
            dh_dx = -dgam_dx / dgam_dh
            self._memo[(node.id, x)] = (solution, (
                math.fsum(p * a for a, p in zip(v, probs)),
                math.fsum(p * a1 for a1, p in zip(v1, probs)),
                math.fsum(p * a2 * (1.0 + f * dh_dx)
                          for a2, f, p in zip(v2, increments, probs))))
            self.stats.record(solution, self.stage)


def value_recursion(tree: ScenarioTree, prices: PriceModel,
                    terminal: TerminalValue,
                    stack: Sequence[StageEnvelopes],
                    foc_tolerance: float = 1e-10) -> list:
    """Evaluators for stages 0..T (index = stage), chained depth-first
    exact recursions over ``terminal``, counting in one
    :class:`SolveStats`: the oracle of the tests."""
    values: list = [terminal]
    stats = SolveStats()
    for t in range(tree.horizon - 1, -1, -1):
        values.insert(0, RecursiveValue(prices, values[0],
                                        stack[t].position_bound,
                                        foc_tolerance, t, stats))
    return values


# ---------------------------------------------------------------------------
# the best response
# ---------------------------------------------------------------------------

def terminal_wealth_law(tree: ScenarioTree, prices: PriceModel, strategy,
                        x0: float) -> ReferenceDistribution:
    """Law of terminal wealth under a strategy, equal wealths merged."""
    path = wealth(tree, prices, strategy, x0)
    return ReferenceDistribution.from_weights(path.leaf_law(tree))


def envelope_stack(market: Market, preferences: Preferences
                   ) -> list[StageEnvelopes]:
    """The envelope stack of ``preferences`` on a certified market: at its
    no-arbitrage level, increment bound, price exponent and horizon."""
    return build_envelope_stack(preferences, market.certificate.alpha_star,
                                market.prices.c_f, market.prices.chi,
                                market.horizon)


def best_response(market: Market, preferences: Preferences,
                  reference_strategy, x0: float,
                  stack: Sequence[StageEnvelopes] | None = None,
                  foc_tolerance: float = 1e-10,
                  initial: Strategy | None = None,
                  ) -> tuple[Strategy, list]:
    """Optimal strategy against the reference generated by another strategy.

    Builds the reference law from the reference strategy's terminal wealth
    and maximizes the self-value by Newton's method on the whole tree (the
    batch of one at the root), from ``initial`` or, cold, from 0.  Returns
    the strategy and the stage evaluators (:func:`newton_values`), whose
    memos hold the run's on-path solutions and values (:func:`_record`).
    """
    market.require_certified()
    tree, prices = market.tree, market.prices
    if stack is None:
        stack = envelope_stack(market, preferences)
    reference = terminal_wealth_law(tree, prices, reference_strategy, x0)
    terminal = TerminalValue(preferences, reference)
    start = np.zeros(len(tree.interior))
    if initial is not None:
        start = Strategy(start)._paired(initial)
    found, exhausted, iterations, halvings, calls = _tree_newton(
        _subtrees(prices.stages(tree), 0, np.zeros(1, dtype=int)),
        terminal, np.array([float(x0)]), start[None], foc_tolerance)
    values = newton_values(tree, prices, terminal, stack, foc_tolerance)
    _record(values, tree, found, exhausted[0],
            (iterations[0], halvings[0], calls))
    return Strategy(found.positions[0]), values


# ---------------------------------------------------------------------------
# Newton's method on batches of subtrees
# ---------------------------------------------------------------------------

#: Newton iterations of one run
_NEWTON_ITERATIONS = 50
#: kernel cells (leaves x reference atoms) of one batch run, at least a row
_BATCH_CELLS = 1 << 20
#: step halvings of one backtracking line search
_HALVINGS = 20
#: sufficient-increase fraction of the Armijo rule
_ARMIJO = 1e-4
#: rounding resolution of the self-value, relative to its size: a step
#: whose predicted increase is below it is judged by the FOC instead
_VALUE_ULPS = 64 * 2.0 ** -52
#: predicted increase, relative to the value, below which a falling FOC
#: also accepts a step; above it the value judges alone, as a FOC branch
#: there lets a run on a C^1 utility cycle between two points
_FOC_ONLY = 2.0 ** -26


class _Subtrees(NamedTuple):
    """The subtrees below some nodes of one depth, one per batch row."""

    #: their stage arrays, depth by depth below the roots, with a leading
    #: batch axis (but for the whole tree) and offsets local to a subtree
    stages: list
    #: per local depth, the (rows x nodes) node ids
    ids: list

    def take(self, rows: np.ndarray) -> "_Subtrees":
        """The subtrees of the batch rows ``rows``."""
        return _Subtrees([StageArrays(stage.offset, stage.increments[rows],
                                      stage.probs[rows], stage.moments[rows])
                          for stage in self.stages],
                         [ids[rows] for ids in self.ids])


def _subtrees(stages: Sequence[StageArrays], depth: int,
              rows: np.ndarray) -> _Subtrees:
    """The subtrees below the nodes in rows ``rows`` of depth ``depth``:
    each row's block of every deeper stage array; the whole tree is its
    own arrays, which broadcast as a batch of one."""
    if depth == 0 and len(rows) == 1:
        return _Subtrees(list(stages), [
            np.arange(stage.offset, stage.offset + len(stage.increments))
            for stage in stages])
    gathered, ids, offset, width = [], [], 0, 1
    for stage in stages[depth:]:
        block = rows[:, None] * width + np.arange(width)
        gathered.append(StageArrays(offset, stage.increments[block],
                                    stage.probs[block], stage.moments[block]))
        ids.append(stage.offset + block)
        offset += width
        width *= stage.increments.shape[1]
    return _Subtrees(gathered, ids)


class _Point(NamedTuple):
    """A batch of Newton runs at one position per row, after its pass."""

    #: (rows x interior nodes) positions, by local breadth-first id
    positions: np.ndarray
    #: wealth at every node, one (rows x nodes) array per local depth
    #: (:func:`~refequil.market.roll`)
    wealths: list
    #: :func:`_sweep`'s per-depth rows, each array flat over batch rows
    rows: list
    #: per row, the value at its root
    value: np.ndarray
    #: per row, the first-order increase of the full Newton step
    rise: np.ndarray
    #: per row, the largest conditional |FOC| (NaN if any is)
    residual: np.ndarray


def _sweep(stages: Sequence[StageArrays], columns) -> tuple[list, np.ndarray,
                                                           np.ndarray,
                                                           np.ndarray]:
    """The backward pass at one point, from the leaf columns (s, s', s'').

    Each depth reads five rows over its children: the model slope a and
    curvature b, the raw slope mean E[s' | child], the value E[s | child]
    and the model increase, and forms all their edge sums from one
    contraction with the depth's moments (sum_j p f^k for k = 0, 1, 2).
    Per depth it returns a tuple of per-node arrays: the conditional
    first-order condition sum p f E[s' | child], Q_hh, the step k =
    -Q_h/Q_hh, the gain K = -Q_hx/Q_hh, and the node's value, slope mean
    and model curvature b = Q_xx - Q_hx^2/Q_hh; the depth above reads a =
    Q_x + Q_hx k and b.  Also returns, per batch row, the value at its
    root, the increase of the quadratic model along the full Newton step's
    first order (the sum over nodes of path probability times Q_h k) and
    the largest conditional |FOC| (NaN if any is).
    """
    s, s1, s2 = columns
    below = np.array((s1, s2, s1, s, [0.0] * len(s)))
    rows = []
    with np.errstate(all="ignore"):
        for stage in reversed(stages):
            atoms = stage.increments.shape[-1]
            sums = np.einsum("qij,ijk->qik", below.reshape(5, -1, atoms),
                             stage.moments.reshape(-1, atoms, 3))
            q_x, q_xx, mean, value, rise = sums[:, :, 0]
            q_h, q_hx, foc = sums[:3, :, 1]
            q_hh = sums[1, :, 2]
            k, gain = -q_h / q_hh, -q_hx / q_hh
            below = np.array((q_x + q_hx * k, q_xx + q_hx * gain, mean,
                              value, rise + q_h * k))
            rows.append((foc, q_hh, k, gain, value, mean, below[1]))
        rows.reverse()
        size = below.shape[1]
        residual = np.max(np.abs(np.concatenate(
            [row[0].reshape(size, -1) for row in rows], axis=1)), axis=1)
    return rows, below[3], below[4], residual


def _direction(stages: Sequence[StageArrays], rows: list, size: int
               ) -> np.ndarray:
    """The Newton step of each of ``size`` batch rows: dh = k + K dx,
    rolled down its subtree from dx = 0."""
    dx = np.zeros(size)
    steps = []
    with np.errstate(all="ignore"):
        for stage, (_, _, k, gain, *_) in zip(stages, rows):
            dh = k + gain * dx
            steps.append(dh.reshape(size, -1))
            dx = (dx[:, None]
                  + dh[:, None] * stage.increments.reshape(len(dh), -1)
                  ).ravel()
    return np.concatenate(steps, axis=1)


def _check(trees: _Subtrees, point: _Point) -> None:
    """Raise unless every node's first-order condition is finite and its
    curvature Q_hh negative, naming the first offending node of the
    deepest depth: a failure spreads from there to every ancestor."""
    rows = point.rows
    if (np.isfinite(point.residual).all()
            and all((row[1] < 0.0).all() for row in rows)):
        return
    for k in reversed(range(len(rows))):
        bad = ~np.isfinite(rows[k][0])
        if bad.any():
            i = int(np.argmax(bad))
            x = float(point.wealths[k].ravel()[i])
            raise SolveError("the first-order condition is not finite near "
                             f"node {trees.ids[k].flat[i]}, x={x!r}")
    for k in reversed(range(len(rows))):
        bad = ~(rows[k][1] < 0.0)
        if bad.any():
            i = int(np.argmax(bad))
            increments = trees.stages[k].increments
            raise _flat_foc(int(trees.ids[k].flat[i]),
                            increments.reshape(-1, increments.shape[-1])[i],
                            float(point.wealths[k].ravel()[i]))


def _flat_foc(node_id: int, increments, x: float) -> SolveError:
    """The error of a first-order condition with no negative slope in the
    position at ``node_id`` and wealth ``x``, naming its cause: a row of
    increments that are all zero, or else a value curvature that vanishes
    at the wealths the node reaches (U' and U'' underflow there)."""
    if not np.any(increments):
        return SolveError(f"flat first-order condition at node {node_id}; "
                          "the increment law is degenerate")
    return SolveError(f"flat first-order condition at node {node_id}, "
                      f"x={x!r}; U' and U'' underflow near this wealth")


def _merge(base: _Point, trial: _Point, rows: np.ndarray,
           picks: np.ndarray) -> _Point:
    """``base`` with its batch rows ``rows`` taken from rows ``picks`` of
    ``trial``."""
    def put(into: np.ndarray, part: np.ndarray) -> np.ndarray:
        into = np.array(into).reshape(len(base.value), -1)
        into[rows] = part.reshape(len(trial.value), -1)[picks]
        return into

    return _Point(put(base.positions, trial.positions),
                  [put(a, b) for a, b in zip(base.wealths, trial.wealths)],
                  [tuple(put(a, b).ravel() for a, b in zip(old, new))
                   for old, new in zip(base.rows, trial.rows)],
                  *(put(a, b).ravel() for a, b in zip(base[3:], trial[3:])))


def _tree_newton(trees: _Subtrees, terminal: TerminalValue, x0: np.ndarray,
                 positions: np.ndarray, foc_tolerance: float
                 ) -> tuple[_Point, list, list, list, int]:
    """Maximize each batch row's value over its subtree's positions by
    Newton's method, from the row of ``positions`` and wealth ``x0`` at
    its root, asking ``terminal`` for the leaf columns.

    Each iteration runs :func:`_sweep` and :func:`_direction` at the
    current point and tries the full step of every pending row; a trial
    point costs one kernel call over the rows still searching, and an
    accepted one's pass is the next iteration's.  A row's step is accepted
    when its value rises by ``_ARMIJO`` of the predicted first-order
    increase (the Armijo rule) or, once that increase is below
    ``_FOC_ONLY`` of the value, its largest conditional FOC falls by that
    fraction (a tabulated utility's value and slope disagree near the
    optimum); else it is halved, up to ``_HALVINGS`` times.  Below the value's rounding
    resolution only the full step is tried, on the FOC alone.  A row stops
    when its largest FOC meets the one-step target ``foc_tolerance *
    1e-3`` (a start that does is returned as it is); at the rounding floor
    (no step accepted), or after ``_NEWTON_ITERATIONS``, it stops where it
    is, ``exhausted`` unless its FOC is at most ``foc_tolerance`` at the
    floor.  A row that has stopped, or accepted its step, is frozen, so
    each row equals its run alone bit for bit; when every row accepts its
    full step at once, the trial point is taken whole.  A non-finite FOC
    or Q_hh >= 0 raises (:func:`_check`).

    Returns the last :class:`_Point`; per row, as lists, whether the run
    is ``exhausted``, its iterations and its halvings; and the kernel
    calls.
    """
    target = _foc_target(foc_tolerance)
    size = len(x0)
    calls = 0

    def point(h: np.ndarray, rows: np.ndarray | None = None) -> _Point:
        nonlocal calls
        part = trees if rows is None else trees.take(rows)
        xs = roll(part.stages, h, x0 if rows is None else x0[rows])
        calls += 1
        return _Point(h, xs, *_sweep(part.stages, terminal.evaluate(
            None, xs[-1].ravel())))

    current = point(positions)
    _check(trees, current)
    iterations, halvings = [0] * size, [0] * size
    exhausted = [False] * size
    pending = list(range(size))
    while True:
        value, rise, residual = (current.value.tolist(), current.rise.tolist(),
                                 current.residual.tolist())
        searching = []
        for i in pending:
            if residual[i] <= target:
                continue
            if iterations[i] == _NEWTON_ITERATIONS:
                exhausted[i] = True
                continue
            iterations[i] += 1
            searching.append(i)
        pending = searching
        if not pending:
            break
        step = _direction(trees.stages, current.rows, size)
        # below its rounding resolution the value cannot judge a step: then
        # only the full step is tried, on the first-order condition alone
        judged = [r > _VALUE_ULPS * abs(v) for v, r in zip(value, rise)]
        # every row still searching has been halved as often as the others
        alpha, best, took_any = 1.0, current, [False] * size
        for attempt in range(_HALVINGS + 1):
            moved = current.positions + alpha * step
            same = (moved == current.positions).all(axis=1).tolist()
            searching = [i for i in searching
                         if (judged[i] or not attempt) and not same[i]]
            if not searching:
                break
            rows = None if len(searching) == size else np.array(searching)
            trial = point(moved if rows is None else moved[rows], rows)
            trial_value, trial_residual = (trial.value.tolist(),
                                           trial.residual.tolist())
            took = [j for j, i in enumerate(searching)
                    if judged[i] and trial_value[j]
                    >= value[i] + _ARMIJO * alpha * rise[i]
                    or rise[i] <= _FOC_ONLY * abs(value[i])
                    and trial_residual[j]
                    <= (1.0 - _ARMIJO * alpha) * residual[i]]
            if len(took) == size:
                best = trial
            elif took:
                best = _merge(best, trial, np.array(searching)[took],
                              np.array(took))
            for j in took:
                took_any[searching[j]] = True
            searching = [i for i in searching if not took_any[i]]
            for i in searching:
                halvings[i] += 1
            alpha *= 0.5
        for i in pending:
            if not took_any[i]:
                # the rounding floor: no step raises the value or lowers
                # the first-order condition
                exhausted[i] = residual[i] > foc_tolerance
        pending = [i for i in pending if took_any[i]]
        current = best
        _check(trees, current)
    return current, exhausted, iterations, halvings, calls


def _record(values: list, tree: ScenarioTree, point: _Point,
            exhausted: bool, counts: tuple[int, int, int]) -> None:
    """Store a best response's on-path results (the batch of one at the
    root) in the stage evaluators (:meth:`NewtonValue._store`), at each
    interior node and its wealth in ``point``: the keys
    :func:`~refequil.market.wealth` gives the returned strategy.  The
    stats count the run's work and the solutions' flags."""
    stats = values[0].stats
    stats.newton_iterations, stats.halvings, stats.kernel_calls = counts
    positions = point.positions[0]
    for value, level, x, row in zip(values, tree.levels, point.wealths,
                                    point.rows):
        value._store(level, x.ravel(),
                     positions[level[0].id:level[0].id + len(level)], row,
                     [exhausted] * len(level), [counts[0]] * len(level),
                     solved=False)
