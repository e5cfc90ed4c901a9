"""Finite-scenario market model.

Factor laws with finite support, the scenario tree they generate, price
increment models on that tree, the uniform no-arbitrage certificate, and
wealth accounting for self-financing strategies.

A market keeps one edge table, the stage arrays of
:meth:`PriceModel.stages`; :meth:`PriceModel.increment` runs only while
they are built, and one roll-forward (:func:`roll`) computes every wealth.

Every probability here is an exact finite sum (``math.fsum``), so the
certificates produced by this module are tolerance-free: a model is either
certified or a violating node is named.

All market objects are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

#: absolute tolerance for probability normalisation (sums of <= 1e4 doubles)
PROB_TOL = 1e-12


class MarketError(ValueError):
    """Raised when a market object violates its construction contract."""


# ---------------------------------------------------------------------------
# factor distributions and the scenario tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorDistribution:
    """Finite-support law of one driving factor.

    Parameters
    ----------
    values : tuple of atom values, each a tuple of ``m`` floats
    probs : tuple of atom probabilities, summing to 1 within ``PROB_TOL``
    bound : radius of the ball containing every atom (Euclidean norm)
    """

    values: tuple[tuple[float, ...], ...]
    probs: tuple[float, ...]
    bound: float

    def __post_init__(self) -> None:
        if len(self.values) != len(self.probs):
            raise MarketError("values and probs must have equal length")
        if len(self.values) < 2:
            raise MarketError("a factor needs at least 2 atoms to allow "
                              "moves of both signs")
        dims = {len(v) for v in self.values}
        if len(dims) != 1:
            raise MarketError("all atoms must share one dimension")
        # NaN fails every comparison, so each check states what passes
        if not all(0.0 < p <= 1.0 for p in self.probs):
            raise MarketError("atom probabilities must lie in (0, 1]")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > PROB_TOL:
            raise MarketError(f"atom probabilities sum to {total!r}, not 1")
        if not all(math.isfinite(c) for v in self.values for c in v):
            raise MarketError("atom values must be finite")
        if not 0.0 <= self.bound < math.inf:
            raise MarketError("factor bound must be nonnegative and finite")
        for v in self.values:
            if math.sqrt(math.fsum(c * c for c in v)) > self.bound + 1e-12:
                raise MarketError(f"atom {v} lies outside the stated bound "
                                  f"{self.bound}")

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple[float | Sequence[float], float]],
                   bound: float | None = None) -> "FactorDistribution":
        """Build from ``(value, probability)`` pairs; scalars become 1-d atoms.

        When ``bound`` is omitted the smallest valid bound (the largest atom
        norm) is used.
        """
        values = []
        probs = []
        for value, prob in atoms:
            if np.isscalar(value):
                values.append((float(value),))
            else:
                values.append(tuple(float(c) for c in value))
            probs.append(float(prob))
        if bound is None:
            bound = max(math.sqrt(math.fsum(c * c for c in v)) for v in values)
        return cls(tuple(values), tuple(probs), float(bound))

    @property
    def dim(self) -> int:
        return len(self.values[0])

    def __len__(self) -> int:
        return len(self.values)


class TreeNode:
    """One history ``e^t`` in the scenario tree."""

    __slots__ = ("id", "depth", "path", "point", "prob", "parent", "children",
                 "edge_prob", "tree")

    def __init__(self, id: int, depth: int, path: tuple[int, ...],
                 point: np.ndarray, prob: float, parent: "TreeNode | None",
                 edge_prob: float, tree: "ScenarioTree") -> None:
        self.id = id
        self.depth = depth
        self.path = path
        #: flattened history (e_1, ..., e_t) as a vector in R^(t*m)
        self.point = point
        self.prob = prob
        self.parent = parent
        self.edge_prob = edge_prob
        self.children: list[TreeNode] = []
        self.tree = tree

    @property
    def is_terminal(self) -> bool:
        return not self.children

    def distance(self, other: "TreeNode") -> float:
        """Euclidean distance between two same-depth histories."""
        if self.depth != other.depth:
            raise MarketError("history distance requires equal depths")
        return float(np.linalg.norm(self.point - other.point))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreeNode(id={self.id}, path={self.path})"


class ScenarioTree:
    """Full product tree over per-period factor distributions.

    ``levels[t]`` lists the nodes of depth ``t``; the root has depth 0,
    probability 1 and an empty path.  Path probabilities are products of
    atom probabilities along the path.  Node ids run breadth first from 0,
    so ``nodes[k].id == k`` and ``interior[k].id == k``: a node id indexes
    a strategy vector directly.
    """

    def __init__(self, distributions: Sequence[FactorDistribution]) -> None:
        if not distributions:
            raise MarketError("at least one factor distribution is required")
        self.distributions = tuple(distributions)
        self.horizon = len(self.distributions)
        root = TreeNode(0, 0, (), np.zeros(0), 1.0, None, 1.0, self)
        self.nodes: list[TreeNode] = [root]
        self.levels: list[list[TreeNode]] = [[root]]
        frontier = [root]
        for dist in self.distributions:
            # each law over its exact sum, so PROB_TOL does not compound
            # with depth; a law summing to exactly 1.0 is unchanged
            total = math.fsum(dist.probs)
            probs = [p / total for p in dist.probs]
            next_frontier = []
            for parent in frontier:
                for k, (value, prob) in enumerate(zip(dist.values, probs)):
                    point = np.concatenate([parent.point, np.asarray(value)])
                    node = TreeNode(len(self.nodes), parent.depth + 1,
                                    parent.path + (k,), point,
                                    parent.prob * prob, parent, prob, self)
                    parent.children.append(node)
                    self.nodes.append(node)
                    next_frontier.append(node)
            self.levels.append(next_frontier)
            frontier = next_frontier
        #: all non-terminal nodes, breadth first; shared by every caller,
        #: who must not modify it
        self.interior: list[TreeNode] = [n for level in self.levels[:-1]
                                         for n in level]
        self._validate()

    def _validate(self) -> None:
        expected = 1
        for t, dist in enumerate(self.distributions):
            expected *= len(dist)
            if len(self.levels[t + 1]) != expected:
                raise MarketError("node count mismatch at depth "
                                  f"{t + 1}")  # pragma: no cover
            total = math.fsum(n.prob for n in self.levels[t + 1])
            if abs(total - 1.0) > PROB_TOL:
                raise MarketError(f"path probabilities at depth {t + 1} sum "
                                  f"to {total!r}")

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    @property
    def leaves(self) -> list[TreeNode]:
        return self.levels[-1]


# ---------------------------------------------------------------------------
# price models
# ---------------------------------------------------------------------------

class PriceModel:
    """Price increments on the tree: one risky asset, zero-rate bank account.

    Subclasses implement :meth:`increment`, returning the increment carried
    by the edge into ``node`` (defined for depth >= 1).  ``c_f`` bounds both
    the increments and their Hoelder modulus at exponent ``chi``.
    """

    variant = "abstract"

    def __init__(self, s0: float, c_f: float, chi: float) -> None:
        if c_f <= 0.0:
            raise MarketError("c_f must be positive")
        if not 0.0 < chi <= 1.0:
            raise MarketError("chi must lie in (0, 1]")
        self.s0 = float(s0)
        self.c_f = float(c_f)
        self.chi = float(chi)
        #: (tree, arrays) of the last :meth:`stages` call
        self._stages: tuple[ScenarioTree | None, list] = (None, [])

    def increment(self, node: TreeNode) -> float:
        raise NotImplementedError

    def stages(self, tree: ScenarioTree) -> list[StageArrays]:
        """The edge table: one :class:`StageArrays` per depth 0..T-1.

        Built from :meth:`increment` on the first call for a tree and kept,
        since the increments are fixed at construction; callers share the
        arrays and must not modify them.  Assembling a market builds them.
        """
        if self._stages[0] is not tree:
            self._stages = (tree, [
                StageArrays.build(level[0].id,
                                  [[self.increment(c) for c in n.children]
                                   for n in level],
                                  [[c.edge_prob for c in n.children]
                                   for n in level])
                for level in tree.levels[:-1]])
        return self._stages[1]

    def row(self, node: TreeNode) -> tuple[list[float], list[float]]:
        """The increments and probabilities of the edges out of a
        non-terminal ``node``, in child order: its row of the stage arrays
        of its tree."""
        stage = self.stages(node.tree)[node.depth]
        i = node.id - stage.offset
        return stage.increments[i].tolist(), stage.probs[i].tolist()

    def validate_bounds(self, tree: ScenarioTree) -> None:
        """Check |f_t| <= c_f on every tree node of depth >= 1."""
        incs = np.concatenate([s.increments.ravel()
                               for s in self.stages(tree)])
        # a NaN increment fails the bound too
        over = ~(np.abs(incs) <= self.c_f + 1e-12)
        if over.any():
            # node ids run breadth first, so increment k is node k + 1's
            k = int(np.argmax(over))
            inc = float(incs[k])
            if not math.isfinite(inc):
                raise MarketError(f"increment {inc!r} at node {k + 1} is "
                                  "not a finite number")
            raise MarketError(f"increment {inc!r} at node {k + 1} "
                              f"exceeds the stated bound c_f={self.c_f}")


class TablePriceModel(PriceModel):
    """Increments given explicitly per node, or by a callable on histories."""

    variant = "table"

    def __init__(self, s0: float, c_f: float, chi: float,
                 table: Mapping[tuple[int, ...], float] | None = None,
                 func: Callable[[np.ndarray], float] | None = None) -> None:
        super().__init__(s0, c_f, chi)
        if (table is None) == (func is None):
            raise MarketError("provide exactly one of table / func")
        self._table = dict(table) if table is not None else None
        self._func = func

    def increment(self, node: TreeNode) -> float:
        if node.depth == 0:
            raise MarketError("the root carries no increment")
        if self._table is not None:
            try:
                return float(self._table[node.path])
            except KeyError:
                raise MarketError(f"no increment tabulated for node path "
                                  f"{node.path}") from None
        return float(self._func(node.point))


class DriftVolPriceModel(PriceModel):
    """Drift/volatility increments ``f_t(e^t) = mu_t(e^{t-1}) + sigma_t(e^{t-1}) e_t``.

    ``mu`` and ``sigma`` are per-period callables on the flattened history
    (constants are accepted for convenience); factors must be scalar.
    """

    variant = "drift_vol"

    def __init__(self, s0: float, mu: Sequence[Callable | float],
                 sigma: Sequence[Callable | float], delta: float,
                 c_f: float) -> None:
        super().__init__(s0, c_f, delta)
        self.mu = [self._as_callable(m) for m in mu]
        self.sigma = [self._as_callable(s) for s in sigma]

    @staticmethod
    def _as_callable(spec: Callable | float) -> Callable[[np.ndarray], float]:
        if callable(spec):
            return spec
        value = float(spec)
        return lambda history: value

    def increment(self, node: TreeNode) -> float:
        if node.depth == 0:
            raise MarketError("the root carries no increment")
        t = node.depth
        history = node.parent.point
        e_t = node.point[-1]
        return float(self.mu[t - 1](history) + self.sigma[t - 1](history) * e_t)


# ---------------------------------------------------------------------------
# uniform no-arbitrage certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoArbitrageCertificate:
    """Largest uniform two-sided move size/probability level per node.

    ``certified`` means: for every non-terminal node, the conditional
    increment law puts mass >= alpha on {f >= alpha} and on {f <= -alpha},
    with ``alpha_star`` the minimum over nodes of the per-node optimum.
    """

    alpha_star: float
    node_alphas: dict[int, float] = field(repr=False)
    violating_node: int | None = None

    @property
    def certified(self) -> bool:
        return self.violating_node is None and self.alpha_star > 0.0

    @property
    def status(self) -> str:
        if self.certified:
            return "certified"
        return f"violated(node={self.violating_node})"


def _node_alpha(increments: Sequence[float], probs: Sequence[float]) -> float:
    """Largest alpha in (0, 1] with P[f >= alpha] >= alpha, P[f <= -alpha] >= alpha.

    The two tail probabilities are piecewise-constant in alpha, so the
    supremum is attained on the finite candidate set {|increments|, tail
    masses, 1}; the scan below is exact.
    """
    def up_mass(a: float) -> float:
        return math.fsum(p for f, p in zip(increments, probs) if f >= a)

    def down_mass(a: float) -> float:
        return math.fsum(p for f, p in zip(increments, probs) if f <= -a)

    candidates = {1.0}
    for f in increments:
        if f != 0.0:
            candidates.add(abs(f))
    for a in list(candidates):
        candidates.add(up_mass(a))
        candidates.add(down_mass(a))
    best = 0.0
    for a in candidates:
        if 0.0 < a <= 1.0 and up_mass(a) >= a and down_mass(a) >= a:
            best = max(best, a)
    return best


def check_uniform_no_arbitrage(tree: ScenarioTree,
                               prices: PriceModel) -> NoArbitrageCertificate:
    """Certify that conditional increments move both ways, uniformly.

    For every non-terminal node the largest feasible per-node level is
    found by an exact scan over the finite candidate thresholds; the
    certificate level is the minimum over nodes.  The level depends only
    on a node's row of the stage arrays, so each depth scans its distinct
    (increments, probabilities) rows once and hands every node its row's
    level.
    """
    prices.validate_bounds(tree)
    levels: dict[bytes, float] = {}
    alphas = []
    for stage in prices.stages(tree):
        atoms = stage.increments.shape[1]
        edges = np.concatenate([stage.increments, stage.probs], axis=1)
        # one bytes key per row, its length fixed by the atom count: rows
        # with equal keys are equal bit for bit
        keys = edges.view(np.dtype((np.void, edges.shape[1]
                                    * edges.itemsize))).ravel().tolist()
        for key, row in zip(keys, edges.tolist()):
            if key not in levels:
                levels[key] = _node_alpha(row[:atoms], row[atoms:])
        alphas += [levels[key] for key in keys]
    # the stages' rows are the interior nodes in id order
    violating = next((i for i, a in enumerate(alphas) if a <= 0.0), None)
    alpha_star = 0.0 if violating is not None else min(1.0, min(alphas))
    return NoArbitrageCertificate(alpha_star, dict(enumerate(alphas)),
                                  violating)


def build_eex_model(mu: Sequence[Callable | float],
                    sigma: Sequence[Callable | float],
                    factor_dists: Sequence[FactorDistribution],
                    beta: float, c: float, C: float,
                    s0: float = 100.0, delta: float = 1.0) -> Market:
    """The market of a drift/volatility model on the tree of
    ``factor_dists``, with an a-priori no-arbitrage level ``beta``.

    Requires scalar factors, ``sigma_t >= c > 0`` and ``|mu_t| + |sigma_t|
    <= C`` on every tree history, and per-period tail masses of at least
    ``beta`` beyond ``+-(C + beta) / c``.  The market's certificate carries
    alpha = beta at every node.  The recorded increment bound is
    ``5 C (1 + C_eps)`` with ``C_eps = max(1, factor bound)``, valid at
    exponent ``delta`` on the sampled compact.
    """
    # NaN fails every comparison: each check states what passes
    for name, value in (("beta", beta), ("c", c), ("C", C)):
        if not 0.0 < value < math.inf:
            raise MarketError(f"{name} must be positive and finite, "
                              f"not {value!r}")
    if not 0.0 < delta <= 1.0:
        raise MarketError(f"delta must lie in (0, 1], not {delta!r}")
    if any(d.dim != 1 for d in factor_dists):
        raise MarketError("the drift/vol builder requires scalar factors")
    threshold = (C + beta) / c
    for t, dist in enumerate(factor_dists, start=1):
        lo = math.fsum(p for (v,), p in zip(dist.values, dist.probs)
                       if v <= -threshold)
        hi = math.fsum(p for (v,), p in zip(dist.values, dist.probs)
                       if v >= threshold)
        if lo < beta or hi < beta:
            raise MarketError(
                f"period {t}: factor tail mass beyond +-{threshold:g} is "
                f"({lo:g}, {hi:g}), below the required beta={beta:g}")

    c_eps = max(1.0, max(d.bound for d in factor_dists))
    c_f = 5.0 * C * (1.0 + c_eps)
    model = DriftVolPriceModel(s0, mu, sigma, delta, c_f)

    tree = ScenarioTree(factor_dists)
    node_alphas: dict[int, float] = {}
    for node in tree.interior:
        t = node.depth
        m_val = model.mu[t](node.point)
        s_val = model.sigma[t](node.point)
        if not s_val >= c:
            raise MarketError(f"sigma_{t + 1} = {s_val!r} at node {node.id} "
                              f"falls below the floor c={c}")
        if not abs(m_val) + abs(s_val) <= C + 1e-12:
            raise MarketError(f"|mu| + |sigma| = {abs(m_val) + abs(s_val)!r} "
                              f"at node {node.id} exceeds C={C}")
        node_alphas[node.id] = beta
    return Market(tree, model, NoArbitrageCertificate(beta, node_alphas, None))


# ---------------------------------------------------------------------------
# the stage arrays and wealth accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageArrays:
    """The edges out of every node of one depth, one row per node.

    Ids run breadth first over a full product tree, so row i is node
    ``offset + i`` and its children, in child order, are the nodes at
    positions ``i * atoms .. i * atoms + atoms - 1`` of the next depth: a
    (nodes x atoms) array of the next depth's quantities is its flat
    vector reshaped, and the increments of nodes 1..N-1 in id order are
    the stages' increment arrays concatenated.
    """

    #: id of the depth's first node
    offset: int
    #: (nodes x atoms) price increments of the edges
    increments: np.ndarray
    #: (nodes x atoms) conditional probabilities of the edges
    probs: np.ndarray
    #: (nodes x atoms x 3) probability-weighted powers p f^k, k = 0, 1, 2
    moments: np.ndarray

    @classmethod
    def build(cls, offset: int, increments, probs) -> "StageArrays":
        """From one row of increments and one of probabilities per node."""
        f, p = np.array(increments), np.array(probs)
        return cls(offset, f, p, np.stack((p, p * f, p * f * f), axis=-1))


@dataclass(frozen=True)
class WealthPath:
    """Self-financing portfolio value at every tree node."""

    x0: float
    #: wealth at every node, indexed by node id
    node_wealth: np.ndarray = field(repr=False)

    def at(self, node: TreeNode) -> float:
        return float(self.node_wealth[node.id])

    def leaf_law(self, tree: ScenarioTree) -> list[tuple[float, float]]:
        """Law of terminal wealth as (wealth, probability) pairs, unmerged."""
        leaves = tree.leaves
        return list(zip(self.node_wealth[leaves[0].id:].tolist(),
                        [leaf.prob for leaf in leaves]))


def roll(stages: Sequence[StageArrays], positions: np.ndarray,
         x0: float) -> list[np.ndarray]:
    """Wealth at every node, one array per depth 0..T: W_t = W_{t-1} +
    h(parent) * increment, each child's as ``w + h * f``.

    ``positions`` is one vector indexed by node id, or a batch of them
    along leading axes, and ``x0`` one start wealth or one per row; the
    wealth arrays then carry the same axes.  Stage arrays with the same
    leading axis give each row its own tree.
    """
    batch = positions.shape[:-1]
    xs = [np.empty(batch + (1,))]
    xs[0][..., 0] = x0
    for stage in stages:
        h = positions[..., stage.offset:
                      stage.offset + stage.increments.shape[-2]]
        xs.append((xs[-1][..., None] + h[..., None] * stage.increments)
                  .reshape(batch + (-1,)))
    return xs


def wealth(tree: ScenarioTree, prices: PriceModel, positions,
           x0: float) -> WealthPath:
    """Roll a strategy forward (:func:`roll`) over the market's stage arrays.

    ``positions`` holds one position per interior node and is indexed by
    node id: a Strategy, a vector, or a mapping with keys 0..n-1.
    """
    n = len(tree.interior)
    if len(positions) != n:
        raise MarketError(f"strategy gives {len(positions)} positions for "
                          f"{n} interior nodes: missing nodes or stray "
                          "positions")
    # a Strategy keeps its vector as ``positions``
    h = getattr(positions, "positions", positions)
    if not isinstance(h, np.ndarray):
        try:
            h = [float(h[k]) for k in range(n)]
        except KeyError as exc:
            raise MarketError(f"strategy is missing node {exc.args[0]}"
                              ) from None
    return WealthPath(float(x0), np.concatenate(
        roll(prices.stages(tree), np.asarray(h, dtype=float), float(x0))))


# ---------------------------------------------------------------------------
# the assembled, certified market and CSV export
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Market:
    """A tree, its price model and the no-arbitrage certificate."""

    tree: ScenarioTree
    prices: PriceModel
    certificate: NoArbitrageCertificate

    @classmethod
    def assemble(cls, tree: ScenarioTree, prices: PriceModel) -> "Market":
        return cls(tree, prices, check_uniform_no_arbitrage(tree, prices))

    def require_certified(self) -> None:
        if not self.certificate.certified:
            raise MarketError("market is not certified: "
                              + self.certificate.status)

    @property
    def horizon(self) -> int:
        return self.tree.horizon


def tree_rows(tree: ScenarioTree, prices: PriceModel,
              certificate: NoArbitrageCertificate,
              ) -> tuple[list[str], list[list]]:
    """Tabulate the tree for CSV export.

    Columns: node id, depth, path, probability, increment (empty at the
    root), per-node alpha (empty at terminal nodes).
    """
    header = ["node_id", "depth", "path", "probability", "increment", "alpha"]
    incs = np.concatenate(
        [s.increments.ravel() for s in prices.stages(tree)]).tolist()
    rows = []
    for node in tree.nodes:
        inc = ""
        if node.depth:
            inc = repr(incs[node.id - 1])
        alpha = ""
        if node.id in certificate.node_alphas:
            alpha = repr(certificate.node_alphas[node.id])
        rows.append([node.id, node.depth,
                     "/".join(str(k) for k in node.path),
                     repr(node.prob), inc, alpha])
    return header, rows
