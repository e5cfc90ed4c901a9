"""Finite-scenario market model.

Factor laws with finite support, the scenario tree they generate, price
increment models on that tree, the uniform no-arbitrage certificate, and
wealth accounting for self-financing strategies.

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
        if any(p <= 0.0 or p > 1.0 for p in self.probs):
            raise MarketError("atom probabilities must lie in (0, 1]")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > PROB_TOL:
            raise MarketError(f"atom probabilities sum to {total!r}, not 1")
        if self.bound < 0.0:
            raise MarketError("factor bound must be nonnegative")
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
                 "edge_prob")

    def __init__(self, id: int, depth: int, path: tuple[int, ...],
                 point: np.ndarray, prob: float, parent: "TreeNode | None",
                 edge_prob: float) -> None:
        self.id = id
        self.depth = depth
        self.path = path
        #: flattened history (e_1, ..., e_t) as a vector in R^(t*m)
        self.point = point
        self.prob = prob
        self.parent = parent
        self.edge_prob = edge_prob
        self.children: list[TreeNode] = []

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
    atom probabilities along the path.
    """

    def __init__(self, distributions: Sequence[FactorDistribution]) -> None:
        if not distributions:
            raise MarketError("at least one factor distribution is required")
        self.distributions = tuple(distributions)
        self.horizon = len(self.distributions)
        root = TreeNode(0, 0, (), np.zeros(0), 1.0, None, 1.0)
        self.nodes: list[TreeNode] = [root]
        self.levels: list[list[TreeNode]] = [[root]]
        frontier = [root]
        for dist in self.distributions:
            next_frontier = []
            for parent in frontier:
                for k, (value, prob) in enumerate(zip(dist.values, dist.probs)):
                    point = np.concatenate([parent.point, np.asarray(value)])
                    node = TreeNode(len(self.nodes), parent.depth + 1,
                                    parent.path + (k,), point,
                                    parent.prob * prob, parent, prob)
                    parent.children.append(node)
                    self.nodes.append(node)
                    next_frontier.append(node)
            self.levels.append(next_frontier)
            frontier = next_frontier
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

    @property
    def interior(self) -> list[TreeNode]:
        """All non-terminal nodes, breadth first."""
        return [n for level in self.levels[:-1] for n in level]

    @property
    def factor_bound(self) -> float:
        return max(d.bound for d in self.distributions)

    def node_by_path(self, path: Sequence[int]) -> TreeNode:
        node = self.root
        for k in path:
            node = node.children[k]
        return node


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
        #: (tree, table) of the last :meth:`edges` call
        self._edges: tuple[ScenarioTree | None, dict] = (None, {})

    def increment(self, node: TreeNode) -> float:
        raise NotImplementedError

    def edges(self, tree: ScenarioTree) -> dict[int, ChildEdges]:
        """:func:`child_edges` of every interior node, keyed by node id.

        Built once per tree, since the increments are fixed at
        construction; callers share the table and must not modify it.
        """
        if self._edges[0] is not tree:
            self._edges = (tree, {node.id: child_edges(self, node)
                                  for node in tree.interior})
        return self._edges[1]

    def validate_bounds(self, tree: ScenarioTree) -> None:
        """Check |f_t| <= c_f on every tree node of depth >= 1."""
        for node in tree.nodes[1:]:
            f = self.increment(node)
            if abs(f) > self.c_f + 1e-12:
                raise MarketError(f"increment {f!r} at node {node.id} exceeds "
                                  f"the stated bound c_f={self.c_f}")

    def price(self, node: TreeNode) -> float:
        """Asset price along the history ending at ``node``."""
        s = self.s0
        while node.depth > 0:
            s += self.increment(node)
            node = node.parent
        return s


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
    The recorded constants are those of the drift/vol family: ``vol_floor``
    (the uniform lower bound on sigma), ``coeff_bound`` (bound on
    |mu| + |sigma| and on their Hoelder modulus) and the exponent ``delta``.
    """

    variant = "drift_vol"

    def __init__(self, s0: float, mu: Sequence[Callable | float],
                 sigma: Sequence[Callable | float], delta: float,
                 vol_floor: float, coeff_bound: float,
                 c_f: float, chi: float | None = None) -> None:
        super().__init__(s0, c_f, delta if chi is None else chi)
        self.mu = [self._as_callable(m) for m in mu]
        self.sigma = [self._as_callable(s) for s in sigma]
        self.delta = float(delta)
        self.vol_floor = float(vol_floor)
        self.coeff_bound = float(coeff_bound)

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
    certificate level is the minimum over nodes.
    """
    prices.validate_bounds(tree)
    node_alphas: dict[int, float] = {}
    alpha_star = 1.0
    violating = None
    for node in tree.interior:
        incs = [prices.increment(c) for c in node.children]
        probs = [c.edge_prob for c in node.children]
        a = _node_alpha(incs, probs)
        node_alphas[node.id] = a
        if a <= 0.0 and violating is None:
            violating = node.id
        alpha_star = min(alpha_star, a)
    if violating is not None:
        alpha_star = 0.0
    return NoArbitrageCertificate(alpha_star, node_alphas, violating)


def build_eex_model(mu: Sequence[Callable | float],
                    sigma: Sequence[Callable | float],
                    factor_dists: Sequence[FactorDistribution],
                    beta: float, c: float, C: float,
                    s0: float = 100.0, delta: float = 1.0,
                    ) -> tuple[DriftVolPriceModel, NoArbitrageCertificate]:
    """Drift/volatility model with an a-priori no-arbitrage level ``beta``.

    Requires scalar factors, ``sigma_t >= c > 0`` and ``|mu_t| + |sigma_t|
    <= C`` on every tree history, and per-period tail masses of at least
    ``beta`` beyond ``+-(C + beta) / c``.  The returned certificate carries
    alpha = beta at every node.  The recorded increment bound is
    ``5 C (1 + C_eps)`` with ``C_eps = max(1, factor bound)``, valid at
    exponent ``delta`` on the sampled compact.
    """
    if beta <= 0.0 or c <= 0.0 or C <= 0.0:
        raise MarketError("beta, c and C must be positive")
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
    model = DriftVolPriceModel(s0, mu, sigma, delta, c, C, c_f)

    tree = ScenarioTree(factor_dists)
    node_alphas: dict[int, float] = {}
    for node in tree.interior:
        t = node.depth
        m_val = model.mu[t](node.point)
        s_val = model.sigma[t](node.point)
        if s_val < c:
            raise MarketError(f"sigma_{t + 1} = {s_val!r} at node {node.id} "
                              f"falls below the floor c={c}")
        if abs(m_val) + abs(s_val) > C + 1e-12:
            raise MarketError(f"|mu| + |sigma| = {abs(m_val) + abs(s_val)!r} "
                              f"at node {node.id} exceeds C={C}")
        node_alphas[node.id] = beta
    return model, NoArbitrageCertificate(beta, node_alphas, None)


# ---------------------------------------------------------------------------
# Hoelder extension of functions sampled on a finite set
# ---------------------------------------------------------------------------

class HoelderExtension:
    """Extension of a Hoelder function from a finite sample to all of R^d.

    Inside the ball of radius ``radius`` the value is the inf-convolution
    ``min_k (f_k + c |e - e_k|^chi)`` over the sample; outside, the point is
    first projected onto the ball.  The extension reproduces the sample
    exactly, keeps the same modulus everywhere, and is bounded by
    ``c (1 + (2 radius)^chi)``.
    """

    def __init__(self, points: np.ndarray, values: np.ndarray,
                 holder_constant: float, exponent: float,
                 radius: float) -> None:
        self.points = points
        self.values = values
        self.holder_constant = float(holder_constant)
        self.exponent = float(exponent)
        self.radius = float(radius)

    @property
    def bound(self) -> float:
        """Uniform bound after extension: c (1 + (2 radius)^chi)."""
        return self.holder_constant * (1.0 + (2.0 * self.radius) ** self.exponent)

    def __call__(self, point: float | Sequence[float]) -> float:
        e = np.atleast_1d(np.asarray(point, dtype=float))
        norm = np.linalg.norm(e)
        if norm > self.radius:
            e = e * (self.radius / norm)
        gaps = np.linalg.norm(self.points - e, axis=1)
        return float(np.min(self.values
                            + self.holder_constant * gaps ** self.exponent))


def hoelder_extend(points: Sequence[Sequence[float] | float],
                   values: Sequence[float], c_f: float, chi: float,
                   radius: float) -> HoelderExtension:
    """Extend sampled values to the whole space with the same modulus.

    ``points`` must lie inside the ball of radius ``radius`` and the sampled
    values must already satisfy the stated modulus (verified here, because
    the extension reproduces the sample only then).  The post-extension
    uniform bound additionally assumes |values| <= c_f on the sample.
    """
    pts = np.asarray([[p] if np.isscalar(p) else list(p) for p in points],
                     dtype=float)
    vals = np.asarray(values, dtype=float)
    if len(pts) == 0:
        raise MarketError("the sample set must be non-empty")
    if len(pts) != len(vals):
        raise MarketError("points and values must have equal length")
    norms = np.linalg.norm(pts, axis=1)
    if np.any(norms > radius + 1e-12):
        worst = int(np.argmax(norms))
        raise MarketError(f"sample point {pts[worst]} lies outside the ball "
                          f"of radius {radius}")
    # only the modulus is enforced: the extension reproduces the sample iff
    # the sampled values already satisfy it; the uniform bound merely feeds
    # the post-extension bound and is reported, not enforced
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            gap = np.linalg.norm(pts[a] - pts[b])
            if gap == 0.0:
                if vals[a] != vals[b]:
                    raise MarketError("inconsistent values at a repeated point")
                continue
            if abs(vals[a] - vals[b]) > c_f * gap ** chi + 1e-12:
                raise MarketError(
                    f"sample violates the stated modulus between {pts[a]} "
                    f"and {pts[b]}")
    return HoelderExtension(pts, vals, c_f, chi, radius)


def estimate_hoelder_constant(f: Callable[[float | Sequence[float]], float],
                              sample_pairs: Sequence[tuple],
                              chi: float) -> float:
    """Smallest modulus constant consistent with the sampled pairs.

    Returns ``max |f(e) - f(e')| / |e - e'|^chi`` over the pairs; a
    validation aid for user-supplied constants.
    """
    worst = 0.0
    for e, e_bar in sample_pairs:
        a = np.atleast_1d(np.asarray(e, dtype=float))
        b = np.atleast_1d(np.asarray(e_bar, dtype=float))
        gap = float(np.linalg.norm(a - b))
        if gap == 0.0:
            raise MarketError(f"duplicate sample pair at {e!r}")
        worst = max(worst, abs(float(f(a)) - float(f(b))) / gap ** chi)
    return worst


# ---------------------------------------------------------------------------
# per-tree edge table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChildEdges:
    """The edges out of one interior node, in child order."""

    children: tuple[TreeNode, ...]
    #: price increment carried by the edge into each child
    increments: tuple[float, ...]
    #: conditional probability of each child
    probs: tuple[float, ...]


def child_edges(prices: PriceModel, node: TreeNode) -> ChildEdges:
    """Children, increments and edge probabilities of one node."""
    children = tuple(node.children)
    return ChildEdges(children, tuple(prices.increment(c) for c in children),
                      tuple(c.edge_prob for c in children))


def edge_table(tree: ScenarioTree, prices: PriceModel
               ) -> dict[int, ChildEdges]:
    """The shared edge table of ``tree``: :meth:`PriceModel.edges`."""
    return prices.edges(tree)


# ---------------------------------------------------------------------------
# wealth accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WealthPath:
    """Self-financing portfolio value at every tree node."""

    x0: float
    node_wealth: dict[int, float] = field(repr=False)

    def at(self, node: TreeNode) -> float:
        return self.node_wealth[node.id]

    def leaf_law(self, tree: ScenarioTree) -> list[tuple[float, float]]:
        """Law of terminal wealth as (wealth, probability) pairs, unmerged."""
        return [(self.node_wealth[leaf.id], leaf.prob) for leaf in tree.leaves]


def _position_at(positions, node: TreeNode) -> float:
    getter = getattr(positions, "at", None)
    if getter is not None:
        return float(getter(node))
    try:
        return float(positions[node.id])
    except KeyError:
        raise MarketError(f"strategy is missing node {node.id}") from None


def wealth(tree: ScenarioTree, prices: PriceModel, positions,
           x0: float) -> WealthPath:
    """Roll a strategy forward: W_t = W_{t-1} + h(parent) * increment.

    ``positions`` maps non-terminal node ids to positions (a plain mapping
    or a Strategy).
    """
    edges = edge_table(tree, prices)
    node_wealth = {tree.root.id: float(x0)}
    for node in tree.interior:
        h = _position_at(positions, node)
        w = node_wealth[node.id]
        row = edges[node.id]
        for child, f in zip(row.children, row.increments):
            node_wealth[child.id] = w + h * f
    return WealthPath(float(x0), node_wealth)


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


def tree_rows(tree: ScenarioTree, prices: PriceModel | None = None,
              certificate: NoArbitrageCertificate | None = None,
              ) -> tuple[list[str], list[list]]:
    """Tabulate the tree for CSV export.

    Columns: node id, depth, path, probability, increment (empty at the
    root), per-node alpha (empty at terminal nodes).
    """
    header = ["node_id", "depth", "path", "probability", "increment", "alpha"]
    rows = []
    for node in tree.nodes:
        inc = ""
        if prices is not None and node.depth > 0:
            inc = repr(prices.increment(node))
        alpha = ""
        if certificate is not None and node.id in certificate.node_alphas:
            alpha = repr(certificate.node_alphas[node.id])
        rows.append([node.id, node.depth,
                     "/".join(str(k) for k in node.path),
                     repr(node.prob), inc, alpha])
    return header, rows
