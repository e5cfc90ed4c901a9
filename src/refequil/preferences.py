"""Preferences and the envelope-constant engine.

Utility and gain-loss families, the satisfaction functional (direct utility
plus a gain-loss comparison of utilities), validators for the structural
assumptions they must satisfy, and the stage-wise envelope constants that
certify optimizer bounds, derivative sandwiches and Hoelder moduli for the
backward recursion.

The envelope constants grow doubly exponentially with the number of
backward steps, so all strictly positive envelope quantities are computed
and stored in *log space*; the linear-space accessors materialise them with
saturating under/overflow (0.0 / inf).  On deep stacks the log forms
themselves saturate to +-inf, never to NaN.  Saturated bounds keep every
certified inequality valid.

Preference objects and envelope stages are immutable once built and may
be evaluated concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .market import PROB_TOL

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
#: windows with non-finite endpoints are clamped here before scanning
_HUGE = 1e290
#: gap-matrix cells (wealths x atoms) per satisfaction block (8 MiB)
_KERNEL_CELLS = 1 << 20


class PreferenceError(ValueError):
    """Raised when a preference object violates its construction contract."""


class EnvelopeError(RuntimeError):
    """Raised when envelope propagation detects broken preconditions."""


# ---------------------------------------------------------------------------
# utility families
# ---------------------------------------------------------------------------

class Utility:
    """Twice differentiable, increasing, strictly concave, bounded above.

    Subclasses provide value/derivatives plus log-space versions of the
    positive quantities U' and -U'' (needed by the envelope engine far out
    in the tails, where the linear values under/overflow).
    """

    c_u: float
    #: value at +infinity, used by the asymptotic-elasticity probe
    upper_limit: float | None = None
    #: every scanned terminal envelope family and the terminal |value
    #: floor| are monotone decreasing in wealth, so their extrema over a
    #: wealth window sit at its two ends
    decreasing_terminal_families: bool = False

    def u(self, x):
        raise NotImplementedError

    def du(self, x):
        raise NotImplementedError

    def d2u(self, x):
        raise NotImplementedError

    def scalar_terms(self, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """U, U', U'' at each wealth of ``xs`` as three float64 arrays, each
        element equal bit for bit to the float calls at that wealth: one
        array call of each method, which a family overrides where the two
        round differently."""
        xs = np.asarray(xs, dtype=float)
        return tuple(np.asarray(f(xs), dtype=float)
                     for f in (self.u, self.du, self.d2u))

    def log_du(self, x):
        with np.errstate(divide="ignore"):
            return np.log(self.du(x))

    def log_neg_d2u(self, x):
        with np.errstate(divide="ignore"):
            return np.log(-self.d2u(x))


class ExponentialUtility(Utility):
    """U(x) = -exp(-a x), a > 0; bounded above by any positive constant.

    Its terminal families are decreasing: log U' and log(-U'') are linear
    with slope -a, the curvature cap is a logaddexp of two such terms and
    the |value floor| (1 + k) exp(-a x) + k c_u (k the loss slope) falls
    with x.
    """

    decreasing_terminal_families = True

    def __init__(self, a: float, c_u: float = 1.0) -> None:
        # U'' needs a^2 as a finite double
        if not (a > 0.0 and math.isfinite(a * a)):
            raise PreferenceError("the risk-aversion parameter must be "
                                  "positive, with a finite square")
        if not 0.0 < c_u < math.inf:
            raise PreferenceError("the upper bound c_u must be positive")
        self.a = float(a)
        self.c_u = float(c_u)
        self.upper_limit = 0.0

    def _exp(self, x):
        """exp(-a x): one math.exp for a float, np.exp (which may round
        differently in the last bit) elementwise otherwise; an overflow
        gives inf."""
        if type(x) is float:
            try:
                return math.exp(-self.a * x)
            except OverflowError:
                return math.inf
        with np.errstate(over="ignore"):
            return np.exp(-self.a * np.asarray(x, dtype=float))

    def u(self, x):
        return -self._exp(x)

    def du(self, x):
        return self.a * self._exp(x)

    def d2u(self, x):
        return -self.a ** 2 * self._exp(x)

    def scalar_terms(self, xs):
        # one math.exp per wealth, as the float calls take.  Only a batch
        # with an overflowing exponential goes through _exp's overflow
        # rule.  The products below are the float calls' own roundings.
        neg_a, xs = -self.a, np.asarray(xs, dtype=float).tolist()
        try:
            e = np.array([math.exp(neg_a * w) for w in xs], dtype=float)
        except OverflowError:
            e = np.array([self._exp(w) for w in xs], dtype=float)
        with np.errstate(over="ignore"):
            return -e, self.a * e, -self.a ** 2 * e

    def log_du(self, x):
        return math.log(self.a) - self.a * np.asarray(x, dtype=float)

    def log_neg_d2u(self, x):
        return 2.0 * math.log(self.a) - self.a * np.asarray(x, dtype=float)


class TabulatedUtility(Utility):
    """Utility given by knots of x, U, U', U'' with monotone-cubic evaluation.

    Intended for moderate wealth ranges; evaluation extrapolates beyond the
    knots, so deep envelope stacks should prefer a closed-form family.
    """

    def __init__(self, x_knots: Sequence[float], u: Sequence[float],
                 du: Sequence[float], d2u: Sequence[float],
                 c_u: float) -> None:
        from scipy.interpolate import PchipInterpolator

        tables = [np.asarray(t, dtype=float) for t in (x_knots, u, du, d2u)]
        x_arr = tables[0]
        if x_arr.ndim != 1 or len(x_arr) < 4:
            raise PreferenceError("need at least 4 knots")
        if not all(np.isfinite(t).all() for t in tables):
            raise PreferenceError("tabulated utility entries must be finite")
        if np.any(np.diff(x_arr) <= 0.0):
            raise PreferenceError("knots must be strictly increasing")
        if not 0.0 < c_u < math.inf:
            raise PreferenceError("the upper bound c_u must be positive")
        self._u, self._du, self._d2u = (
            PchipInterpolator(x_arr, t, extrapolate=True) for t in tables[1:])
        self.c_u = float(c_u)
        self.upper_limit = float(u[-1])

    def u(self, x):
        return self._u(np.asarray(x, dtype=float))

    def du(self, x):
        return self._du(np.asarray(x, dtype=float))

    def d2u(self, x):
        return self._d2u(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# gain-loss families
# ---------------------------------------------------------------------------

class GainLoss:
    """Concave increasing comparison function, linear on losses.

    Contract: nu(0) = 0; nu(x) = k_minus * x for x <= 0; on (0, inf) the
    derivative is positive, at most k_minus and nonincreasing; nu and |nu''|
    are bounded by c_nu.
    """

    k_minus: float
    c_nu: float

    def nu(self, x):
        raise NotImplementedError

    def dnu(self, x):
        raise NotImplementedError

    def d2nu(self, x):
        raise NotImplementedError

    def log_dnu(self, x):
        """log nu'(x); families whose slope underflows override it."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(self.dnu(x))

    def terms(self, x):
        """(nu, nu', nu'') at ``x`` from one call, equal to the three
        separate calls bit for bit."""
        return self.nu(x), self.dnu(x), self.d2nu(x)


class ArctanGainLoss(GainLoss):
    """k-linear losses glued twice differentiably to a bounded arctan gain arm.

    nu(x) = k x for x <= 0 and k s atan(x / s) for x > 0.  The simplest C^2
    family meeting the whole contract; the certified bound c_nu is
    max(k s pi / 2, sup |nu''|).  On gains |nu''(x)| = (2k/s) u / (1 + u^2)^2
    with u = x / s, which peaks at u = 1/sqrt(3) with the value
    3 sqrt(3) k / (8 s).  The supremum is taken in closed form as the larger
    of that formula and |nu''| evaluated at the peak (each may round one ulp
    below the other), inflated by 1e-6 relative so that sampled curvatures
    never exceed it.
    """

    def __init__(self, k_minus: float, scale: float = 1.0) -> None:
        if not 0.0 < k_minus < math.inf:
            raise PreferenceError("the loss slope k_minus must be positive")
        # nu'' divides by scale^2: it must be a positive normal double, as
        # one that overflows or underflows (to a subnormal or to 0) makes
        # the curvature inf or NaN
        if not (scale > 0.0
                and sys.float_info.min <= scale * scale < math.inf):
            raise PreferenceError(
                f"the gain-arm scale must be positive, with a finite square "
                f"(got {scale!r}) no smaller than the least normal double")
        self.k_minus = float(k_minus)
        self.scale = float(scale)
        k, s = self.k_minus, self.scale
        curvature_sup = max(3.0 * math.sqrt(3.0) * k / (8.0 * s),
                            abs(float(self.d2nu(s / math.sqrt(3.0))))
                            ) * (1.0 + 1e-6)
        self.c_nu = max(k * s * math.pi / 2.0, curvature_sup)

    def nu(self, x):
        x = np.asarray(x, dtype=float)
        gains = self.k_minus * self.scale * np.arctan(x / self.scale)
        return np.where(x > 0.0, gains, self.k_minus * x)

    def dnu(self, x):
        return self.terms(x)[1]

    def d2nu(self, x):
        return self.terms(x)[2]

    def terms(self, x):
        # the one copy of nu' and nu'', which dnu and d2nu read; nu keeps
        # its own for the kernel's value-only blocks.  A huge gap takes the
        # slope's limit 0, and an infinite one the curvature's limit 0.
        x = np.asarray(x, dtype=float)
        k, s = self.k_minus, self.scale
        gain = x > 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            r = x / s
            q = 1.0 + r ** 2
            nu = np.where(gain, k * s * np.arctan(r), k * x)
            dnu = np.where(gain, k / q, k)
            curve = -2.0 * k * x / s ** 2 / q ** 2
        d2nu = np.where(gain & (x < math.inf), curve, 0.0)
        return nu, dnu, d2nu

    def log_dnu(self, x):
        # log k - log(1 + r^2) with r = x / s; past r = 1 the second log is
        # 2 (log x - log s) + log1p((s / x)^2), which stays finite where
        # r^2 overflows and nu' underflows to 0
        x = np.asarray(x, dtype=float)
        log_k = math.log(self.k_minus)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            r = x / self.scale
            log_q = np.where(r <= 1.0, np.log1p(r * r),
                             2.0 * (np.log(x) - math.log(self.scale))
                             + np.log1p((self.scale / x) ** 2))
        return np.where(x > 0.0, log_k - log_q, log_k)

    @classmethod
    def tight(cls, k_minus: float) -> "ArctanGainLoss":
        """Scale chosen to minimise c_nu (boundedness and curvature balance)."""
        scale = math.sqrt(3.0 * math.sqrt(3.0) / (4.0 * math.pi))
        return cls(k_minus, scale)


@dataclass(frozen=True)
class Preferences:
    """A validated utility / gain-loss pair."""

    utility: Utility
    gain_loss: GainLoss

    @property
    def satisfaction_cap(self) -> float:
        """Upper bound c_u + c_nu on satisfaction everywhere."""
        return self.utility.c_u + self.gain_loss.c_nu


# ---------------------------------------------------------------------------
# reference distributions and the satisfaction functional
# ---------------------------------------------------------------------------

class ReferenceDistribution:
    """Finite-support law of the reference wealth (the terminal-wealth copy)."""

    def __init__(self, atoms: Iterable[tuple[float, float]]) -> None:
        pairs = [(float(w), float(q)) for w, q in atoms]
        if not pairs:
            raise PreferenceError("a reference needs at least one atom")
        if any(q <= 0.0 for _, q in pairs):
            raise PreferenceError("atom probabilities must be positive")
        total = math.fsum(q for _, q in pairs)
        if abs(total - 1.0) > PROB_TOL:
            raise PreferenceError(f"atom probabilities sum to {total!r}, not 1")
        pairs.sort()
        self.wealths = np.asarray([w for w, _ in pairs])
        self.probs = np.asarray([q for _, q in pairs])

    @classmethod
    def degenerate(cls, wealth: float) -> "ReferenceDistribution":
        return cls([(wealth, 1.0)])

    @classmethod
    def from_weights(cls, pairs: Iterable[tuple[float, float]]
                     ) -> "ReferenceDistribution":
        """Build from possibly repeated (wealth, weight) pairs, merging
        wealths that coincide within 1e-12."""
        items = sorted((float(w), float(q)) for w, q in pairs)
        merged: list[tuple[float, float]] = []
        for w, q in items:
            if merged and abs(w - merged[-1][0]) <= 1e-12:
                w_prev, q_prev = merged[-1]
                merged[-1] = (w_prev, q_prev + q)
            else:
                merged.append((w, q))
        return cls(merged)

    def __len__(self) -> int:
        return len(self.wealths)

    def atoms(self) -> list[tuple[float, float]]:
        return list(zip(self.wealths.tolist(), self.probs.tolist()))


def satisfaction(utility: Utility, gain_loss: GainLoss, x,
                 reference: ReferenceDistribution,
                 derivatives: bool = False, ref_u=None):
    """Overall satisfaction from wealth ``x`` against a reference law.

    Direct utility plus the expected gain-loss comparison of utilities,
    U(x) + sum_j q_j nu(U(x) - U(b_j)); the expectation over the finitely
    supported reference is an exact sum.  ``x`` is a float, a list of
    floats (or of such lists) or an array of any shape, and the result
    comes back in that form: a float, a list or an array shaped like
    ``x``.  With ``derivatives`` the result is the triple (value,
    U'(1 + E nu'), U''(1 + E nu') + U'^2 E nu''), each member in the form
    of ``x``.  ``ref_u`` passes the precomputed reference utilities U(b_j).

    Every input takes one path, so each element equals the float call bit
    for bit.  The flattened wealths run in blocks of at most
    ``_KERNEL_CELLS`` (2^20) gap-matrix cells, which bound the memory for
    any input: U, U', U'' from :meth:`Utility.scalar_terms`, then one
    :meth:`GainLoss.nu` or :meth:`GainLoss.terms` call on the (wealths x
    atoms) gaps, each row reduced by its own dot product (:func:`_row_dots`).
    Gaps between overflowed utilities (inf - inf) are NaN, without warning.
    """
    if ref_u is None:
        ref_u = utility.u(reference.wealths)
    probs = reference.probs
    wealths = np.asarray(x, dtype=float)
    flat = wealths.reshape(-1)
    rows = max(1, _KERNEL_CELLS // len(probs))
    blocks = []
    for k in range(0, max(flat.size, 1), rows):
        ux, dux, d2ux = utility.scalar_terms(flat[k:k + rows])
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = ux[:, None] - ref_u
            if not derivatives:
                blocks.append((ux + _row_dots(gain_loss.nu(gaps), probs),))
                continue
            nu, dnu, d2nu = gain_loss.terms(gaps)
            factor = 1.0 + _row_dots(dnu, probs)
            curve = _row_dots(d2nu, probs)
            blocks.append((ux + _row_dots(nu, probs), dux * factor,
                           d2ux * factor + dux * dux * curve))
    columns = [np.concatenate(parts).reshape(wealths.shape)
               for parts in zip(*blocks)]
    if not isinstance(x, np.ndarray):
        # a float's 0-d column gives a float, a list's a list of its nesting
        columns = [c.tolist() for c in columns]
    return tuple(columns) if derivatives else columns[0]


def _row_dots(rows: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """``np.dot(probs, row)`` for every row, from one stacked call.

    Each (1 x n)(n x 1) product of the stack runs the same dot kernel as
    ``np.dot`` on the row, so the sums are equal bit for bit; a
    matrix-vector product (``rows @ probs``) may order them differently.
    """
    return np.matmul(rows[:, None, :], probs[:, None])[:, 0, 0]


# ---------------------------------------------------------------------------
# envelope constants
# ---------------------------------------------------------------------------

class LogFamilies(NamedTuple):
    """The log-space envelope families of one stage at the same wealths.

    Every field has the shape of the wealths.  A record asked for without
    its scanned families (:meth:`StageEnvelopes.log_families`) leaves the
    last four fields None.
    """

    slope_floor: np.ndarray
    slope_cap: np.ndarray
    curve_floor: np.ndarray | None = None
    curve_cap: np.ndarray | None = None
    past_coeff: np.ndarray | None = None
    #: Hoelder coefficient of the one-step optimizer in the history (-inf
    #: at the terminal stage, which holds no position)
    position_past_coeff: np.ndarray | None = None


def _family(field: str, log: bool):
    """Accessor of one field of :meth:`StageEnvelopes.log_families`; the
    linear one exponentiates it with saturation."""
    scanned = field not in ("slope_floor", "slope_cap")

    def accessor(self, x):
        x = np.asarray(x, dtype=float)
        out = getattr(self.log_families(x, scanned), field)
        if not log:
            with np.errstate(over="ignore"):
                out = np.exp(out)
        return out if x.ndim else float(out)

    accessor.__name__ = ("log_" if log else "") + field
    return accessor


class StageEnvelopes:
    """Envelope functions of one stage's value function.

    ``value_floor`` bounds the value from below; every positive family
    comes from one log-space record, ``log_families(x, scanned=True)``, a
    :class:`LogFamilies` at the wealths ``x`` (an array): the first and
    negated second derivative sandwiches, the Hoelder coefficient in the
    history at ``exponent`` and, on a propagated stage, that of the
    one-step optimizer, whose bracket is ``position_bound``.  With
    ``scanned`` False only the two slope families, which need no window
    scan, are filled.  The three families the library reads one at a time
    have accessors (``log_slope_floor``, and ``curve_cap`` and
    ``position_past_coeff`` exponentiated with saturation); a scalar gives
    a float, an array an array of its shape.
    """

    is_terminal = True

    def __init__(self, cap: float, exponent: float) -> None:
        #: uniform upper bound on the stage value (c_u + c_nu)
        self.cap = cap
        #: Hoelder exponent of the stage value in the history
        self.exponent = exponent

    log_slope_floor = _family("slope_floor", log=True)
    curve_cap = _family("curve_cap", log=False)
    position_past_coeff = _family("position_past_coeff", log=False)


class TerminalEnvelopes(StageEnvelopes):
    """Stage-T envelopes, independent of the reference law.

    With k = loss slope: value floor (1 + k) U(x) - k c_u, slope sandwich
    [U'(x), (1 + k) U'(x)], curvature sandwich [-U''(x),
    -(1 + k) U''(x) + c_nu U'(x)^2], history coefficient 0 at the price
    exponent.
    """

    def __init__(self, preferences: Preferences, chi: float) -> None:
        super().__init__(preferences.satisfaction_cap, chi)
        self.preferences = preferences
        self._k = preferences.gain_loss.k_minus
        self._log1k = math.log1p(self._k)

    def value_floor(self, x):
        u = self.preferences.utility
        return (1.0 + self._k) * u.u(x) - self._k * u.c_u

    def log_families(self, x, scanned: bool = True) -> LogFamilies:
        u = self.preferences.utility
        log_du = u.log_du(x)
        if not scanned:
            return LogFamilies(log_du, self._log1k + log_du)
        log_d2u = u.log_neg_d2u(x)
        zero = np.full(np.shape(log_du), -np.inf)
        return LogFamilies(
            log_du, self._log1k + log_du, log_d2u,
            np.logaddexp(self._log1k + log_d2u,
                         math.log(self.preferences.gain_loss.c_nu)
                         + 2.0 * log_du),
            zero, zero)


class PropagatedEnvelopes(StageEnvelopes):
    """Envelopes of the value produced by one backward optimization step:
    one step of the envelope recursion from ``prev``, at half its exponent.

    Interval suprema/infima are taken over a ``scan_points``-point uniform
    sub-grid of the wealth window (endpoints included): ``_SCAN_POINTS``
    over a terminal stage, whose envelopes are closed forms, and
    ``_DEEP_SCAN_POINTS`` deeper, to keep the nested evaluation cost
    bounded.  Over a terminal stage whose utility declares decreasing
    terminal families (``Utility.decreasing_terminal_families``) the
    window's two ends suffice.  The scans are endpoint-inclusive and the
    scanned families are tail-monotone, so the resolution mainly affects
    interior detail.
    """

    is_terminal = False
    #: window sub-grid points over a terminal stage
    _SCAN_POINTS = 512
    #: window sub-grid points over a propagated stage
    _DEEP_SCAN_POINTS = 64

    def __init__(self, prev: StageEnvelopes, alpha: float, c_f: float
                 ) -> None:
        super().__init__(prev.cap, prev.exponent / 2.0)
        if not 0.0 < alpha <= 1.0:
            raise EnvelopeError("alpha must lie in (0, 1]")
        if not c_f > 0.0:
            raise EnvelopeError("c_f must be positive")
        self.prev = prev
        self.alpha = alpha
        self.c_f = c_f
        self.scan_points = (self._SCAN_POINTS if prev.is_terminal
                            else self._DEEP_SCAN_POINTS)
        decreasing = (prev.is_terminal and prev.preferences.utility
                      .decreasing_terminal_families)
        #: wealths read per window: its two ends over a terminal stage with
        #: decreasing families, else the ``scan_points`` sub-grid
        self.window_points = 2 if decreasing else self.scan_points
        self._log_alpha = math.log(alpha)
        self._log_cf = math.log(c_f)
        # slope floor of the stage being optimized, at 0 (enters the bracket)
        self._log_j0 = float(prev.log_slope_floor(0.0))
        self._log_2cap = math.log(2.0 * self.cap)

    # -- the optimizer bracket ------------------------------------------------
    def position_bound(self, x):
        """Bracket radius containing the one-step optimizer at wealth x."""
        x = np.asarray(x, dtype=float)
        if self._log_j0 == -np.inf:
            # a zero slope floor at 0 certifies no bracket; below, its term
            # would meet log|x| = inf as -inf + inf
            return np.full(x.shape, np.inf) if x.ndim else math.inf
        abs_x = np.abs(x)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            abs_i = np.abs(self.prev.value_floor(x))
            log_num = np.logaddexp(self._log_2cap, np.log(abs_i))
            log_num = np.logaddexp(log_num, self._log_j0 + self._log_alpha
                                   + np.log(abs_x))
            out = (abs_x / self.alpha
                   + np.exp(log_num - self._log_j0 - 2.0 * self._log_alpha))
        return out if x.ndim else float(out)

    #: wealths per previous-stage call of a window scan; nested scans hold
    #: one chunk per stage, so this bounds their memory, and at 2^15 each
    #: float64 array of a chunk (256 KiB) stays in cache.  The families do
    #: not depend on it.
    _SCAN_CHUNK = 1 << 15

    def value_floor(self, x):
        return self.prev.value_floor(x)

    def log_families(self, x, scanned: bool = True) -> LogFamilies:
        """The previous stage's families over each wealth window, reduced.

        The slope floor (cap) is the previous stage's at the upper (lower)
        end of the window, which an infinite bracket puts at +inf (-inf).
        The other families come from five extrema over a ``window_points``
        sub-grid of the window (endpoints included): the minimum curvature
        floor and the maximum curvature cap, history coefficient, slope cap
        and |value floor|, all read from one previous-stage record per
        chunk of windows.  Over a terminal stage with decreasing families
        the sub-grid is the two window ends, where those extrema sit.
        """
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        n = flat.size
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            k = self.position_bound(flat)
            half = k * self.c_f
            finite = half < np.inf
            ends = np.concatenate([np.where(finite, flat + half, np.inf),
                                   np.where(finite, flat - half, -np.inf)])
            at_ends = self.prev.log_families(ends, scanned=False)
            families = [at_ends.slope_floor[:n], at_ends.slope_cap[n:]]
            if not scanned:
                return LogFamilies(*(f.reshape(x.shape) for f in families))

            lo, hi = flat - half, flat + half
            lo = np.where(np.isfinite(lo), lo, -_HUGE)
            hi = np.where(np.isfinite(hi), hi, _HUGE)
            ticks = np.linspace(0.0, 1.0, self.window_points)
            rows = max(1, self._SCAN_CHUNK // ticks.size)
            pieces = []
            for start in range(0, n, rows):
                sl = slice(start, min(start + rows, n))
                grid = lo[sl, None] + ticks[None, :] * (hi - lo)[sl, None]
                shape, points = grid.shape, grid.ravel()
                logs = self.prev.log_families(points)
                abs_i = np.abs(self.prev.value_floor(points))
                pieces.append((logs.curve_floor.reshape(shape).min(axis=1),
                               logs.curve_cap.reshape(shape).max(axis=1),
                               logs.past_coeff.reshape(shape).max(axis=1),
                               logs.slope_cap.reshape(shape).max(axis=1),
                               abs_i.reshape(shape).max(axis=1)))
            inf_l, sup_l, sup_cv, sup_j, sup_abs_i = (
                np.concatenate(column) for column in zip(*pieces))

            log_k = np.log(k)
            curve_floor = 3.0 * self._log_alpha - 2.0 * self._log_cf + inf_l
            curve_cap = sup_l + np.logaddexp(0.0, sup_l - curve_floor)
            # Hoelder coefficient of the one-step objective in the history
            objective = np.logaddexp(LOG2 + sup_cv,
                                     LOG2 + sup_j + log_k + self._log_cf)
            objective = np.logaddexp(objective, self._log_2cap)
            objective = np.logaddexp(objective, LOG2 + np.log(sup_abs_i))
            position_past = np.logaddexp(
                log_k, LOG2 - self._log_cf + 0.5 * (objective - curve_floor))
            past = np.logaddexp(LOG3 + sup_cv,
                                LOG3 + sup_j + self._log_cf
                                + np.logaddexp(log_k, position_past))
            past = np.logaddexp(past, self._log_2cap)
            past = np.logaddexp(
                past, LOG2 + np.log(np.abs(self.value_floor(flat))))
        families += [curve_floor, curve_cap, past, position_past]
        return LogFamilies(*(f.reshape(x.shape) for f in families))


def build_envelope_stack(preferences: Preferences, alpha: float, c_f: float,
                         chi: float, horizon: int) -> list[StageEnvelopes]:
    """Envelope bundles for stages 0..T, index t = stage t.

    ``stack[T]`` is the terminal bundle; ``stack[t]`` for t < T is produced
    by one propagation (:class:`PropagatedEnvelopes`) and bounds the
    optimizer held at depth-t nodes.
    """
    stack: list[StageEnvelopes] = [TerminalEnvelopes(preferences, chi)]
    for _ in range(horizon):
        stack.append(PropagatedEnvelopes(stack[-1], alpha, c_f))
    stack.reverse()
    return stack


def strategy_bound(stack: Sequence[StageEnvelopes], c_f: float,
                   x0: float) -> float:
    """Uniform bound on the backward-induction strategy from capital x0.

    Chains the per-stage optimizer brackets through the reachable wealth
    intervals, each read on a 512-point sub-grid; the result bounds every
    position of every best response, independently of the reference.  May
    saturate to inf for deep stacks.
    """
    horizon = len(stack) - 1
    ticks = np.linspace(0.0, 1.0, 512)
    reach = 0.0
    best = 0.0
    for t in range(horizon):
        stage = stack[t]
        lo, hi = x0 - c_f * reach, x0 + c_f * reach
        grid = lo + ticks * (hi - lo) if reach > 0.0 else np.asarray([x0])
        with np.errstate(over="ignore", invalid="ignore"):
            level = float(np.max(stage.position_past_coeff(grid)))
        best = max(best, level)
        reach += level
        if not math.isfinite(reach):
            return float("inf")
    return best


def envelope_rows(stack: Sequence[StageEnvelopes],
                  x_grid: Sequence[float]) -> tuple[list[str], list[list]]:
    """Tabulate the envelope constants for CSV export.

    One row per (stage, grid wealth) with the optimizer bracket, the
    derivative sandwich and the two history coefficients; terminal-stage
    rows leave the optimization-step columns empty.
    """
    header = ["stage", "x", "position_bound", "slope_floor", "slope_cap",
              "curve_floor", "curve_cap", "position_past_coeff",
              "value_past_coeff"]
    rows: list[list] = []
    grid = np.asarray(list(x_grid), dtype=float)
    for t, stage in enumerate(stack):
        with np.errstate(over="ignore"):
            j, cap_j, lo, hi, cv, ch = (
                np.exp(f) for f in stage.log_families(grid))
        k = None if stage.is_terminal else stage.position_bound(grid)
        for i, x in enumerate(grid):
            rows.append([t, repr(float(x)),
                         "" if k is None else repr(float(k[i])),
                         repr(float(j[i])), repr(float(cap_j[i])),
                         repr(float(lo[i])), repr(float(hi[i])),
                         "" if k is None else repr(float(ch[i])),
                         repr(float(cv[i]))])
    return header, rows


# ---------------------------------------------------------------------------
# preference validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    witness: float | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[CheckOutcome]:
        return [c for c in self.checks if not c.passed]


def _first_failure(grid, mask) -> float | None:
    idx = np.nonzero(mask)[0]
    return float(grid[idx[0]]) if idx.size else None


# the gate's arithmetic overflows on absurd inputs (k_minus = 1e308: the
# loss arm k x on the probe grid); its checks fail on the non-finite values
# instead of numpy printing warnings
@np.errstate(over="ignore", invalid="ignore")
def validate_preferences(utility: Utility, gain_loss: GainLoss,
                         probe_grid: Sequence[float]) -> ValidationReport:
    """Check the structural preference assumptions on a probe grid.

    Utility: increasing, strictly concave, bounded by c_u.  Gain-loss:
    zero at zero, exactly linear on losses, derivative in (0, k_minus],
    nonincreasing on gains, curvature and value bounded by c_nu, globally
    k_minus-Lipschitz on grid pairs.  Finally the asymptotic-elasticity
    probe locates the smallest grid point beyond which
    y V'(y) < V(y) / 2 for the shifted satisfaction (exponent 1/2),
    against a reference at the grid's middle point.

    The gain-loss checks read nu, nu' and nu'' once each, on the grid,
    and the Lipschitz check compares every pair of an (at most 127-point)
    sample of it in one (sample x sample) matrix; its witness is the first
    sample point with a failing pair.  A slope that is exactly 0.0 is read
    again from :meth:`GainLoss.log_dnu`, so a positive nu' that underflows
    (the arctan arm at gains near 1e154) does not fail.
    """
    grid = np.sort(np.asarray(probe_grid, dtype=float), kind="stable")
    if grid.size < 3:
        raise PreferenceError("the probe grid needs at least 3 points")
    checks: list[CheckOutcome] = []

    # signs are read in log space, where U' and U'' do not underflow: U' > 0
    # (U'' < 0) exactly where log U' (log -U'') is a number above -inf
    with np.errstate(invalid="ignore"):
        flat = ~(np.asarray(utility.log_du(grid), dtype=float) > -np.inf)
        convex = ~(np.asarray(utility.log_neg_d2u(grid), dtype=float)
                   > -np.inf)
    uvals = np.asarray(utility.u(grid), dtype=float)
    checks.append(CheckOutcome("utility_increasing", bool(not np.any(flat)),
                               _first_failure(grid, flat)))
    checks.append(CheckOutcome("utility_strictly_concave",
                               bool(not np.any(convex)),
                               _first_failure(grid, convex)))
    checks.append(CheckOutcome("utility_bounded",
                               bool(np.all(uvals <= utility.c_u)),
                               _first_failure(grid, uvals > utility.c_u)))

    # nu at 0 rides along with the grid's one nu call
    nu_vals = np.asarray(gain_loss.nu(np.append(grid, 0.0)), dtype=float)
    nu0, nu_vals = float(nu_vals[-1]), nu_vals[:-1]
    dnu = np.asarray(gain_loss.dnu(grid), dtype=float)
    d2nu = np.abs(np.asarray(gain_loss.d2nu(grid), dtype=float))
    losses, gains = grid <= 0.0, grid > 0.0
    checks.append(CheckOutcome("gain_loss_zero_at_zero", nu0 == 0.0,
                               0.0 if nu0 != 0.0 else None))
    neg, nu_neg = grid[losses], nu_vals[losses]
    # an overflowed loss arm is no linear branch
    linear_bad = ~np.isfinite(nu_neg) | (nu_neg != gain_loss.k_minus * neg)
    checks.append(CheckOutcome("gain_loss_linear_losses",
                               bool(not np.any(linear_bad)),
                               _first_failure(neg, linear_bad)))
    # a slope of exactly 0.0 may be a positive one that underflowed: its
    # sign is read again in log space
    slope_flat = ~(dnu > 0.0)
    underflow = dnu == 0.0
    if np.any(underflow):
        slope_flat[underflow] = ~(np.asarray(
            gain_loss.log_dnu(grid[underflow]), dtype=float) > -np.inf)
    checks.append(CheckOutcome("gain_loss_slope_positive",
                               bool(not np.any(slope_flat)),
                               _first_failure(grid, slope_flat)))
    slope_bad = dnu > gain_loss.k_minus
    checks.append(CheckOutcome("gain_loss_slope_at_most_k",
                               bool(not np.any(slope_bad)),
                               _first_failure(grid, slope_bad)))
    pos = grid[gains]
    mono_bad = np.diff(dnu[gains]) > 1e-12
    checks.append(CheckOutcome("gain_loss_slope_nonincreasing_gains",
                               bool(not np.any(mono_bad)),
                               _first_failure(pos[1:], mono_bad)))
    checks.append(CheckOutcome("gain_loss_curvature_bounded",
                               bool(np.all(d2nu <= gain_loss.c_nu)),
                               _first_failure(grid, d2nu > gain_loss.c_nu)))
    checks.append(CheckOutcome("gain_loss_bounded",
                               bool(np.all(nu_vals <= gain_loss.c_nu)),
                               _first_failure(grid, nu_vals > gain_loss.c_nu)))

    step = max(1, grid.size // 64)
    sample, nu_sample = grid[::step], nu_vals[::step]
    gaps = np.abs(nu_sample[:, None] - nu_sample)
    allowed = gain_loss.k_minus * np.abs(sample[:, None] - sample) + 1e-12
    # a NaN gap (inf - inf) fails
    lip_bad = ~np.all(gaps <= allowed, axis=1)
    checks.append(CheckOutcome("gain_loss_lipschitz",
                               bool(not np.any(lip_bad)),
                               _first_failure(sample, lip_bad)))

    checks.append(_elasticity_probe(utility, gain_loss, grid))
    return ValidationReport(tuple(checks))


def _elasticity_probe(utility: Utility, gain_loss: GainLoss,
                      grid: np.ndarray) -> CheckOutcome:
    """Locate where the shifted satisfaction loses elasticity 1/2.

    The shifted satisfaction, against a degenerate reference at the grid's
    middle point, subtracts (its value at +infinity minus one), making it
    >= 1 eventually; the probe reports the smallest grid point beyond which
    y V'(y) < V(y) / 2 on the whole remaining grid.
    """
    reference = ReferenceDistribution.degenerate(float(grid[len(grid) // 2]))
    if utility.upper_limit is not None:
        u_inf = utility.upper_limit
    else:
        u_inf = float(utility.u(grid[-1]))
    gaps_inf = u_inf - utility.u(reference.wealths)
    sat_inf = float(u_inf + np.dot(reference.probs, gain_loss.nu(gaps_inf)))
    shift = sat_inf - 1.0

    pos = grid[grid > 0.0]
    if pos.size == 0:
        return CheckOutcome("elasticity_probe", False)
    values, slopes, _ = satisfaction(utility, gain_loss, pos, reference,
                                     derivatives=True)
    values = values - shift
    ok = pos * slopes < 0.5 * values
    holds_beyond = np.logical_and.accumulate(ok[::-1])[::-1]
    if not holds_beyond.any():
        return CheckOutcome("elasticity_probe", False)
    x_tilde = float(pos[np.argmax(holds_beyond)])
    return CheckOutcome("elasticity_probe", True, x_tilde)
