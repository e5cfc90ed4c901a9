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
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from .market import PROB_TOL

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
#: windows with non-finite endpoints are clamped here before scanning
_HUGE = 1e290


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

    def u(self, x):
        raise NotImplementedError

    def du(self, x):
        raise NotImplementedError

    def d2u(self, x):
        raise NotImplementedError

    def scalar_terms(self, xs: Sequence[float]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """U, U', U'' at each wealth of ``xs`` as three float64 arrays, each
        element equal bit for bit to the scalar methods at that wealth."""
        return (np.array([float(self.u(float(w))) for w in xs], dtype=float),
                np.array([float(self.du(float(w))) for w in xs], dtype=float),
                np.array([float(self.d2u(float(w))) for w in xs], dtype=float))

    def log_du(self, x):
        with np.errstate(divide="ignore"):
            return np.log(self.du(x))

    def log_neg_d2u(self, x):
        with np.errstate(divide="ignore"):
            return np.log(-self.d2u(x))


class ExponentialUtility(Utility):
    """U(x) = -exp(-a x), a > 0; bounded above by any positive constant."""

    def __init__(self, a: float, c_u: float = 1.0) -> None:
        if a <= 0.0:
            raise PreferenceError("the risk-aversion parameter must be positive")
        if c_u <= 0.0:
            raise PreferenceError("the upper bound c_u must be positive")
        self.a = float(a)
        self.c_u = float(c_u)
        self.upper_limit = 0.0

    @staticmethod
    def _exp(z):
        if type(z) is float:
            try:
                return math.exp(z)
            except OverflowError:
                return math.inf
        with np.errstate(over="ignore"):
            return np.exp(np.asarray(z, dtype=float))

    def u(self, x):
        return -self._exp(-self.a * x) if type(x) is float \
            else -self._exp(-self.a * np.asarray(x, dtype=float))

    def du(self, x):
        return self.a * self._exp(-self.a * x) if type(x) is float \
            else self.a * self._exp(-self.a * np.asarray(x, dtype=float))

    def d2u(self, x):
        return -self.a ** 2 * self._exp(-self.a * x) if type(x) is float \
            else -self.a ** 2 * self._exp(-self.a * np.asarray(x, dtype=float))

    def scalar_terms(self, xs):
        # one math.exp per wealth, as the scalar methods take: np.exp may
        # round differently in the last bit.  Only a batch with an
        # overflowing exponential goes through _exp's overflow rule.  The
        # products below are the scalar methods' own roundings.
        neg_a = -self.a
        try:
            e = np.array([math.exp(neg_a * w) for w in xs], dtype=float)
        except OverflowError:
            e = np.array([self._exp(neg_a * float(w)) for w in xs],
                         dtype=float)
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

        x_arr = np.asarray(x_knots, dtype=float)
        if x_arr.ndim != 1 or len(x_arr) < 4:
            raise PreferenceError("need at least 4 knots")
        if np.any(np.diff(x_arr) <= 0.0):
            raise PreferenceError("knots must be strictly increasing")
        if c_u <= 0.0:
            raise PreferenceError("the upper bound c_u must be positive")
        self._u = PchipInterpolator(x_arr, np.asarray(u, float),
                                    extrapolate=True)
        self._du = PchipInterpolator(x_arr, np.asarray(du, float),
                                     extrapolate=True)
        self._d2u = PchipInterpolator(x_arr, np.asarray(d2u, float),
                                      extrapolate=True)
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

    def terms(self, x):
        """(nu, nu', nu'') at ``x`` from one call, equal to the three
        separate calls bit for bit."""
        return self.nu(x), self.dnu(x), self.d2nu(x)


class ArctanGainLoss(GainLoss):
    """k-linear losses glued twice differentiably to a bounded arctan gain arm.

    nu(x) = k x for x <= 0 and k s atan(x / s) for x > 0.  The simplest C^2
    family meeting the whole contract; the certified bound c_nu is
    max(k s pi / 2, sup |nu''|) with the curvature supremum located
    numerically at construction (and inflated by 1e-6 relative so that
    sampled curvatures never exceed it).
    """

    def __init__(self, k_minus: float, scale: float = 1.0) -> None:
        if k_minus <= 0.0:
            raise PreferenceError("the loss slope k_minus must be positive")
        if scale <= 0.0:
            raise PreferenceError("the gain-arm scale must be positive")
        self.k_minus = float(k_minus)
        self.scale = float(scale)
        res = minimize_scalar(lambda x: -abs(float(self.d2nu(x))),
                              bounds=(0.0, 10.0 * self.scale),
                              method="bounded",
                              options={"xatol": 1e-12})
        curvature_sup = -res.fun * (1.0 + 1e-6)
        self.c_nu = max(self.k_minus * self.scale * math.pi / 2.0,
                        curvature_sup)

    def nu(self, x):
        x = np.asarray(x, dtype=float)
        gains = self.k_minus * self.scale * np.arctan(x / self.scale)
        return np.where(x > 0.0, gains, self.k_minus * x)

    def dnu(self, x):
        x = np.asarray(x, dtype=float)
        gains = self.k_minus / (1.0 + (x / self.scale) ** 2)
        return np.where(x > 0.0, gains, self.k_minus)

    def d2nu(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            gains = (-2.0 * self.k_minus * x / self.scale ** 2
                     / (1.0 + (x / self.scale) ** 2) ** 2)
        # the gain-arm curvature decays to 0; an infinite gap is its limit
        gains = np.where(np.isinf(x), 0.0, gains)
        return np.where(x > 0.0, gains, 0.0)

    def terms(self, x):
        # the three methods' expressions with x / scale, 1 + (x / scale)^2
        # and the gain mask formed once
        x = np.asarray(x, dtype=float)
        k, s = self.k_minus, self.scale
        gain = x > 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            r = x / s
            q = 1.0 + r ** 2
            nu = np.where(gain, k * s * np.arctan(r), k * x)
            dnu = np.where(gain, k / q, k)
            curve = -2.0 * k * x / s ** 2 / q ** 2
        # an infinite gap takes the curvature's limit 0, as in d2nu
        d2nu = np.where(gain & (x < math.inf), curve, 0.0)
        return nu, dnu, d2nu

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
    def from_weights(cls, pairs: Iterable[tuple[float, float]],
                     merge_tol: float = 1e-12) -> "ReferenceDistribution":
        """Build from possibly repeated (wealth, weight) pairs, merging
        wealths that coincide within ``merge_tol``."""
        items = sorted((float(w), float(q)) for w, q in pairs)
        merged: list[tuple[float, float]] = []
        for w, q in items:
            if merged and abs(w - merged[-1][0]) <= merge_tol:
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
                 reference: ReferenceDistribution, derivatives: bool = False,
                 ref_u=None):
    """Overall satisfaction from wealth ``x`` against a reference law.

    Direct utility plus the expected gain-loss comparison of utilities,
    U(x) + sum_j q_j nu(U(x) - U(b_j)); the expectation over the finitely
    supported reference is an exact sum.  ``x`` is a float, a list of
    floats (one result per element) or an array of any shape (evaluated
    elementwise).  With ``derivatives`` the result is the triple
    (value, U'(1 + E nu'), U''(1 + E nu') + U'^2 E nu''); for a list or an
    array each member of the triple is a column, a list or an array shaped
    like ``x``.  ``ref_u`` passes precomputed reference utilities U(b_j).

    A float or a list (the terminal evaluator sends all wealths of a
    lockstep round as one list) takes a fixed number of numpy calls for any
    length, and every element equals the float call bit for bit: U, U', U''
    come from :meth:`Utility.scalar_terms`, the gain-loss terms from one
    :meth:`GainLoss.terms` call on the (elements x atoms) gap matrix, and
    every row is reduced by its own dot product (:func:`_row_dots`).  An
    array sums over the atoms in one matrix-vector product instead, which
    may differ from the float call in the last bits.
    """
    if ref_u is None:
        ref_u = utility.u(reference.wealths)
    probs = reference.probs
    if type(x) is float or type(x) is list:
        ux, dux, d2ux = utility.scalar_terms(x if type(x) is list else [x])
        gaps = ux[:, None] - ref_u
        with np.errstate(over="ignore", invalid="ignore"):
            if not derivatives:
                values = (ux + _row_dots(gain_loss.nu(gaps), probs)).tolist()
                return values if type(x) is list else values[0]
            nu, dnu, d2nu = gain_loss.terms(gaps)
            factor = 1.0 + _row_dots(dnu, probs)
            curve = _row_dots(d2nu, probs)
            columns = ((ux + _row_dots(nu, probs)).tolist(),
                       (dux * factor).tolist(),
                       (d2ux * factor + dux * dux * curve).tolist())
        return columns if type(x) is list else tuple(c[0] for c in columns)
    ux = np.asarray(utility.u(x), dtype=float)
    gaps = ux[..., None] - ref_u
    value = ux + gain_loss.nu(gaps) @ probs
    if not derivatives:
        return value
    dux = np.asarray(utility.du(x), dtype=float)
    d2ux = np.asarray(utility.d2u(x), dtype=float)
    factor = 1.0 + gain_loss.dnu(gaps) @ probs
    curve = gain_loss.d2nu(gaps) @ probs
    return value, dux * factor, d2ux * factor + dux * dux * curve


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

def _clamped_window(lo, hi):
    lo = np.where(np.isfinite(lo), lo, -_HUGE)
    hi = np.where(np.isfinite(hi), hi, _HUGE)
    return lo, hi


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

    ``value_floor`` bounds the value from below; ``slope_floor`` /
    ``slope_cap`` sandwich its first derivative, ``curve_floor`` /
    ``curve_cap`` sandwich the negated second derivative, and
    ``past_coeff`` is the Hoelder coefficient in the history at
    ``exponent``.  Stages produced by :func:`propagate_envelopes`
    additionally expose the optimization-step quantities
    ``position_bound`` (the bracket containing the one-step optimizer),
    ``wealth_window`` (the wealth interval it can reach) and
    ``position_past_coeff`` (the Hoelder coefficient of the optimizer in
    the history, at the exponent of the stage being optimized).

    Every positive family comes from one record in log space:
    ``log_families(x, scanned=True)`` gives a :class:`LogFamilies` at the
    wealths ``x`` (an array); with ``scanned`` False only the two slope
    families, which need no window scan and cost a few operations per
    stage, are filled.  Each ``log_*`` accessor picks one field of it and
    each linear accessor exponentiates that field with saturation.  A
    scalar gives a float, an array an array of its shape.
    """

    is_terminal = True

    def __init__(self, cap: float, exponent: float) -> None:
        #: uniform upper bound on the stage value (c_u + c_nu)
        self.cap = cap
        #: Hoelder exponent of the stage value in the history
        self.exponent = exponent

    log_slope_floor = _family("slope_floor", log=True)
    log_slope_cap = _family("slope_cap", log=True)
    log_curve_floor = _family("curve_floor", log=True)
    log_curve_cap = _family("curve_cap", log=True)
    log_past_coeff = _family("past_coeff", log=True)
    log_position_past_coeff = _family("position_past_coeff", log=True)
    slope_floor = _family("slope_floor", log=False)
    slope_cap = _family("slope_cap", log=False)
    curve_floor = _family("curve_floor", log=False)
    curve_cap = _family("curve_cap", log=False)
    past_coeff = _family("past_coeff", log=False)
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
    """Envelopes of the value produced by one backward optimization step."""

    is_terminal = False

    def __init__(self, prev: StageEnvelopes, alpha: float, c_f: float,
                 scan_points: int) -> None:
        super().__init__(prev.cap, prev.exponent / 2.0)
        if not 0.0 < alpha <= 1.0:
            raise EnvelopeError("alpha must lie in (0, 1]")
        self.prev = prev
        self.alpha = alpha
        self.c_f = c_f
        self.scan_points = int(scan_points)
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

    def wealth_window(self, x):
        """Interval of wealths reachable from x inside the bracket."""
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            half = self.position_bound(x) * self.c_f
            lo, hi = _clamped_window(x - half, x + half)
        return (lo, hi) if x.ndim else (float(lo), float(hi))

    #: wealths per previous-stage call of a window scan; nested scans hold
    #: one chunk per stage, so this bounds their memory
    _SCAN_CHUNK = 1 << 18

    def value_floor(self, x):
        return self.prev.value_floor(x)

    def log_families(self, x, scanned: bool = True) -> LogFamilies:
        """The previous stage's families over each wealth window, reduced.

        The slope floor (cap) is the previous stage's at the upper (lower)
        end of the window, which an infinite bracket puts at +inf (-inf).
        The other families come from five extrema over a ``scan_points``
        sub-grid of the window (endpoints included): the minimum curvature
        floor and the maximum curvature cap, history coefficient, slope cap
        and |value floor|, all read from one previous-stage record per
        chunk of windows.
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

            lo, hi = _clamped_window(flat - half, flat + half)
            ticks = np.linspace(0.0, 1.0, self.scan_points)
            rows = max(1, self._SCAN_CHUNK // self.scan_points)
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


def propagate_envelopes(prev: StageEnvelopes, alpha: float, c_f: float,
                        chi: float | None = None,
                        x_grid: Sequence[float] | None = None,
                        scan_points: int = 512) -> PropagatedEnvelopes:
    """One backward step of the envelope recursion.

    Interval suprema/infima are taken over a ``scan_points``-point uniform
    sub-grid of the wealth window (endpoints included); the exponent halves.
    ``chi`` (the price modulus exponent) is only a consistency witness: the
    chain must start from a terminal stage built at that exponent.  When
    ``x_grid`` is given the produced curvature floor is validated there: a
    non-positive floor signals broken preconditions upstream (a utility
    that is not strictly concave, or alpha outside (0, 1]).
    """
    if c_f <= 0.0:
        raise EnvelopeError("c_f must be positive")
    if chi is not None and prev.exponent > chi + 1e-15:
        raise EnvelopeError(
            f"stage exponent {prev.exponent!r} exceeds the price exponent "
            f"{chi!r}; the chain was built for a different price model")
    stage = PropagatedEnvelopes(prev, alpha, c_f, scan_points)
    if x_grid is not None:
        grid = np.asarray(list(x_grid), dtype=float)
        if grid.size == 0:
            raise EnvelopeError("the validation grid must be non-empty")
        logs = stage.log_curve_floor(grid)
        bad = ~np.isfinite(logs) & ~np.isneginf(logs) | np.isneginf(logs)
        if np.any(bad):
            witness = grid[np.argmax(bad)]
            raise EnvelopeError(
                f"curvature floor is not positive at x={witness!r}; "
                "check strict concavity of the utility and alpha in (0, 1]")
    return stage


def build_envelope_stack(preferences: Preferences, alpha: float, c_f: float,
                         chi: float, horizon: int,
                         x_grid: Sequence[float] | None = None,
                         scan_points: int = 512,
                         deep_scan_points: int = 64,
                         ) -> list[StageEnvelopes]:
    """Envelope bundles for stages 0..T, index t = stage t.

    ``stack[T]`` is the terminal bundle; ``stack[t]`` for t < T is produced
    by one propagation and bounds the optimizer held at depth-t nodes.  The
    first propagation scans at ``scan_points`` (its windows are resolved
    against closed-form terminal envelopes); deeper propagations scan at
    ``deep_scan_points`` to keep the nested evaluation cost bounded.  The
    scans are endpoint-inclusive and the scanned families are
    tail-monotone, so the resolution mainly affects interior detail.
    """
    stack: list[StageEnvelopes] = [TerminalEnvelopes(preferences, chi)]
    for step in range(horizon):
        points = scan_points if step == 0 else deep_scan_points
        stack.append(propagate_envelopes(stack[-1], alpha, c_f,
                                         x_grid=x_grid if step == 0 else None,
                                         scan_points=points))
    stack.reverse()
    return stack


def strategy_bound(stack: Sequence[StageEnvelopes], c_f: float,
                   x0: float, scan_points: int = 512) -> float:
    """Uniform bound on the backward-induction strategy from capital x0.

    Chains the per-stage optimizer brackets through the reachable wealth
    intervals; the result bounds every position of every best response,
    independently of the reference.  May saturate to inf for deep stacks.
    """
    horizon = len(stack) - 1
    ticks = np.linspace(0.0, 1.0, scan_points)
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


def fold_hoelder(constants: Sequence[tuple[float, float]],
                 uniform_bound: float) -> tuple[float, float]:
    """Collapse a sum of Hoelder terms into a single modulus.

    A bounded function with |f(e) - f(e')| <= sum_i C_i |e - e'|^theta_i
    and |f| <= B satisfies a single-term bound with constant
    n max_i C_i + 2 B at the smallest exponent.
    """
    if not constants:
        raise PreferenceError("need at least one (constant, exponent) pair")
    if uniform_bound < 0.0:
        raise PreferenceError("the uniform bound must be nonnegative")
    for c, theta in constants:
        if not 0.0 < theta <= 1.0:
            raise PreferenceError(f"exponent {theta!r} outside (0, 1]")
    n = len(constants)
    c_max = max(c for c, _ in constants)
    theta_min = min(theta for _, theta in constants)
    return n * c_max + 2.0 * uniform_bound, theta_min


# ---------------------------------------------------------------------------
# preference validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    witness: float | None = None
    detail: str = ""


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


def validate_preferences(utility: Utility, gain_loss: GainLoss,
                         probe_grid: Sequence[float],
                         elasticity_reference: ReferenceDistribution | None = None,
                         ) -> ValidationReport:
    """Check the structural preference assumptions on a probe grid.

    Utility: increasing, strictly concave, bounded by c_u.  Gain-loss:
    zero at zero, exactly linear on losses, derivative in (0, k_minus],
    nonincreasing on gains, curvature and value bounded by c_nu, globally
    k_minus-Lipschitz on grid pairs.  Finally the asymptotic-elasticity
    probe locates the smallest grid point beyond which
    y V'(y) < V(y) / 2 for the shifted satisfaction (exponent 1/2).
    """
    grid = np.asarray(sorted(probe_grid), dtype=float)
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

    nu0 = float(gain_loss.nu(0.0))
    checks.append(CheckOutcome("gain_loss_zero_at_zero", nu0 == 0.0,
                               0.0 if nu0 != 0.0 else None))
    neg = grid[grid <= 0.0]
    nu_neg = np.asarray(gain_loss.nu(neg), dtype=float)
    linear_bad = nu_neg != gain_loss.k_minus * neg
    checks.append(CheckOutcome("gain_loss_linear_losses",
                               bool(not np.any(linear_bad)),
                               _first_failure(neg, linear_bad)))
    dnu = np.asarray(gain_loss.dnu(grid), dtype=float)
    checks.append(CheckOutcome("gain_loss_slope_positive",
                               bool(np.all(dnu > 0.0)),
                               _first_failure(grid, dnu <= 0.0)))
    slope_bad = dnu > gain_loss.k_minus
    checks.append(CheckOutcome("gain_loss_slope_at_most_k",
                               bool(not np.any(slope_bad)),
                               _first_failure(grid, slope_bad)))
    pos = grid[grid > 0.0]
    dnu_pos = np.asarray(gain_loss.dnu(pos), dtype=float)
    mono_bad = np.diff(dnu_pos) > 1e-12
    checks.append(CheckOutcome("gain_loss_slope_nonincreasing_gains",
                               bool(not np.any(mono_bad)),
                               _first_failure(pos[1:], mono_bad)))
    d2nu = np.abs(np.asarray(gain_loss.d2nu(grid), dtype=float))
    checks.append(CheckOutcome("gain_loss_curvature_bounded",
                               bool(np.all(d2nu <= gain_loss.c_nu)),
                               _first_failure(grid, d2nu > gain_loss.c_nu)))
    nu_vals = np.asarray(gain_loss.nu(grid), dtype=float)
    checks.append(CheckOutcome("gain_loss_bounded",
                               bool(np.all(nu_vals <= gain_loss.c_nu)),
                               _first_failure(grid, nu_vals > gain_loss.c_nu)))

    sample = grid[:: max(1, grid.size // 64)]
    lip_ok, lip_witness = True, None
    for i, xi in enumerate(sample):
        gaps = np.abs(nu_vals[:: max(1, grid.size // 64)]
                      - float(gain_loss.nu(xi)))
        allowed = gain_loss.k_minus * np.abs(sample - xi) + 1e-12
        bad = gaps > allowed
        if np.any(bad):
            lip_ok, lip_witness = False, float(xi)
            break
    checks.append(CheckOutcome("gain_loss_lipschitz", lip_ok, lip_witness))

    checks.append(_elasticity_probe(utility, gain_loss, grid,
                                    elasticity_reference))
    return ValidationReport(tuple(checks))


def _elasticity_probe(utility: Utility, gain_loss: GainLoss,
                      grid: np.ndarray,
                      reference: ReferenceDistribution | None) -> CheckOutcome:
    """Locate where the shifted satisfaction loses elasticity 1/2.

    The shifted satisfaction subtracts (its value at +infinity minus one),
    making it >= 1 eventually; the probe reports the smallest grid point
    beyond which y V'(y) < V(y) / 2 on the whole remaining grid.
    """
    if reference is None:
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
        return CheckOutcome("elasticity_probe", False, None,
                            "probe grid has no positive points")
    values, slopes, _ = satisfaction(utility, gain_loss, pos, reference,
                                     derivatives=True)
    values = values - shift
    ok = pos * slopes < 0.5 * values
    holds_beyond = np.logical_and.accumulate(ok[::-1])[::-1]
    if not holds_beyond.any():
        return CheckOutcome("elasticity_probe", False, None,
                            "elasticity condition never holds on the grid")
    x_tilde = float(pos[np.argmax(holds_beyond)])
    return CheckOutcome("elasticity_probe", True, x_tilde,
                        f"condition holds on the grid beyond {x_tilde!r}")
