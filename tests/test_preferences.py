import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refequil import preferences
from refequil.config import fixture_path, load_config
from refequil.preferences import (
    LOG2,
    LOG3,
    ArctanGainLoss,
    EnvelopeError,
    ExponentialUtility,
    PreferenceError,
    Preferences,
    PropagatedEnvelopes,
    ReferenceDistribution,
    TabulatedUtility,
    TerminalEnvelopes,
    _HUGE,
    _row_dots,
    build_envelope_stack,
    envelope_rows,
    satisfaction,
    strategy_bound,
    validate_preferences,
)

from conftest import random_certified_instance

EXP_U = ExponentialUtility(1.0, c_u=1.0)
WIDE_NU = ArctanGainLoss(2.0, 1.0)
PREFS = Preferences(EXP_U, WIDE_NU)
#: knots of -exp(-x) on [-4, 4]; wealths beyond them extrapolate
_KNOTS = np.linspace(-4.0, 4.0, 9)
TAB_U = TabulatedUtility(_KNOTS, -np.exp(-_KNOTS), np.exp(-_KNOTS),
                         -np.exp(-_KNOTS), c_u=1.0)


# ---------------------------------------------------------------------------
# satisfaction
# ---------------------------------------------------------------------------

def test_satisfaction_vanishing_comparison():
    ref = ReferenceDistribution.degenerate(0.7)
    assert satisfaction(EXP_U, WIDE_NU, 0.7, ref) == pytest.approx(
        EXP_U.u(0.7), abs=1e-15)


def test_satisfaction_linear_branch_against_higher_reference():
    w = 2.0
    x = 0.5
    ref = ReferenceDistribution.degenerate(w)
    expected = EXP_U.u(x) + 2.0 * (EXP_U.u(x) - EXP_U.u(w))
    assert satisfaction(EXP_U, WIDE_NU, x, ref) == pytest.approx(
        expected, abs=1e-15)


def test_satisfaction_two_atom_hand_sum():
    # independent oracle: write the two comparison terms out by hand
    x = 1.0
    ref = ReferenceDistribution([(0.0, 0.5), (2.0, 0.5)])
    u = lambda y: -math.exp(-y)
    nu = lambda z: 2.0 * math.atan(z) if z > 0 else 2.0 * z
    expected = u(x) + 0.5 * nu(u(x) - u(0.0)) + 0.5 * nu(u(x) - u(2.0))
    assert satisfaction(EXP_U, WIDE_NU, x, ref) == pytest.approx(
        expected, abs=1e-14)
    assert expected == pytest.approx(-0.0367202605287662, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(x=st.floats(-4, 6),
       wealths=st.lists(st.floats(-4, 6), min_size=1, max_size=4))
def test_satisfaction_sandwich_property(x, wealths):
    q = 1.0 / len(wealths)
    ref = ReferenceDistribution([(w, q) for w in wealths[:-1]]
                                + [(wealths[-1], 1.0 - q * (len(wealths) - 1))])
    val = satisfaction(EXP_U, WIDE_NU, x, ref)
    floor = (1.0 + WIDE_NU.k_minus) * float(EXP_U.u(x)) \
        - WIDE_NU.k_minus * EXP_U.c_u
    assert floor - 1e-12 <= val <= EXP_U.c_u + WIDE_NU.c_nu + 1e-12


def test_satisfaction_derivative_sandwich_fd():
    ref = ReferenceDistribution([(0.0, 0.25), (1.0, 0.75)])
    for x in (-1.0, 0.0, 0.5, 2.0):
        step = 1e-5
        fd = (satisfaction(EXP_U, WIDE_NU, x + step, ref)
              - satisfaction(EXP_U, WIDE_NU, x - step, ref)) / (2 * step)
        du = float(EXP_U.du(x))
        assert du * (1 - 1e-4) <= fd <= 3.0 * du * (1 + 1e-4)
        analytic = satisfaction(EXP_U, WIDE_NU, x, ref, derivatives=True)[1]
        assert fd == pytest.approx(analytic, rel=1e-4)


@settings(max_examples=80, deadline=None)
@given(atoms=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(0.01, 1.0)),
                      min_size=1, max_size=40),
       shape=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       data=st.data(), as_list=st.booleans(), derivatives=st.booleans(),
       utility=st.sampled_from([EXP_U, TAB_U]))
def test_satisfaction_every_form_equals_the_float_call(
        atoms, shape, data, as_list, derivatives, utility):
    # lists and arrays of one to three dimensions come back in their own
    # form, and every element equals the float call bit for bit, wealths
    # where U overflows (x = -800) included
    total = math.fsum(q for _, q in atoms)
    ref = ReferenceDistribution([(w, q / total) for w, q in atoms])
    size = math.prod(shape)
    xs = np.array(data.draw(st.lists(
        st.floats(-8.0, 8.0) | st.sampled_from([800.0, -800.0, -0.0]),
        min_size=size, max_size=size))).reshape(shape)
    got = satisfaction(utility, WIDE_NU, xs.tolist() if as_list else xs,
                       ref, derivatives)
    columns = got if derivatives else (got,)
    assert len(columns) == (3 if derivatives else 1)
    for column in columns:
        assert type(column) is (list if as_list else np.ndarray)
        assert np.shape(column) == xs.shape
    for index, x in np.ndenumerate(xs):
        alone = satisfaction(utility, WIDE_NU, float(x), ref, derivatives)
        assert repr(tuple(float(np.asarray(c)[index]) for c in columns)) \
            == repr(alone if derivatives else (alone,))


def test_blocked_kernel_equals_one_block(monkeypatch):
    # 7 reference atoms against a block of 20 cells: two wealths per block
    rng = np.random.default_rng(3)
    ref = ReferenceDistribution.from_weights(
        zip(rng.uniform(-2.0, 2.0, 7), np.full(7, 1.0 / 7.0)))
    xs = rng.uniform(-3.0, 4.0, (3, 11))
    utility = ExponentialUtility(1.0)
    whole = [satisfaction(utility, WIDE_NU, xs, ref, derivatives)
             for derivatives in (False, True)]
    cells = []
    terms = utility.scalar_terms

    def counted(block):
        cells.append(len(block) * len(ref))
        return terms(block)

    monkeypatch.setattr(preferences, "_KERNEL_CELLS", 20)
    monkeypatch.setattr(utility, "scalar_terms", counted)
    blocked = [satisfaction(utility, WIDE_NU, xs, ref, derivatives)
               for derivatives in (False, True)]
    assert len(cells) == 2 * 17 and max(cells) <= 20
    assert _bits(blocked[0]) == _bits(whole[0])
    assert _bits(blocked[1]) == _bits(whole[1])
    # a list splits alike and keeps its form
    assert satisfaction(utility, WIDE_NU, xs[0].tolist(), ref) \
        == whole[0][0].tolist()


@settings(max_examples=60, deadline=None)
@given(atoms=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(0.01, 1.0)),
                      min_size=1, max_size=200),
       xs=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=128),
       derivatives=st.booleans(),
       utility=st.sampled_from([EXP_U, TAB_U]))
def test_satisfaction_list_path_matches_float_path(atoms, xs, derivatives,
                                                   utility):
    # repr compares non-finite results too
    total = math.fsum(q for _, q in atoms)
    ref = ReferenceDistribution([(w, q / total) for w, q in atoms])
    batch = satisfaction(utility, WIDE_NU, list(xs), ref, derivatives)
    if derivatives:
        # the list path returns the columns (v, v', v'')
        assert len(batch) == 3
        batch = list(zip(*batch))
    assert len(batch) == len(xs)
    for got, x in zip(batch, xs):
        assert repr(got) == repr(satisfaction(utility, WIDE_NU, x, ref,
                                              derivatives))
        assert repr(got) == repr(_per_atom_satisfaction(utility, x, ref,
                                                        derivatives))


def _per_atom_satisfaction(utility, x, ref, derivatives):
    # the single-wealth kernel written out on a 1-D gap vector, each sum
    # reduced by np.dot; the batched path must reproduce it bit for bit
    ux = float(utility.u(x))
    gaps = ux - utility.u(ref.wealths)
    value = ux + float(np.dot(ref.probs, WIDE_NU.nu(gaps)))
    if not derivatives:
        return value
    dux, d2ux = float(utility.du(x)), float(utility.d2u(x))
    factor = 1.0 + float(np.dot(ref.probs, WIDE_NU.dnu(gaps)))
    curve = float(np.dot(ref.probs, WIDE_NU.d2nu(gaps)))
    return value, dux * factor, d2ux * factor + dux * dux * curve


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 300), atoms=st.integers(1, 800),
       seed=st.integers(0, 2 ** 32 - 1))
def test_row_dots_equal_per_row_dot(rows, atoms, seed):
    # the list path reduces all rows in one stacked call; every row must
    # equal its own np.dot, across the BLAS kernel's unrolled body and tail
    rng = np.random.default_rng(seed)
    matrix = (rng.standard_normal((rows, atoms))
              * 10.0 ** rng.uniform(-3.0, 3.0, (rows, atoms)))
    probs = rng.uniform(0.01, 1.0, atoms)
    probs /= probs.sum()
    got = _row_dots(matrix, probs)
    assert got.shape == (rows,)
    assert got.tolist() == [float(np.dot(probs, row)) for row in matrix]


#: utilities of reference atoms and of wealths (U(800) = -0.0, U(-800) =
#: -inf) that make gaps of +-0 and +-inf
_EDGE_UTILITIES = [0.0, -0.0, math.inf, -math.inf, -1.0]


@settings(max_examples=80, deadline=None)
@given(atoms=st.lists(st.tuples(st.sampled_from(_EDGE_UTILITIES)
                                | st.floats(-20.0, 0.0), st.floats(0.01, 1.0)),
                      min_size=1, max_size=4),
       xs=st.lists(st.sampled_from([800.0, -800.0, 0.0])
                   | st.floats(-8.0, 8.0), min_size=1, max_size=6),
       derivatives=st.booleans())
def test_satisfaction_list_path_matches_float_path_on_edge_gaps(
        atoms, xs, derivatives):
    # reference utilities passed as ``ref_u``, with gaps of +-0 and +-inf:
    # every element of the list call equals its float call bit for bit,
    # non-finite results included
    ref_u = np.array([u for u, _ in atoms])
    weights = np.array([q for _, q in atoms])
    # increasing wealths keep the probabilities in the order of ref_u
    ref = ReferenceDistribution(enumerate(weights / weights.sum()))
    batch = satisfaction(EXP_U, WIDE_NU, list(xs), ref, derivatives,
                         ref_u=ref_u)
    columns = batch if derivatives else (batch,)
    for k, x in enumerate(xs):
        alone = satisfaction(EXP_U, WIDE_NU, x, ref, derivatives, ref_u=ref_u)
        assert (_bits([c[k] for c in columns])
                == _bits(alone if derivatives else (alone,)))


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


_EDGE_WEALTHS = [-1e308, -800.0, -710.0, -709.0, -1.0, -0.0, 0.0, 5e-324,
                 1.0, 709.0, 745.0, 800.0, 1e308, math.inf, -math.inf]


@settings(max_examples=80, deadline=None)
@given(a=st.floats(0.01, 5.0),
       xs=st.lists(st.floats(allow_nan=True, allow_infinity=True),
                   max_size=40))
def test_exponential_scalar_terms_equal_scalar_methods(a, xs):
    # includes wealths where exp(-a x) overflows to inf (a x < -709.78),
    # where a * exp(-a x) overflows although exp(-a x) does not, and where
    # it underflows to 0
    utility = ExponentialUtility(a)
    xs = xs + _EDGE_WEALTHS + [-700.0 / a, -709.0 / a]
    terms = utility.scalar_terms(xs)
    assert all(t.dtype == np.float64 and t.shape == (len(xs),)
               for t in terms)
    for method, got in zip((utility.u, utility.du, utility.d2u), terms):
        assert _bits(got) == _bits([method(float(x)) for x in xs])


@settings(max_examples=60, deadline=None)
@given(start=st.floats(-10.0, 10.0),
       steps=st.lists(st.floats(0.05, 3.0), min_size=3, max_size=11),
       data=st.data())
def test_tabulated_scalar_terms_equal_scalar_methods(start, steps, data):
    # the default scalar_terms calls u, du and d2u once on the array: PCHIP
    # evaluation is exact per point, so on a random monotone table (U
    # increasing, U' positive and falling, U'' negative) every element
    # equals the float call, at the knots and inside and beyond them
    knots = start + np.cumsum([0.0] + steps)
    n = len(knots)
    positive = st.lists(st.floats(0.01, 5.0), min_size=n, max_size=n)
    u = np.cumsum(data.draw(positive)) - 10.0
    du = np.sort(data.draw(positive))[::-1]
    d2u = -np.asarray(data.draw(positive))
    utility = TabulatedUtility(knots, u, du, d2u, c_u=1.0)
    xs = data.draw(st.lists(st.floats(knots[0] - 20.0, knots[-1] + 20.0),
                            max_size=40)) + knots.tolist()
    terms = utility.scalar_terms(xs)
    for method, got in zip((utility.u, utility.du, utility.d2u), terms):
        assert _bits(got) == _bits([float(method(x)) for x in xs])


@settings(max_examples=80, deadline=None)
@given(k=st.floats(0.01, 5.0), scale=st.floats(0.05, 5.0),
       xs=st.lists(st.one_of(
           st.floats(allow_nan=True, allow_infinity=True),
           st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308,
                            -1e308, math.inf, -math.inf])),
           min_size=1, max_size=60))
def test_gain_loss_terms_equal_separate_calls(k, scale, xs):
    gain_loss = ArctanGainLoss(k, scale)
    gaps = np.asarray(xs, dtype=float)
    for x in (gaps, gaps.reshape(1, -1), gaps[0]):
        nu, dnu, d2nu = gain_loss.terms(x)
        # nu warns on overflowing gaps; terms is silent
        with np.errstate(over="ignore"):
            assert _bits(nu) == _bits(gain_loss.nu(x))
        assert _bits(dnu) == _bits(gain_loss.dnu(x))
        assert _bits(d2nu) == _bits(gain_loss.d2nu(x))
        want_dnu, want_d2nu = _arctan_slope_and_curvature(gain_loss, x)
        assert _bits(dnu) == _bits(want_dnu)
        assert _bits(d2nu) == _bits(want_d2nu)


def _arctan_slope_and_curvature(gain_loss, x):
    # nu' and nu'' of the arctan family written out term by term, as two
    # separate expressions: k / (1 + (x/s)^2) and -2 k x / s^2 / (1 +
    # (x/s)^2)^2 on gains, with the limit 0 at an infinite gap
    x = np.asarray(x, dtype=float)
    k, s = gain_loss.k_minus, gain_loss.scale
    with np.errstate(over="ignore", invalid="ignore"):
        slope = k / (1.0 + (x / s) ** 2)
        curve = -2.0 * k * x / s ** 2 / (1.0 + (x / s) ** 2) ** 2
    curve = np.where(np.isinf(x), 0.0, curve)
    return (np.where(x > 0.0, slope, k), np.where(x > 0.0, curve, 0.0))


# ---------------------------------------------------------------------------
# gain-loss family structure
# ---------------------------------------------------------------------------

def test_arctan_family_bound_is_pi_for_unit_scale():
    assert WIDE_NU.c_nu == pytest.approx(math.pi)


def test_arctan_family_c2_gluing():
    eps = 1e-9
    assert float(WIDE_NU.dnu(eps)) == pytest.approx(WIDE_NU.k_minus,
                                                    rel=1e-8)
    assert float(WIDE_NU.d2nu(eps)) == pytest.approx(0.0, abs=1e-7)
    assert float(WIDE_NU.nu(0.0)) == 0.0


def test_tight_scale_balances_value_and_curvature_bounds():
    nu = ArctanGainLoss.tight(1.0)
    value_sup = nu.k_minus * nu.scale * math.pi / 2.0
    grid = np.linspace(0.0, 10.0, 20001)
    curve_sup = float(np.max(np.abs(nu.d2nu(grid))))
    assert nu.c_nu == pytest.approx(value_sup, rel=1e-5)
    assert curve_sup <= nu.c_nu * (1 + 1e-9)


@settings(max_examples=60, deadline=None)
@given(k=st.floats(1e-3, 1e2), scale=st.floats(1e-2, 1e2))
def test_closed_form_curvature_bound_covers_dense_samples(k, scale):
    nu = ArctanGainLoss(k, scale)
    grid = np.linspace(0.0, 10.0 * scale, 100_000)
    assert nu.c_nu >= float(np.max(np.abs(nu.d2nu(grid))))


@pytest.mark.parametrize("fixture,c_nu", [
    ("asymmetric_eex_t2", "0.10100812753967142"),
    ("stress_t3", "0.08080650203173714"),
    ("symmetric_t2", "0.2525203188491785"),
])
def test_fixture_curvature_bounds_pinned(fixture, c_nu):
    # the values the numeric search of the gain arm's |nu''| gave
    gain_loss = load_config(fixture_path(fixture)).preferences.gain_loss
    assert repr(gain_loss.c_nu) == c_nu


@pytest.mark.parametrize("scale", [1e300, math.inf, 0.0, -1.0])
def test_arctan_rejects_scale_without_finite_square(scale):
    with pytest.raises(PreferenceError, match="scale"):
        ArctanGainLoss(1.0, scale)


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 5e-324])
def test_arctan_rejects_scale_whose_square_is_not_normal(scale):
    # the square underflows to 0 or to a subnormal, which is finite
    assert math.isfinite(scale * scale)
    assert scale * scale < sys.float_info.min
    with pytest.raises(PreferenceError, match="least normal double"):
        ArctanGainLoss(1.0, scale)


def test_arctan_accepts_smallest_scale_with_normal_square():
    scale = math.sqrt(sys.float_info.min) * (1.0 + 1e-15)
    assert scale * scale >= sys.float_info.min
    nu = ArctanGainLoss(1.0, scale)
    assert math.isfinite(nu.c_nu)
    assert np.all(np.isfinite(nu.d2nu([scale, 1.0])))


# ---------------------------------------------------------------------------
# envelope constants
# ---------------------------------------------------------------------------

def test_terminal_envelope_values():
    term = TerminalEnvelopes(PREFS, chi=1.0)
    assert term.value_floor(0.0) == pytest.approx(-5.0)
    at_zero = term.log_families(np.zeros(1))
    assert math.exp(at_zero.slope_floor[0]) == pytest.approx(1.0)
    assert math.exp(at_zero.slope_cap[0]) == pytest.approx(3.0)
    # curvature floor is -U'' and must be positive wherever sampled
    logs = term.log_families(np.linspace(-3, 3, 11))
    assert np.all(np.exp(logs.curve_floor) > 0.0)
    assert np.all(logs.curve_cap >= logs.curve_floor)
    assert term.exponent == 1.0
    assert np.all(np.isneginf(logs.past_coeff))


def test_position_bound_matches_hand_formula():
    term = TerminalEnvelopes(PREFS, chi=1.0)
    stage = PropagatedEnvelopes(term, alpha=0.5, c_f=1.0)
    assert stage.position_bound(0.0) == pytest.approx(28.0 + 8.0 * math.pi,
                                                      rel=1e-12)


def test_exponent_halves_per_step():
    stack = build_envelope_stack(PREFS, alpha=0.5, c_f=1.0, chi=1.0,
                                 horizon=2)
    assert [stage.exponent for stage in stack] == [0.25, 0.5, 1.0]


def test_value_floor_propagates_identically():
    stack = build_envelope_stack(PREFS, alpha=0.5, c_f=1.0, chi=1.0,
                                 horizon=2)
    xs = np.linspace(-2, 2, 9)
    for stage in stack[:-1]:
        assert np.allclose(stage.value_floor(xs), stack[-1].value_floor(xs))


def _random_stack(seed, horizon, atoms):
    """Envelope stack and capital of one random certified instance."""
    market, prefs, x0 = random_certified_instance(
        np.random.default_rng(seed), horizon, atoms)
    stack = build_envelope_stack(prefs, market.certificate.alpha_star,
                                 market.prices.c_f, market.prices.chi,
                                 horizon)
    return stack, x0


def _assert_no_nan(logs, where):
    for name, vals in logs._asdict().items():
        assert vals is None or not np.any(np.isnan(vals)), (where, name)


def test_envelope_families_positive_in_log_space(desk_prefs, monkeypatch):
    # saturated families may reach +-inf, never NaN.  On random stacks up
    # to T = 8: position_bound and the unscanned slope families at every
    # stage, every family at the last two propagated stages (a stage-0
    # record of a T = 8 stack reads 64**7 * 512 wealths per wealth), and
    # every family at every stage of a coarse copy of the stack, whose
    # brackets and slope families are the full stack's
    stack = build_envelope_stack(desk_prefs, alpha=0.5, c_f=0.5, chi=1.0,
                                 horizon=2)
    cases = [(stack, stack, np.linspace(-1.5, 1.5, 7))]
    for horizon in range(1, 9):
        for atoms in (2, 3):
            full, x0 = _random_stack(1, horizon, atoms)
            with monkeypatch.context() as patch:
                patch.setattr(PropagatedEnvelopes, "_SCAN_POINTS", 5)
                patch.setattr(PropagatedEnvelopes, "_DEEP_SCAN_POINTS", 3)
                coarse, _ = _random_stack(1, horizon, atoms)
            cases.append((full, coarse, x0 + np.linspace(-3.0, 3.0, 7)))
    for full, coarse, xs in cases:
        horizon = len(full) - 1
        for t, stage in enumerate(full[:-1]):
            assert np.all(stage.position_bound(xs) > 0.0), (horizon, t)
            _assert_no_nan(stage.log_families(xs, scanned=False),
                           (horizon, t))
        for t in range(max(0, horizon - 2), horizon):
            _assert_no_nan(full[t].log_families(xs), (horizon, t))
        extreme = np.array([-np.inf, -1e300, 1e300, np.inf])
        for t, stage in enumerate(coarse[:-1]):
            assert np.array_equal(stage.position_bound(xs),
                                  full[t].position_bound(xs))
            _assert_no_nan(stage.log_families(xs), (horizon, t, "coarse"))
            assert not np.any(np.isnan(stage.position_bound(extreme)))
            _assert_no_nan(stage.log_families(extreme), (horizon, t, "far"))


# the per-family recursion the one-record engine replaced, kept as the
# reference: every family scans the previous stage's families one at a time

class PerFamilyTerminal:
    def __init__(self, stage):
        self.stage = stage
        self.utility = stage.preferences.utility

    def log_slope_floor(self, x):
        return self.utility.log_du(x)

    def log_slope_cap(self, x):
        return self.stage._log1k + self.utility.log_du(x)

    def log_curve_floor(self, x):
        return self.utility.log_neg_d2u(x)

    def log_curve_cap(self, x):
        return np.logaddexp(
            self.stage._log1k + self.utility.log_neg_d2u(x),
            math.log(self.stage.preferences.gain_loss.c_nu)
            + 2.0 * self.utility.log_du(x))

    def log_past_coeff(self, x):
        return np.full_like(np.asarray(x, dtype=float), -np.inf)


class PerFamilyPropagated:
    """position_bound and value_floor are the stage's own; the wealth
    window is the bracket times c_f, clamped like the engine's."""

    def __init__(self, stage):
        self.stage = stage
        self.prev = per_family(stage.prev)

    def _scan(self, log_fn, x, reduce_fn):
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            half = self.stage.position_bound(flat) * self.stage.c_f
            lo, hi = flat - half, flat + half
        lo = np.where(np.isfinite(lo), lo, -_HUGE)
        hi = np.where(np.isfinite(hi), hi, _HUGE)
        ticks = np.linspace(0.0, 1.0, self.stage.scan_points)
        rows = max(1, (1 << 21) // self.stage.scan_points)
        pieces = []
        for k in range(0, flat.size, rows):
            sl = slice(k, min(k + rows, flat.size))
            grid = lo[sl, None] + ticks[None, :] * (hi - lo)[sl, None]
            vals = np.asarray(log_fn(grid.ravel())).reshape(grid.shape)
            pieces.append(reduce_fn(vals, axis=1))
        out = np.concatenate(pieces)
        if x.ndim == 0:
            return float(out[0])
        return out.reshape(x.shape)

    def log_slope_floor(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            shift = self.stage.position_bound(x) * self.stage.c_f
        return self.prev.log_slope_floor(x + shift)

    def log_slope_cap(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            shift = self.stage.position_bound(x) * self.stage.c_f
        return self.prev.log_slope_cap(x - shift)

    def log_curve_floor(self, x):
        s = self.stage
        scanned = self._scan(self.prev.log_curve_floor, x, np.min)
        return 3.0 * s._log_alpha - 2.0 * s._log_cf + scanned

    def log_curve_cap(self, x):
        sup_l = self._scan(self.prev.log_curve_cap, x, np.max)
        return sup_l + np.logaddexp(0.0, sup_l - self.log_curve_floor(x))

    def log_objective_coeff(self, x):
        s = self.stage
        x = np.asarray(x, dtype=float)
        sup_cv = self._scan(self.prev.log_past_coeff, x, np.max)
        sup_j = self._scan(self.prev.log_slope_cap, x, np.max)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            sup_abs_i = np.log(self._scan(
                lambda y: np.abs(s.prev.value_floor(y)), x, np.max))
            log_k = np.log(s.position_bound(x))
        out = np.logaddexp(LOG2 + sup_cv, LOG2 + sup_j + log_k + s._log_cf)
        out = np.logaddexp(out, s._log_2cap)
        out = np.logaddexp(out, LOG2 + sup_abs_i)
        return out

    def log_position_past_coeff(self, x):
        s = self.stage
        x = np.asarray(x, dtype=float)
        half_gap = 0.5 * (self.log_objective_coeff(x)
                          - self.log_curve_floor(x))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_k = np.log(s.position_bound(x))
        out = np.logaddexp(log_k, LOG2 - s._log_cf + half_gap)
        return out if x.ndim else float(out)

    def log_past_coeff(self, x):
        s = self.stage
        x = np.asarray(x, dtype=float)
        sup_cv = self._scan(self.prev.log_past_coeff, x, np.max)
        sup_j = self._scan(self.prev.log_slope_cap, x, np.max)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_k = np.log(s.position_bound(x))
            log_reach = np.logaddexp(log_k, self.log_position_past_coeff(x))
            log_abs_i = np.log(np.abs(s.value_floor(x)))
        out = np.logaddexp(LOG3 + sup_cv,
                           LOG3 + sup_j + s._log_cf + log_reach)
        out = np.logaddexp(out, s._log_2cap)
        out = np.logaddexp(out, LOG2 + log_abs_i)
        return out


def per_family(stage):
    if stage.is_terminal:
        return PerFamilyTerminal(stage)
    return PerFamilyPropagated(stage)


FAMILIES = ("slope_floor", "slope_cap", "curve_floor", "curve_cap",
            "past_coeff", "position_past_coeff")


@pytest.mark.parametrize("chunk", [1 << 18, PropagatedEnvelopes._SCAN_CHUNK,
                                   1 << 14])
@pytest.mark.parametrize("horizon,atoms", [(1, 2), (1, 3), (2, 2), (2, 3),
                                           (3, 2), (3, 3)])
def test_log_families_equal_per_family_reference(horizon, atoms, chunk,
                                                 monkeypatch):
    # equal bit for bit, whatever the chunking of the scans; each field
    # has the shape of the wealths, and an accessor gives a scalar a
    # float.  At T = 3 the deep scans are coarse: the reference's repeated
    # scans take ~10 s at full resolution.
    monkeypatch.setattr(PropagatedEnvelopes, "_SCAN_CHUNK", chunk)
    if horizon == 3:
        monkeypatch.setattr(PropagatedEnvelopes, "_DEEP_SCAN_POINTS", 16)
    stack, x0 = _random_stack(horizon * 10 + atoms, horizon, atoms)
    inputs = (np.asarray(x0 + 0.7), x0 + np.array([[-1.5, 0.0], [0.4, 2.5]]))
    for stage in stack:
        ref = per_family(stage)
        for x in inputs:
            record = stage.log_families(x)
            for name in FAMILIES:
                if not hasattr(ref, "log_" + name):
                    continue
                want = getattr(ref, "log_" + name)(x)
                got = getattr(record, name)
                assert np.shape(got) == np.shape(want) == x.shape, name
                assert np.array_equal(got, want), (stage.exponent, name)
            # the accessors the library reads pick, or exponentiate, a field
            with np.errstate(over="ignore"):
                for got, want in (
                        (stage.log_slope_floor(x), record.slope_floor),
                        (stage.curve_cap(x), np.exp(record.curve_cap)),
                        (stage.position_past_coeff(x),
                         np.exp(record.position_past_coeff))):
                    assert type(got) is (np.ndarray if x.ndim else float)
                    assert np.array_equal(got, want)
    assert stack[-1].log_families(x0).position_past_coeff == -math.inf


def _assert_scans_each_window_grid_once(preferences, market, x0,
                                        monkeypatch):
    # stage t's record reads one window grid per wealth from stage t + 1,
    # and so on down to the terminal stage; the slope families read the
    # two window ends per wealth, unscanned
    stack = build_envelope_stack(preferences,
                                 market.certificate.alpha_star,
                                 market.prices.c_f, market.prices.chi,
                                 market.horizon)
    wealths = {True: 0, False: 0}
    log_families = TerminalEnvelopes.log_families

    def counted(self, x, scanned=True):
        wealths[scanned] += np.size(x)
        return log_families(self, x, scanned)

    monkeypatch.setattr(TerminalEnvelopes, "log_families", counted)
    grid = np.linspace(x0 - 2.0, x0 + 2.0, 9)
    envelope_rows(stack, grid)
    points = [stage.window_points for stage in stack[:-1]]
    horizon, n = len(points), grid.size
    assert wealths[True] == sum(n * math.prod(points[t:])
                                for t in range(horizon + 1))
    assert wealths[False] == sum(2 ** (horizon - u) * n
                                 * math.prod(points[t:u])
                                 for t in range(horizon)
                                 for u in range(t, horizon))
    return points


def test_envelope_rows_scan_each_window_grid_once(monkeypatch):
    # over the terminal stage an exponential utility's windows read their
    # two ends
    config = load_config(fixture_path("stress_t3"))
    points = _assert_scans_each_window_grid_once(
        config.preferences, config.market, config.initial_capital,
        monkeypatch)
    assert points == [64, 64, 2]


def test_envelope_rows_scan_tabulated_windows_in_full(monkeypatch):
    # a tabulated utility's PCHIP derivatives need not be monotone, so its
    # windows read the full scan_points grid
    config = load_config(fixture_path("symmetric_t2"))
    utility = config.preferences.utility
    x = np.linspace(-6.0, 6.0, 49)
    table = TabulatedUtility(x, utility.u(x), utility.du(x), utility.d2u(x),
                             c_u=utility.c_u)
    points = _assert_scans_each_window_grid_once(
        Preferences(table, config.preferences.gain_loss), config.market,
        config.initial_capital, monkeypatch)
    assert points == [64, 512]


@settings(max_examples=80, deadline=None)
@given(a=st.floats(0.05, 5.0), k=st.floats(0.01, 3.0),
       c_u=st.floats(0.01, 2.0), lo=st.floats(-40.0, 40.0),
       width=st.floats(1e-3, 40.0))
def test_exponential_window_extrema_sit_at_window_ends(a, k, c_u, lo, width):
    # the five window extrema of a propagation over the terminal stage,
    # from the two window ends and from a 4,096-point scan of the window
    utility = ExponentialUtility(a, c_u)
    assert utility.decreasing_terminal_families
    term = TerminalEnvelopes(Preferences(utility, ArctanGainLoss.tight(k)),
                             chi=1.0)

    def extrema(ticks):
        points = lo + ticks * width
        logs = term.log_families(points)
        return (logs.curve_floor.min(), logs.curve_cap.max(),
                logs.past_coeff.max(), logs.slope_cap.max(),
                np.abs(term.value_floor(points)).max())

    assert extrema(np.array([0.0, 1.0])) == extrema(
        np.linspace(0.0, 1.0, 4096))


def test_propagation_rejects_bad_alpha_and_cf():
    term = TerminalEnvelopes(PREFS, chi=1.0)
    with pytest.raises(EnvelopeError):
        PropagatedEnvelopes(term, alpha=0.0, c_f=1.0)
    with pytest.raises(EnvelopeError):
        PropagatedEnvelopes(term, alpha=0.5, c_f=-1.0)


def test_strategy_bound_is_positive_and_monotone_in_horizon(desk_prefs):
    one = build_envelope_stack(desk_prefs, 0.5, 0.5, 1.0, 1)
    two = build_envelope_stack(desk_prefs, 0.5, 0.5, 1.0, 2)
    b1 = strategy_bound(one, 0.5, 0.0)
    b2 = strategy_bound(two, 0.5, 0.0)
    assert b1 > 0.0
    assert b2 >= b1


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

def test_builtin_preferences_pass_validation():
    grid = np.linspace(-5.0, 80.0, 1000)
    report = validate_preferences(EXP_U, WIDE_NU, grid)
    assert report.passed, [c.name for c in report.failed()]
    probe = next(c for c in report.checks if c.name == "elasticity_probe")
    assert probe.witness is not None and probe.witness > 0.0


class _SteepGainLoss(ArctanGainLoss):
    """Violation fixture: derivative exceeds the loss slope near zero."""

    def dnu(self, x):
        base = np.asarray(super().dnu(x))
        return np.where(np.asarray(x) > 0.0, 1.5 * self.k_minus, base)


def test_validator_passes_exponential_utility_at_large_capital():
    # U' and U'' underflow to 0 far right of the origin; the sign checks
    # read them in log space (the CLI probe grid at capital 800)
    grid = np.linspace(-5.0, 860.0, 801)
    assert float(EXP_U.du(grid[-1])) == 0.0
    report = validate_preferences(EXP_U, WIDE_NU, grid)
    assert report.passed, [c.name for c in report.failed()]


def test_validator_flags_convex_utility():
    x = np.linspace(-2.0, 2.0, 41)
    convex = TabulatedUtility(x, x ** 2 - 9.0, 2 * x, np.full_like(x, 2.0),
                              c_u=9.0)
    report = validate_preferences(convex, WIDE_NU, np.linspace(-1.5, 1.5, 31))
    failed = {c.name for c in report.failed()}
    assert "utility_strictly_concave" in failed
    assert "utility_increasing" in failed


def test_validator_flags_slope_violation():
    bad = _SteepGainLoss(1.0, 1.0)
    grid = np.linspace(-2.0, 60.0, 500)
    report = validate_preferences(EXP_U, bad, grid)
    failed = {c.name for c in report.failed()}
    assert "gain_loss_slope_at_most_k" in failed
    witness = next(c for c in report.checks
                   if c.name == "gain_loss_slope_at_most_k").witness
    assert witness is not None and witness > 0.0


def test_validator_flags_unbounded_utility():
    x = np.linspace(-2.0, 2.0, 41)
    linear = TabulatedUtility(x, x, np.ones_like(x), np.full_like(x, -1e-9),
                              c_u=0.5)
    grid = np.linspace(-1.5, 60.0, 400)
    report = validate_preferences(linear, WIDE_NU, grid)
    assert not report.passed
    assert "utility_bounded" in {c.name for c in report.failed()}


_GATE_CHECKS = (
    "utility_increasing", "utility_strictly_concave", "utility_bounded",
    "gain_loss_zero_at_zero", "gain_loss_linear_losses",
    "gain_loss_slope_positive", "gain_loss_slope_at_most_k",
    "gain_loss_slope_nonincreasing_gains", "gain_loss_curvature_bounded",
    "gain_loss_bounded", "gain_loss_lipschitz", "elasticity_probe")


class _KinkedGainLoss(ArctanGainLoss):
    """Not k_minus-Lipschitz: the arctan arm plus a step of height
    ``jump`` at ``at``; its slope methods are the arctan family's."""

    def __init__(self, k_minus, scale, at, jump):
        super().__init__(k_minus, scale)
        self.at, self.jump = at, jump

    def nu(self, x):
        x = np.asarray(x, dtype=float)
        return super().nu(x) + np.where(x > self.at, self.jump, 0.0)


def _looped_lipschitz(gain_loss, probe_grid):
    # the per-point loop over the gate's sample: one nu call per sample
    # point, the first point with a failing pair is the witness
    grid = np.asarray(sorted(probe_grid), dtype=float)
    step = max(1, grid.size // 64)
    sample = grid[::step]
    nu_sample = np.asarray(gain_loss.nu(grid), dtype=float)[::step]
    for xi in sample:
        gaps = np.abs(nu_sample - float(gain_loss.nu(xi)))
        allowed = gain_loss.k_minus * np.abs(sample - xi) + 1e-12
        if not np.all(gaps <= allowed):
            return False, float(xi)
    return True, None


_PROBE_POINTS = st.one_of(
    st.floats(-200.0, 200.0),
    st.sampled_from([0.0, -0.0, 1e-300, -5.0, 60.0, 1e6, -1e6]))


@settings(max_examples=120, deadline=None)
@given(grid=st.lists(_PROBE_POINTS, min_size=3, max_size=300),
       k=st.one_of(st.floats(0.01, 5.0), st.just(1e308)),
       scale=st.floats(0.05, 5.0),
       kink=st.one_of(st.none(), st.tuples(st.floats(-10.0, 100.0),
                                           st.floats(-2.0, 2.0))))
def test_lipschitz_check_equals_the_per_point_loop(grid, k, scale, kink):
    # random, unsorted grids with repeats and signed zeros; the kinked
    # double fails wherever the sample straddles its step, and k = 1e308
    # overflows the loss arm into inf - inf gaps, which must fail too
    gain_loss = (ArctanGainLoss(k, scale) if kink is None
                 else _KinkedGainLoss(k, scale, *kink))
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _looped_lipschitz(gain_loss, grid)
    report = validate_preferences(EXP_U, gain_loss, grid)
    assert tuple(c.name for c in report.checks) == _GATE_CHECKS
    lipschitz = report.checks[_GATE_CHECKS.index("gain_loss_lipschitz")]
    assert (lipschitz.passed, lipschitz.witness) == expected


def test_kinked_gain_loss_fails_with_the_loop_witness():
    kinked = _KinkedGainLoss(0.5, 1.0, 10.0, -0.75)
    grid = np.linspace(-5.0, 60.0, 801)
    expected = _looped_lipschitz(kinked, grid)
    assert expected[0] is False
    report = validate_preferences(EXP_U, kinked, grid)
    lipschitz = next(c for c in report.checks
                     if c.name == "gain_loss_lipschitz")
    assert (lipschitz.passed, lipschitz.witness) == expected
    assert [c.name for c in report.failed()] == ["gain_loss_lipschitz"]


def test_arctan_log_slope_survives_underflow():
    gain_loss = ArctanGainLoss(0.1, 0.6)
    xs = np.array([-3.0, 0.0, 0.3, 0.6, 2.0, 1e100])
    assert np.allclose(gain_loss.log_dnu(xs), np.log(gain_loss.dnu(xs)),
                       rtol=1e-14, atol=0.0)
    # (x / s)^2 overflows: the linear slope is 0.0, its log is finite
    huge = np.array([1e154, 1e200, 1e308])
    with np.errstate(over="ignore"):
        assert np.all(gain_loss.dnu(huge) == 0.0)
    logs = gain_loss.log_dnu(huge)
    assert np.all(np.isfinite(logs))
    assert np.allclose(logs, math.log(0.1) - 2.0 * (np.log(huge)
                                                     - math.log(0.6)))
    assert gain_loss.log_dnu(math.inf) == -math.inf


def test_validator_passes_gain_slope_that_underflows():
    # the CLI probe grid at capital 1e200: every gain past about 1e154 has
    # an arctan slope that rounds to 0.0
    grid = np.linspace(-5.0, 1e200 + 60.0, 801)
    report = validate_preferences(EXP_U, WIDE_NU, grid)
    assert report.passed, [c.name for c in report.failed()]


@pytest.mark.parametrize("table", range(4), ids=["x", "u", "du", "d2u"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_tabulated_utility_refuses_non_finite_entries(table, value):
    # scipy's interpolator refuses them too, but only for the ordinates
    columns = [_KNOTS.copy(), -np.exp(-_KNOTS), np.exp(-_KNOTS),
               -np.exp(-_KNOTS)]
    columns[table][-1] = value
    with pytest.raises(PreferenceError, match="must be finite"):
        TabulatedUtility(*columns, c_u=1.0)


# ---------------------------------------------------------------------------
# reference distributions
# ---------------------------------------------------------------------------

def test_reference_merges_equal_wealths():
    ref = ReferenceDistribution.from_weights(
        [(1.0, 0.25), (0.0, 0.25), (1.0 + 5e-13, 0.25), (-1.0, 0.25)])
    assert len(ref) == 3
    assert ref.probs[list(ref.wealths).index(1.0)] == pytest.approx(0.5)


def test_reference_validates_probability_mass():
    with pytest.raises(PreferenceError):
        ReferenceDistribution([(0.0, 0.5), (1.0, 0.4)])
    with pytest.raises(PreferenceError):
        ReferenceDistribution([])


@settings(max_examples=50, deadline=None)
@given(x=st.floats(-30, 0))
def test_linear_branch_is_exact(x):
    assert float(WIDE_NU.nu(x)) == WIDE_NU.k_minus * x


def test_envelope_rows_schema():
    from refequil.preferences import envelope_rows

    stack = build_envelope_stack(PREFS, alpha=0.5, c_f=1.0, chi=1.0,
                                 horizon=1)
    header, rows = envelope_rows(stack, [-1.0, 0.0, 1.0])
    assert header == ["stage", "x", "position_bound", "slope_floor",
                      "slope_cap", "curve_floor", "curve_cap",
                      "position_past_coeff", "value_past_coeff"]
    assert len(rows) == 6  # two stages, three grid points
    terminal_row = rows[-1]
    assert terminal_row[0] == 1 and terminal_row[2] == ""
    propagated_row = rows[0]
    assert propagated_row[0] == 0 and propagated_row[2] != ""

