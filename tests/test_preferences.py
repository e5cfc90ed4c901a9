import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refequil.preferences import (
    ArctanGainLoss,
    EnvelopeError,
    ExponentialUtility,
    PreferenceError,
    Preferences,
    ReferenceDistribution,
    TabulatedUtility,
    TerminalEnvelopes,
    build_envelope_stack,
    fold_hoelder,
    propagate_envelopes,
    satisfaction,
    strategy_bound,
    validate_preferences,
)

EXP_U = ExponentialUtility(1.0, c_u=1.0)
WIDE_NU = ArctanGainLoss(2.0, 1.0)
PREFS = Preferences(EXP_U, WIDE_NU)


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


def test_satisfaction_array_path_matches_scalar_path():
    # the array path sums over the atoms in another order than the scalar
    # path, so the two agree to a few ulps of the three-term sums
    ref = ReferenceDistribution([(-0.4, 0.25), (0.1, 0.35), (0.9, 0.4)])
    xs = np.linspace(-3.0, 4.0, 24).reshape(4, 6)
    assert satisfaction(EXP_U, WIDE_NU, xs, ref).shape == xs.shape
    arrays = satisfaction(EXP_U, WIDE_NU, xs, ref, derivatives=True)
    for k, x in np.ndenumerate(xs):
        scalars = satisfaction(EXP_U, WIDE_NU, float(x), ref,
                               derivatives=True)
        for got, want in zip(arrays, scalars):
            assert got[k] == pytest.approx(want, rel=1e-14, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(atoms=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(0.01, 1.0)),
                      min_size=1, max_size=200),
       xs=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=4),
       derivatives=st.booleans())
def test_satisfaction_list_path_matches_float_path(atoms, xs, derivatives):
    total = math.fsum(q for _, q in atoms)
    ref = ReferenceDistribution([(w, q / total) for w, q in atoms])
    batch = satisfaction(EXP_U, WIDE_NU, list(xs), ref, derivatives)
    assert len(batch) == len(xs)
    for got, x in zip(batch, xs):
        assert got == satisfaction(EXP_U, WIDE_NU, x, ref, derivatives)
        assert got == _per_atom_satisfaction(x, ref, derivatives)


def _per_atom_satisfaction(x, ref, derivatives):
    # the single-wealth kernel written out on a 1-D gap vector, each sum
    # reduced by np.dot; the batched path must reproduce it bit for bit
    ux = float(EXP_U.u(x))
    gaps = ux - EXP_U.u(ref.wealths)
    value = ux + float(np.dot(ref.probs, WIDE_NU.nu(gaps)))
    if not derivatives:
        return value
    dux, d2ux = float(EXP_U.du(x)), float(EXP_U.d2u(x))
    factor = 1.0 + float(np.dot(ref.probs, WIDE_NU.dnu(gaps)))
    curve = float(np.dot(ref.probs, WIDE_NU.d2nu(gaps)))
    return value, dux * factor, d2ux * factor + dux * dux * curve


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


# ---------------------------------------------------------------------------
# envelope constants
# ---------------------------------------------------------------------------

def test_terminal_envelope_values():
    term = TerminalEnvelopes(PREFS, chi=1.0)
    assert term.value_floor(0.0) == pytest.approx(-5.0)
    assert term.slope_floor(0.0) == pytest.approx(1.0)
    assert term.slope_cap(0.0) == pytest.approx(3.0)
    # curvature floor is -U'' and must be positive wherever sampled
    for x in np.linspace(-3, 3, 11):
        assert term.curve_floor(float(x)) > 0.0
        assert term.curve_cap(float(x)) >= term.curve_floor(float(x))
    assert term.exponent == 1.0
    assert np.isneginf(term.log_past_coeff(0.3))


def test_position_bound_matches_hand_formula():
    term = TerminalEnvelopes(PREFS, chi=1.0)
    stage = propagate_envelopes(term, alpha=0.5, c_f=1.0, x_grid=[0.0])
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


def test_envelope_families_positive_in_log_space(desk_prefs):
    stack = build_envelope_stack(desk_prefs, alpha=0.5, c_f=0.5, chi=1.0,
                                 horizon=2)
    xs = np.linspace(-1.5, 1.5, 7)
    for stage in stack[:-1]:
        for name in ("log_slope_floor", "log_slope_cap", "log_curve_floor",
                     "log_curve_cap", "log_position_past_coeff",
                     "log_past_coeff"):
            vals = np.asarray(getattr(stage, name)(xs))
            assert not np.any(np.isnan(vals)), name
        assert np.all(np.asarray(stage.position_bound(xs)) > 0.0)


def test_wealth_window_brackets_centre():
    term = TerminalEnvelopes(PREFS, chi=1.0)
    stage = propagate_envelopes(term, alpha=0.5, c_f=1.0)
    lo, hi = stage.wealth_window(0.4)
    assert lo < 0.4 < hi
    k = stage.position_bound(0.4)
    assert hi - 0.4 == pytest.approx(k * 1.0, rel=1e-12)


def test_propagation_rejects_convex_utility():
    x = np.linspace(-2.0, 2.0, 41)
    convex = TabulatedUtility(x, x ** 2, 2 * x, np.full_like(x, 2.0), c_u=9.0)
    term = TerminalEnvelopes(Preferences(convex, WIDE_NU), chi=1.0)
    with pytest.raises(EnvelopeError, match="curvature floor"):
        propagate_envelopes(term, alpha=0.5, c_f=1.0, x_grid=[0.0])


def test_propagation_rejects_bad_alpha_and_cf():
    term = TerminalEnvelopes(PREFS, chi=1.0)
    with pytest.raises(EnvelopeError):
        propagate_envelopes(term, alpha=0.0, c_f=1.0)
    with pytest.raises(EnvelopeError):
        propagate_envelopes(term, alpha=0.5, c_f=-1.0)


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


# ---------------------------------------------------------------------------
# Hoelder folding
# ---------------------------------------------------------------------------

def test_fold_single_term_is_identity():
    assert fold_hoelder([(2.0, 0.7)], 0.0) == (2.0, 0.7)


def test_fold_two_terms_with_uniform_bound():
    # two exponents, uniform bound 3: constant n*maxC + 2*bound at the
    # smaller exponent
    assert fold_hoelder([(1.0, 0.5), (1.0, 1.0)], 3.0) == (8.0, 0.5)


def test_fold_three_resolves_to_smallest_exponent():
    assert fold_hoelder([(2.0, 0.25), (5.0, 1.0)], 1.0) == (12.0, 0.25)


def test_fold_rejects_empty_and_bad_exponents():
    with pytest.raises(PreferenceError):
        fold_hoelder([], 1.0)
    with pytest.raises(PreferenceError):
        fold_hoelder([(1.0, 1.5)], 1.0)
    with pytest.raises(PreferenceError):
        fold_hoelder([(1.0, 0.5)], -1.0)


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


def test_propagation_checks_exponent_against_price_modulus():
    term = TerminalEnvelopes(PREFS, chi=0.5)
    with pytest.raises(EnvelopeError, match="price exponent"):
        propagate_envelopes(term, alpha=0.5, c_f=1.0, chi=0.25)
    stage = propagate_envelopes(term, alpha=0.5, c_f=1.0, chi=0.5)
    assert stage.exponent == 0.25
