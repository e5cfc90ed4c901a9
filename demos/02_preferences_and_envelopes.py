"""
Preferences, satisfaction, and the envelope constants
=====================================================

The investor draws direct utility from wealth and compares it, through a
concave gain-loss transform, to the utility of a reference wealth.  The
structural assumptions on both pieces translate into explicit stage-wise
envelope constants: a bracket containing every one-step optimizer, a
sandwich on the value derivatives, and Hoelder coefficients in the
history.  Those constants are what the verification suites check at
runtime.
"""

import numpy as np

from refequil import (
    ArctanGainLoss,
    ExponentialUtility,
    Preferences,
    ReferenceDistribution,
    build_envelope_stack,
    satisfaction,
    strategy_bound,
    validate_preferences,
)
from refequil.preferences import envelope_rows

utility = ExponentialUtility(a=1.0, c_u=0.05)
gain_loss = ArctanGainLoss.tight(k_minus=0.25)
prefs = Preferences(utility, gain_loss)
print("loss slope:", gain_loss.k_minus, " certified bound:", gain_loss.c_nu)

# satisfaction against a two-point reference: an exact two-term sum
reference = ReferenceDistribution([(0.0, 0.5), (2.0, 0.5)])
print("satisfaction at 1.0:", satisfaction(utility, gain_loss, 1.0,
                                           reference))

# the validator probes every structural assumption on a grid, including
# the asymptotic-elasticity condition of the shifted satisfaction
report = validate_preferences(utility, gain_loss,
                              np.linspace(-5.0, 80.0, 800))
for check in report.checks:
    print(f"  {check.name:<40} {'ok' if check.passed else 'FAILED'}")

# envelope constants for a two-period market certified at level 0.5 with
# increment bound 0.5: the exponent halves per backward step and the
# optimizer bracket widens double-exponentially (hence the log-space
# engine underneath)
stack = build_envelope_stack(prefs, alpha=0.5, c_f=0.5, chi=1.0, horizon=2)
for t, stage in enumerate(stack):
    tag = "terminal" if stage.is_terminal else \
        f"bracket at 0: {stage.position_bound(0.0):.4g}"
    print(f"stage {t}: exponent {stage.exponent}  {tag}")

header, rows = envelope_rows(stack, np.linspace(-1.0, 1.0, 3))
print(header)
for row in rows:
    print(row)

# the chained bracket bounds every best-response position from capital 0
print("uniform strategy bound:", strategy_bound(stack, c_f=0.5, x0=0.0))
