"""Shared numeric tolerances and simulator limits."""

# Allowed L2-norm drift of a statevector after any public operation.
NORM_TOL = 1e-10

# Slack when comparing sin^2 grid values against support thresholds: the
# grid point sin^2(pi*2/8) evaluates to 0.4999999999999999 in binary floats
# and must still count as >= 0.5.
GRID_TOL = 1e-12

# Most bytes one mining level may allocate, checked before it allocates
# its candidates and law; a dense reference state must fit it too.
LEVEL_BYTES = 1 << 30

# Most shots one quantum mining level may take; a patience above it is refused.
LEVEL_SHOTS = 1 << 20
