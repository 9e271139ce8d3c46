"""Shared numeric tolerances and simulator limits."""

# Allowed L2-norm drift of a statevector after any public operation.
NORM_TOL = 1e-10

# Slack when comparing sin^2 grid values against support thresholds: the
# grid point sin^2(pi*2/8) evaluates to 0.4999999999999999 in binary floats
# and must still count as >= 0.5.
GRID_TOL = 1e-12

# Default ceiling on the qubits of one dense reference state.
DEFAULT_QUBIT_CAP = 26

# Most bytes one mining level may allocate, checked before it allocates:
# the 2^26-amplitude complex128 state that the default qubit cap admitted.
LEVEL_BYTES = 1 << 30
