"""Scalar building blocks that need no numpy.

The closed-form thermal-loss capacities use only these, so a command that
computes nothing else starts without importing numpy.  Every public
entropy-like quantity is in bits (log base 2); internal accumulation happens
in natural logs and is converted once at the end with ``LN2``.
"""

import math

LN2 = math.log(2.0)


def thermal_entropy_g(n):
    """Entropy in bits of a thermal (geometric) state with mean occupation ``n``.

    Evaluated as n*log1p(1/n) + log1p(n), which is free of cancellation for
    both tiny and huge ``n``; the n -> 0 limit is 0.  Where 1/n overflows
    (n below about 5.6e-309) the same sum is n (1 - ln n) to rounding.
    """
    if n < 0:
        raise ValueError(f"mean occupation must be nonnegative, got {n}")
    if n == 0:
        return 0.0
    inv = 1.0 / n
    if inv == math.inf:
        return n * (1.0 - math.log(n)) / LN2
    return (n * math.log1p(inv) + math.log1p(n)) / LN2


def check_photons(value, name="energy"):
    """``value`` if it is a finite, nonnegative mean photon number.

    The one check for input energies and added noise: NaN and infinity
    fail it too, so no later comparison or cutoff sees them.
    """
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return value
