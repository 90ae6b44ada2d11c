"""Scalar building blocks that need no numpy, and the checks of every input.

The closed-form thermal-loss capacities use only these, so a command that
computes nothing else starts without importing numpy.  check_photons is the
one check of a photon number and check_block of a mode count.  Every public
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
    ``n`` must pass check_photons.
    """
    check_photons(n, "mean occupation")
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


# Most modes of one integer block: the documented and tested range of the
# pure-dephasing solve, not a memory limit (it holds no per-mode array)
MAX_MODES = 10_000_000


def check_block(m, energy, integer=True):
    """Validated (m, E) of an m-mode block at mean photon number E per mode.

    ``m`` must be a positive integer of at most MAX_MODES and is returned as
    int; with ``integer=False`` any finite m >= 1 is accepted and returned as
    float, so log-spaced mode grids stay exact.  ``energy`` must pass
    check_photons.
    """
    if integer:
        if m > MAX_MODES:  # first, as float(m) overflows past 1e308
            raise ValueError(f"mode count {m} exceeds the limit of {MAX_MODES} modes")
        if not float(m).is_integer() or m < 1:
            raise ValueError(f"mode count must be a positive integer, got {m}")
        m = int(m)
    elif not 1 <= m < math.inf:  # NaN too
        raise ValueError(f"mode count must be >= 1 and finite, got {m}")
    else:
        m = float(m)
    return m, check_photons(energy)
