"""Total photon count of an m-mode block of thermal modes, and its entropy.

Feeding each mode of an m-mode block with one arm of a two-mode squeezed
vacuum state makes the block's total photon number negative-binomial
distributed.  Sacrificing that total as side information costs its entropy
H(N), so a rate R of the dephasing-free channel (its assisted capacity, or
the Holevo rate of phase encoding) gives the lower bound R - H(N)/m per mode
under collective dephasing; the command line forms those bounds.

H(N) of every law is one cancellation-free integral over the law's Laplace
transform, a trapezoid of a few hundred nodes whatever m and E are; a
sweep's sequence of m is integrated as the rows of one array.
"""

import math

import numpy as np

from .errors import SolverError
from .photon_dist import PhotonLaw, build_from_log_pmf
from .scalar_math import LN2, check_block

# entropy prefactor of a unit-variance Gaussian, ~4.1327
GAUSSIAN_ENTROPY_FACTOR = math.sqrt(2.0 * math.pi * math.e)


def _negative_binomial_law(m, energy):
    """The photon_dist.PhotonLaw C(n+m-1, m-1) E^n / (E+1)^(n+m) of a checked (m, E)."""
    q = energy / (energy + 1.0)
    if energy >= 1.0:  # ln q to a few ulp, where 1 - q has lost E's digits
        log_q = -math.log1p(1.0 / energy)
    else:
        log_q = math.log(q) if q > 0.0 else -math.inf  # q = 0 is the vacuum
    return PhotonLaw(m, 1, q, log_q, m * math.log1p(energy))


def thermal_total_photon_dist(m, energy):
    """Certified window of the total photon number of m thermal modes of mean E.

    Negative binomial: P(n) = C(n+m-1, m-1) E^n / (E+1)^(n+m), whose window
    photon_dist.build_from_log_pmf finds on the closed form.
    """
    # real-valued m >= 1 is accepted so log-spaced mode grids stay exact;
    # the negative-binomial law is well defined for any positive shape
    return build_from_log_pmf(_negative_binomial_law(*check_block(m, energy, integer=False)))


# entropy_total_exact's trapezoid in u = ln t: its step, its reach past the
# integrand's scales, and its lowest node k, at t = e^-700, a normal float
_STEP, _REACH, _LOWEST_NODE = 0.25, 38.0, -2800
# below this mean mE the entropy is mE (1 - ln mE) nats to O(mE) relative
_TINY_MEAN = 1e-20
# h sum (1 - e^-a) B1 must match the closed form m g(E) to this, relative
_GUARD_RTOL = 1e-13
# most laws per array: 5000 laws in blocks of 64 peak at 2.1 MB traced
_BLOCK_ROWS = 64
# Taylor coefficients, highest first, of s1/t = (t - 1 + e^-t)/t and
# s2/t = (1 - (1+t) e^-t)/t below t = 1/2 and of x - log1p(x) below x = 0.3,
# each to below 1e-17 of its sum
_S1 = tuple((-1) ** k / math.factorial(k) for k in range(18, 1, -1)) + (0.0,)
_S2 = tuple((-1) ** k * (k - 1) / math.factorial(k) for k in range(18, 1, -1)) + (0.0,)
_DEV = tuple((-1) ** k / k for k in range(34, 1, -1)) + (0.0, 0.0)


def _integrands(m, energy, t):
    """F and G = (1 - e^-a) B1, a = mEt, at nodes t (columns) for shapes m (a column).

    With x = E(1 - e^-t), b = m log1p(x), phi = e^-b and B1 = (1 - e^-mt)/t,
    F = phi (1 - e^-(a-b)) B1 + (1 - phi)(s2 + e^-mt s1)/(t (1 - e^-t)) and
    a - b = m [E s1 + (x - log1p x)]: no factor is a difference, and no 0/0
    arises where t^2 underflows, since s1/t and s2/t come from their series.
    """
    small, e1 = t < 0.5, -np.expm1(-t)
    s1 = np.where(small, np.polyval(_S1, t), (t - e1) / t)
    s2 = np.where(small, np.polyval(_S2, t), (e1 - t * np.exp(-t)) / t)
    x = energy * e1
    log_x = np.log1p(x)
    excess = energy * s1 * t + np.where(x < 0.3, np.polyval(_DEV, x), x - log_x)
    b1 = -np.expm1(-m * t) / t
    b = m * log_x
    phi_gap = np.exp(-b) * -np.expm1(-m * excess)  # phi - e^-a
    one_minus_phi = -np.expm1(-b)
    f = phi_gap * b1 + one_minus_phi * (s2 + np.exp(-m * t) * s1) / e1
    return f, (one_minus_phi + phi_gap) * b1


def _entropy_block(shapes, energy):
    """Entropies in bits of laws of mean mE >= 1e-20, one row per shape.

    Each row sums its own nodes u = k h in the order it would alone, so a row
    is bit-identical to its law's entropy on its own.
    """
    log_e1 = math.log1p(energy)
    ends = [(math.floor((-math.log(m) - log_e1 - _REACH) / _STEP),
             math.ceil((_REACH + max(0.0, -math.log(m * energy))) / _STEP)) for m in shapes]
    first = min(lo for lo, _ in ends)
    if first < _LOWEST_NODE:
        raise SolverError(f"total-count integral needs nodes below t = e^-700 "
                          f"(m = {max(shapes):g}, E = {energy:g})")
    t = np.exp(np.arange(first, max(hi for _, hi in ends) + 1) * _STEP)
    with np.errstate(over="ignore"):  # m t past 1e308 only rounds e^-mt to 0
        f, g = _integrands(np.array(shapes)[:, None], energy, t)
    g_nats = energy * math.log1p(1.0 / energy) + log_e1
    entropies = []
    for m, (lo, hi), f_row, g_row in zip(shapes, ends, f, g):
        nodes = slice(lo - first, hi - first + 1)
        total = _STEP * float(g_row[nodes].sum())
        if not abs(total - m * g_nats) <= _GUARD_RTOL * m * g_nats:
            raise SolverError(f"total-count integral reads m g(E) = {total!r} "
                              f"for {m * g_nats!r} (m = {m:g}, E = {energy:g})")
        entropies.append(_STEP * float(f_row[nodes].sum()) / LN2)
    return entropies


def entropy_total_exact(m, energy):
    """Entropy in bits of the total-count negative-binomial law of m modes.

    A scalar m gives a float, a sequence one float per member in order, all
    validated before any law is evaluated.  Every law is one integral,
    Cheraghchi's E[ln Gamma] form with its O(m) parts cancelled by
    Frullani's: H = int_0^inf F(t) dt/t nats, F as in _integrands, summed by
    a trapezoid of step h = 1/4 in u = ln t on the lattice u = k h from
    -ln(m (E+1)) - 38 to 38 + max(0, -ln mE), _BLOCK_ROWS laws at a time.
    Its error, relative to H:
      - the integrand is analytic for |Im u| < pi/2 (1/(1 - e^-t) has poles
        at t = 2 pi i k), so the step costs C exp(-pi^2/h) = 7e-18 C
        (Trefethen and Weideman, SIAM Review 56, 2014), with C below 13 on
        150 random laws at h = 0.4 to 1;
      - F <= 1/t, so the right end omits at most e^-38 min(1, mE) nats;
      - F <= mEt + m^2 E(E+1) t^2/2, so the left end omits at most
        e^-38 E/(E+1) (1 + e^-38/4) nats, and H >= g(E) >= E/(E+1).
    A guard checks the same nodes: h sum (1 - e^-mEt) B1, Frullani's
    integral, must be m g(E) to 1e-13.  Below mE = 1e-20, H is the closed
    form mE (1 - ln mE) nats, whose omitted terms are O(mE) relative; at
    E = 0 it is 0.  Laws with m (E+1) above e^662 would need nodes below
    t = e^-700 and raise SolverError.
    """
    single = np.ndim(m) == 0
    shapes = [check_block(x, energy, integer=False)[0] for x in ([m] if single else m)]
    means = [x * energy for x in shapes]
    entropies = [mean * (1.0 - math.log(mean)) / LN2 if 0.0 < mean < _TINY_MEAN else 0.0
                 for mean in means]
    rows = [i for i, mean in enumerate(means) if mean >= _TINY_MEAN]
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        for i, h in zip(block, _entropy_block([shapes[i] for i in block], energy)):
            entropies[i] = h
    return entropies[0] if single else entropies


def entropy_total_asym(m, energy):
    """Large-m Gaussian approximation log2[sqrt(2 pi e) sqrt(m E (E+1))].

    Returns NaN when the argument of the log drops below 1 (the regime where
    the approximation stops making sense); NaN then propagates through any
    bound built on top of it.
    """
    m, energy = check_block(m, energy, integer=False)
    arg = GAUSSIAN_ENTROPY_FACTOR * math.sqrt(m * energy * (energy + 1.0))
    if arg < 1.0:
        return math.nan
    return math.log2(arg)

