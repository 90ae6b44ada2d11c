"""Photon-number laws as arrays, built without dephcap, to test its windows against.

The program keeps only the certified window of a law (photon_dist.Window);
these builders give the entries themselves: the negative binomial from
scipy.stats.nbinom and the optimal pure-dephasing law from mpmath.
"""

import mpmath as mp
import numpy as np
from scipy import stats


def negative_binomial(m, energy, lo, hi):
    """P(n) = C(n+m-1, m-1) E^n / (E+1)^(n+m) for n = lo..hi.

    scipy takes the law by p = 1/(E+1), whose rounding moves the entries at
    E << 1 by about n 1e-16/E relative; pass E through ``scipy_energy`` where
    that matters.
    """
    return stats.nbinom.pmf(np.arange(lo, hi + 1), m, 1.0 / (energy + 1.0))


def negative_binomial_sides(m, energy, lo, hi):
    """Masses of the negative binomial below n = lo and above n = hi."""
    law = stats.nbinom(m, 1.0 / (energy + 1.0))
    return float(law.cdf(lo - 1)), float(law.sf(hi))


def negative_binomial_outside(m, energy, lo, hi):
    """Mass of the negative binomial outside n = lo..hi."""
    return sum(negative_binomial_sides(m, energy, lo, hi))


def scipy_energy(energy):
    """The E, within a rounding of ``energy``, of the law scipy reads from p = 1/(E+1)."""
    p = 1.0 / (energy + 1.0)
    return (1.0 - p) / p


def _optimal_terms(m, lam, lo, hi):
    """The optimal law's entries n = lo..hi as mpf, at the working precision."""
    lam = mp.mpf(lam)
    p = mp.binomial(lo + m - 1, m - 1) ** 2 * lam ** lo / mp.hyp2f1(m, m, 1, lam)
    terms = []
    for n in range(lo, hi + 1):
        terms.append(p)
        p *= ((n + m) / mp.mpf(n + 1)) ** 2 * lam
    return terms


def optimal_law(m, lam, lo, hi):
    """P(n) = C(n+m-1, m-1)^2 lam^n / 2F1(m, m; 1; lam) for n = lo..hi, from 30 digits."""
    with mp.workdps(30):
        return np.array([float(p) for p in _optimal_terms(m, lam, lo, hi)])


def optimal_outside(m, lam, lo, hi):
    """Mass of the optimal law outside n = lo..hi, as 1 minus the mass inside."""
    with mp.workdps(30):
        return float(1 - mp.fsum(_optimal_terms(m, lam, lo, hi)))


def negative_binomial_entropy(m, energy):
    """H in bits of the negative binomial, from scipy's law over all but 1e-25 of each tail.

    Each omitted tail carries under 1e-22 bits.  The entries are divided by
    their sum, which cancels a common relative error in them.
    """
    law = stats.nbinom(m, 1.0 / (energy + 1.0))
    p = law.pmf(np.arange(law.ppf(1e-25), law.isf(1e-25) + 1.0))
    p = p[p > 0.0] / p.sum()
    return float(-p @ np.log2(p))


def window_sums(lo, probs):
    """(mean, variance) of ``probs`` at n = lo, lo+1, ..., renormalized.

    What a certified window's sums stand for: the law over the window,
    divided by its mass there.
    """
    p = probs / probs.sum()
    d = np.arange(p.size, dtype=float)
    shift = float(d @ p)
    return lo + shift, float(((d - shift) ** 2) @ p)
