"""Exact Wigner 3j symbols for integer angular momenta.

Values are computed from the Racah single-sum formula in integers only
(exact factorials, one common denominator; |3j|^2 is rounded once, under
one square root), so selection-rule zeros come out as exact 0.0 and there
is no cancellation error.  Integer j up to a few tens is fine; big-int
factorials never overflow.

Condon-Shortley phase convention throughout.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

__all__ = ["wigner3j", "w_coupling"]


def wigner3j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    """Wigner 3j symbol (j1 j2 j3; m1 m2 m3) for integer arguments.

    Returns exactly 0.0 when a selection rule (projection sum, triangle
    inequality) is violated.  Raises ValueError for arguments outside the
    domain: negative j or |m| > j.
    """
    j1, j2, j3 = operator.index(j1), operator.index(j2), operator.index(j3)
    m1, m2, m3 = operator.index(m1), operator.index(m2), operator.index(m3)
    if j1 < 0 or j2 < 0 or j3 < 0:
        raise ValueError(f"negative angular momentum in ({j1}, {j2}, {j3})")
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        raise ValueError(
            f"projection out of range: |m| > j in ({j1},{j2},{j3};{m1},{m2},{m3})"
        )
    return _wigner3j(j1, j2, j3, m1, m2, m3)


@lru_cache(maxsize=None)
def _wigner3j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    if m1 + m2 + m3 != 0:
        return 0.0
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0.0

    t_min = max(0, j2 - j3 - m1, j1 - j3 + m2)
    t_max = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    if t_max < t_min:
        return 0.0

    dens = [
        math.factorial(t)
        * math.factorial(j1 + j2 - j3 - t)
        * math.factorial(j1 - m1 - t)
        * math.factorial(j2 + m2 - t)
        * math.factorial(j3 - j2 + m1 + t)
        * math.factorial(j3 - j1 - m2 + t)
        for t in range(t_min, t_max + 1)
    ]
    # The alternating sum over its common denominator: total = num / lcm.
    lcm = math.lcm(*dens)
    num = sum(-(lcm // den) if t % 2 else lcm // den for t, den in enumerate(dens, t_min))
    if num == 0:
        return 0.0

    # |3j|^2 in (0, 1] as one int / int division, which CPython rounds
    # correctly; one float sqrt at the end.
    ratio = math.prod(map(math.factorial, (
        j1 + j2 - j3, j1 - j2 + j3, -j1 + j2 + j3,
        j1 + m1, j1 - m1, j2 + m2, j2 - m2, j3 + m3, j3 - m3,
    )))
    square = ratio * num * num / (math.factorial(j1 + j2 + j3 + 1) * lcm * lcm)
    sign = 1 if num > 0 else -1
    if (j1 - j2 - m3) % 2:
        sign = -sign
    return sign * math.sqrt(square)


def w_coupling(J: int, M: int, Jp: int, Mp: int, sigma: int) -> float:
    """Dipole coupling coefficient: 3j symbol with the photon's one unit of
    angular momentum, (J 1 Jp; M -sigma -Mp).

    Vanishes exactly unless M - sigma - Mp = 0, which is the Delta-M = sigma
    selection rule for a sigma-polarized drive.
    """
    return wigner3j(J, 1, Jp, M, -sigma, -Mp)
