"""Exact Wigner 3j symbols for integer angular momenta.

wigner3j evaluates the Racah single-sum formula in integers only (exact
factorials, one common denominator; |3j|^2 is rounded once, under one
square root), so selection-rule zeros come out as exact 0.0 and there is
no cancellation error.  Integer j up to a few tens is fine; big-int
factorials never overflow.  w_coupling, the one-photon (j2 = 1) case the
dipole couplings use, takes the same exact |3j|^2 from the closed-form
j2 = 1 table instead of the sum, so it gives wigner3j's bits without its
factorials.  Nothing is memoized here: the one caller that repeats
lookups, `dipole`'s coupling-term table, keeps its own per J pair.

Condon-Shortley phase convention throughout.
"""

from __future__ import annotations

import math
import operator

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
    if m1 + m2 + m3 != 0:
        return 0.0
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0.0

    t_min = max(0, j2 - j3 - m1, j1 - j3 + m2)
    t_max = min(j1 + j2 - j3, j1 - m1, j2 + m2)

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
    selection rule for a sigma-polarized drive.  Inside the j2 = 1 table
    (Edmonds, Table 2) |3j|^2 is one ratio of small integer products: the
    exact rational of the Racah sum, rounded once by the same int / int
    division, so every value has wigner3j's bits.  Any other argument goes
    to wigner3j, for its zeros and its errors.
    """
    if not (type(J) is type(M) is type(Jp) is type(Mp) is type(sigma) is int
            and abs(M) <= J and abs(Mp) <= Jp and abs(sigma) <= 1
            and abs(Jp - J) <= 1 and M - sigma == Mp):
        return wigner3j(J, 1, Jp, M, -sigma, -Mp)
    m = sigma * Mp  # the sigma = +1 and -1 entries differ only in its sign
    if Jp > J:
        num = (J - m) * (J - m + 1) if sigma else 2 * (J + 1 - Mp) * (J + 1 + Mp)
        den, negative = (2 * J + 1) * (2 * J + 2) * (2 * J + 3), False
    elif Jp == J:
        num = (J - m) * (J + m + 1) if sigma else 2 * Mp * Mp
        den, negative = J * (2 * J + 1) * (2 * J + 2), sigma < 0 or (sigma == 0 and Mp < 0)
    else:
        num = (J + m) * (J + m + 1) if sigma else 2 * (J - Mp) * (J + Mp)
        den, negative = (2 * J - 1) * 2 * J * (2 * J + 1), sigma == 0
    if num == 0:  # also J = Jp = 0, before den = 0 is divided by
        return 0.0
    if (J + 1 + Mp) % 2:  # the (-1)^(J - 1 + Mp) of the 3j's Clebsch-Gordan coefficient
        negative = not negative
    return -math.sqrt(num / den) if negative else math.sqrt(num / den)
