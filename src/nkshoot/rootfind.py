"""Brent's method for a bracketed scalar root.

A statement-by-statement port of SciPy's ``brentq`` (the C iteration of
``Zeros/brentq.c`` and the checks of its Python wrapper), after Brent,
*Algorithms for Minimization without Derivatives* (1973), ch. 4: inverse
quadratic or secant steps while they are short enough, bisection otherwise.
It takes the same iterates and the same number of function evaluations as
SciPy and raises the same errors, so every root is bit-identical to SciPy's.
"""
from __future__ import annotations

import math
from typing import Callable

_EPS = 2.220446049250313e-16
RTOL_MIN = 4 * _EPS
MAXITER = 100


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def brentq(f: Callable[[float], float], a: float, b: float,
           xtol: float, rtol: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, to within
    xtol + rtol * |root|.

    Raises ValueError for xtol <= 0, rtol < 4 eps, a NaN function value or
    end values of the same sign, and RuntimeError when MAXITER iterations
    do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL_MIN:g})")

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; "
                             f"solver cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(MAXITER):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        stry = math.nan        # a division by zero yields inf or NaN in C
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"failed to converge after {MAXITER} iterations, "
                       f"value is {xcur}")
