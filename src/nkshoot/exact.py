"""Exact reference solutions: the four explicit solutions of the fundamental
system, the two asymptotically conical Calabi-Yau structures used as bubble
oracles, the bubble rescalings, and the Legendre solutions of the linearized
equation on the sine-cone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OutOfDomainError
from .state import State

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# the four named solutions

def _sine_cone(t: float) -> State:
    s, c = math.sin(t), math.cos(t)
    return State(t, s, (0.0, s * s * c, -s ** 3), (0.0, s ** 4, s ** 3 * c))


def _s6_round(t: float) -> State:
    # closes on S^3 at t = 0 (b-family member) and on S^2 at t = pi/2
    s, c = math.sin(t), math.cos(t)
    c2 = c * c
    return State(
        t, 1.5 * c,
        (-1.5 * s * (2 - 5 * c2), -3 * s * (1 - 2 * c2), -4.5 * s * c2),
        (2.25 * c2 * (4 - 5 * c2), 9 * s * s * c2, 2.25 * c2 * (3 * c2 - 2)))


def _s3s3_homog(t: float) -> State:
    x, y = 2 * SQRT3 * t, SQRT3 * t
    return State(
        t, 1.0,
        (math.sin(x) / SQRT3, math.sin(x) / SQRT3, -2 * math.sin(y) / SQRT3),
        (-2 * math.cos(x) / 3, 2 * (1 - math.cos(x)) / 3, 2 * math.cos(y) / 3))


def _cp3_homog(t: float) -> State:
    # v0 sign corrected relative to the common printed form: the positive
    # sign is forced by the first integral <u, v> = 0 and by v0 ~ 3 a^2 t^2
    # in the S2 family's Taylor data
    x = SQRT2 * t
    s, c = math.sin(x), math.cos(x)
    return State(
        t, 0.75 * SQRT2 * s,
        (0.375 * (3 * c * c - 1), 0.75 * c, -1.125 * s * s),
        (1.125 * c * s * s, 1.125 * s * s, 1.125 * c * s * s))


@dataclass(frozen=True)
class NamedSolution:
    """One explicit solution: evaluator, domain, and the singular-orbit
    metadata (orbit type at each end with the family parameter realizing it,
    None where the end is a conical singularity)."""

    name: str
    domain: tuple[float, float]
    evaluator: Callable[[float], State]
    orbit_start: tuple[str, float] | None
    orbit_end: tuple[str, float] | None

    def eval(self, t: float) -> State:
        lo, hi = self.domain
        if not lo <= t <= hi:
            raise OutOfDomainError(
                f"{self.name}: t = {t} outside [{lo}, {hi}]")
        return self.evaluator(t)


NAMED_SOLUTIONS = {
    "sine-cone": NamedSolution("sine-cone", (0.0, math.pi), _sine_cone,
                               None, None),
    "s6-round": NamedSolution("s6-round", (0.0, math.pi / 2), _s6_round,
                              ("S3", 1.5), ("S2", SQRT3)),
    "s3s3-homog": NamedSolution("s3s3-homog", (0.0, math.pi / SQRT3),
                                _s3s3_homog, ("S3", 1.0), ("S3", 1.0)),
    "cp3-homog": NamedSolution("cp3-homog", (0.0, math.pi / SQRT2),
                               _cp3_homog, ("S2", SQRT3 / 2), ("S2", SQRT3 / 2)),
}


def eval_named(name: str, t: float) -> State:
    if name not in NAMED_SOLUTIONS:
        raise OutOfDomainError(
            f"unknown solution {name!r}; choose from {sorted(NAMED_SOLUTIONS)}")
    return NAMED_SOLUTIONS[name].eval(t)


# ---------------------------------------------------------------------------
# Calabi-Yau closed forms (bubble oracles)

KAPPA = 2.0 / 3.0


@dataclass(frozen=True)
class CalabiYauForm:
    """Closed-form asymptotically conical Calabi-Yau structure.

    components() returns the printed coefficient functions (2-form
    coefficients). state_components() returns the embedding into the 7-tuple
    state convention, where the v-entries pick up a factor lambda and the
    small resolution sits at u2 = -lambda*mu; this is the normalization the
    rescaled bubbles converge to.
    """

    name: str          # 'small-resolution' | 'smoothing'

    def components(self, x: float) -> dict[str, float]:
        if self.name == "small-resolution":
            if x < 1.0:
                raise OutOfDomainError(f"small resolution needs r >= 1, got {x}")
            r2 = x * x
            mu2 = r2 * r2 - 1.0
            lam2 = (r2 - 1.0) * (r2 + 2.0) / (r2 + 1.0)
            return {"lam": math.sqrt(lam2), "mu": math.sqrt(mu2),
                    "u0": 1.0, "u1": r2}
        if x < 0.0:
            raise OutOfDomainError(f"smoothing needs s >= 0, got {x}")
        k = KAPPA
        sh, ch = math.sinh(3 * x), math.cosh(3 * x)
        f = sh * ch - 3 * x
        if x == 0.0:
            # limits of the printed formulas as s -> 0 (f ~ 18 s^3)
            v_lim = (2 * k * k / 3) ** (1 / 3)
            return {"lam": (3 * k / 2) ** (1 / 3), "mu": 0.0,
                    "v0": -v_lim, "v2": v_lim}
        lam = k ** (1 / 3) * sh / f ** (1 / 3)
        mu = k ** (2 / 3) * f ** (1 / 3)
        return {"lam": lam, "mu": mu,
                "v0": -k ** (2 / 3) * f ** (1 / 3) / sh,
                "v2": k ** (2 / 3) * f ** (1 / 3) / math.tanh(3 * x)}

    def state_components(self, x: float) -> np.ndarray:
        """(lambda, u0, u1, u2, v0, v1, v2) of the embedded structure.

        u2 is reported as 0: in the bubble scaling it is O(epsilon) and
        vanishes in the limit the bubbles converge to.
        """
        c = self.components(x)
        if self.name == "small-resolution":
            return np.array([c["lam"], 1.0, c["u1"], 0.0, 0.0, 0.0,
                             c["lam"] * c["mu"]])
        return np.array([c["lam"], 0.0, c["mu"], 0.0,
                         c["lam"] * c["v0"], 0.0, c["lam"] * c["v2"]])

    def evolution_residual(self, x: float, h: float = 1e-4) -> float:
        """Residual of the hypo evolution system on the closed form, with
        derivatives taken by 4th-order central differences.

        Small resolution (r-converted, d/dt = (lambda/r) d/dr):
            u0' = 0, u1' - 2 lambda = 0, (lambda mu)' - 3 mu = 0.
        Smoothing (in s):
            (mu^3)' = 6 (mu lambda)^2, (mu lambda)' = 3 lambda v2,
            (lambda v0)' = 0, (lambda v2)' = 3 mu lambda.
        """
        if self.name == "small-resolution":
            h = min(h, (x - 1.0) / 4) if x > 1.0 else h
        else:
            h = min(h, x / 4) if x > 0.0 else h
        if h <= 0.0:
            raise OutOfDomainError(
                f"evolution residual needs an interior point, got {x}")

        def d4(f, z):
            return (f(z - 2 * h) - 8 * f(z - h) + 8 * f(z + h)
                    - f(z + 2 * h)) / (12 * h)

        c = self.components(x)
        if self.name == "small-resolution":
            lam_over_r = c["lam"] / x
            r_u1 = lam_over_r * d4(lambda r: self.components(r)["u1"], x) \
                - 2 * c["lam"]
            r_lm = lam_over_r * d4(
                lambda r: self.components(r)["lam"] * self.components(r)["mu"],
                x) - 3 * c["mu"]
            return max(abs(r_u1), abs(r_lm))
        comp = self.components
        r1 = d4(lambda s: comp(s)["mu"] ** 3, x) \
            - 6 * (c["mu"] * c["lam"]) ** 2
        r2 = d4(lambda s: comp(s)["mu"] * comp(s)["lam"], x) \
            - 3 * c["lam"] * c["v2"]
        r3 = d4(lambda s: comp(s)["lam"] * comp(s)["v0"], x)
        r4 = d4(lambda s: comp(s)["lam"] * comp(s)["v2"], x) \
            - 3 * c["mu"] * c["lam"]
        return max(abs(r1), abs(r2), abs(r3), abs(r4))


SMALL_RESOLUTION = CalabiYauForm("small-resolution")
SMOOTHING = CalabiYauForm("smoothing")


def eval_calabi_yau(name: str, x: float) -> tuple[dict[str, float], float]:
    """Closed-form component values and the hypo-evolution residual at x."""
    form = {"small-resolution": SMALL_RESOLUTION, "smoothing": SMOOTHING}.get(name)
    if form is None:
        raise OutOfDomainError(f"unknown Calabi-Yau form {name!r}")
    return form.components(x), form.evolution_residual(x)


# ---------------------------------------------------------------------------
# bubble rescalings

def rescale_bubble(s: State, eps: float, direction: str = "blowup",
                   scheme: str = "sec6") -> State:
    """Apply a bubble rescaling to a state.

    sec6: (lambda, u, v)(t) -> (lambda/eps, u/eps^2, v/eps^3) at time t/eps
    (blowdown inverts exactly). eq89: component weights
    (1, 1/eps^2, 1/eps^2, 1/eps, 1/eps^2, 1/eps^2, 1/eps), time unchanged.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if scheme == "sec6":
        w = np.array([eps, eps ** 2, eps ** 2, eps ** 2,
                      eps ** 3, eps ** 3, eps ** 3])
        tw = eps
    elif scheme == "eq89":
        w = np.array([1.0, eps ** 2, eps ** 2, eps,
                      eps ** 2, eps ** 2, eps])
        tw = 1.0
    else:
        raise ValueError(f"unknown rescaling scheme {scheme!r}")
    if direction == "blowup":
        return State.from_vec(s.t / tw, s.vec / w)
    if direction == "blowdown":
        return State.from_vec(s.t * tw, s.vec * w)
    raise ValueError(f"direction must be 'blowup' or 'blowdown', got {direction!r}")


# ---------------------------------------------------------------------------
# Legendre solutions of the linearized equation

def legendre_xi(c_reg: float, c_sing: float, t: float) -> tuple[float, float]:
    """xi = c_reg*xi_reg + c_sing*xi_sing and its derivative, where
    xi_reg = 5 cos^3 t - 3 cos t and xi_sing carries the
    log((1-cos t)/(1+cos t)) factor; valid on (0, pi)."""
    if not 0.0 < t < math.pi:
        raise OutOfDomainError(f"legendre_xi needs t in (0, pi), got {t}")
    s, c = math.sin(t), math.cos(t)
    xi_reg = 5 * c ** 3 - 3 * c
    dxi_reg = s * (3 - 15 * c * c)
    log_fac = math.log((1 - c) / (1 + c))
    poly = c * (10 * c * c - 6) / 8     # = (1/8) cos t (4cos^2 - 6sin^2)
    xi_sing = 2.5 * c * c + poly * log_fac - 2.0 / 3.0
    # d/dt log((1-c)/(1+c)) = 2/s
    dpoly = -s * (30 * c * c - 6) / 8
    dxi_sing = -5 * c * s + dpoly * log_fac + poly * 2 / s
    return (c_reg * xi_reg + c_sing * xi_sing,
            c_reg * dxi_reg + c_sing * dxi_sing)
