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
from .state import State, complex_step

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# the four named solutions: each maps a float or an array of m times to the
# (7,) or (7, m) array of components. Powers go through np.float_power, which
# calls the C pow as float ** does; numpy's ** takes shortcuts for small
# integer exponents that round differently.

def _components(t, *comps) -> np.ndarray:
    return np.array(np.broadcast_arrays(t, *comps)[1:])


def _sine_cone(t):
    s, c = np.sin(t), np.cos(t)
    s3 = np.float_power(s, 3)
    return _components(t, s, 0.0, s * s * c, -s3,
                       0.0, np.float_power(s, 4), s3 * c)


def _s6_round(t):
    # closes on S^3 at t = 0 (b-family member) and on S^2 at t = pi/2
    s, c = np.sin(t), np.cos(t)
    c2 = c * c
    return _components(
        t, 1.5 * c,
        -1.5 * s * (2 - 5 * c2), -3 * s * (1 - 2 * c2), -4.5 * s * c2,
        2.25 * c2 * (4 - 5 * c2), 9 * s * s * c2, 2.25 * c2 * (3 * c2 - 2))


def _s3s3_homog(t):
    sx, cx = np.sin(2 * SQRT3 * t), np.cos(2 * SQRT3 * t)
    sy, cy = np.sin(SQRT3 * t), np.cos(SQRT3 * t)
    return _components(
        t, 1.0,
        sx / SQRT3, sx / SQRT3, -2 * sy / SQRT3,
        -2 * cx / 3, 2 * (1 - cx) / 3, 2 * cy / 3)


def _cp3_homog(t):
    # v0 sign corrected relative to the common printed form: the positive
    # sign is forced by the first integral <u, v> = 0 and by v0 ~ 3 a^2 t^2
    # in the S2 family's Taylor data
    x = SQRT2 * t
    s, c = np.sin(x), np.cos(x)
    return _components(
        t, 0.75 * SQRT2 * s,
        0.375 * (3 * c * c - 1), 0.75 * c, -1.125 * s * s,
        1.125 * c * s * s, 1.125 * s * s, 1.125 * c * s * s)


@dataclass(frozen=True)
class NamedSolution:
    """One explicit solution: evaluator, domain, and the singular-orbit
    metadata (orbit type at each end with the family parameter realizing it,
    None where the end is a conical singularity)."""

    name: str
    domain: tuple[float, float]
    evaluator: Callable[[np.ndarray], np.ndarray]
    orbit_start: tuple[str, float] | None
    orbit_end: tuple[str, float] | None

    def vec(self, t) -> np.ndarray:
        """The (7,) state vector at a float t, or the (7, m) array of state
        vectors at an array of m times; complex times give complex states.
        Raises OutOfDomainError if the real part of any t is outside the
        domain or NaN."""
        t = np.asarray(t, dtype=complex if np.iscomplexobj(t) else float)
        lo, hi = self.domain
        outside = ~((lo <= t.real) & (t.real <= hi))
        if outside.any():
            raise OutOfDomainError(
                f"{self.name}: t = {t.real[outside][0]} outside [{lo}, {hi}]")
        return self.evaluator(t)

    def eval(self, t: float) -> State:
        """The State at t; raises OutOfDomainError as vec does."""
        return State.from_vec(t, self.vec(t))


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
#: (sinh z - z) / z^3 = sum_k z^(2k) / (2k + 3)! to k = 7, in np.polyval order
_SINH_TAIL = [1.0 / math.factorial(k) for k in range(17, 2, -2)]


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

    def components(self, x) -> dict[str, float]:
        """The coefficients at x, complex at a complex x; OutOfDomainError
        unless lo <= Re x < inf (lo = 1 for r, 0 for s)."""
        lo = 1.0 if self.name == "small-resolution" else 0.0
        if not lo <= np.real(x) < math.inf:
            raise OutOfDomainError(
                f"{self.name} needs {lo} <= x < inf, got {x}")
        if self.name == "small-resolution":
            r2 = x * x
            mu2 = r2 * r2 - 1.0
            lam2 = (r2 - 1.0) * (r2 + 2.0) / (r2 + 1.0)
            return {"lam": np.sqrt(lam2), "mu": np.sqrt(mu2),
                    "u0": 1.0, "u1": r2}
        k = KAPPA
        sh, z = np.sinh(3 * x), 6 * x
        # f = sinh(3x) cosh(3x) - 3x = (sinh z - z) / 2 cancels as z -> 0;
        # below |z| = 0.6 its Taylor series, whose later terms are below eps
        f = (z * z * z * np.polyval(_SINH_TAIL, z * z) / 2 if abs(z) < 0.6
             else sh * np.cosh(3 * x) - 3 * x)
        if x == 0.0:
            # limits of the printed formulas as s -> 0 (f ~ 18 s^3)
            v_lim = (2 * k * k / 3) ** (1 / 3)
            return {"lam": (3 * k / 2) ** (1 / 3), "mu": 0.0,
                    "v0": -v_lim, "v2": v_lim}
        lam = k ** (1 / 3) * sh / f ** (1 / 3)
        mu = k ** (2 / 3) * f ** (1 / 3)
        return {"lam": lam, "mu": mu,
                "v0": -k ** (2 / 3) * f ** (1 / 3) / sh,
                "v2": k ** (2 / 3) * f ** (1 / 3) / np.tanh(3 * x)}

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

    def evolution_residual(self, x: float) -> float:
        """Residual of the hypo evolution system on the closed form at an
        interior point x, with derivatives by complex step.

        Small resolution (r-converted, d/dt = (lambda/r) d/dr):
            u0' = 0, u1' - 2 lambda = 0, (lambda mu)' - 3 mu = 0.
        Smoothing (in s):
            (mu^3)' = 6 (mu lambda)^2, (mu lambda)' = 3 lambda v2,
            (lambda v0)' = 0, (lambda v2)' = 3 mu lambda.
        """
        c = self.components(x)
        small = self.name == "small-resolution"
        if x == (1.0 if small else 0.0):
            raise OutOfDomainError(
                f"evolution residual needs an interior point, got {x}")

        def products(z):
            c = self.components(z)
            if small:
                return np.array([c["u1"], c["lam"] * c["mu"]])
            return np.array([c["mu"] ** 3, c["mu"] * c["lam"],
                             c["lam"] * c["v0"], c["lam"] * c["v2"]])
        rates = complex_step(products, x)
        if small:
            res = c["lam"] / x * rates - [2 * c["lam"], 3 * c["mu"]]
        else:
            res = rates - [6 * (c["mu"] * c["lam"]) ** 2,
                           3 * c["lam"] * c["v2"], 0.0,
                           3 * c["mu"] * c["lam"]]
        return float(np.max(np.abs(res)))


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
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
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

def legendre_xi(c_reg: float, c_sing: float, t) -> tuple[float, float]:
    """xi = c_reg*xi_reg + c_sing*xi_sing and its derivative, where
    xi_reg = 5 cos^3 t - 3 cos t and xi_sing carries the
    log((1-cos t)/(1+cos t)) factor, at a float or an array of t, complex
    included; raises OutOfDomainError unless every Re t is in (0, pi)."""
    if not np.all((0.0 < np.real(t)) & (np.real(t) < math.pi)):
        raise OutOfDomainError(f"legendre_xi needs t in (0, pi), got {t}")
    s, c = np.sin(t), np.cos(t)
    xi_reg = 5 * c ** 3 - 3 * c
    dxi_reg = s * (3 - 15 * c * c)
    log_fac = np.log((1 - c) / (1 + c))
    poly = c * (10 * c * c - 6) / 8     # = (1/8) cos t (4cos^2 - 6sin^2)
    xi_sing = 2.5 * c * c + poly * log_fac - 2.0 / 3.0
    # d/dt log((1-c)/(1+c)) = 2/s
    dpoly = -s * (30 * c * c - 6) / 8
    dxi_sing = -5 * c * s + dpoly * log_fac + poly * 2 / s
    return (c_reg * xi_reg + c_sing * xi_sing,
            c_reg * dxi_reg + c_sing * dxi_sing)
