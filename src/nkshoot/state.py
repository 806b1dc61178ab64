"""State of the fundamental ODE system, its right-hand side, first integrals,
and the discrete symmetries.

A state is the 7-tuple (lambda, u0, u1, u2, v0, v1, v2) at a time t, one
invariant structure on the principal orbit in the coefficient parametrization.
The u and v triples live in Minkowski R^{1,2} with signature (-,+,+), index 0
timelike; mu^2 := -u0^2 + u1^2 + u2^2 must stay positive on admissible states
and is always recomputed from u, never stored.

The evolution equations solved for the time derivatives:

    u0' = -3 v0 / lambda
    u1' = (2 lambda^2 - 3 v1) / lambda
    u2' = -3 v2 / lambda
    v0' = 4 lambda u0
    v1' = 4 lambda u1
    v2' = (4 lambda^2 - 3) u2 / lambda
    lambda' = -(2 lambda^4 u1 + 3 u2 v2) / (lambda^2 mu^2)

First integrals (vanish on exact solutions):

    I1 = <u, v> = -u0 v0 + u1 v1 + u2 v2
    I2 = lambda^2 mu^2 - u2^2
    I3 = lambda^2 mu^2 - |v|^2
    I4 = v1 - mu^2

plus the orientation sign u1 v2 - u2 v1 > 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError

# Degeneracy thresholds (reported via typed errors, never clamped).
LAMBDA_MIN = 1e-8
MU2_MIN = 1e-12


@dataclass(frozen=True)
class State:
    """Immutable snapshot of the 7 coefficient functions at time t."""

    t: float
    lam: float
    u: tuple[float, float, float]
    v: tuple[float, float, float]

    @classmethod
    def from_vec(cls, t: float, y) -> "State":
        return cls(float(t), float(y[0]),
                   (float(y[1]), float(y[2]), float(y[3])),
                   (float(y[4]), float(y[5]), float(y[6])))

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.lam, *self.u, *self.v])

    @property
    def mu2(self) -> float:
        u0, u1, u2 = self.u
        return -u0 * u0 + u1 * u1 + u2 * u2

    @property
    def mu(self) -> float:
        m2 = self.mu2
        if m2 <= 0.0:
            raise DegenerateStateError(f"mu^2 = {m2} <= 0 at t = {self.t}")
        return math.sqrt(m2)

    @property
    def volume(self) -> float:
        """Orbital volume V = lambda * mu^2 (V0-normalized)."""
        return self.lam * self.mu2

    @property
    def orient(self) -> float:
        """Orientation sign u1 v2 - u2 v1 (must be positive)."""
        return self.u[1] * self.v[2] - self.u[2] * self.v[1]


@dataclass(frozen=True)
class ConstraintVector:
    """Residuals of the four first integrals plus the orientation sign."""

    I1: float
    I2: float
    I3: float
    I4: float
    orient: float

    @property
    def values(self) -> np.ndarray:
        return np.array([self.I1, self.I2, self.I3, self.I4])

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def rel_drift(self, s: State) -> float:
        """max|I_i| / max(1, lambda^2 mu^2), the monitored drift measure."""
        return self.max_abs / max(1.0, s.lam * s.lam * s.mu2)


def _first_integrals(lam, u0, u1, u2, v0, v1, v2):
    """(I1, I2, I3, I4, orient, lambda^2 mu^2, mu^2) of one state, or
    elementwise of arrays of states."""
    mu2 = -u0 * u0 + u1 * u1 + u2 * u2
    v_norm2 = -v0 * v0 + v1 * v1 + v2 * v2
    lam2mu2 = lam * lam * mu2
    return (-u0 * v0 + u1 * v1 + u2 * v2, lam2mu2 - u2 * u2,
            lam2mu2 - v_norm2, v1 - mu2, u1 * v2 - u2 * v1, lam2mu2, mu2)


def complex_step(f, x, dx=1.0):
    """Derivative of f at x along dx, Im f(x + i h dx) / h with h = 1e-20
    (Squire & Trapp, SIAM Rev. 40, 1998): no cancellation, so it is exact to
    round-off for any f analytic and real on real arguments."""
    return np.imag(f(x + 1e-20j * dx)) / 1e-20


def constraints(s: State) -> ConstraintVector:
    """Evaluate the first integrals; pure, no admissibility requirements."""
    return ConstraintVector(*_first_integrals(s.lam, *s.u, *s.v)[:5])


def rhs_vec(t: float, y) -> np.ndarray:
    """Raw right-hand side on a 7-vector, or on every column of a (7, m)
    array; no degeneracy checks.

    Hot path of the integrator: guard events are responsible for stopping
    before lambda or mu^2 degenerate.
    """
    lam, u0, u1, u2, v0, v1, v2 = y
    mu2 = -u0 * u0 + u1 * u1 + u2 * u2
    lam2 = lam * lam
    return np.array([
        -(2.0 * lam2 * lam2 * u1 + 3.0 * u2 * v2) / (lam2 * mu2),
        -3.0 * v0 / lam,
        (2.0 * lam2 - 3.0 * v1) / lam,
        -3.0 * v2 / lam,
        4.0 * lam * u0,
        4.0 * lam * u1,
        (4.0 * lam2 - 3.0) * u2 / lam,
    ])


def check_regular(y) -> None:
    """Raise DegenerateStateError when lambda <= 1e-8 or mu^2 <= 1e-12 in a
    7-vector, or in any column of a (7, m) array."""
    mu2 = -y[1] * y[1] + y[2] * y[2] + y[3] * y[3]
    for name, value, floor in (("lambda", y[0], LAMBDA_MIN),
                               ("mu^2", mu2, MU2_MIN)):
        value = np.asarray(value)
        low = value <= floor
        if low.any():
            raise DegenerateStateError(
                f"{name} = {float(value[low][0])} <= {floor}")


def rhs(s: State) -> np.ndarray:
    """Time derivative (lambda', u0', u1', u2', v0', v1', v2') of a state.

    Raises DegenerateStateError when lambda <= 1e-8 or mu^2 <= 1e-12.
    """
    y = s.vec
    check_regular(y)
    return rhs_vec(s.t, y)


# Sign tables of the discrete symmetries on (lambda, u0, u1, u2, v0, v1, v2);
# tau1 additionally reverses time.
_TAU_TABLE = {
    "tau1": ((-1, 1, 1, 1, 1, 1, 1), True),
    "tau2": ((-1, -1, -1, -1, 1, 1, 1), False),
    "tau3": ((1, 1, 1, -1, 1, 1, -1), False),
    "tau4": ((-1, 1, -1, 1, -1, 1, -1), False),
}


@dataclass(frozen=True)
class Symmetry:
    """A discrete symmetry: per-field sign multipliers plus a time-reversal
    flag. Each generator is an involution; composition words apply
    right-to-left (the sign tables commute, so order only matters for the
    label)."""

    label: str
    signs: tuple[int, int, int, int, int, int, int]
    time_reversal: bool

    @classmethod
    def from_word(cls, word: str) -> "Symmetry":
        """Parse a '.'-joined word of tau1..tau4, such as 'tau2.tau3.tau4';
        every part is a label, so an empty part raises ValueError."""
        parts = word.split(".")
        if not any(parts):
            raise ValueError(f"empty symmetry word: {word!r}")
        signs = [1] * 7
        reverse = False
        for p in reversed(parts):  # right-to-left
            if p not in _TAU_TABLE:
                raise ValueError(f"unknown symmetry label {p!r} in {word!r}")
            tab, rev = _TAU_TABLE[p]
            signs = [a * b for a, b in zip(signs, tab)]
            reverse ^= rev
        return cls(".".join(parts), tuple(signs), reverse)


# The two gluing words (right factor of the doubling/matching construction).
GLUE_PLUS = Symmetry.from_word("tau1.tau2.tau3")   # flips u0, u1, v2
GLUE_MINUS = Symmetry.from_word("tau1.tau4")       # flips u1, v0, v2


def apply_symmetry(sym: Symmetry | str, s: State) -> State:
    """Apply a symmetry's sign table to a state; tau1-containing words also
    negate t."""
    if isinstance(sym, str):
        sym = Symmetry.from_word(sym)
    y = s.vec * np.asarray(sym.signs, dtype=float)
    t = -s.t if sym.time_reversal else s.t
    return State.from_vec(t, y)


def transform_derivative(sym: Symmetry, dy) -> np.ndarray:
    """Push a derivative 7-vector through a symmetry (time reversal negates
    the whole derivative)."""
    out = np.asarray(dy, dtype=float) * np.asarray(sym.signs, dtype=float)
    return -out if sym.time_reversal else out
