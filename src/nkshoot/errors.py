"""Typed errors shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument outside the domain a solve accepts (a parameter, range,
    sample count or series order); raised before any work is done."""


class NKError(Exception):
    """Base class for all solver errors."""


class DegenerateStateError(NKError):
    """State outside the admissible region (lambda or mu^2 too small, or a
    denominator of an evaluation path vanished)."""


class SeriesConsistencyError(NKError):
    """Singular IVP data violates M_-1(y0) = 0."""


class ResonanceError(NKError):
    """Some integer h >= 1 makes h*Id - dM_-1 (numerically) singular."""


class OutOfRadiusError(NKError):
    """Series evaluated outside its empirically validated radius."""


class OutOfDomainError(NKError):
    """Closed-form evaluator called outside its domain interval."""


class StepSizeCollapseError(NKError):
    """Adaptive integrator failed to advance; carries the last good state."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class ConstraintDriftError(NKError):
    """Relative first-integral drift exceeded the abort threshold."""

    def __init__(self, message, t_bad=None, last_state=None):
        super().__init__(message)
        self.t_bad = t_bad
        self.last_state = last_state


class EventNotFoundError(NKError):
    """No maximal-volume event before the singularity guard tripped."""


class BoundViolationError(NKError):
    """A comparison bound was violated beyond tolerance."""


class BoundaryAmbiguousError(NKError):
    """A root or count sits on the boundary tolerance (e.g. the excluded
    Sasaki-Einstein point, or v0(T) below the on-boundary tolerance)."""


class NoSignChangeError(NKError):
    """Bracket endpoints do not straddle a root."""


class NoCrossingError(NKError):
    """No polyline crossing between the requested curve arcs."""


class RefinementStallError(NKError):
    """Local 2-D refinement did not reach the required residual."""


class JunctionMismatchError(NKError):
    """Neither gluing word matches the two trajectories at the junction."""
