"""Exception hierarchy.

Every error names the offending element (vertex, edge, torus point, ...) in its
message so failures in long sweeps are attributable without re-running.
"""


class QGLError(Exception):
    """Base class for all library errors."""


class ComputationFailed(QGLError):
    """A computation on valid input failed a check it makes on itself
    (an audit, an identity, a kernel or a Hessian), as opposed to input
    that the library rejects."""


# ---- graph validation ----

class GraphError(QGLError):
    pass


class DisconnectedGraph(GraphError):
    pass


class DegreeTwoVertex(GraphError):
    pass


class TooFewEdges(GraphError):
    pass


class NonpositiveLength(GraphError):
    pass


class NonfiniteLength(GraphError):
    pass


# ---- secular core ----

class UndefinedPhase(QGLError):
    """A bridge-factorization factor g_i vanishes, so its scattering phase
    is undefined at this point."""


class NoLoops(QGLError):
    pass


class UnsupportedDimension(QGLError):
    pass


# ---- spectrum ----

class BracketAuditFailed(ComputationFailed):
    """Counting-function audit around a refined bracket disagreed with the
    expected spectral index; signals tolerance misconfiguration."""


class NonSimple(ComputationFailed):
    pass


class NoKernel(ComputationFailed):
    pass


# ---- counts / neumann domains ----

class NotGeneric(ComputationFailed):
    """A count or star observable that the vertex trace leaves undecided.
    Genericity is decided as eigenpairs are classified, so one that still
    meets this is a failed computation, not invalid input."""


class NotStarRegime(QGLError):
    """k <= pi / l_min, so the domain around a vertex need not be a star."""


class IdentityViolated(ComputationFailed):
    pass


# ---- magnetic ----

class CriticalPointViolated(ComputationFailed):
    """Zero flux is not a critical point of the flux map at the supplied
    point: no eigenphase of U(kappa) lies within the kernel tolerance of 0
    (the point is off the zero set), or the flux gradient is not zero."""


class DegenerateHessian(ComputationFailed):
    pass


# ---- statistics ----

class WrongFamily(QGLError):
    pass


class ExcessiveExclusions(ComputationFailed):
    pass
