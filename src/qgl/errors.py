"""Exception hierarchy.

Every error names the offending element (vertex, edge, torus point, ...) in its
message so failures in long sweeps are attributable without re-running.
"""


class QGLError(Exception):
    """Base class for all library errors."""


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


# ---- secular core ----

class UndefinedPhase(QGLError):
    """A bridge-factorization factor g_i vanishes, so its scattering phase
    is undefined at this point."""


class NoLoops(QGLError):
    pass


class UnsupportedDimension(QGLError):
    pass


# ---- spectrum ----

class BracketAuditFailed(QGLError):
    """Counting-function audit around a refined bracket disagreed with the
    expected spectral index; signals tolerance misconfiguration."""


class NonSimple(QGLError):
    pass


class NoKernel(QGLError):
    pass


class Borderline(QGLError):
    """A classification quantity fell within a factor 10 of its threshold."""


# ---- counts / neumann domains ----

class NotGeneric(QGLError):
    pass


class NotStarRegime(QGLError):
    """k <= pi / l_min, so the domain around a vertex need not be a star."""


class IdentityViolated(QGLError):
    pass


# ---- magnetic ----

class CriticalPointViolated(QGLError):
    """The flux gradient at zero flux is not small; the supplied point is not
    on the zero set of the secular function."""


class DegenerateHessian(QGLError):
    pass


# ---- statistics ----

class WrongFamily(QGLError):
    pass


class ExcessiveExclusions(QGLError):
    pass
