"""Exception types shared across the package.

Plain argument misuse raises the builtin ``ValueError``; the classes here
cover failure modes that callers are expected to catch and act on.
"""


class OedipusError(Exception):
    """Base class for package-specific failures."""


class InfeasibleDesignError(OedipusError):
    """A CRB matrix is singular or near-singular, so no unbiased estimator
    with finite variance exists for the requested candidate set.

    One rule decides this: a restricted Gram G is singular when its smallest
    eigenvalue is <= ``tr G / crb.COND_LIMIT``, and a group is mandatory when
    the middle matrix of its removal has smallest eigenvalue
    <= ``1 / crb.COND_LIMIT``.  ``iteration`` is the deletion index at which a
    design loop gave up (0 for the initial full-candidate build, -1 when not
    applicable).
    """

    def __init__(self, message, iteration=-1):
        super().__init__(message)
        self.iteration = iteration


class GenerationFailureError(OedipusError):
    """A randomized pattern generator could not meet its sample budget."""


class SolverFailureError(OedipusError):
    """An iterative solver failed to reach its tolerance within its caps.

    Carries the objective values logged up to the failure point.
    """

    def __init__(self, message, objective_log=()):
        super().__init__(message)
        self.objective_log = list(objective_log)
