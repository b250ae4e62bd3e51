"""Exception types used across the OSP reproduction library."""


class OspError(Exception):
    """Base class for all errors raised by this library."""


class InvalidSetSystemError(OspError):
    """Raised when a set system description is inconsistent.

    Examples: a set references an element that does not exist, a weight is
    negative, or an element capacity is not a positive integer.
    """


class InvalidInstanceError(OspError):
    """Raised when an online instance (arrival order) is inconsistent.

    Examples: the arrival order is not a permutation of the elements of the
    underlying set system, or an arrival references an unknown element.
    """


class AlgorithmProtocolError(OspError):
    """Raised when an online algorithm violates the OSP protocol.

    The protocol requires that on the arrival of element ``u`` the algorithm
    returns a subset of the announced parent sets ``C(u)`` of size at most the
    element capacity ``b(u)``.
    """


class SolverError(OspError):
    """Raised when an offline solver cannot produce a solution."""


class UnsupportedAlgorithmError(OspError):
    """Raised when the batch engine is asked to run an algorithm it cannot.

    The vectorized engine (:mod:`repro.engine`) supports priority-driven
    algorithms whose decisions it can replay as array operations.  Algorithms
    with per-arrival randomness or arbitrary state must run on the reference
    simulator (:func:`repro.core.simulation.simulate`).
    """


class FrontierRegressionError(OspError):
    """Raised when a fresh battle frontier is worse than the golden fixture.

    Carries one line per regressed grid cell (see
    :func:`repro.battles.match.check_frontiers`); a deliberate behaviour
    change is acknowledged by regenerating the fixture with
    ``python -m repro.battles --smoke --write-golden``.
    """


class MeasurementFailedError(OspError):
    """Raised when a resilient measurement exhausts its retry budget.

    The measurement entry points (trial chunks, suite fan-outs) cannot
    quarantine a failed unit the way a sweep can — dropping a trial chunk
    would change the benefit sequence — so when every attempt of a unit
    fails under a :class:`repro.experiments.resilience.RetryPolicy`, the
    whole measurement fails with this error.  ``failures`` carries the
    structured :class:`repro.experiments.resilience.FailureReport` records
    (the runner CLI renders them as its JSON failure summary).
    """

    def __init__(self, message: str, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)

    @classmethod
    def after_retries(cls, what: str, failures) -> "MeasurementFailedError":
        """The error for ``failures`` of one kind of unit (``what``).

        >>> from types import SimpleNamespace
        >>> str(MeasurementFailedError.after_retries(
        ...     "trial chunk", [SimpleNamespace(label="trials[0:4]")]))
        '1 trial chunk(s) failed after retries: trials[0:4]'
        """
        labels = ", ".join(report.label for report in failures)
        return cls(
            f"{len(failures)} {what}(s) failed after retries: {labels}",
            failures=failures,
        )


class StoreFileError(OspError):
    """Raised when a store file cannot be used as-is.

    The read-only store entry points (:func:`repro.experiments.store.merge_stores`,
    the ``inspect``/``vacuum``/``merge`` CLI verbs) *refuse* rather than
    repair: a missing path, an unreadable file, or a format-version mismatch
    raises this error and leaves the file untouched — never quarantined,
    never overwritten.  The maintenance CLI converts it to a nonzero exit.
    """


class ConstructionError(OspError):
    """Raised when a lower-bound construction receives invalid parameters.

    Examples: a gadget order that is not a prime power, or ``M > N``.
    """
