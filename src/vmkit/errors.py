"""Shared exception types."""


class ResourceLimitError(RuntimeError):
    """A search or enumeration exceeded its node/state budget.

    Distinct from a definitive negative answer: the caller learns only that
    the question was not settled within the given limit.  `count` reports how
    much work was done before giving up.
    """

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


class WorkerStartError(OSError):
    """The worker processes of a parallel scan could not be started.

    strerror names the worker count and the operating system's reason.
    """
