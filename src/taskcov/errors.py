"""Exception types raised across the package."""


class TaskcovError(Exception):
    """Base class for all errors raised by taskcov."""


# --- dataset / input validation ---

class DimensionMismatch(TaskcovError):
    pass


class EmptyTask(TaskcovError):
    pass


class DuplicateTaskId(TaskcovError):
    pass


class InvalidTaskId(TaskcovError):
    """A task id with a comma or a line break, which model files cannot hold."""


class UnknownTask(TaskcovError):
    pass


class TaskIndexOutOfRange(TaskcovError):
    pass


class NonFiniteValue(TaskcovError):
    """A NaN or infinite input, target or query."""


# --- dense matrix primitives ---

class NotSymmetric(TaskcovError):
    pass


class NotPSD(TaskcovError):
    pass


class Singular(TaskcovError):
    pass


class SingularSystem(TaskcovError):
    pass


class DegenerateTaskVariance(TaskcovError):
    pass


# --- solvers ---

class DegenerateGram(TaskcovError):
    pass


class NonDecreaseDetected(TaskcovError):
    """The outer loop objective rose; signals a bug, never swallowed."""


class MaxIterationsExceeded(TaskcovError):
    """Iteration cap hit; carries the best iterate found so far."""

    def __init__(self, message, alpha=None, b=None):
        super().__init__(message)
        self.alpha = alpha
        self.b = b


# --- new-task incorporation ---

class SigmaOutOfRange(TaskcovError):
    pass


# --- fixed relationship priors ---

class NegativeSimilarity(TaskcovError):
    pass


class AsymmetricSimilarity(TaskcovError):
    pass


class IndexOutOfRange(TaskcovError):
    pass


class SelfEdge(TaskcovError):
    pass


class EmptyCluster(TaskcovError):
    pass


# --- metrics / harness ---

class ZeroVarianceTruth(TaskcovError):
    pass


class GridEmpty(TaskcovError):
    pass


class ParseError(TaskcovError):
    pass


class EmptyFile(TaskcovError):
    pass


class VersionMismatch(TaskcovError):
    pass


class CorruptModel(TaskcovError):
    pass
