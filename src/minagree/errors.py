"""Exception hierarchy shared by all simulator components."""


class SimulatorError(Exception):
    """Base class for every error raised by this package."""


# --- DAG structure ---

class UnknownVertex(SimulatorError):
    """A vertex id was referenced that is neither active nor a pruned marker."""


class UnknownParent(SimulatorError):
    """A vertex referenced a parent that does not exist in the DAG."""


class DuplicateCoverage(SimulatorError):
    """A vertex listed a transaction already covered by its own past."""


class CycleViolation(SimulatorError):
    """Round ordering was violated (a vertex older than one of its parents)."""


class UnknownTransaction(SimulatorError):
    """A transaction hash does not appear in any active vertex."""


# --- selection / proposals ---

class EmptyDag(SimulatorError):
    """No eligible vertex is available for parent selection or proposing."""


class UncoverableTargets(SimulatorError):
    """No eligible tip set can cover the requested target vertices."""


# --- round protocol ---

class InsufficientStakers(SimulatorError):
    """More role slots were requested than there are registered stakers."""


class NoProposals(SimulatorError):
    """Notarization was attempted on an empty proposal list."""


class NoQuorum(SimulatorError):
    """Fewer than a strict majority of committee members would sign."""


class ForkDetected(SimulatorError):
    """Two notarized blocks share a round, or the chain linkage broke."""


# --- incentives ---

class InvalidCounts(SimulatorError):
    """Descendant/vertex counts outside their valid range."""


class InvalidFraction(SimulatorError):
    """A share or fee argument is outside its valid range."""


# --- configuration ---

class ConfigInvalid(SimulatorError):
    """A simulation or CLI configuration failed validation."""
