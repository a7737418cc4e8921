"""Exception types shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for all errors raised by npverify."""


class EmptyUniverseError(WorkbenchError):
    """An operation was asked to work over zero alternatives."""


class InvalidAlternativeError(WorkbenchError):
    """An alternative index lies outside the ambient universe."""


class InvalidPairError(WorkbenchError):
    """A pairwise operation received two equal alternatives."""


class ParameterError(WorkbenchError):
    """Voter/alternative counts outside an operation's supported range."""


class SizeCapError(WorkbenchError):
    """An enumeration would exceed the configured size cap."""


class DomainKindError(WorkbenchError):
    """A domain of the wrong kind was passed (e.g. non-NP to np_star)."""


class MembershipError(WorkbenchError):
    """A profile does not belong to the domain it was used with."""


class TextFormatError(WorkbenchError):
    """Malformed text input (ordering, profile, domain or rule file)."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


class ScenarioError(WorkbenchError):
    """A scenario constraint or recipe is inconsistent."""


class EncodingViolationError(WorkbenchError):
    """A model violates structural guarantees of the CNF encoding."""


class ExternalSolverError(WorkbenchError):
    """The external solver is not where NPVERIFY_EXT_SOLVER says, cannot
    be started, or gave no verdict within its time limit."""


class SolverCapError(WorkbenchError):
    """The solver exceeded its resource cap before reaching a verdict."""


class ContractError(WorkbenchError):
    """A verified-by-construction step failed its checks; indicates a bug
    or a violated precondition (e.g. a non-strategy-proof rule)."""
