"""Exception hierarchy shared across the package.

The CLI maps each family onto an exit code: ParseError 2, UnsupportedModel
4, ExpansionTooLarge 5, any other ZerotalkError 3.  ExpansionTooLarge is the
one resource error: every size, enumeration and search past
ZEROTALK_EXPANSION_LIMIT raises it, the best-partition search included.
New errors should subclass the family whose code they need.  None stands
for an internal bug: identities that hold by construction are checked by
``verify`` and the tests, not at run time.
"""


class ZerotalkError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ZerotalkError):
    """A model file is malformed (bad JSON, missing or mistyped keys)."""


class ModelError(ZerotalkError):
    """Source data is structurally readable but violates a model invariant."""


class PartitionInvalid(ModelError):
    """A user partition does not cover the user set, overlaps, or is too coarse."""


class UnsupportedModel(ZerotalkError):
    """The requested operation is not defined for this source model."""


class NotTwoUsers(UnsupportedModel):
    """The hypergraphical conversion is only defined for two-user linear sources."""


class ExpansionTooLarge(ZerotalkError):
    """A size, an enumeration or a search would exceed ZEROTALK_EXPANSION_LIMIT."""


class SubspaceNotContained(ZerotalkError):
    """A basis-extension or solve was asked for a space that is not contained."""


class WitnessInvalid(ZerotalkError):
    """A common-function witness is inconsistent with the source it claims to fit."""

