"""Exception hierarchy shared across the package.

The CLI maps each family onto an exit code: ParseError 2, UnsupportedModel
4, ExpansionTooLarge 5, any other ZerotalkError 3.  ExpansionTooLarge is the
one resource error: every size, enumeration and search past
ZEROTALK_EXPANSION_LIMIT raises it, the best-partition search included.
New errors should subclass the family whose code they need.  None stands
for an internal bug: identities that hold by construction are checked by
``verify`` and the tests, not at run time.  ``Value``, the immutable base of
the value classes, lives here too: no import loads ``dataclasses`` (with
``inspect``, ``ast`` and ``dis``) or runs generated code.
"""

from operator import attrgetter

_set = object.__setattr__  # a global: faster than object.__setattr__ in Value.__init__'s loop


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


class Value:
    """Immutable value with the fields its class annotates, ClassVars aside:
    built from them, positional or keyword, then ``__post_init__`` if any.
    repr, same-class ``==`` and ``hash`` read the first ``compared`` fields
    (a class keyword; all by default).  Only ``object.__setattr__`` sets a
    field: assigning or deleting an attribute raises AttributeError."""

    _fields = ()
    __post_init__ = None  # or a method that checks and normalizes the fields

    def __init_subclass__(cls, compared=None, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls).get("__annotations__", {})
        cls._fields += tuple(n for n, a in own.items() if "ClassVar" not in str(a))
        cls._shown = cls._fields[:compared]
        cls._key = attrgetter(*cls._shown)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            values = dict(zip(names, args), **kwargs)
            if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
            args = map(values.get, names)
        for name, value in zip(names, args):
            _set(self, name, value)  # not through __dict__, which costs each instance a dict
        if self.__post_init__:
            self.__post_init__()

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def _immutable(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __setattr__ = __delattr__ = _immutable
