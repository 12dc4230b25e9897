"""The immutable value record behind every knotrank data class.

A subclass names its fields in ``__slots__`` and sets them in its own
``__init__`` through its slots' setters, which ``slot_setters`` returns
once, at import: each is the C-level ``__set__`` of a slot descriptor,
so a write neither looks its name up through the class nor passes the
base's refusing ``__setattr__``.  The base then gives it what a
frozen dataclass has: equality between records of the same class with
equal fields, a hash of the field tuple, a ``Name(field=value, ...)``
repr, ``AttributeError`` on assignment and deletion, and pickling and
copying through the constructor.  All of these read the one field tuple
``_values``; nothing is generated, and no class changes after import.
It imports nothing, where ``dataclasses`` pulls in ``inspect``, ``ast``
and ``dis``.  ``json_int`` is the one reader of an integer field in a
record's ``from_json``, and ``is_int`` its rule, which a Seifert matrix
and every field of a certificate apply when they are made, so that the
certificate verifier checks only arithmetic.
"""


def is_int(value: object) -> bool:
    """Whether ``value`` is an integer: an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def json_int(value: object, what: str) -> int:
    """``value`` if it is an integer (``is_int``); JSON true, false, reals and strings are not.

    The message shows ``value`` cut short, so that a long list or string
    read from a file gives one short error line.
    """
    if not is_int(value):
        import reprlib

        raise ValueError(f"{what} must be an integer, got {reprlib.repr(value)}")
    return value


def slot_setters(cls: type) -> list:
    """The setters of the fields of ``cls``, in ``__slots__`` order.

    Each is ``setter(record, value)``: the bound ``__set__`` of the slot
    descriptor that ``cls`` holds for the field.  A module unpacks them
    into names after its class, once.
    """
    return [cls.__dict__[name].__set__ for name in cls.__slots__]


class Frozen:
    """Base class of the records; see the module docstring.

    >>> class Point(Frozen):
    ...     __slots__ = ("x", "y")
    ...     def __init__(self, x, y):
    ...         _set_x(self, x)
    ...         _set_y(self, y)
    >>> _set_x, _set_y = slot_setters(Point)
    >>> Point(1, 2)
    Point(x=1, y=2)
    >>> Point(1, 2) == Point(1, 2), hash(Point(1, 2)) == hash((1, 2))
    (True, True)
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._values()))
        return f"{self.__class__.__qualname__}({pairs})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
