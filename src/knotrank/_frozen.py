"""The immutable value record behind every knotrank data class.

A subclass names its fields in ``__slots__`` and sets them in its own
``__init__`` with ``object.__setattr__``.  The base then gives it what a
frozen dataclass has: equality between records of the same class with
equal fields, a hash of the field tuple, a ``Name(field=value, ...)``
repr, ``AttributeError`` on assignment and deletion, and pickling and
copying through the constructor.  It imports nothing, where
``dataclasses`` pulls in ``inspect``, ``ast`` and ``dis``.
"""


def _compile_comparisons(cls: type) -> type:
    """Give ``cls`` the ``__eq__`` and ``__hash__`` a frozen dataclass generates.

    The interpreter reads a slot named in the source several times
    faster than ``operator.attrgetter`` does, which made == and hash
    1.7 times slower than a dataclass's.
    """
    own = "".join(f"self.{name}," for name in cls.__slots__)
    source = (
        f"def __eq__(self, other):\n"
        f"    if other.__class__ is self.__class__:\n"
        f"        return ({own}) == ({own.replace('self.', 'other.')})\n"
        f"    return NotImplemented\n"
        f"def __hash__(self):\n"
        f"    return hash(({own}))\n"
    )
    namespace: dict = {}
    exec(source, namespace)
    for name in ("__eq__", "__hash__"):
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    return cls


class Frozen:
    """Base class of the records; see the module docstring.

    >>> class Point(Frozen):
    ...     __slots__ = ("x", "y")
    ...     def __init__(self, x, y):
    ...         object.__setattr__(self, "x", x)
    ...         object.__setattr__(self, "y", y)
    >>> Point(1, 2)
    Point(x=1, y=2)
    >>> Point(1, 2) == Point(1, 2), hash(Point(1, 2)) == hash((1, 2))
    (True, True)
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__

    # A class compiles its own == and hash on first use, so a process
    # that never compares records does not pay for the compilation.
    def __eq__(self, other):
        return _compile_comparisons(self.__class__).__eq__(self, other)

    def __hash__(self) -> int:
        return _compile_comparisons(self.__class__).__hash__(self)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._values()))
        return f"{self.__class__.__qualname__}({pairs})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
