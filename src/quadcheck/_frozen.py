"""Immutable value objects with declared fields.

A subclass of ``Frozen`` lists its fields as annotated class attributes, in
positional order, with defaults on the trailing ones.  It gets
positional and keyword construction, an optional ``__post_init__`` hook,
equality by class and fields, a hash of the fields, a ``Name(field=value)``
repr, pickling, and ``AttributeError`` on assignment.  The standard
library's frozen data classes give the same, but they import ``inspect``
and compile each class's methods with ``exec``, the largest single cost of
``import quadcheck``; here the methods are written once and shared.
"""

from __future__ import annotations

__all__ = ["Frozen", "replace"]

_MISSING = object()


class Frozen:
    """Base of the package's value objects; see the module docstring."""

    # not annotated: an annotation here would declare a field
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        # a hook, not a metaclass: isinstance against a class whose type is
        # not exactly ``type`` takes a slow path, and ``expr._evaluate``
        # dispatches on isinstance at every node
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        fields = tuple(own.get("__annotations__", ()))
        if fields:
            cls._fields = cls.__match_args__ = fields
            cls._defaults = {name: own[name] for name in fields if name in own}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{type(self).__name__}() takes {len(fields)} positional arguments "
                f"but {len(args)} were given"
            )
        setter = object.__setattr__
        for name, value in zip(fields, args):
            setter(self, name, value)
        defaults = self._defaults
        for name in fields[len(args):]:
            value = kwargs.pop(name, defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            setter(self, name, value)
        if kwargs:
            name = next(iter(kwargs))
            problem = "multiple values for" if name in fields else "an unexpected keyword argument"
            raise TypeError(f"{type(self).__name__}() got {problem} {name!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate or normalize the fields; runs at the end of ``__init__``."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def replace(obj: Frozen, **changes) -> Frozen:
    """A copy of ``obj`` with the named fields changed."""
    values = {name: getattr(obj, name) for name in obj._fields}
    values.update(changes)
    return type(obj)(**values)
