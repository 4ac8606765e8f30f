"""The base of the library's immutable classes that validate their inputs
or cache derived values.

Plain result records are ``typing.NamedTuple``s; a class that checks or
normalises its arguments, or caches derived values with
``functools.cached_property``, derives from ``Frozen`` instead.  Neither
generates code when its class is created.
"""


class Frozen:
    """An instance whose ``__init__`` sets its attributes once, through
    ``_set``; assigning or deleting an attribute afterwards raises
    AttributeError.  ``cached_property`` writes to the instance dict
    directly, so it still caches.  The repr lists the attributes named in
    ``_fields``."""

    __slots__ = ()
    _fields: tuple = ()

    def _set(self, **values):
        # object.__setattr__ keeps the values inline, where reads are
        # faster than from an instance dict that ``vars(self)`` would make
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"
