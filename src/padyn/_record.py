"""``Record``: what ``@dataclass(frozen=True)`` gives a class, with no code generated per class."""
from dataclasses import FrozenInstanceError
from operator import attrgetter

_set = object.__setattr__


class Record:
    """A frozen value class.  Its fields are its annotated names, in order, and a
    class-level value is a field's default.  Keywords that name no field go to
    ``__post_init__``, which runs once every field is set."""

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__match_args__ = names = tuple(cls.__dict__.get("__annotations__", ()))
        # a record's field values as a tuple: attrgetter of 2+ names gives one
        get = attrgetter(*names) if names else lambda r: ()
        cls._values = staticmethod((lambda r: (get(r),)) if len(names) == 1 else get)
        cls._has_post_init = "__post_init__" in cls.__dict__

    def __init__(self, *args, **extra) -> None:
        names = self._fields
        if len(args) != len(names):
            args = self._bind(args, extra)
        # set as a dataclass sets them (building self.__dict__ slows every read); zip costs more
        i = 0
        for name in names:
            _set(self, name, args[i])
            i += 1
        if extra or self._has_post_init:
            self.__post_init__(**extra)

    def _bind(self, args: tuple, extra: dict) -> list:
        """Fill the fields past ``args`` from the field keywords, taken out of ``extra``, or defaults."""
        names, defaults, values = self._fields, vars(type(self)), list(args)
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} arguments, not {len(args)}")
        try:
            for field in names[len(args):]:
                values.append(extra.pop(field) if field in extra else defaults[field])
        except KeyError as missing:
            raise TypeError(f"{type(self).__name__}() missing argument {missing}") from None
        return values

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")
