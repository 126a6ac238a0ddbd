"""``Record``: what ``@dataclass(frozen=True)`` gives a class, with no code generated per class."""
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
        if other.__class__ is not self.__class__:
            return NotImplemented
        # pairs of nested records are compared in a loop, not by recursion: a map can be any depth
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            for x, y in zip(a._values(a), b._values(b)):
                if x is not y and isinstance(x, Record) and x.__class__ is y.__class__:
                    todo.append((x, y))
                elif not (x is y or x == y):
                    return False
        return True

    def __hash__(self) -> int:
        # equal records have equal prefix forms: the same classes and values in the same order
        return hash(tuple(_prefix(self)))

    def __repr__(self) -> str:
        # a loop over a stack of texts and 1-tuples of values still to write, not a recursion
        out, todo = [], [(self,)]
        while todo:
            item = todo.pop()
            if item.__class__ is str:
                out.append(item)
            elif isinstance(r := item[0], Record):
                names, values = r._fields, r._values(r)
                out.append(f"{type(r).__qualname__}(")
                todo.append(")")
                for i in reversed(range(len(names))):
                    todo += (values[i],), f"{', ' if i else ''}{names[i]}="
            else:
                out.append(repr(item[0]))
        return "".join(out)

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError  # only to raise it: dataclasses imports inspect
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _prefix(record: Record):
    """(True, class) for the record and each record in it, (False, value) for each other field
    value, in prefix order.  A loop, not a recursion: a map tree can be any depth."""
    todo = [record]
    while todo:
        v = todo.pop()
        if isinstance(v, Record):
            yield True, type(v)
            todo += reversed(v._values(v))
        else:
            yield False, v
