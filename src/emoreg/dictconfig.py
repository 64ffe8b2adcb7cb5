"""Dict round trip shared by the dataclass configs (model, train, synth, experiment)."""

from __future__ import annotations

import numbers
from dataclasses import fields

from .errors import ConfigError


def check_int(name: str, value):
    """``value`` if it is an integer (numpy's too, not ``bool``); else a ``ConfigError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    return value


class DictConfig:
    """Mixin for config dataclasses.

    ``to_dict`` gives JSON-ready field values (tuples become lists);
    ``from_dict`` rebuilds the config and rejects keys the class lacks;
    ``check_ints`` rejects a non-integer in an ``int`` field.
    """

    def check_ints(self):
        for f in fields(self):
            if f.type == "int":
                check_int(f.name, getattr(self, f.name))

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_dict(cls, d: dict):
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            kind = cls.__name__.removesuffix("Config").lower()
            raise ConfigError(f"unknown {kind} config keys: {sorted(unknown)}")
        return cls(**d)
