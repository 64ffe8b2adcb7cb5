"""Flat ``key = value`` configuration files.

One assignment per line, ``#`` comment lines, blank lines ignored.  One
reader, ``read_config``, turns the raw mapping into config dataclasses, one
section per class::

    class             scalar keys         per-name keys
    ModelConfig       model.<field>       model.width.<modality> (int)
    TrainConfig       train.<field>       eliminate.<modality> (float)
    SynthConfig       synth.<field>       synth.width.<modality> (int),
                                          synth.snr.<modality> (float)
    ExperimentConfig  experiment.<field>  -

A scalar key is parsed by its field's declared type: ``int``, ``float``
(finite only), ``tuple`` (comma-separated names) or ``list`` (comma-separated
ints).  A per-name table holds exactly the given keys when the section sets
``modalities``, and otherwise lays them over the class defaults.  Keys that no
class recognizes are an error, as are duplicates: silently ignoring a typo
like ``train.learning_rte`` would change an experiment without anyone noticing.
For the same reason a per-name key must name one of its section's modalities;
``eliminate.<modality>`` is checked against ``model.modalities`` whenever
``ModelConfig`` is read in the same call.
"""

from __future__ import annotations

import math
from dataclasses import fields

from .data import SynthConfig
from .errors import ConfigError
from .model import ModelConfig
from .train import ExperimentConfig, TrainConfig


def parse_flat_config(text: str) -> dict:
    """Parse config text to a raw {key: value-string} mapping."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {s!r}")
        key, _, value = s.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        if key in raw:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            return parse_flat_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None


def _as_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _as_float(key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return number


def parse_name_list(key: str, value: str) -> tuple:
    names = tuple(v.strip() for v in value.split(","))
    if not all(names):
        raise ConfigError(f"{key}: expected comma-separated names, got {value!r}")
    return names


def parse_int_list(key: str, value: str) -> list:
    return [_as_int(key, v) for v in value.split(",")]


# Keyed by annotation text: the config modules postpone annotation evaluation.
_PARSERS = {"int": _as_int, "float": _as_float, "tuple": parse_name_list, "list": parse_int_list}

# Per class: its section prefix and its per-name tables (key prefix ->
# (dict field, value parser)).  A table's names come from the ``modalities``
# of ``_NAMES_FROM[class]``.
_SECTIONS = {
    ModelConfig: ("model.", {"model.width.": ("modality_widths", _as_int)}),
    TrainConfig: ("train.", {"eliminate.": ("elimination", _as_float)}),
    SynthConfig: ("synth.", {"synth.width.": ("widths", _as_int),
                             "synth.snr.": ("snr", _as_float)}),
    ExperimentConfig: ("experiment.", {}),
}
_NAMES_FROM = {ModelConfig: ModelConfig, TrainConfig: ModelConfig, SynthConfig: SynthConfig}


def read_config(raw: dict, *classes) -> tuple:
    """One config per class, read from a raw flat mapping; any key that none
    of the classes claims, or a per-name key that names no modality, is
    rejected."""
    claimed = set()
    named = []  # (key, name, class) of every per-name key
    configs = []
    for cls in classes:
        section, tables = _SECTIONS[cls]
        scalars = {f.name: _PARSERS[f.type] for f in fields(cls) if f.type in _PARSERS}
        kwargs = {}
        given = {name: {} for name, _ in tables.values()}
        for key, value in raw.items():
            prefix = next((p for p in tables if key.startswith(p)), None)
            if prefix is not None:
                name, parse = tables[prefix]
                given[name][key[len(prefix):]] = parse(key, value)
                named.append((key, key[len(prefix):], cls))
            elif key.startswith(section) and key[len(section):] in scalars:
                name = key[len(section):]
                kwargs[name] = scalars[name](key, value)
            else:
                continue
            claimed.add(key)
        defaults = cls()
        for name, table in given.items():
            kwargs[name] = table if "modalities" in kwargs else {**getattr(defaults, name), **table}
        configs.append(cls(**kwargs))
    unknown = sorted(set(raw) - claimed)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    built = dict(zip(classes, configs))
    for key, name, cls in named:
        owner = built.get(_NAMES_FROM[cls])
        if owner is not None and name not in owner.modalities:
            raise ConfigError(f"{key}: {name!r} is not one of the modalities "
                              f"{', '.join(owner.modalities)}")
    return tuple(configs)
