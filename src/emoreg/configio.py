"""Flat ``key = value`` configuration files.

One assignment per line, ``#`` comment lines, blank lines ignored.  Dotted
keys select the component (``model.d_model``, ``train.learning_rate``,
``synth.n_steps``); per-modality values use a trailing name segment
(``model.width.audio``, ``synth.snr.video``, ``eliminate.audio``).  Keys
that no component recognizes are an error, as are duplicates: silently
ignoring a typo like ``train.learning_rte`` would change an experiment
without anyone noticing.
"""

from __future__ import annotations

from dataclasses import fields

from .data import SynthConfig
from .errors import ConfigError
from .model import ModelConfig
from .train import TrainConfig


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


def parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _as_name_list(key: str, value: str) -> tuple:
    names = tuple(v.strip() for v in value.split(","))
    if not all(names):
        raise ConfigError(f"{key}: expected comma-separated names, got {value!r}")
    return names


def parse_int_list(key: str, value: str) -> list:
    return [_as_int(key, v) for v in value.split(",")]


def _scalar_parsers(cls) -> dict:
    """Value parser per int or float field of a config dataclass."""
    kinds = {"int": _as_int, "float": parse_float}
    return {f.name: kinds[f.type] for f in fields(cls) if f.type in kinds}


_MODEL_SCALARS = _scalar_parsers(ModelConfig)


def build_model_config(raw: dict, consumed: set) -> ModelConfig:
    kwargs = {}
    widths = {}
    for key, value in raw.items():
        if key == "model.modalities":
            kwargs["modalities"] = _as_name_list(key, value)
        elif key.startswith("model.width."):
            widths[key[len("model.width."):]] = _as_int(key, value)
        elif key.startswith("model."):
            name = key[len("model."):]
            if name not in _MODEL_SCALARS:
                continue
            kwargs[name] = _MODEL_SCALARS[name](key, value)
        else:
            continue
        consumed.add(key)
    if "modalities" in kwargs:
        kwargs["modality_widths"] = widths
    elif widths:
        merged = dict(ModelConfig().modality_widths)
        merged.update(widths)
        kwargs["modality_widths"] = merged
    return ModelConfig(**kwargs)


_TRAIN_SCALARS = _scalar_parsers(TrainConfig)


def build_train_config(raw: dict, consumed: set) -> TrainConfig:
    kwargs = {}
    elimination = {}
    for key, value in raw.items():
        if key.startswith("train."):
            name = key[len("train."):]
            if name not in _TRAIN_SCALARS:
                continue
            kwargs[name] = _TRAIN_SCALARS[name](key, value)
        elif key.startswith("eliminate."):
            elimination[key[len("eliminate."):]] = parse_float(key, value)
        else:
            continue
        consumed.add(key)
    if elimination:
        kwargs["elimination"] = elimination
    return TrainConfig(**kwargs)


_SYNTH_SCALARS = _scalar_parsers(SynthConfig)


def build_synth_config(raw: dict, consumed: set) -> SynthConfig:
    kwargs = {}
    widths = {}
    snr = {}
    for key, value in raw.items():
        if key == "synth.modalities":
            kwargs["modalities"] = _as_name_list(key, value)
        elif key.startswith("synth.width."):
            widths[key[len("synth.width."):]] = _as_int(key, value)
        elif key.startswith("synth.snr."):
            snr[key[len("synth.snr."):]] = parse_float(key, value)
        elif key.startswith("synth."):
            name = key[len("synth."):]
            if name not in _SYNTH_SCALARS:
                continue
            kwargs[name] = _SYNTH_SCALARS[name](key, value)
        else:
            continue
        consumed.add(key)
    defaults = SynthConfig()
    if "modalities" in kwargs:
        kwargs["widths"] = widths
        kwargs["snr"] = snr
    else:
        if widths:
            kwargs["widths"] = {**defaults.widths, **widths}
        if snr:
            kwargs["snr"] = {**defaults.snr, **snr}
    return SynthConfig(**kwargs)


def check_all_consumed(raw: dict, consumed: set):
    """Reject any config key no builder claimed."""
    unknown = sorted(set(raw) - consumed)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
