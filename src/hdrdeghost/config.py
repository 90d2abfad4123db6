"""Plain-text key=value configuration covering model and training fields.

An empty file yields the full-scale defaults. ``preset=tiny`` switches the
model to the desk-scale preset before other keys are applied. Unknown keys
and type errors are rejected with line numbers.
"""
from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .model import ModelConfig, ConfigError, full_preset, tiny_preset
from .training import TrainConfig

_PRESETS = {"full": full_preset, "tiny": tiny_preset}


def _parse_bool(v, lineno):
    low = v.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"line {lineno}: expected a boolean, got {v!r}")


def _coerce(ftype, value, lineno):
    try:
        if ftype is bool:
            return _parse_bool(value, lineno)
        if ftype is int:
            return int(value)
        if ftype is float:
            return float(value)
        return value
    except ValueError:
        raise ConfigError(
            f"line {lineno}: cannot parse {value!r} as {ftype.__name__}") from None


# key -> (config class, value type): the two classes' field names are
# disjoint, and a field's type is its default's, as ModelConfig enforces
_KEYS = {f.name: (cls, type(f.default))
         for cls in (ModelConfig, TrainConfig) for f in fields(cls)}


def parse_config(path=None, text=None):
    """Returns (ModelConfig, TrainConfig) from a key=value file."""
    if text is None:
        text = Path(path).read_text() if path else ""
    preset = "full"
    kv = {ModelConfig: {}, TrainConfig: {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key == "preset":
            if value not in _PRESETS:
                raise ConfigError(
                    f"line {lineno}: unknown preset {value!r} "
                    f"(choices: {sorted(_PRESETS)})")
            preset = value
        elif key in _KEYS:
            cls, ftype = _KEYS[key]
            kv[cls][key] = _coerce(ftype, value, lineno)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    return _PRESETS[preset](**kv[ModelConfig]), TrainConfig(**kv[TrainConfig])
