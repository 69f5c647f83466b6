"""Plain-text ``key = value`` files; a ``#`` at line start or after whitespace starts a comment.

``KEYS`` maps every key to its (parser, default); a parser raises ``ValueError``
for text outside the key's type or bounds. ``engine.*.`` stands for any ``engine.<role>.``.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from urllib.parse import urlsplit


class ConfigError(ValueError):
    pass


def _endpoint(text: str) -> str:
    url = urlsplit(text)
    if url.scheme not in ("http", "https") or not url.hostname:
        raise ValueError("expected an http:// or https:// URL with a host")
    url.port  # a port that is not a number raises ValueError
    return text


def _directory(text: str) -> str:
    if not text:
        raise ValueError("expected a directory path")
    return text


def _at_least(kind, low, strict: bool = False):
    """A parser of ``kind`` values that refuses any below ``low`` (``low`` too when
    strict) and any that is not finite."""
    def parse(text: str):
        value = kind(text)
        if not math.isfinite(value):
            raise ValueError(f"must be finite, got {value}")
        if not (value > low if strict else value >= low):
            raise ValueError(f"must be {'above' if strict else 'at least'} {low}, got {value}")
        return value
    return parse


_COUNT = _at_least(int, 1)
_TEMPERATURE = _at_least(float, 0.0)

KEYS = {
    "engine.*.endpoint": (_endpoint, None),
    "engine.*.model": (str, ""),
    "engine.*.transcript_dir": (_directory, None),
    "engine.*.rate_limit_per_s": (_at_least(float, 0.0, strict=True), None),
    "engine.*.max_retries": (_at_least(int, 0), 5),
    "optimizer.epochs": (_COUNT, 3),
    "optimizer.batch_size": (_COUNT, 3),
    "optimizer.forward_temperature": (_TEMPERATURE, 0.0),
    "pipeline.extract_temperature": (_TEMPERATURE, 1.0),
    "pipeline.parallelism": (_COUNT, 4),
}


def _table_key(key: str) -> str:
    return re.sub(r"^engine\.[^.]+\.", "engine.*.", key)


class Config(dict):
    """Typed values of a config file; an unset key reads as its table default."""

    def __missing__(self, key):
        return KEYS[_table_key(key)][1]


def load_config(path) -> Config:
    cfg = Config()
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = re.sub(r"(^|\s)#.*", "", line).strip()
        if not line:
            continue
        key, sep, text = (part.strip() for part in line.partition("="))
        if not sep:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
        where, spec = f"{path}:{line_no}: {key}", KEYS.get(_table_key(key))
        if spec is None:
            raise ConfigError(f"{where}: unknown key")
        if key in cfg:
            raise ConfigError(f"{where}: set twice")
        try:
            cfg[key] = spec[0](text)
        except ValueError as exc:
            raise ConfigError(f"{where} = {text!r}: {exc}") from None
    return cfg
