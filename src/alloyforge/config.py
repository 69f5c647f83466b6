"""Plain-text ``key = value`` files; a ``#`` at line start or after whitespace starts a comment.

``KEYS`` maps every key to its (type, default); ``engine.*.`` stands for any ``engine.<role>.``.
"""

from __future__ import annotations

import re
from pathlib import Path

from .composition import DEFAULT_COSINE_THRESHOLD, DEFAULT_L1_THRESHOLD


class ConfigError(ValueError):
    pass


def _boolean(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError("expected true or false")
    return text == "true"


KEYS = {
    "engine.*.kind": (str, "replay"),  # http | replay
    "engine.*.endpoint": (str, ""),
    "engine.*.model": (str, ""),
    "engine.*.record": (_boolean, False),
    "engine.*.transcript_dir": (str, None),
    "engine.*.rate_limit_per_s": (float, None),
    "engine.*.max_context_chars": (int, None),
    "engine.*.max_retries": (int, 5),
    "optimizer.epochs": (int, 3),
    "optimizer.batch_size": (int, 3),
    "optimizer.forward_temperature": (float, 0.0),
    "optimizer.parallelism": (int, 1),
    "pipeline.extract_temperature": (float, 1.0),
    "pipeline.parallelism": (int, 4),
    "thresholds.l1": (float, DEFAULT_L1_THRESHOLD),
    "thresholds.cosine": (float, DEFAULT_COSINE_THRESHOLD),
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
