"""Runtime configuration: Newton restarts and the default seed.

A config file is plain ``key=value`` lines (``#`` comments allowed); flags
always override file values, and an unknown key is an error.  Round-trips
losslessly through dump/load.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

from .reconstruct import DEFAULT_RESTARTS, DEFAULT_SEED


@dataclass(frozen=True)
class Config:
    newton_restarts: int = DEFAULT_RESTARTS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.newton_restarts <= 0:
            raise ValueError("config field newton_restarts must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def dump(self) -> str:
        return "".join(f"{f.name}={getattr(self, f.name)}\n" for f in fields(self))

    @staticmethod
    def load(path: str) -> "Config":
        values: dict = {}
        names = {f.name for f in fields(Config)}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                key = key.strip()
                if not sep or key not in names:
                    raise ValueError(f"{path}:{lineno}: bad config line {raw.strip()!r}")
                values[key] = int(value.strip())
        return Config(**values)
