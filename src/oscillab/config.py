"""Flat key=value run configuration.

A config file is lines of ``key = value`` (or ``key=value``), ``#`` comments
allowed.  Unknown keys are rejected so typos fail loudly.  The digest is a
hash of the canonical text, so two runs agree on configuration exactly when
their digests match.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import BadParams
from .reports import DEFAULT_TOL


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    trials: int = 25
    tol: float = DEFAULT_TOL
    out: str = "out"
    suite: str = "all"

    def __post_init__(self):
        if self.trials < 1:
            raise BadParams(f"trials must be at least 1, got {self.trials}")
        if self.tol <= 0:
            raise BadParams(f"tol must be positive, got {self.tol}")

    def canonical_text(self) -> str:
        parts = []
        for f in sorted(fields(self), key=lambda f: f.name):
            v = getattr(self, f.name)
            parts.append(f"{f.name}={repr(v) if isinstance(v, float) else v}")
        return "\n".join(parts) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]

    def with_overrides(self, **kwargs) -> "RunConfig":
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates) if updates else self


# Each key's parser is the type of its default.
_COERCE = {f.name: type(f.default) for f in fields(RunConfig)}


def parse_config(path) -> RunConfig:
    text = Path(path).read_text(errors="replace")
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadParams(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _COERCE:
            raise BadParams(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _COERCE[key](val)
        except ValueError as exc:
            raise BadParams(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    return RunConfig(**values)
