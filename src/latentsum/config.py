"""Run configuration: a flat JSON file mirroring RunConfig, with CLI
flag overrides applied on top."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError


@dataclass
class RunConfig:
    seed: int = 13
    d: int = 300
    extractive_lr: float = 0.001
    compression_lr: float = 0.001
    latent_lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 5.0
    dropout: float = 0.3
    word_dropout: float = 0.2
    alpha: float = 0.5
    extractive_epochs: int = 10
    compression_epochs: int = 10
    latent_epochs: int = 5
    batch_size: int = 32
    max_select: int = 3
    min_count: int = 2
    max_decode_len: int = 30
    num_samples: int = 1
    # None trains for the full epoch budget; a float in (0,1] stops early
    # once training-label accuracy reaches it (overfit experiments).
    stop_at_train_acc: float | None = None

    def validate(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0,1], got {self.alpha}")
        for key in ("extractive_lr", "compression_lr", "latent_lr"):
            value = getattr(self, key)
            if not value > 0:
                raise ConfigError(f"{key} must be > 0, got {value}")
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ConfigError(f"betas must lie in [0,1), got ({self.beta1}, {self.beta2})")
        if self.clip_norm <= 0:
            raise ConfigError(f"clip_norm must be > 0, got {self.clip_norm}")
        for key in ("dropout", "word_dropout"):
            value = getattr(self, key)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{key} must be in [0,1), got {value}")
        for key in ("extractive_epochs", "compression_epochs", "latent_epochs",
                    "batch_size", "max_select", "min_count", "max_decode_len",
                    "num_samples"):
            value = getattr(self, key)
            if value < 1:
                raise ConfigError(f"{key} must be >= 1, got {value}")
        if self.stop_at_train_acc is not None and not 0.0 < self.stop_at_train_acc <= 1.0:
            raise ConfigError(
                f"stop_at_train_acc must be in (0,1] or null, got {self.stop_at_train_acc}"
            )
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, value):
    field = _FIELDS[name]
    if field.type in ("int", int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {name} must be an integer, got {value!r}")
        return value
    if field.type in ("float", float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {name} must be a number, got {value!r}")
        return float(value)
    # float | None: stop_at_train_acc
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {name} must be a number or null, got {value!r}")
    return float(value)


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from defaults, then a JSON file, then overrides.

    Unknown keys in either layer are refused rather than ignored.
    """
    values: dict = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        for key, value in raw.items():
            if key not in _FIELDS:
                raise ConfigError(f"unknown config key {key!r} in {path}")
            values[key] = _coerce(key, value)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELDS:
            raise ConfigError(f"unknown config override {key!r}")
        values[key] = _coerce(key, value)
    return RunConfig(**values).validate()
