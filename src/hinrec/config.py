"""Flat run configuration shared by every command.

Values resolve in three layers: built-in defaults, then a ``key = value``
config file, then CLI flags. Unknown keys, unparsable values, an unknown
``strategy``, and a step limit, sync period, buffer or batch size below 1
are rejected with :class:`ConfigError`, prefixed with ``path:line`` when
they come from a file. :class:`RunConfig` is the only settings table:
HRec, the probe and the DQN read it directly. The config hash covers
every field except ``seed``, ``out`` and ``dataset``, which name a run
without changing its science, so a report can refuse to aggregate runs
produced under different settings.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .util import stable_hash


class ConfigError(ValueError):
    pass


# Keys that identify a run but do not change its science.
_HASH_EXCLUDED = {"seed", "out", "dataset"}

# The search strategies ``hinrec search`` runs; the CLI's --strategy choices.
STRATEGIES = ("rms", "greedy", "random")


@dataclass(frozen=True)
class RunConfig:
    # run identity / plumbing
    seed: int = 0
    out: str = "runs"
    dataset: str = ""

    # meta-path machinery
    density_threshold: float = 0.5
    fanout: int = 20

    # search
    strategy: str = "rms"
    max_steps: int = 4
    iter_limit: int = 0
    greedy_candidates: int = 4

    # DQN agent
    dqn_episodes: int = 60
    gamma: float = 0.9
    dqn_lr: float = 0.001
    dqn_batch: int = 32
    dqn_buffer: int = 10000
    target_sync: int = 100
    eps_start: float = 1.0
    eps_end: float = 0.1
    eps_fraction: float = 0.5

    # recommender
    embed_dim: int = 64
    att_hidden: int = 32
    dropout: float = 0.1
    rec_lr: float = 0.01
    rec_batch: int = 1024
    rec_epochs: int = 30
    patience: int = 3
    mf_epochs: int = 30
    mf_lr: float = 0.05

    # evaluation
    n_negatives: int = 499
    leak_guard: bool = True

    def config_hash(self) -> str:
        payload = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name not in _HASH_EXCLUDED
        }
        return stable_hash(payload)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def with_overrides(self, overrides: dict) -> "RunConfig":
        coerced = {k: _coerce(self, k, v) for k, v in overrides.items()}
        return replace(self, **coerced)

    @classmethod
    def from_file(cls, path: str | Path, overrides: dict | None = None) -> "RunConfig":
        cfg = cls()
        text = Path(path).read_text(encoding="utf-8")
        file_values: dict = {}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key = value, got {raw!r}")
            key, value = (p.strip() for p in line.split("=", 1))
            try:
                file_values[key] = _coerce(cfg, key, value)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{line_no}: {exc}") from None
        cfg = replace(cfg, **file_values)
        if overrides:
            cfg = cfg.with_overrides(overrides)
        return cfg


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(cfg: RunConfig, key: str, value):
    out = _parse(cfg, key, value)
    if key == "strategy" and out not in STRATEGIES:
        raise ConfigError(f"config key 'strategy': unknown strategy {out!r}, expected one of {', '.join(STRATEGIES)}")
    if key in ("max_steps", "target_sync", "dqn_buffer", "dqn_batch", "rec_batch") and out < 1:
        raise ConfigError(f"config key {key!r}: must be at least 1, got {out}")
    return out


def _parse(cfg: RunConfig, key: str, value):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    current = getattr(cfg, key)
    if not isinstance(value, str):
        return type(current)(value) if not isinstance(value, type(current)) else value
    text = value.strip()
    if isinstance(current, bool):
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {key!r}: cannot parse boolean from {value!r}")
    try:
        if isinstance(current, int):
            return int(text)
        if isinstance(current, float):
            return float(text)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {type(current).__name__} from {value!r}") from None
    return text
