"""Flat run configuration shared by every command.

Values resolve in three layers: built-in defaults, then a ``key = value``
config file, then CLI flags. Unknown keys, unparsable values, an unknown
``strategy``, an epoch count, embedding width or negative count below 1
and a search budget ``iter_limit`` below 2 are rejected with
:class:`ConfigError`, prefixed with ``path:line`` when they come from a
file.

``iter_limit`` is the one search budget. Each side, user and item, gets
``iter_limit // 2``: random search spends it in probe calls, one per walk;
greedy spends it in drawn candidates and also stops after ``MAX_STEPS``
moves, as an rms episode and a random walk do; and the DQN trains for
``(iter_limit // 2) // MAX_STEPS`` episodes, at least one.
:class:`RunConfig` is the only settings table, read by HRec and the probe.
Values that no run varies are constants beside their one reader, in
:mod:`hinrec.evaluation`, :mod:`hinrec.search_env` (``MAX_STEPS``),
:mod:`hinrec.recommender` and :mod:`hinrec.dqn`. The config hash covers
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

    # search
    strategy: str = "rms"
    iter_limit: int = 480

    # recommender
    embed_dim: int = 64
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
# The least value of each integer setting that the pipeline can run.
_AT_LEAST = {key: 1 for key in ("rec_epochs", "embed_dim", "n_negatives")}
_AT_LEAST["iter_limit"] = 2  # one probe call per side


def _coerce(cfg: RunConfig, key: str, value):
    out = _parse(cfg, key, value)
    if key == "strategy" and out not in STRATEGIES:
        raise ConfigError(f"config key 'strategy': unknown strategy {out!r}, expected one of {', '.join(STRATEGIES)}")
    if key in _AT_LEAST and out < _AT_LEAST[key]:
        raise ConfigError(f"config key {key!r}: must be at least {_AT_LEAST[key]}, got {out}")
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
