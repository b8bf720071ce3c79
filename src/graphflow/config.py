"""Flat key=value configuration with typed fields and strict key checking."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

GRAPH_MODES = ("base", "sgr", "agr")


@dataclass
class ModelConfig:
    """Architecture knobs; defaults are the desk-scale setup."""

    feature_channels: int = 64     # matching feature width c_f
    context_channels: int = 64     # context and motion width
    nodes: int = 16                # graph nodes K
    context_iters: int = 2         # reasoning steps on the context graph
    motion_iters: int = 1          # reasoning steps on the motion graph
    refine_iters: int = 6          # recurrent refinement iterations
    lookup_radius: int = 4         # correlation window radius
    downsample: int = 4            # feature-grid stride; the encoders fix it at 4
    graph: str = "agr"
    seed: int = 0

    def validate(self) -> None:
        for name in ("feature_channels", "context_channels", "nodes",
                     "context_iters", "motion_iters", "refine_iters"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.downsample != 4:
            raise ConfigError(
                f"downsample must be 4 (two stride-2 encoder convs), got {self.downsample}")
        if self.lookup_radius < 0:
            raise ConfigError(f"lookup_radius must be >= 0, got {self.lookup_radius}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.graph not in GRAPH_MODES:
            raise ConfigError(
                f"graph must be one of {'|'.join(GRAPH_MODES)}, got {self.graph!r}")


@dataclass
class RunConfig(ModelConfig):
    """Model knobs plus everything the command-line workflows need."""

    precision: int = 32
    threads: int = 1
    data: str = ""                 # manifest path for train/eval
    out: str = "out"
    steps: int = 2000
    batch_size: int = 1
    peak_lr: float = 4e-4
    weight_decay: float = 1e-5
    warmup_frac: float = 0.05
    log_interval: int = 10
    checkpoint_interval: int = 500
    resume: str = ""

    def validate(self) -> None:
        super().validate()
        if self.precision not in (32, 64):
            raise ConfigError(f"precision must be 32 or 64, got {self.precision}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        for name in ("steps", "batch_size", "log_interval", "checkpoint_interval"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 < self.peak_lr < math.inf:
            raise ConfigError(
                f"peak_lr must be positive and finite, got {self.peak_lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(
                f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ConfigError(f"warmup_frac must be in [0,1), got {self.warmup_frac}")

    def model(self) -> ModelConfig:
        fields = [f.name for f in dataclasses.fields(ModelConfig)]
        return ModelConfig(**{f: getattr(self, f) for f in fields})


def parse_kv_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _convert(key: str, value: str, target_type) -> object:
    try:
        if target_type is int:
            return int(value)
        if target_type is float:
            return float(value)
        return value
    except ValueError:
        raise ConfigError(
            f"key {key!r} expects {target_type.__name__}, got {value!r}") from None


def apply_kv(cfg, pairs: dict[str, str]):
    """Overlay string pairs onto a dataclass config; unknown keys fail."""
    fields = {f.name: f.type for f in dataclasses.fields(cfg)}
    types = {"int": int, "float": float, "str": str}
    for key, value in pairs.items():
        if key not in fields:
            known = ", ".join(sorted(fields))
            raise ConfigError(f"unknown config key {key!r} (known: {known})")
        ftype = fields[key]
        ftype = types.get(ftype, str) if isinstance(ftype, str) else ftype
        setattr(cfg, key, _convert(key, value, ftype))
    return cfg


def read_kv_file(path: str, kind: str) -> dict[str, str]:
    """Parse a UTF-8 ``key = value`` file; ``kind`` names it in errors."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{kind} file not found: {path}")
    try:
        text = p.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path}: {kind} file is not UTF-8 text (byte {exc.start})") from None
    return parse_kv_text(text, source=str(path))


def load_run_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        apply_kv(cfg, read_kv_file(path, "config"))
    return cfg


def format_config(cfg: RunConfig) -> str:
    """Stable echo of every field; feeding it back reproduces the run."""
    lines = [f"{f.name} = {getattr(cfg, f.name)}"
             for f in dataclasses.fields(cfg)]
    return "\n".join(lines) + "\n"
