"""Plain-text key=value configuration files.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored. Unknown or duplicate keys are rejected with the line number.
Every key is optional; omitted keys fall back to the documented defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .descriptor import check_cues
from .errors import ConfigParseError, ConfigurationError
from .model import FUSIONS, GATE_ACTS, ModelConfig


@dataclass
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    epochs: int = 10
    lr: float = 1e-3
    batch: int = 8
    seed: int = 0

    def validate(self) -> "TrainConfig":
        self.model.validate()
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigurationError(f"learning rate must be finite and >= 0, got {self.lr}")
        if self.batch < 1:
            raise ConfigurationError("batch size must be >= 1")
        return self


def _parse_int(raw: str) -> int:
    return int(raw, 10)


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw} is not a finite number")
    return value


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part, 10) for part in raw.split(","))  # int() strips; "" is refused


def _parse_choice(options):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {sorted(options)}")
        return raw

    return parse


def _parse_cues(raw: str) -> tuple[str, ...]:
    cues = tuple(part.strip() for part in raw.split(",")) if raw else ()
    check_cues(cues)
    return cues


def _parse_beta_mode(raw: str) -> tuple[str, float]:
    if raw == "learnable":
        return "learnable", 0.0
    if raw.startswith("fixed:"):
        return "fixed", _parse_float(raw.split(":", 1)[1])
    raise ValueError("expected 'learnable' or 'fixed:<value>'")


# key -> (parser, owner, attribute): 'model' attributes live on ModelConfig,
# 'train' ones on TrainConfig itself. The rows are in canonical text order.
_KEYS = {
    "t_in": (_parse_int, "model", "t_in"),
    "t_out": (_parse_int, "model", "t_out"),
    "c_in": (_parse_int, "model", "c_in"),
    "c_out": (_parse_int, "model", "c_out"),
    "height": (_parse_int, "model", "height"),
    "width": (_parse_int, "model", "width"),
    "latent_c": (_parse_int, "model", "latent_c"),
    "n_s": (_parse_int, "model", "n_s"),
    "n_t": (_parse_int, "model", "n_t"),
    "kernels": (_parse_int_list, "model", "kernels"),
    "expansion": (_parse_int, "model", "expansion"),
    "center_size": (_parse_int, "model", "center_size"),
    "fusion": (_parse_choice(FUSIONS), "model", "fusion"),
    "beta_mode": (_parse_beta_mode, "model", "beta_mode"),  # also sets beta_fixed
    "gate_act": (_parse_choice(GATE_ACTS), "model", "gate_act"),
    "cues": (_parse_cues, "model", "cues"),
    "drop_path": (_parse_float, "model", "drop_path"),
    "msinit": (_parse_int_list, "model", "msinit_scales"),
    "epochs": (_parse_int, "train", "epochs"),
    "lr": (_parse_float, "train", "lr"),
    "batch": (_parse_int, "train", "batch"),
    "seed": (_parse_int, "train", "seed"),
}


def parse_config_text(text: str) -> TrainConfig:
    cfg = TrainConfig()
    seen: set[str] = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got '{raw_line.strip()}'")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigParseError(f"line {lineno}: unknown key '{key}'")
        if key in seen:
            raise ConfigParseError(f"line {lineno}: duplicate key '{key}'")
        seen.add(key)
        parser, owner, attr = _KEYS[key]
        try:
            value = parser(raw_value)
        except (ValueError, TypeError, ConfigurationError) as exc:
            raise ConfigParseError(f"line {lineno}: bad value for '{key}': {exc}") from None
        if key == "beta_mode":
            cfg.model.beta_mode, cfg.model.beta_fixed = value
        else:
            setattr(cfg.model if owner == "model" else cfg, attr, value)
    return cfg


def load_config(path) -> TrainConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config '{path}': {exc}") from None
    cfg = parse_config_text(text)
    cfg.validate()
    return cfg


def serialize_config(cfg: TrainConfig) -> str:
    """Canonical config text, one line per key in ``_KEYS`` order,
    round-trippable through the parser."""
    m = cfg.model
    lines = []
    for key, (parser, owner, attr) in _KEYS.items():
        value = getattr(m if owner == "model" else cfg, attr)
        if key == "latent_c":
            value = m.latent  # the resolved width, default or not
        elif key == "beta_mode" and value != "learnable":
            value = f"fixed:{m.beta_fixed!r}"
        elif parser in (_parse_int_list, _parse_cues):
            value = ",".join(str(v) for v in value)
        elif parser is _parse_float:
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
