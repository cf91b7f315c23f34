"""Scenario configuration: YAML schema, strict validation, defaults.

Unknown keys anywhere in the tree are hard errors so a typo in a physics
parameter can never silently fall back to a default.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import yaml

from .errors import ConfigError
from .molecule import (BUILTINS, DipoleComponents, FieldConfig,
                       RotorConstants, TransitionTable)
from .pulses import (StapSchedule, StirapSchedule, default_stap_schedule,
                     default_stirap_schedule)

_STIRAP_PULSE_KEYS = {"t1", "t_f", "ps_amplitude", "tau", "ps_width", "q_width"}
_STAP_PULSE_KEYS = {"t_split", "t_f", "alpha_m", "t_alpha2",
                    "alpha1_profile", "q_width"}
# Nested numbers are times (us), rates (rad/us), frequencies (MHz), fields
# (V/cm) or dipoles (D); far outside [1/SCALE_LIMIT, SCALE_LIMIT] in magnitude
# the pulse arithmetic overflows.
SCALE_LIMIT = 1e9
# Every Trotter or oracle step keeps 4x4 matrices and states in memory; at
# MAX_STEPS a run stays within a few hundred MB.
MAX_STEPS = 100_000
_INT_RANGES = {"n_steps": (2, MAX_STEPS), "shots": (1, 2**63 - 1),   # numpy's int64
               "oracle_steps": (1, MAX_STEPS), "seed": (0, 2**63 - 1)}


@dataclass
class ScenarioConfig:
    protocol: str = "stap"
    molecule: str | dict = "propanediol-corrected"
    pulses: dict = field(default_factory=dict)
    n_steps: int = 20
    shots: int = 5000
    seed: int = 1
    out_dir: str = "out"
    checkpoints_us: list[float] = field(default_factory=lambda: [0.61, 1.24, 2.53])
    enantiomer: str = "both"
    ps_order: str = "ps"
    erratum_s_gate: bool = False
    oracle_steps: int = 2000
    fields: dict | None = None

    def build_schedule(self) -> StirapSchedule | StapSchedule:
        try:
            if self.protocol == "stirap":
                return default_stirap_schedule(**self.pulses)
            return default_stap_schedule(**self.pulses)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid pulse parameters: {exc}") from exc

    def molecule_params(self):
        if isinstance(self.molecule, str):
            return BUILTINS[self.molecule]
        m = self.molecule
        try:
            constants = RotorConstants(**m["constants"])
            dipoles = DipoleComponents(**m["dipoles"])
            table = TransitionTable(**m["table"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid inline molecule spec: {exc}") from exc
        return constants, dipoles, table

    def field_config(self) -> FieldConfig | None:
        """Drive fields, absent eps values at 0 V/cm; None without fields."""
        if self.fields is not None and not isinstance(self.fields, dict):
            raise ConfigError("fields must be a mapping")
        if not self.fields:
            return None
        _require_keys(self.fields, {"eps_p", "eps_s", "eps_q", "max_field"}, "fields")
        try:
            return FieldConfig(**self.fields)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid fields: {exc}") from exc


_TOP_KEYS = {f.name for f in dataclasses.fields(ScenarioConfig)}


def _require_keys(actual: dict, allowed: set, context: str) -> None:
    unknown = set(actual) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {context}: {', '.join(sorted(map(str, unknown)))}")


def _require_scale(value, context: str) -> None:
    """Every number in the tree 0 or of magnitude in [1/SCALE_LIMIT, SCALE_LIMIT]
    and none a boolean (YAML's true/false would pass as 1/0)."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, v in items:
        _require_scale(v, f"{context}.{key}")
    if isinstance(value, bool) or isinstance(value, (int, float)) and not (
            value == 0 or 1 / SCALE_LIMIT <= abs(value) <= SCALE_LIMIT):
        raise ConfigError(f"{context} must be 0 or a finite number of magnitude "
                          f"{1 / SCALE_LIMIT:g} to {SCALE_LIMIT:g}, got {value}")


def validate_config(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    _require_keys(raw, _TOP_KEYS, "config")
    for key, value in raw.items():
        if isinstance(value, (dict, list)):  # top-level scalars are checked below
            _require_scale(value, key)
    cfg = ScenarioConfig(**raw)

    for name, choices in (("protocol", ("stirap", "stap")),
                          ("enantiomer", ("L", "R", "both")), ("ps_order", ("ps", "sp"))):
        if getattr(cfg, name) not in choices:
            raise ConfigError(f"{name} must be one of {choices}, got {getattr(cfg, name)!r}")
    for name, (lo, hi) in _INT_RANGES.items():
        v = getattr(cfg, name)
        if not isinstance(v, int) or isinstance(v, bool) or not lo <= v <= hi:
            raise ConfigError(f"{name} must be an integer in [{lo}, {hi}], got {v!r}")
    if not isinstance(cfg.out_dir, str):
        raise ConfigError(f"out_dir must be a string, got {cfg.out_dir!r}")
    if not isinstance(cfg.erratum_s_gate, bool):
        raise ConfigError(f"erratum_s_gate must be a boolean, got {cfg.erratum_s_gate!r}")
    if not isinstance(cfg.checkpoints_us, list) or not all(
            isinstance(t, (int, float)) for t in cfg.checkpoints_us):
        raise ConfigError("checkpoints_us must be a list of numbers")

    if not isinstance(cfg.pulses, dict):
        raise ConfigError("pulses must be a mapping")
    allowed = _STIRAP_PULSE_KEYS if cfg.protocol == "stirap" else _STAP_PULSE_KEYS
    _require_keys(cfg.pulses, allowed, f"pulses ({cfg.protocol})")

    if isinstance(cfg.molecule, str):
        if cfg.molecule not in BUILTINS:
            raise ConfigError(
                f"unknown molecule {cfg.molecule!r}; "
                f"builtins: {', '.join(sorted(BUILTINS))}")
    elif isinstance(cfg.molecule, dict):
        _require_keys(cfg.molecule, {"constants", "dipoles", "table"}, "molecule")
    else:
        raise ConfigError("molecule must be a builtin name or an inline mapping")

    cfg.build_schedule()  # surface bad pulse values at validation time
    cfg.molecule_params()
    cfg.field_config()
    return cfg


def read_config(path: str):
    """The unvalidated YAML tree of a config file ({} for an empty file)."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    return raw if raw is not None else {}


def load_config(path: str) -> ScenarioConfig:
    return validate_config(read_config(path))
