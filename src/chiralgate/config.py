"""Scenario configuration: YAML schema, strict validation, defaults.

Unknown keys anywhere in the tree are hard errors so a typo in a physics
parameter can never silently fall back to a default.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .circuits import _PS_ORDERS
from .errors import ConfigError
from .molecule import (BUILTINS, DipoleComponents, FieldConfig,
                       RotorConstants, TransitionTable)
from .pulses import PROTOCOLS, StapSchedule, StirapSchedule

# Nested numbers are times (us), rates (rad/us), frequencies (MHz), fields
# (V/cm) or dipoles (D); far outside [1/SCALE_LIMIT, SCALE_LIMIT] in magnitude
# the pulse arithmetic overflows.
SCALE_LIMIT = 1e9
# Every Trotter or oracle step keeps its gates, real 4x4 frame block and
# state in memory; export-qasm keeps its gates and slices, but its text is
# under 1 KB at any N.  At MAX_STEPS, peak RSS from getrusage in a fresh
# process on a shared 2-core x86-64 host: export-qasm 89 MB in 0.5-0.6 s
# (STIRAP; STAP 116 MB), run 99 MB in 1.0-1.1 s (STIRAP; STAP 116 MB).
# sweep-trotter runs an N above 32,768 in a batch of its own, so
# `--steps-list 20,40,100000` peaks at 90 MB in 0.5-0.6 s (STIRAP; STAP 117 MB).
MAX_STEPS = 100_000
# Nodes in one top-level entry once YAML aliases are expanded: bounds the
# work (and the text of an error message) that any later walk of it costs
MAX_NODES = 100_000
# The values of each choice key, which validate_config checks and the CLI
# offers; "both" runs L then R (scenarios._hands)
_CHOICES = {"protocol": tuple(PROTOCOLS), "enantiomer": ("L", "R", "both"),
            "ps_order": _PS_ORDERS}
# The sections of an inline molecule and the class each builds
_MOLECULE_SECTIONS = {"constants": RotorConstants, "dipoles": DipoleComponents,
                      "table": TransitionTable}
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
            return PROTOCOLS[self.protocol](**self.pulses)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid pulse parameters: {exc}") from exc

    def molecule_params(self):
        if isinstance(self.molecule, str):
            return BUILTINS[self.molecule]
        m = self.molecule
        try:
            for key, cls in _MOLECULE_SECTIONS.items():
                if isinstance(m[key], dict):        # else cls(**m[key]) raises TypeError
                    _require_numbers(m[key], cls, f"molecule.{key}")
            return tuple(cls(**m[key]) for key, cls in _MOLECULE_SECTIONS.items())
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid inline molecule spec: {exc}") from exc

    def field_config(self) -> FieldConfig | None:
        """Drive fields, absent eps values at 0 V/cm; None without fields."""
        if self.fields is not None and not isinstance(self.fields, dict):
            raise ConfigError("fields must be a mapping")
        if not self.fields:
            return None
        _require_keys(self.fields, {"eps_p", "eps_s", "eps_q", "max_field"}, "fields")
        _require_numbers(self.fields, FieldConfig, "fields")
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


def _require_numbers(values: dict, cls, context: str) -> None:
    """Each value of `values` for a field of dataclass cls is a number, or
    null where the field's default is None; a str field (a choice) is left
    to cls's own check.  YAML 1.1 reads 1e-9, an exponent without a '.',
    as a string, which would otherwise fail deep in the arithmetic."""
    for f in dataclasses.fields(cls):
        if f.name not in values or isinstance(f.default, str):
            continue
        v = values[f.name]
        if v is None and f.default is None:
            continue
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ConfigError(f"{context}.{f.name} must be a number, got {v!r}")


def _require_scale(value, context: str, sizes: dict) -> int:
    """Every number in the tree 0 or of magnitude in [1/SCALE_LIMIT, SCALE_LIMIT]
    and none a boolean (YAML's true/false would pass as 1/0); returns the
    number of nodes in the tree.

    A YAML alias shares one node among its uses, so a short file can hold a
    tree of exponential size.  `sizes` memoises each node by id once its
    subtree is done, so each shared node is walked once and a tree that
    contains itself still recurses until RecursionError."""
    if id(value) in sizes:
        return sizes[id(value)]
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    size = 1
    for key, v in items:
        size += _require_scale(v, f"{context}.{key}", sizes)
    if isinstance(value, bool) or isinstance(value, (int, float)) and not (
            value == 0 or 1 / SCALE_LIMIT <= abs(value) <= SCALE_LIMIT):
        raise ConfigError(f"{context} must be 0 or a finite number of magnitude "
                          f"{1 / SCALE_LIMIT:g} to {SCALE_LIMIT:g}, got {value}")
    sizes[id(value)] = size
    return size


def validate_config(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    _require_keys(raw, _TOP_KEYS, "config")
    for key, value in raw.items():
        if isinstance(value, (dict, list)):  # top-level scalars are checked below
            try:
                size = _require_scale(value, key, {})
            except RecursionError as exc:  # a YAML alias can make a tree contain itself
                raise ConfigError(f"{key} is nested too deeply or contains itself") from exc
            if size > MAX_NODES:
                raise ConfigError(f"{key} holds more than {MAX_NODES} entries once its "
                                  "YAML aliases are expanded")
    cfg = ScenarioConfig(**raw)

    for name, choices in _CHOICES.items():
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
    if len({f"{t:g}" for t in cfg.checkpoints_us}) < len(cfg.checkpoints_us):
        raise ConfigError("checkpoints_us has two entries with one %g label, report.json's key")

    if not isinstance(cfg.pulses, dict):
        raise ConfigError("pulses must be a mapping")
    allowed = {f.name for f in dataclasses.fields(PROTOCOLS[cfg.protocol]) if f.init}
    _require_keys(cfg.pulses, allowed, f"pulses ({cfg.protocol})")
    _require_numbers(cfg.pulses, PROTOCOLS[cfg.protocol], "pulses")

    if isinstance(cfg.molecule, str):
        if cfg.molecule not in BUILTINS:
            raise ConfigError(
                f"unknown molecule {cfg.molecule!r}; "
                f"builtins: {', '.join(sorted(BUILTINS))}")
    elif isinstance(cfg.molecule, dict):
        _require_keys(cfg.molecule, set(_MOLECULE_SECTIONS), "molecule")
    else:
        raise ConfigError("molecule must be a builtin name or an inline mapping")

    schedule = cfg.build_schedule()  # surface bad pulse values at validation time
    # each stage gets a circuit slice and the oracle steps t_f / oracle_steps whose midpoints
    # lie in it: one shorter than a step would be run by the circuit and skipped by the oracle
    step = schedule.t_f / cfg.oracle_steps
    for stage, length in (("Q stage t_split", schedule.t_split),
                          ("P/S stage t_f - t_split", schedule.t_f - schedule.t_split)):
        if length < step:
            raise ConfigError(f"the {stage} = {length:g} us is shorter than one oracle step "
                              f"t_f / oracle_steps = {step:g} us: raise oracle_steps")
    cfg.molecule_params()
    cfg.field_config()
    return cfg


def read_config(path: str):
    """The unvalidated YAML tree of a config file ({} for an empty file)."""
    import yaml  # only a --config file needs it: the other commands start without it

    try:
        with open(path, "rb") as fh:    # yaml decodes, so bad bytes are a YAMLError
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} is nested too deeply") from exc
    return raw if raw is not None else {}


def load_config(path: str) -> ScenarioConfig:
    return validate_config(read_config(path))
