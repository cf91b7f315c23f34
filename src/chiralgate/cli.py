"""Command-line entry point.

Exit codes: 0 success, 2 configuration error, 3 physics-singularity error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import _CHOICES, _TOP_KEYS, ScenarioConfig, read_config, validate_config
from .errors import ChiralGateError, ConfigError
from .scenarios import (dump_pulses, export_qasm, ingest_counts,
                        molecule_report, run_scenario, sweep_trotter, _write)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_IO = 4


# Each option once, by flag: its dest is the ScenarioConfig key it overrides
# (argparse derives it from the flag where they agree) but for --config; unset, it is None
_OPTIONS = {
    "--config": {"help": "YAML scenario config"},
    "--out": {"dest": "out_dir", "help": "output directory (overrides config)"},
    "--seed": {"type": int, "help": "RNG seed (overrides config)"},
    "--steps": {"dest": "n_steps", "type": int, "help": "Trotter steps (overrides config)"},
    "--protocol": {"choices": _CHOICES["protocol"]},
    "--enantiomer": {"choices": _CHOICES["enantiomer"]},
    "--erratum-s-gate": {"action": "store_true", "default": None,
                         "help": "compile the Stokes step with the XX+YY "
                                 "construction that couples |01>/|10> instead"},
}
# each subcommand: its help and the options it reads
_COMMANDS = {
    "run": ("oracle + circuit runs, traces, report", list(_OPTIONS)),
    "sweep-trotter": ("circuit-vs-oracle error table",
                      ["--config", "--protocol", "--enantiomer", "--erratum-s-gate"]),
    "export-qasm": ("emit OpenQASM 2.0 circuits", ["--config", "--out", "--steps", "--protocol",
                                                   "--enantiomer", "--erratum-s-gate"]),
    "ingest-counts": ("validate hardware counts and compare", []),
    "dump-pulses": ("CSV of continuous drive amplitudes", ["--config", "--out", "--protocol"]),
    "molecule-check": ("rotor-constant consistency report", ["--config"]),
}


def _build_parser() -> argparse.ArgumentParser:
    def steps_list(text: str) -> list[int]:     # argparse's error message names it
        return [int(s) for s in text.split(",") if s.strip()]

    parser = argparse.ArgumentParser(
        prog="chiralgate",
        description="Compile and simulate chirality-discriminating "
                    "STIRAP/STAP protocols on two qubits.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        # no abbreviations: sweep-trotter would read --steps as --steps-list
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])
    sub.choices["sweep-trotter"].add_argument(
        "--steps-list", default="10,20,40,80", help="comma-separated Trotter step counts",
        type=steps_list)
    sub.choices["ingest-counts"].add_argument("counts_json", help="path to counts JSON file")
    return parser


def _load(args) -> ScenarioConfig:
    """The config file (or the defaults) with every option given that names
    a config key laid over it, validated like any YAML config."""
    raw = read_config(args.config) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if k in _TOP_KEYS and v is not None}
    if isinstance(raw, dict):  # any other root fails validate_config below
        if flags.get("protocol") not in (None, raw.get("protocol", ScenarioConfig.protocol)):
            raw = {**raw, "pulses": {}}  # pulse keys are protocol-specific
        raw = {**raw, **flags}
    return validate_config(raw)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = None if args.command == "ingest-counts" else _load(args)
        if args.command == "run":
            report = run_scenario(cfg, cfg.out_dir)
            if report is not None:
                print(f"protocol={cfg.protocol} final D = {report.final_d():.6f}")
                for t, row in report.checkpoints.items():
                    print(f"  checkpoint t={t:g} us: L p10={row['L'][2]:.4f} "
                          f"R p10={row['R'][2]:.4f} D={row['D']:.4f}")
                for t in report.skipped_checkpoints:
                    print(f"warning: checkpoint t={t:g} us lies outside [0, "
                          f"{report.times[-1]:g}] us and was skipped", file=sys.stderr)
            print(f"outputs written to {cfg.out_dir}")
        elif args.command == "sweep-trotter":
            table = sweep_trotter(cfg, args.steps_list)
            print("n,max_dev,final_dev")
            for row in table["rows"]:
                print("%d,%.6g,%.6g" % (row["n"], row["max_dev"], row["final_dev"]))
            print(f"fitted log-log slope: {table['slope']:.3f}")
        elif args.command == "export-qasm":
            for path in export_qasm(cfg, cfg.out_dir):
                print(path)
        elif args.command == "ingest-counts":
            try:
                with open(args.counts_json) as fh:
                    raw = json.load(fh)
            except (ValueError, RecursionError) as exc:  # bad JSON, bad bytes, deep nesting
                raise ConfigError(f"malformed counts JSON: {exc}") from exc
            result = ingest_counts(raw)
            print(json.dumps(result, indent=2, sort_keys=True))
        elif args.command == "dump-pulses":
            text = dump_pulses(cfg)
            os.makedirs(cfg.out_dir, exist_ok=True)
            path = os.path.join(cfg.out_dir, f"pulses_{cfg.protocol}.csv")
            _write(path, text)
            print(path)
        elif args.command == "molecule-check":
            result = molecule_report(cfg)
            print(json.dumps(result, indent=2, sort_keys=True))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ChiralGateError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
