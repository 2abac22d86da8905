"""Command-line front end for the Monte-Carlo sweeps.

Subcommands pick the experiment mode; every run writes results.csv,
summary.csv, and solves.jsonl (convergence mode adds iterations.csv) into
--out. Defaults follow the simulation protocol (unit noise, 100 trials,
tolerance 1e-4); a JSON config file can replace them and explicit flags
override the file. MILAC_WORKERS sets the worker-pool size.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import MilacError
from .harness import ExperimentSpec, run_experiment
from .optimizer import SolverConfig

COMMANDS = {
    "convergence": "convergence",
    "snr-sweep": "snr_sweep",
    "antenna-sweep": "antenna_sweep",
    "theorem-check": "theorem_check",
}

MODE_DEFAULTS = {
    "convergence": {"L": [32], "K": 4, "snr_db": [0.0, 10.0, 20.0, 30.0]},
    "snr_sweep": {"L": [32], "K": 4,
                  "snr_db": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]},
    "antenna_sweep": {"L": [16, 32, 64, 128], "K": 8, "snr_db": [10.0]},
    "theorem_check": {"L": [32], "K": 4, "snr_db": [0.0, 10.0, 20.0]},
}

COMMON_DEFAULTS = {
    "trials": 100, "seed": 0, "eps": 1e-4, "max_iter": 500,
    "out": "results", "no_timing": False,
}
# every setting a flag or the config file may give; flag dests use these names
SETTINGS = ("L", "K", "snr_db", *COMMON_DEFAULTS)

_HELP = {
    "convergence": "record per-iteration objectives of the reduced solver",
    "snr-sweep": "sum-rate of all architectures across transmit SNR",
    "antenna-sweep": "sum-rate of all architectures across antenna counts",
    "theorem-check": "verify two-layer rates equal digital rates per trial",
}


def _int_list(text: str):
    return [int(tok) for tok in str(text).split(",") if tok.strip() != ""]


def _float_list(text: str):
    return [float(tok) for tok in str(text).split(",") if tok.strip() != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="milac",
        description="Monte-Carlo sweeps for two-layer analog beamforming.",
    )
    sub = parser.add_subparsers(dest="command")
    for command, mode in COMMANDS.items():
        p = sub.add_parser(command, help=_HELP[command])
        p.set_defaults(mode=mode)
        p.add_argument("--L", type=_int_list, default=None, metavar="L1[,L2,...]",
                       help="antenna counts to sweep")
        p.add_argument("--K", type=int, default=None, help="number of users")
        p.add_argument("--snr-db", type=_float_list, default=None,
                       metavar="S1[,S2,...]", help="transmit SNR points in dB")
        p.add_argument("--trials", type=int, default=None,
                       help="channel realizations per sweep point")
        p.add_argument("--seed", type=int, default=None, help="base channel seed")
        p.add_argument("--eps", type=float, default=None,
                       help="relative sum-rate convergence tolerance")
        p.add_argument("--max-iter", type=int, default=None,
                       help="outer iteration cap")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--config", type=str, default=None,
                       help="JSON file of settings (flags override it)")
        p.add_argument("--no-timing", action="store_const", const=True,
                       default=None, help="write 0.0 wall times for reproducible files")
    return parser


def _load_config(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(data) - set(SETTINGS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    if "L" in data:
        data["L"] = data["L"] if isinstance(data["L"], list) else [data["L"]]
        data["L"] = [int(v) for v in data["L"]]
    if "snr_db" in data:
        raw = data["snr_db"] if isinstance(data["snr_db"], list) else [data["snr_db"]]
        data["snr_db"] = [float(v) for v in raw]
    return data


def build_spec(args) -> ExperimentSpec:
    settings = dict(COMMON_DEFAULTS)
    settings.update(MODE_DEFAULTS[args.mode])
    if args.config is not None:
        settings.update(_load_config(args.config))
    for key in SETTINGS:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    solver = SolverConfig(
        eps=float(settings["eps"]),
        max_outer=int(settings["max_iter"]),
    )
    return ExperimentSpec(
        mode=args.mode,
        L_values=tuple(settings["L"]),
        K=int(settings["K"]),
        snr_db_values=tuple(settings["snr_db"]),
        trials=int(settings["trials"]),
        base_seed=int(settings["seed"]),
        solver=solver,
        output_dir=str(settings["out"]),
        measure_time=not bool(settings["no_timing"]),
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "mode", None) is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        spec = build_spec(args)
        result = run_experiment(spec)
    except (MilacError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    print(f"wrote {len(result.rows)} rows to {spec.output_dir}/results.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
