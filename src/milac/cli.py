"""Command-line front end for the Monte-Carlo sweeps.

Each subcommand runs one experiment mode (the mode name with "-" for "_")
and writes results.csv, summary.csv and solves.jsonl (convergence mode
adds iterations.csv) into --out. A setting comes from an explicit flag,
else a JSON config file, else the mode's default (100 trials, tolerance
1e-4). Values pass to ExperimentSpec and SolverConfig unchanged, and they
alone check them, so a config file's counts and seed must be JSON
integers, not booleans, and a bare L or snr_db is a one-point sweep. The
exception is no_timing: it is checked here to be a boolean before it is
negated into measure_time.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DimensionError, MilacError
from .harness import ExperimentSpec, run_experiment
from .optimizer import SolverConfig

# mode -> (subcommand help, sweep defaults)
SUBCOMMANDS = {
    "convergence": ("record per-iteration objectives of the reduced solver",
                    {"L": [32], "K": 4, "snr_db": [0.0, 10.0, 20.0, 30.0]}),
    "snr_sweep": ("sum-rate of all architectures across transmit SNR",
                  {"L": [32], "K": 4,
                   "snr_db": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]}),
    "antenna_sweep": ("sum-rate of all architectures across antenna counts",
                      {"L": [16, 32, 64, 128], "K": 8, "snr_db": [10.0]}),
    "theorem_check": ("verify two-layer rates equal digital rates per trial",
                      {"L": [32], "K": 4, "snr_db": [0.0, 10.0, 20.0]}),
}

COMMON_DEFAULTS = {
    "trials": 100, "seed": 0, "eps": 1e-4, "max_iter": 500,
    "out": "results", "no_timing": False,
}
# every setting a flag or the config file may give; flag dests use these names
SETTINGS = ("L", "K", "snr_db", *COMMON_DEFAULTS)


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
    for mode, (help_text, _) in SUBCOMMANDS.items():
        p = sub.add_parser(mode.replace("_", "-"), help=help_text)
        p.set_defaults(mode=mode)
        p.add_argument("--L", type=_int_list, metavar="L1[,L2,...]",
                       help="antenna counts to sweep")
        p.add_argument("--K", type=int, help="number of users")
        p.add_argument("--snr-db", type=_float_list, metavar="S1[,S2,...]",
                       help="transmit SNR points in dB")
        p.add_argument("--trials", type=int, help="channel realizations per sweep point")
        p.add_argument("--seed", type=int, help="base channel seed")
        p.add_argument("--eps", type=float, help="relative sum-rate convergence tolerance")
        p.add_argument("--max-iter", type=int, help="outer iteration cap")
        p.add_argument("--out", type=str, help="output directory")
        p.add_argument("--config", type=str,
                       help="JSON file of settings (flags override it)")
        p.add_argument("--no-timing", action="store_const", const=True,
                       help="write 0.0 wall times for reproducible files")
    return parser


def _load_config(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(data) - set(SETTINGS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    return data


def build_spec(args) -> ExperimentSpec:
    settings = {**COMMON_DEFAULTS, **SUBCOMMANDS[args.mode][1]}
    if args.config is not None:
        settings.update(_load_config(args.config))
    settings.update((key, getattr(args, key)) for key in SETTINGS
                    if getattr(args, key) is not None)
    if not isinstance(settings["no_timing"], bool):
        raise DimensionError(f"no_timing must be true or false, got {settings['no_timing']!r}")
    return ExperimentSpec(
        mode=args.mode,
        L_values=settings["L"],
        K=settings["K"],
        snr_db_values=settings["snr_db"],
        trials=settings["trials"],
        base_seed=settings["seed"],
        solver=SolverConfig(eps=settings["eps"], max_outer=settings["max_iter"]),
        output_dir=settings["out"],
        measure_time=not settings["no_timing"],
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "mode", None) is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        spec = build_spec(args)
        rows = run_experiment(spec)
    except (MilacError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    print(f"wrote {len(rows)} rows to {spec.output_dir}/results.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
