"""Command-line interface: sweep, fock, spectrum, calibrate, validate-config.

Exit codes: 0 success, 2 config error, 3 simulation non-convergence or
calibration failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import __version__
from .config_io import config_hash, parse_config
from .errors import NoBracket, NonConvergence, ParseError, ValidationError
from .runner import cmd_calibrate, cmd_fock, cmd_spectrum, cmd_sweep

_OUT_ENV = "KERRSWITCH_OUT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrswitch",
        description="Simulate an ultrafast all-optical fiber Kerr switch for telecom photons.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="JSON config file (defaults used if omitted)")
        p.add_argument("--out", metavar="DIR", help=f"output directory (default ${_OUT_ENV} or ./kerrswitch-out)")
        p.add_argument("--seed", type=int, metavar="U64", help="override the config rng_seed")
        p.add_argument("--strict", action="store_true",
                       help="reject unknown config keys instead of warning")

    p = sub.add_parser("sweep", help="efficiency over the (energy, delay) grid, slices, metrics")
    common(p)
    p = sub.add_parser("fock", help="exact and Monte Carlo heralded N-photon split curves")
    common(p)
    p.add_argument("--n-max", type=int, default=6, metavar="N", help="largest herald number (1..10)")
    p = sub.add_parser("spectrum", help="pump spectra over the energy ladder and signal TOF histograms")
    common(p)
    p = sub.add_parser("calibrate", help="find the pump energy maximizing the zero-delay efficiency")
    common(p)
    p = sub.add_parser("validate-config", help="parse and validate a config, print its hash")
    common(p)
    return parser


def _load_config(args):
    if args.config is None:
        text = ""
    else:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"config file is not valid UTF-8: {exc}") from exc
    config = parse_config(text, strict=args.strict)
    if args.seed is not None:
        config = dataclasses.replace(config, rng_seed=args.seed)
    return config


def _out_dir(args) -> str:
    return args.out or os.environ.get(_OUT_ENV) or "kerrswitch-out"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "validate-config":
            print(f"config OK (hash {config_hash(config)})")
            return 0
        out = _out_dir(args)
        if args.command == "sweep":
            manifest = cmd_sweep(config, out)
        elif args.command == "fock":
            manifest = cmd_fock(config, out, n_max=args.n_max)
        elif args.command == "spectrum":
            manifest = cmd_spectrum(config, out)
        elif args.command == "calibrate":
            manifest = cmd_calibrate(config, out)
        else:  # pragma: no cover - argparse enforces the choices
            raise AssertionError(args.command)
        for entry in manifest.outputs:
            print(f"wrote {entry.path} ({entry.rows} rows, {entry.bytes} bytes)")
        print(f"manifest: {os.path.join(out, 'manifest.json')} (config {manifest.config_hash})")
        return 0
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, NoBracket) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
