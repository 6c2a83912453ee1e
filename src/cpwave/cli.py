"""Command-line front end.

Subcommands:

* simulate       - draw one compound Poisson path and dump its jumps
* mse-curve      - Monte Carlo MSE curve for chosen schemes and dictionary
* lemma-check    - empirical vs exact minimum-spacing law
* theorem1-check - greedy MSE against its closed-form envelope
* dict-compare   - best-M curves, Haar vs cosine dictionary, cp vs bm
* theory-table   - closed-form quantities per M, no simulation

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import harness, theory
from .processes import derive_stream, sample_path
from .schemes import InvariantViolation

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_IO = 3
_EXIT_INVARIANT = 4


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _parse_schemes(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


_DICTIONARY_ALIASES = {
    "haar": "haar_analytic",
    "haar_analytic": "haar_analytic",
    "haar-discrete": "haar_discrete",
    "haar_discrete": "haar_discrete",
    "dct": "dct",
}


_LAMBDA = ("--lambda", {"dest": "lam", "type": float, "required": True})
_SIGMA0_SQ = ("--sigma0-sq", {"type": float, "default": 1.0})
_VARIANCE = ("--jump-variance", {"type": float, "default": None})
_M = ("--m", {"type": _parse_ints, "default": (4, 8, 16, 32, 64, 128, 256)})
_GRID = ("--grid-log2", {"type": int, "default": 10})
_RUNS = [("--trials", {"type": int, "default": 1000}), ("--workers", {"type": int, "default": 1})]

_COMMON = [
    ("--seed", {"type": int, "default": 0, "help": "64-bit master seed"}),
    ("--out", {"default": "-", "help": "output path ('-' writes to stdout)"}),
    ("--format", {"choices": ("csv", "json"), "default": "csv"}),
]


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The cpwave parser. When command names a subcommand, it holds only
    that sub-parser: a command line that starts with command reads no
    other, so its help, usage errors and options are the full parser's.
    Otherwise it holds every subcommand."""
    parser = argparse.ArgumentParser(
        prog="cpwave",
        description=(
            "Simulate compound Poisson and Brownian paths on [0,1], expand them "
            "over the Haar basis, and measure linear/greedy/best M-term "
            "approximation errors against closed-form predictions."
        ),
    )
    # the metavar lists every subcommand in the usage line either way
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_SUBCOMMANDS) + "}")
    for name in [command] if command in _SUBCOMMANDS else _SUBCOMMANDS:
        text, arguments, _ = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=text)
        for flag, options in arguments + _COMMON:
            p.add_argument(flag, **options)
    return parser


def _emit_records(records, config, args) -> None:
    if args.format == "csv":
        harness.write_csv(records, args.out)
    else:
        harness.write_json(config, records, args.out)


def _cmd_simulate(args) -> int:
    law = harness.JumpLaw.for_rate(args.lam, args.sigma0_sq, args.jump_variance)
    path = sample_path(args.lam, law, derive_stream(args.seed, 0))
    if args.format == "json":
        doc = {
            "lambda": args.lam,
            "jump_variance": law.variance,
            "seed": args.seed,
            "num_jumps": path.num_jumps,
            "jump_times": list(map(float, path.jump_times)),
            "jump_heights": list(map(float, path.jump_heights)),
        }
        harness.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out, "JSON")
    else:
        lines = ["jump_time,jump_height"]
        lines += [
            f"{t:.17g},{h:.17g}" for t, h in zip(path.jump_times, path.jump_heights)
        ]
        harness.write_text("\n".join(lines) + "\n", args.out, "CSV")
    return _EXIT_OK


def _cmd_mse_curve(args) -> int:
    config = harness.ExperimentConfig(
        process=args.process,
        schemes=args.schemes,
        dictionary=_DICTIONARY_ALIASES[args.dictionary],
        m_values=args.m,
        lam=args.lam,
        sigma0_sq=args.sigma0_sq,
        jump_variance=args.jump_variance,
        grid_log2=args.grid_log2,
        trials=args.trials,
        master_seed=args.seed,
    )
    records = harness.run_mse_curve(config, workers=args.workers)
    _emit_records(records, config, args)
    return _EXIT_OK


def _cmd_lemma_check(args) -> int:
    result = harness.run_spacing_check(
        lam=args.lam,
        n_values=args.n,
        delta_grid=list(args.delta) if args.delta is not None else None,
        samples=args.samples,
        seed=args.seed,
    )
    for n in args.n:
        devs = [row.abs_dev for row in result.rows if row.n == n]
        if devs:
            print(f"n={n}: sup |empirical - exact| = {max(devs):.6f}", file=sys.stderr)
    print(
        f"spacing bound violations: {result.bound_violations} / {result.paths_checked} paths",
        file=sys.stderr,
    )
    _emit_records(result.rows, None, args)
    if result.bound_violations:
        raise InvariantViolation(
            f"{result.bound_violations} paths violated the spacing <= 1/N bound"
        )
    return _EXIT_OK


def _cmd_theorem1_check(args) -> int:
    rows = harness.run_envelope_check(
        lam=args.lam,
        m_values=args.m,
        trials=args.trials,
        seed=args.seed,
        sigma0_sq=args.sigma0_sq,
        workers=args.workers,
    )
    outside = [row.m for row in rows if not row.mean_inside]
    if outside:
        print(f"means outside envelope at M in {outside}", file=sys.stderr)
    _emit_records(rows, None, args)
    return _EXIT_OK


def _cmd_dict_compare(args) -> int:
    records = harness.run_dict_compare(
        lam=args.lam,
        m_values=args.m,
        grid_log2=args.grid_log2,
        trials=args.trials,
        seed=args.seed,
        sigma0_sq=args.sigma0_sq,
        workers=args.workers,
    )
    _emit_records(records, None, args)
    return _EXIT_OK


def _cmd_theory_table(args) -> int:
    rows = [
        theory.greedy_mse_envelope(int(m), args.lam, args.sigma0_sq, tol=args.tol)
        for m in args.m
    ]
    _emit_records(rows, None, args)
    return _EXIT_OK


# Each subcommand's help line, arguments in the order --help lists them,
# and handler; every subcommand also takes the common ones.
_SUBCOMMANDS = {
    "simulate": ("dump one path's jump locations and heights",
                 [_LAMBDA, _SIGMA0_SQ, _VARIANCE], _cmd_simulate),
    "mse-curve": ("Monte Carlo MSE curve", [
        ("--process", {"choices": ("cp", "bm"), "required": True}),
        ("--lambda", {"dest": "lam", "type": float, "default": None}), _SIGMA0_SQ, _VARIANCE,
        ("--schemes", {"type": _parse_schemes, "default": ("linear", "greedy", "best")}),
        ("--dictionary", {"choices": sorted(_DICTIONARY_ALIASES), "default": "haar"}), _M, _GRID,
    ] + _RUNS, _cmd_mse_curve),
    "lemma-check": ("minimum-spacing law, empirical vs exact", [
        ("--lambda", {"dest": "lam", "type": float, "default": 10.0}),
        ("--n", {"type": _parse_ints, "default": (1, 2, 5)}),
        ("--delta", {"type": _parse_floats, "default": None}),
        ("--samples", {"type": int, "default": 100_000}),
    ], _cmd_lemma_check),
    "theorem1-check": ("greedy MSE vs closed-form envelope",
                       [_LAMBDA, _SIGMA0_SQ, _M] + _RUNS, _cmd_theorem1_check),
    "dict-compare": ("Haar vs cosine dictionary, best-M", [
        ("--lambda", {"dest": "lam", "type": float, "default": 10.0}), _SIGMA0_SQ,
        ("--m", {"type": _parse_ints, "default": (16, 32, 64, 128, 256)}), _GRID,
    ] + _RUNS, _cmd_dict_compare),
    "theory-table": ("closed-form quantities per M", [
        _LAMBDA, _SIGMA0_SQ, _M, ("--tol", {"type": float, "default": 1e-12}),
    ], _cmd_theory_table),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    # an overflow to inf surfaces as a refused run (exit 2); numpy's
    # warning would only repeat it, so it is silenced for the run
    saved = harness.prepare_process({**np.geterr(), "over": "ignore"})
    try:
        return _SUBCOMMANDS[args.command][2](args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return _EXIT_INVARIANT
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO
    finally:
        np.seterr(**saved)


if __name__ == "__main__":
    sys.exit(main())
