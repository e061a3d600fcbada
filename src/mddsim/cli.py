"""Command-line entry point.

    mddsim run --config cfg.json [--seed N] [--out DIR] [--jobs K]
    mddsim verify --suite {lemma,theorem,decay,bounds} [--seed N] [--out DIR]

Exit codes: 0 on success, 2 on configuration or usage errors, 3 when a
verifier finds a violation.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from pathlib import Path

from .experiments import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VIOLATION,
    ConfigError,
    ExperimentConfig,
    VERIFY_SUITES,
    _json_text,
    _write,
    run,
)
from .noise import QuadratureError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mddsim",
                                     description="measurement-driven decoupling experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default="out", help="output directory (default: ./out)")
    run_p.add_argument("--jobs", type=int, default=1, help="worker count for sweeps")

    ver_p = sub.add_parser("verify", help="run a built-in verifier suite")
    ver_p.add_argument("--suite", required=True, choices=sorted(VERIFY_SUITES))
    ver_p.add_argument("--seed", type=int, default=0)
    ver_p.add_argument("--out", default=None, help="optional directory for the JSON report")
    return parser


@contextlib.contextmanager
def _out_dir(path):
    """The --out directory, created before any work so that a bad path costs none.
    A run that then fails on its config leaves none of the directories made here."""
    out = Path(path)
    made = [d for d in (out, *out.parents) if not d.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create --out {str(out)!r}: {exc.strerror or exc}") from None
    try:
        yield out
    except (ConfigError, QuadratureError):
        for d in made:
            with contextlib.suppress(OSError):  # one the run wrote into stays
                d.rmdir()
        raise


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    with _out_dir(args.out) as out:
        result = run(config, out, jobs=args.jobs)
    for path in result.files:
        print(path)
    print(f"{config.experiment}: {result.summary}")
    return result.exit_code


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    with contextlib.nullcontext() if args.out is None else _out_dir(args.out) as out:
        report = VERIFY_SUITES[args.suite](seed=args.seed)
    line = f"{report['claim_id']}: {'PASS' if report['passed'] else 'FAIL'} (margin {report['margin']:.3e})"
    print(line)
    if out is not None:
        print(_write(out / f"verify_{args.suite}.json", _json_text(report)))
    return EXIT_OK if report["passed"] else EXIT_VIOLATION


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching the config exit code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_verify(args)
    except (ConfigError, QuadratureError) as exc:
        # a quadrature that does not converge comes from the config's cutoff and durations
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
