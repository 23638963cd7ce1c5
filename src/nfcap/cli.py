"""Console entry point.

Subcommands map onto the runner functions in :mod:`nfcap.sweeps`:
``channel``, ``mac``, ``bc``, and ``mc`` evaluate one scenario (or its
sweep grid) and print or save a table; ``region`` samples a rate-region
boundary; ``sweep`` dispatches to the target named in the scenario's
[sweep] section; ``reproduce`` rebuilds a bundled figure-data preset;
``verify`` cross-checks every closed form against its brute-force
oracle on the scenario's array, cut to 65 elements per axis beyond it.

Exit codes: 0 on success, 1 for command-line usage errors, 2 for
invalid scenarios or values, 3 when verification found a violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__
from .config import ScenarioError, default_scenario, load_scenario
from .sweeps import (
    PRESETS,
    VERIFY_MAX_AXIS,
    SweepResult,
    csv_text,
    emit_csv,
    reproduce,
    run_bc,
    run_channel,
    run_mac,
    run_mc,
    run_region,
    run_sweep,
    verification_report,
)

__all__ = ["main", "build_parser"]

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_INVALID = 2
_EXIT_VERIFY = 3

_QUADRATURE_T_HELP = (
    "nodes per axis T of the NF correlation's Chebyshev-Gauss rule, which "
    "is used where the array has more than T^2 elements; smaller arrays "
    "take the exact element sum (default 200)"
)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with status 1."""

    def error(self, message: str) -> "argparse.NoReturn":  # type: ignore[name-defined]
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(sub: argparse.ArgumentParser, verify_flag: bool = True) -> None:
    sub.add_argument(
        "--config",
        metavar="PATH",
        help="scenario file (INI); omitted means the built-in reference setup",
    )
    sub.add_argument(
        "--out",
        metavar="PATH",
        help="write CSV here (plus a .provenance.txt sidecar) instead of stdout",
    )
    if verify_flag:
        sub.add_argument(
            "--verify",
            action="store_true",
            help="also run brute-force oracles and flag disagreeing rows",
        )
    sub.add_argument(
        "--quadrature-T",
        type=int,
        metavar="T",
        dest="quadrature_t",
        help=_QUADRATURE_T_HELP,
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="nfcap", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action="version", version=f"nfcap {__version__}"
    )
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    for name, text in (
        ("channel", "channel gains and correlation per scenario point"),
        ("mac", "uplink capacity, decode corners, and combiner rates"),
        ("bc", "downlink capacity, power split, and precoder rates"),
        ("mc", "multicast capacity and its averaging upper bound"),
    ):
        sub = subs.add_parser(name, help=text, description=text)
        _add_common(sub)

    region = subs.add_parser(
        "region",
        help="rate-region boundary vertices",
        description="Sample a two-user rate-region boundary.",
    )
    region.add_argument(
        "--mode",
        choices=("mac", "bc"),
        default="mac",
        help="uplink pentagon or downlink hull (default: mac)",
    )
    _add_common(region, verify_flag=False)

    sweep = subs.add_parser(
        "sweep",
        help="run the sweep defined in the scenario file",
        description="Run the sweep defined in the scenario's [sweep] section.",
    )
    _add_common(sweep)

    repro = subs.add_parser(
        "reproduce",
        help="rebuild a bundled figure-data table",
        description="Rebuild a bundled figure-data table by preset name.",
    )
    repro.add_argument("preset", choices=sorted(PRESETS))
    repro.add_argument("--out", metavar="PATH", help="write CSV here")

    verify = subs.add_parser(
        "verify",
        help="cross-check closed forms against brute-force oracles",
        description=(
            "Cross-check every closed form against its brute-force oracle "
            f"on the scenario's array, cut to {VERIFY_MAX_AXIS} elements per "
            "axis beyond that, and report each comparison."
        ),
    )
    verify.add_argument("--config", metavar="PATH")
    verify.add_argument(
        "--quadrature-T",
        type=int,
        metavar="T",
        dest="quadrature_t",
        help=_QUADRATURE_T_HELP,
    )
    return parser


def _load(args: argparse.Namespace):
    scenario = (
        load_scenario(args.config) if args.config else default_scenario()
    )
    quad = getattr(args, "quadrature_t", None)
    if quad is not None:
        if quad < 2:
            raise ScenarioError(f"--quadrature-T must be at least 2, got {quad}")
        scenario = replace(scenario, quadrature_nodes=quad)
    return scenario


def _deliver(result: SweepResult, out: str | None) -> int:
    if out:
        emit_csv(result, out)
    else:
        sys.stdout.write(csv_text(result))
    if result.violations:
        for line in result.violations:
            print(f"verification: {line}", file=sys.stderr)
        print(
            f"verification found {len(result.violations)} violation(s)",
            file=sys.stderr,
        )
        return _EXIT_VERIFY
    return _EXIT_OK


def _run_verify_report(args: argparse.Namespace) -> int:
    scenario = _load(args)
    checks, header = verification_report(scenario)
    print(header)
    failures = 0
    for check in checks:
        mark = "ok  " if check.ok else "FAIL"
        print(
            f"[{mark}] {check.name}: closed={check.closed:.11e} "
            f"oracle={check.oracle:.11e} ({check.tolerance_note})"
        )
        failures += 0 if check.ok else 1
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return _EXIT_VERIFY
    print(f"all {len(checks)} checks passed")
    return _EXIT_OK


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "reproduce":
        return _deliver(reproduce(args.preset), args.out)
    if args.command == "verify":
        return _run_verify_report(args)
    scenario = _load(args)
    verify = bool(getattr(args, "verify", False))
    if args.command == "channel":
        result = run_channel(scenario, verify)
    elif args.command == "mac":
        result = run_mac(scenario, verify)
    elif args.command == "bc":
        result = run_bc(scenario, verify)
    elif args.command == "mc":
        result = run_mc(scenario, verify)
    elif args.command == "region":
        result = run_region(scenario, args.mode)
    else:
        result = run_sweep(scenario, verify)
    return _deliver(result, args.out)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return _EXIT_USAGE
    try:
        return _dispatch(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
