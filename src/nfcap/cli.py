"""Console entry point: each subcommand maps onto a runner in
:mod:`nfcap.sweeps`, and the table ``_COMMANDS`` below drives parsing,
``--help`` and the usage lines.

Exit codes: 0 on success, 1 for command-line usage errors, 2 for
invalid scenarios or values, 3 when verification found a violation.
"""

from __future__ import annotations

import re
import sys
from dataclasses import replace
from typing import NoReturn

from . import __version__
from .config import ScenarioError, checked_nodes, default_scenario, load_scenario
from .sweeps import (PRESETS, VERIFY_MAX_AXIS, SweepResult, csv_text, emit_csv,
                     reproduce, run_bc, run_channel, run_mac, run_mc, run_region,
                     run_sweep, verification_report)

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_INVALID = 2
_EXIT_VERIFY = 3

_CONFIG = ("--config", "PATH",
           "scenario file (INI); omitted means the built-in reference setup")
_OUT = ("--out", "PATH", "write CSV here (plus a .provenance.txt sidecar) instead of stdout")
_VERIFY = ("--verify", None, "also run brute-force oracles and flag disagreeing rows")
_QUADRATURE_T = ("--quadrature-T", "T", "nodes per axis T of the NF correlation's "
                 "Chebyshev-Gauss rule, which is used where the array has more than "
                 "T^2 elements; smaller arrays take the exact element sum (default 200)")
_POINT = (_CONFIG, _OUT, _VERIFY, _QUADRATURE_T)

# Each command's one-line help and its options as (flag, metavar or None for
# a switch, help). A tuple metavar lists the allowed values; a name without
# dashes is a required positional. Parsing, --help and usage lines read this.
_COMMANDS = {
    "channel": ("channel gains and correlation per scenario point", _POINT),
    "mac": ("uplink capacity, decode corners, and combiner rates", _POINT),
    "bc": ("downlink capacity, power split, and precoder rates", _POINT),
    "mc": ("multicast capacity and its averaging upper bound", _POINT),
    "region": ("rate-region boundary vertices", (
        ("--mode", ("mac", "bc"), "uplink pentagon or downlink hull (default: mac)"),
        _CONFIG, _OUT, _QUADRATURE_T)),
    "sweep": ("run the sweep defined in the scenario's [sweep] section", _POINT),
    "reproduce": ("rebuild a bundled figure-data table by preset name", (
        _OUT, ("preset", tuple(sorted(PRESETS)), "the table to rebuild"))),
    "verify": ("cross-check closed forms against brute-force oracles, cut to "
               f"{VERIFY_MAX_AXIS} elements per axis", (_CONFIG, _QUADRATURE_T)),
}
_TOP = ("Near-field two-user capacity: closed forms, oracles and sweeps.",
        (("--version", None, "print the version and exit"),))
_HELP = ("--help", None, "print this help and exit")


def _shown(flag: str, metavar) -> str:
    if isinstance(metavar, tuple):
        metavar = "{" + ",".join(metavar) + "}"
    return metavar if flag[0] != "-" else f"{flag} {metavar}" if metavar else flag


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: nfcap [-h] [--version] COMMAND ..."
    return " ".join([f"usage: nfcap {command} [-h]"] + [
        f"[{_shown(flag, metavar)}]" if flag[0] == "-" else _shown(flag, metavar)
        for flag, metavar, _ in _COMMANDS[command][1]])


def _help(command: str | None) -> str:
    import textwrap

    text, options = _COMMANDS[command] if command else _TOP
    commands = [] if command else [(name, line) for name, (line, _) in _COMMANDS.items()]
    rows = [("-h, --help", _HELP[2])] + [(_shown(f, m), line) for f, m, line in options]
    width = 4 + max(len(left) for left, _ in commands + rows)
    lines = [_usage(command), "", text]
    for title, group in (("commands", commands), ("options", rows)):
        if group:
            lines += ["", f"{title}:"] + [textwrap.fill(
                right, 79, initial_indent=f"  {left}".ljust(width),
                subsequent_indent=" " * width) for left, right in group]
    return "\n".join(lines) + "\n"


def _fail(command: str | None, message: str) -> NoReturn:
    "Exit 1 after the usage line and ``nfcap COMMAND: error: MESSAGE``."
    prog = "nfcap" if command is None else f"nfcap {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(_EXIT_USAGE)


def _value(command: str | None, flag: str, metavar, text: str):
    if isinstance(metavar, tuple) and text not in metavar:
        _fail(command, f"argument {flag}: invalid choice: {text!r} "
                       f"(choose from {', '.join(map(repr, metavar))})")
    if flag != "--quadrature-T":
        return text
    try:
        return int(text)
    except ValueError:
        _fail(command, f"argument {flag}: invalid int value: {text!r}")


def _is_flag(arg: str) -> bool:
    "Whether `arg` reads as a flag: a lone dash and negative numbers do not."
    return arg[:1] == "-" and arg != "-" and not re.fullmatch(r"-\d+|-\d*\.\d+", arg)


def _parse(argv: list[str]) -> dict | None:
    """The command and its values by flag, or None if no command is given.
    Takes ``--flag value``, ``--flag=value`` and unique prefixes of long
    flags; a value may start with a dash only as a negative number, the
    last of a repeated flag wins and ``--`` ends the flags. Exits 0 after
    --help or --version and 1 on a usage error."""
    args, command, values, positionals = iter(argv), None, {}, []
    for arg in args:
        if arg == "--" and command:
            positionals += args
            break
        options = (_HELP, *(_COMMANDS[command] if command else _TOP)[1])
        name, eq, inline = ("--help", "", "") if arg == "-h" else arg.partition("=")
        hits = [o for o in options if o[0] == name] or [
            o for o in options if name[:2] == "--" and name[2:] and o[0].startswith(name)]
        if len(hits) != 1:  # a value, an unknown flag or an ambiguous prefix
            if _is_flag(arg):
                _fail(command, f"unrecognized arguments: {arg}")
            if command:
                positionals.append(arg)
            else:
                command = _value(None, "COMMAND", tuple(_COMMANDS), arg)
            continue
        flag, metavar, _ = hits[0]
        if metavar is None and eq:
            _fail(command, f"argument {flag}: ignored explicit argument {inline!r}")
        if flag in ("--help", "--version"):
            sys.stdout.write(_help(command) if flag == "--help" else f"nfcap {__version__}\n")
            raise SystemExit(_EXIT_OK)
        if metavar is not None and not eq:
            inline = next(args, None)
            if inline is None or _is_flag(inline):
                _fail(command, f"argument {flag}: expected one argument")
        values[flag] = True if metavar is None else _value(command, flag, metavar, inline)
    wanted = [o for o in _COMMANDS[command][1] if o[0][0] != "-"] if command else []
    for (name, metavar, _), text in zip(wanted, positionals):
        values[name] = _value(command, name, metavar, text)
    if len(positionals) < len(wanted):
        _fail(command, f"the following arguments are required: {wanted[len(positionals)][0]}")
    if positionals[len(wanted):]:
        _fail(command, f"unrecognized arguments: {' '.join(positionals[len(wanted):])}")
    return dict(values, command=command) if command else None


def _load(args: dict):
    config = args.get("--config")
    scenario = load_scenario(config) if config else default_scenario()
    quad = args.get("--quadrature-T")
    if quad is not None:
        scenario = replace(scenario, quadrature_nodes=checked_nodes("--quadrature-T", quad))
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


def _run_verify_report(args: dict) -> int:
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


def _dispatch(args: dict) -> int:
    command = args["command"]
    if command == "reproduce":
        return _deliver(reproduce(args["preset"]), args.get("--out"))
    if command == "verify":
        return _run_verify_report(args)
    scenario = _load(args)
    if command == "region":
        result = run_region(scenario, args.get("--mode", "mac"))
    else:
        runner = {"channel": run_channel, "mac": run_mac, "bc": run_bc,
                  "mc": run_mc, "sweep": run_sweep}[command]
        result = runner(scenario, "--verify" in args)
    return _deliver(result, args.get("--out"))


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args is None:
        print(_usage(None), file=sys.stderr)
        return _EXIT_USAGE
    try:
        return _dispatch(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
