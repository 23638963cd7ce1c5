"""Output checks behind ok_ratio, and the per-command error in bits.

A command fails when it exits non-zero, reports a verification violation
(or prints FAIL in ``verify``), prints a non-finite value, or breaks a
row invariant:

* mac: C_mac >= r_opt >= max(r_mrc, r_zf)
* bc: p1 + p2 = P, and both gamma ratios <= 1
* mc: c_mc <= c_bound

Presets must also write the same CSV bytes on every pass of a run; the
caller compares the digests this module returns.
"""

from __future__ import annotations

import hashlib
import math

# Slack for comparisons between printed values (12 significant digits).
REL_TOL = 1e-9


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.strip("\n").split("\n")
    columns = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row of {len(row)} values under {len(columns)} columns")
    return columns, rows


def _le(a: float, b: float) -> bool:
    return a <= b + REL_TOL * max(1.0, abs(a), abs(b))


def _row_problems(kind: str, row: dict[str, float], power: float | None) -> list[str]:
    problems = []
    if row.get("verify_ok", 1.0) != 1.0:
        problems.append("verify_ok = 0")
    if kind == "mac":
        if not _le(row["r_opt"], row["c_mac"]):
            problems.append(f"r_opt {row['r_opt']!r} > c_mac {row['c_mac']!r}")
        linear = max(row["r_mrc"], row["r_zf"])
        if not _le(linear, row["r_opt"]):
            problems.append(f"max(r_mrc, r_zf) {linear!r} > r_opt {row['r_opt']!r}")
    elif kind == "bc":
        if not math.isclose(row["p1"] + row["p2"], power, rel_tol=REL_TOL):
            problems.append(f"p1 + p2 = {row['p1'] + row['p2']!r}, P = {power!r}")
        for name in ("gamma_dl_mrt", "gamma_dl_zf"):
            if not _le(row[name], 1.0):
                problems.append(f"{name} {row[name]!r} > 1")
    elif kind == "mc":
        if not _le(row["c_mc"], row["c_bound"]):
            problems.append(f"c_mc {row['c_mc']!r} > c_bound {row['c_bound']!r}")
    return problems


def check_table(kind: str, text: str, powers: list[float] | None = None) -> list[str]:
    """Problems found in one CSV table; ``powers`` gives P row by row."""
    try:
        columns, rows = parse_csv(text)
    except (ValueError, IndexError) as exc:
        return [f"unreadable CSV: {exc}"]
    if not rows:
        return ["empty table"]
    if powers is not None and len(powers) != len(rows):
        return [f"{len(rows)} rows for {len(powers)} scenario points"]
    problems = []
    for i, values in enumerate(rows):
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite value in row {values}")
            continue
        row = dict(zip(columns, values))
        try:
            found = _row_problems(kind, row, powers[i] if powers else None)
        except KeyError as exc:
            return [f"missing column {exc}"]
        problems += [f"{columns[0]}={values[0]!r}: {p}" for p in found]
    return problems


def check_verify_report(stdout: str) -> list[str]:
    lines = stdout.strip("\n").split("\n")
    problems = [line for line in lines if line.startswith("[FAIL]")]
    if not lines[-1].startswith("all ") or not lines[-1].endswith(" checks passed"):
        problems.append(f"last line {lines[-1]!r}")
    return problems


def err_bits(column: str, text: str, reference: list[float],
             xs: list[float] | None = None) -> tuple[float, list[str]]:
    """Largest |printed - reference| in ``column``, and any shape problems.

    With ``xs`` given, the table's first column must match it row by row.
    """
    columns, rows = parse_csv(text)
    if len(rows) != len(reference):
        return 0.0, [f"{len(rows)} rows against {len(reference)} reference values"]
    if xs is not None:
        for row, x in zip(rows, xs):
            if not math.isclose(row[0], x, rel_tol=1e-11):
                return 0.0, [f"row {row[0]!r} does not match reference point {x!r}"]
    idx = columns.index(column)
    return max(abs(row[idx] - ref) for row, ref in zip(rows, reference)), []


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
