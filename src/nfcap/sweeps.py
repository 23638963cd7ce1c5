"""Experiment runners: evaluate channel statistics and capacities over
scenario sweeps, compare against brute-force oracles on demand, emit
deterministic CSV files, and rebuild the bundled figure-data presets.

Row layout: the first column is the swept variable (or "point" for a
single-shot scenario) and every later column is a named numeric output.
Identical scenarios always produce identical bytes: nothing here reads
clocks, hostnames, or global state, and a run's NF correlations, one
batch for each array and user 1 (:func:`_stats`), a batch of one
included, are the same bits as each pair alone.

The four point runners share one scaffold: a kind (channel, mac, bc or
mc) names its columns, the closed forms of a row, its large-array limit
and the checks its verification mode runs. A run sets the swept
variable to the array of its points, so the closed forms take arrays
in and give arrays out, one value per point: each formula is called
once per run, with the bits that a float gives on each point, and a
single point is a float in and a float out. A point that fails is named
as a run of it alone names it. Each check is one function
returning a :class:`CheckRow`, and ``verification_report`` calls the
same functions, so a check has one name, tolerance and pass rule
whichever path runs it. The checks of a point all read one exact pair,
both users' element entries and their (g1, g2, rho), from one
``pair_sum_oracle`` evaluation. Verification mode appends each check's
oracle as a column and records every failing check as a violation;
exact-vector oracles are only run at up to ``VERIFY_MAX_AXIS`` = 65
elements per axis, which stays until the checks bound the printed
number at the printed size (ROADMAP item 12).

A figure-data preset is ``config.default_scenario()`` swept over one
variable and run through the same scaffold: near field and far field,
user 2 in its own direction and in user 1's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import __version__, _checks
from .broadcast import (
    BcConfig,
    CovariancePair,
    bc_asymptotics,
    bc_capacity_two_user,
    bc_covariance_recovery,
    bc_power_allocation_two_user,
    bc_region_two_user,
    linear_precoder_sum_rate,
)
from .config import Scenario, ScenarioError, SweepSpec, db_to_linear, default_scenario
from .geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    UserLocation,
    ff_channel_vector,
    nf_channel_vector,
)
from .mac import (
    MacConfig,
    linear_combiner_sum_rate,
    mac_asymptotics,
    mac_capacity_two_user,
    mac_region_two_user,
    sic_rates_two_user,
)
from .multicast import mc_asymptotics, mc_capacity_two_user, mc_upper_bound
from .oracles import (
    bc_power_grid_oracle,
    ccf_sum_oracle,
    gain_sum_oracle,
    logdet_capacity_oracle,
    mc_beam_grid_oracle,
    pair_sum_oracle,
    sic_rates_oracle,
)
from .stats import (
    ff_ccf_closed,
    ff_gain_closed,
    nf_ccf_batch,
    nf_ccf_quadrature,
    nf_gain_closed,
)

__all__ = [
    "SweepResult",
    "CheckRow",
    "csv_text",
    "emit_csv",
    "run_channel",
    "run_mac",
    "run_bc",
    "run_mc",
    "run_region",
    "run_sweep",
    "reproduce",
    "verification_report",
    "PRESETS",
    "TOL_GAIN_REL",
    "TOL_CCF_ABS",
    "TOL_CCF_ELEMENTS_REL",
    "TOL_FF_STATS_ABS",
    "TOL_MAC_FORMULA_ABS",
    "TOL_BC_GRID_ONESIDED",
    "TOL_BC_DUALITY_ABS",
    "TOL_MC_ABS",
    "VERIFY_MAX_AXIS",
]

TOL_GAIN_REL = 1e-2
TOL_CCF_ABS = 1e-3
TOL_CCF_ELEMENTS_REL = 1e-10
TOL_FF_STATS_ABS = 1e-9
TOL_MAC_FORMULA_ABS = 1e-9
TOL_BC_GRID_ONESIDED = 1e-6
TOL_BC_DUALITY_ABS = 1e-9
TOL_MC_ABS = 1e-9
VERIFY_MAX_AXIS = 65

_BC_GRID_POINTS = 100_000
# Largest phase rounding (:func:`_phase_rounding`) of an NF user that
# the runners accept. At 2.4 GHz it is reached near 3e7 m on a 3 x 3
# array, and farther on larger ones.
_MAX_PHASE_ROUNDING = 1e-6
# Largest range of an FF user that the runners accept, max^(1/3). The FF
# gain and the FF element oracle take the range squared, which stays
# finite up to max^(1/2); where the bound should sit is ROADMAP item 2.
_MAX_FF_RANGE = np.finfo(float).max ** (1 / 3)
# Names of this module, where perfbench's tracer wraps them, though the
# checks take every channel and exact statistic from pair_sum_oracle
gain_sum_oracle, nf_channel_vector, ff_channel_vector = (
    gain_sum_oracle, nf_channel_vector, ff_channel_vector)

# csv_text: values per block, bytes per field, the tie slack of a scaled
# mantissa, and 10^k for k = -110..110 at index k + 110, each rounded
# once by Python's parser
_CSV_BLOCK = 4096
_CSV_FIELD = len("d.ddddddddddde+dd,")
_TIE_SLACK = 8 * np.finfo(float).eps * 1e12
_POW10 = np.array([float(f"1e{k}") for k in range(-110, 111)])


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's table plus a provenance block.

    ``table`` is a read-only (rows, columns) float64 array whose columns
    are named by ``columns`` and whose rows ascend in their first (sweep)
    column; ``rows`` gives it as tuples of Python floats and ``column``
    one column of it. ``violations`` lists human-readable descriptions of
    verification failures, empty when all comparisons passed or
    verification was off.
    """

    columns: tuple[str, ...]
    table: np.ndarray
    provenance: str
    violations: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.columns) == 0:
            raise ValueError("columns must not be empty")
        table = np.asarray(self.table, dtype=float).view()
        if table.ndim != 2 or table.shape[1] != len(self.columns):
            raise ValueError(
                f"table of shape {table.shape} does not match {len(self.columns)} columns"
            )
        # no value below the one before it; nan is below and above nothing
        if (table[1:, 0] < table[:-1, 0]).any():
            raise ValueError("rows must ascend in the sweep column")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        "The table's rows as tuples of Python floats."
        return tuple(map(tuple, self.table.tolist()))

    def column(self, name: str) -> np.ndarray:
        "The read-only column of the table under ``name``."
        return self.table[:, self.columns.index(name)]


def csv_text(result: SweepResult) -> str:
    """The result table as CSV text with 12 significant digits, one line a
    row: each value as ``"%.11e" % v`` writes it, ``,`` between values.

    The table is written with numpy, in blocks of about _CSV_BLOCK
    values sliced from ``result.table``. A value v is *plain* when it is
    +0, or finite and in [1e-99, 1e99) with a two-digit exponent e =
    floor(log10 v). For a plain v > 0, y = v / 10^(e - 11) is computed
    in float64, with 10^k from _POW10: Python's parser rounds each
    correctly, ``10.0 ** k`` need not. y carries two roundings, of 10^k and of the quotient, so

        |y - v 10^(11 - e)| <= (2u + u^2) y < 2.3e-4,  u = 2^-53.

    With n = trunc(y) and frac = y - n, an exact subtraction, n + (frac
    > 0.5) is then the correctly rounded 12-digit mantissa that ``%.11e``
    prints whenever |frac - 0.5| > _TIE_SLACK = 8 eps 1e12, about
    1.8e-3, and 1e11 <= y < 1e12 - 1, so that no carry reaches a 13th
    digit. Integer divisions by 10 of its two six-digit halves write the
    digits into the fixed layout ``d.ddddddddddde±dd`` of each field.

    A plain v > 0 that misses either condition, within _TIE_SLACK of a
    rounding tie or at the edge of a decade, is written by ``"%.11e" %
    v`` into its own field, which that text fills exactly: 17 bytes,
    since its exponent has two digits. A row holding a value that is not
    plain is written by the ``%`` line instead, on the row's Python
    floats: negative values, -0, nan and inf, subnormals and exponents of
    100 or more. Both paths give the same text; ``%`` is the exact one
    for those values.
    """
    table = result.table
    width = len(result.columns)
    # "%.11e" writes what format(v, ".11e") writes: CPython's correctly
    # rounded repr digits, round-half-even on exact ties
    row_format = ",".join(["%.11e"] * width) + "\n"
    step = max(1, _CSV_BLOCK // width)
    size = width * _CSV_FIELD
    parts = []
    for start in range(0, len(table), step):
        values = table[start:start + step]
        plain, near, fields = _csv_fields(values)
        near &= plain[:, None]
        if near.any():
            exact = "".join(["%.11e" % v for v in values[near].tolist()]).encode()
            fields[near, :-1] = np.frombuffer(exact, np.uint8).reshape(-1, _CSV_FIELD - 1)
        text = memoryview(fields.reshape(-1))
        done = 0
        for i in np.flatnonzero(~plain).tolist():
            parts += [text[done * size:i * size],
                      (row_format % tuple(values[i].tolist())).encode()]
            done = i + 1
        parts.append(text[done * size:])
    return ",".join(result.columns) + "\n" + b"".join(parts).decode("ascii")


def _csv_fields(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whether each row of the (rows, width) ``values`` is plain (see
    :func:`csv_text`), whether each plain v > 0 misses a condition of
    the numpy path, and the (rows, width, _CSV_FIELD) ASCII fields of
    the values, each followed by ``,`` or, last in its row, ``\\n``.
    The fields of a value that is not plain or misses a condition are not
    its text.
    """
    # the range keeps every index into _POW10 in bounds
    plain = (values >= _POW10[110 - 99]) & (values < _POW10[110 + 99])
    zero = (values == 0) & ~np.signbit(values)
    v = np.where(plain, values, 1.0)
    e = np.floor(np.log10(v)).astype(np.intp)
    # log10 may miss by one next to a power of ten; once corrected,
    # 10^e <= v < 10^(e + 1) in _POW10, so e is in [-99, 98]
    e += v >= _POW10[e + 111]
    e -= v < _POW10[e + 110]
    y = v / _POW10[e + 99]
    n = np.trunc(y)
    frac = y - n
    near = plain & ~((y >= 1e11) & (y < 1e12 - 1) & (np.abs(frac - 0.5) > _TIE_SLACK))
    mantissa = np.where(zero, 0, (n + (frac > 0.5)).astype(np.int64))
    # two six-digit halves, so that the divisions run on 32 bits
    high = mantissa // 1_000_000
    rest = np.empty(values.shape + (2,), np.uint32)
    rest[..., 0] = high
    rest[..., 1] = mantissa - high * 1_000_000
    digits = np.empty(rest.shape + (6,), np.uint8)
    for i in range(5, -1, -1):
        quotient = rest // 10
        digits[..., i] = rest - quotient * 10
        rest = quotient
    digits = digits.reshape(values.shape + (12,)) + ord("0")
    fields = np.empty(values.shape + (_CSV_FIELD,), np.uint8)
    fields[...] = np.frombuffer(b"0.00000000000e+00,", np.uint8)
    fields[..., 0] = digits[..., 0]
    fields[..., 2:13] = digits[..., 1:]
    fields[..., 14][e < 0] = ord("-")
    tens = np.abs(e) // 10
    fields[..., 15] = tens + ord("0")
    fields[..., 16] = np.abs(e) - 10 * tens + ord("0")
    fields[:, -1, -1] = ord("\n")
    return (plain | zero).all(axis=1), near, fields


def emit_csv(result: SweepResult, path: str) -> None:
    """Write ``csv_text(result)`` as a UTF-8 file, plus a sidecar
    provenance file at ``<path>.provenance.txt``.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(csv_text(result))
    with open(path + ".provenance.txt", "w", encoding="utf-8", newline="\n") as handle:
        handle.write(result.provenance)


def _provenance(scenario: Scenario, command: str, verify: bool) -> str:
    lines = [f"tool = nfcap {__version__}", f"command = {command}"]
    if verify:
        lines.append("verify = on")
    lines.extend(f"{key} = {value}" for key, value in scenario.resolved_items())
    if scenario.sweep is not None and scenario.sweep.variable == "m_per_axis":
        sizes = {int(m) ** 2 for m in scenario.sweep.values}
    else:
        sizes = {scenario.geometry.m_total}
    path = _ccf_path(scenario.channel_model, sizes, scenario.quadrature_nodes)
    lines.append(f"ccf = {path}")
    return "\n".join(lines) + "\n"


def _ccf_path(model: str, sizes: set[int], nodes: int) -> str:
    """How the correlation is computed for arrays of ``sizes`` elements,
    and the rule that chose it, for a provenance line.
    """
    if model == "FF":
        return "far-field closed form"
    limit = nodes * nodes
    rule = f"{nodes} x {nodes} Chebyshev-Gauss rule"
    exact = {_takes_element_sum(size, nodes) for size in sizes}
    if exact == {True}:
        return f"element sum, since m_x*m_z <= T^2 = {limit}"
    if exact == {False}:
        return f"{rule}, since m_x*m_z > T^2 = {limit}"
    return f"element sum where m_x*m_z <= T^2 = {limit}, else the {rule}"


def _takes_element_sum(size: int, nodes: int) -> bool:
    """Whether the NF correlation of an array of ``size`` elements is the
    element sum: it has no more terms than the ``nodes`` x ``nodes`` rule.
    """
    return size <= nodes * nodes


def _sweep_points(scenario: Scenario) -> tuple[str, tuple[float | None, ...]]:
    if scenario.sweep is None:
        return "point", (None,)
    return scenario.sweep.variable, scenario.sweep.values


def _swept(scenario: Scenario, variable: str, values):
    """The scenario's array, users, MacConfig and BcConfig with
    ``variable`` set to ``values``: None leaves the scenario as it is, a
    float sets one point, and an array makes the swept field an array of
    one value per point.
    """
    geom, users = scenario.geometry, scenario.users
    mac_cfg, bc_cfg = scenario.mac_cfg, scenario.bc_cfg
    if values is None:
        return geom, users, mac_cfg, bc_cfg
    if variable == "m_per_axis":
        m = int(values) if np.ndim(values) == 0 else values
        geom = replace(geom, m_x=m, m_z=m)
    elif variable == "r2_m":
        users = (users[0], replace(users[1], range_r=values))
    elif variable == "snr_db":
        snr = _db_to_linear(values)
        mac_cfg = replace(mac_cfg, snr_per_user=(snr,) * mac_cfg.num_users)
    elif variable == "power_db":
        bc_cfg = replace(bc_cfg, total_power_P=_db_to_linear(values))
    else:
        raise ScenarioError(f"unsupported sweep variable {variable!r}")
    return geom, users, mac_cfg, bc_cfg


def _db_to_linear(values):
    "db_to_linear of a float, or of each element of an array."
    if np.ndim(values) == 0:
        return db_to_linear(values)
    return np.array([db_to_linear(v) for v in values.tolist()])


def _point_error(exc: ValueError, variable: str, value: float | None) -> ScenarioError:
    """The ScenarioError to raise for a ValueError met while evaluating
    one sweep point: the scenario asked for a value that the geometry or
    the formulas cannot take. Names the point unless ``value`` is None.
    """
    if isinstance(exc, ScenarioError):
        return exc
    where = "" if value is None else f"at sweep point {variable}={value}: "
    return ScenarioError(f"{where}{exc}")


def _nominal_point(runner):
    "Report a ValueError of a command without a sweep as a ScenarioError."

    @functools.wraps(runner)
    def wrapper(*args, **kwargs):
        try:
            return runner(*args, **kwargs)
        except ValueError as exc:
            raise _point_error(exc, "point", None) from None

    return wrapper


def _finite(columns: Sequence[str], row: Sequence[float]) -> None:
    "ValueError naming the first column of ``row`` that is not finite."
    if not all(map(math.isfinite, row)):
        name, v = next((n, v) for n, v in zip(columns, row) if not math.isfinite(v))
        raise ValueError(
            f"{name} = {v!r}: the link budget is beyond the floating-point "
            "range of the formulas"
        )


def _stats(scenario: Scenario, geom, u1: UserLocation, seconds: Sequence[UserLocation]):
    """Gains and correlation (g1, g2, rho) of user 1 with each second user
    of ``seconds``, on a run's points: ``geom`` and the users are those of
    :func:`_swept`, and each statistic is a float, or an array of one
    value per point.

    FF statistics are the closed forms on those arrays. NF gains are the
    paper's closed forms, and the NF correlation is the exact element sum
    when the array has no more elements than the T x T rule has nodes,
    the rule otherwise. NF statistics are computed once per distinct
    channel, one unless the array or user 2 moves, in one pass over the
    arrays: per distinct array size, one :func:`nf_ccf_batch` call of
    every second user at its distinct ranges (``np.unique``), held by
    user 1, and one gain call per user on the arrays. So a preset's dd
    and sd runs, which share the array and user 1, take one kernel call
    per array size. Each value has the bits of its pair alone. An NF
    user whose phases round by more than _MAX_PHASE_ROUNDING, or an FF
    user farther than _MAX_FF_RANGE, is refused, at the first such point,
    before any sum runs.
    """
    if scenario.channel_model == "FF":
        for k, u in ((1, u1), *((2, u2) for u2 in seconds)):
            far = np.asarray(u.range_r) > _MAX_FF_RANGE
            if far.any():
                (r,) = _checks.first(far, u.range_r)
                raise ValueError(
                    f"[user{k}] range_m = {r:.3g} is beyond the FF "
                    f"model's numerical range, which ends at {_MAX_FF_RANGE:.3g} m"
                )
        g1 = ff_gain_closed(geom, u1)
        return [(g1, ff_gain_closed(geom, u2), ff_ccf_closed(geom, u1, u2)) for u2 in seconds]
    for u2 in seconds:
        refusal = _nf_range_refusal(geom, (u1, u2))
        if refusal:
            raise ValueError(refusal)
    nodes = scenario.quadrature_nodes
    sizes, at_size = _distinct(geom.m_x)
    ranges = [_distinct(u2.range_r) for u2 in seconds]
    v2s = [replace(u2, range_r=r) if np.ndim(u2.range_r) else u2
           for u2, (r, _) in zip(seconds, ranges)]
    rho = np.empty((len(sizes), sum(len(r) for r, _ in ranges)))
    for row, m in zip(rho, sizes.tolist()):
        g = replace(geom, m_x=int(m), m_z=int(m)) if np.ndim(geom.m_x) else geom
        path = None if _takes_element_sum(g.m_total, nodes) else nodes
        row[:] = [est.value for est in nf_ccf_batch(g, u1, v2s, path)]
    g1, pairs, start = nf_gain_closed(geom, u1), [], 0
    for u2, (r, at_range) in zip(seconds, ranges):
        # each second user's columns of rho follow those of the one before
        stats = (g1, nf_gain_closed(geom, u2), rho[at_size, start + at_range])
        start += len(r)
        if np.ndim(geom.m_x) or np.ndim(u2.range_r):
            stats = tuple(np.array(column) for column in np.broadcast_arrays(*stats))
        else:
            stats = (stats[0], stats[1], float(stats[2]))
        pairs.append(stats)
    return pairs


def _distinct(values):
    """The distinct values of a float or an array, ascending, and the
    index among them of each value: ``np.unique`` on an array only, since
    its first call in a process costs about 0.15 ms."""
    if np.ndim(values) == 0:
        return np.array([values]), 0
    return np.unique(values, return_inverse=True)


def _nf_range_refusal(geom: ArrayGeometry, users: Sequence[UserLocation]) -> str:
    """Why the NF model cannot take ``users`` on ``geom``, an array of
    sizes or users with arrays of ranges included: the first user, at the
    first point, whose phases round by more than _MAX_PHASE_ROUNDING.
    Empty when it can. The bound falls with the carrier frequency and
    rises with the element count, so the message names both."""
    errs = [_phase_rounding(geom, u.range_r) for u in users]
    if not any(np.count_nonzero(err > _MAX_PHASE_ROUNDING) for err in errs):
        return ""
    over = np.reshape(np.broadcast_arrays(*errs), (len(users), -1)) > _MAX_PHASE_ROUNDING
    # the first user refused at the first point refused: none of its own is earlier
    k = int(np.flatnonzero(over[:, over.any(axis=0).argmax()])[0])
    r, err, m_x, m_z = _checks.first(over[k], users[k].range_r, errs[k], geom.m_x, geom.m_z)
    return (
        f"[user{k + 1}] range_m = {r:.3g} is beyond the NF "
        f"model's numerical range at {SPEED_OF_LIGHT / geom.wavelength:.3g} Hz "
        f"on {int(m_x)}x{int(m_z)} elements: phase rounding moves "
        f"sqrt(rho) by about {err:.3g}, above {_MAX_PHASE_ROUNDING:g}"
    )


def _check_verify_size(geom: ArrayGeometry) -> None:
    if max(geom.m_x, geom.m_z) > VERIFY_MAX_AXIS:
        raise ScenarioError(
            "verification runs exact-vector oracles and is limited to "
            f"{VERIFY_MAX_AXIS} elements per axis; got {geom.m_x}x{geom.m_z}"
        )


# ---------------------------------------------------------------------------
# checks, shared by every --verify and the verification report


@dataclass(frozen=True)
class CheckRow:
    """One closed-form versus oracle comparison, as ``nfcap verify``
    prints it and as a ``--verify`` row records it."""

    name: str
    closed: float
    oracle: float
    tolerance_note: str
    ok: bool

    @property
    def abs_diff(self) -> float:
        return abs(self.closed - self.oracle)


def _abs_check(
    name: str, closed: float, oracle: float, tol: float, why: str = ""
) -> CheckRow:
    ok = abs(closed - oracle) <= tol
    return CheckRow(name, closed, oracle, f"abs <= {tol:.3g}{why}", ok)


def _violation(variable: str, x: float, check: CheckRow) -> str:
    return (
        f"{variable}={x:g}: {check.name}: closed {check.closed!r} vs oracle "
        f"{check.oracle!r} ({check.tolerance_note})"
    )


def _phase_rounding(geom: ArrayGeometry, r: float) -> float:
    """Error in sqrt(rho) of an NF correlation from rounding the phases
    of users at up to range ``r``, eight times its estimate; an array of
    ranges or of sizes gives an array.

    An element sum rounds each phase k0 d, of up to k0 r radians, to
    double precision. Over the N elements those errors move sqrt(rho) =
    |h1^H h2| / (|h1| |h2|) by about eps k0 r / sqrt(N) at random.
    """
    k0 = 2 * math.pi / geom.wavelength
    root = np.sqrt(geom.m_total) if np.ndim(geom.m_total) else math.sqrt(geom.m_total)
    return 8 * np.finfo(float).eps * k0 * r / root


def _ccf_elements_tolerance(
    geom: ArrayGeometry, users: Sequence[UserLocation], rho: float
) -> float:
    """Allowed distance of an NF element-sum correlation from the element
    oracle's ``rho``: TOL_CCF_ELEMENTS_REL relative, plus rounding.

    Both sums round their phases, which moves rho by 2 sqrt(rho) times
    the :func:`_phase_rounding` of the farther user. Near a null of the
    correlation (rho below about 1e-8 at 33 x 33) that term is the
    larger one.
    """
    sqrt_err = _phase_rounding(geom, max(u.range_r for u in users))
    return TOL_CCF_ELEMENTS_REL * rho + 2 * math.sqrt(rho) * sqrt_err


def _channel_checks(
    scenario: Scenario, geom: ArrayGeometry, users: Sequence[UserLocation], stats, exact
) -> list[CheckRow]:
    """Both gains and the correlation ``stats`` against the ``exact``
    (g1, g2, rho) of the point's :func:`pair_sum_oracle`. NF gains are
    held to TOL_GAIN_REL relative. The NF correlation is held to
    TOL_CCF_ELEMENTS_REL relative plus rounding where it is the element
    sum, and to TOL_CCF_ABS where it is the T x T rule.
    """
    model = scenario.channel_model
    gain_tol = TOL_GAIN_REL if model == "NF" else TOL_FF_STATS_ABS
    *gains, oracle = exact
    checks = []
    for k, (closed, gain) in enumerate(zip(stats[:2], gains)):
        rel = abs(closed - gain) / gain if gain > 0 else 0.0
        checks.append(CheckRow(
            f"gain user{k + 1}", closed, gain, f"rel <= {gain_tol:g}", rel <= gain_tol
        ))
    rho = stats[2]
    if model == "FF":
        checks.append(_abs_check("ccf", rho, oracle, TOL_FF_STATS_ABS))
    elif _takes_element_sum(geom.m_total, scenario.quadrature_nodes):
        tol = _ccf_elements_tolerance(geom, users, oracle)
        why = f": {TOL_CCF_ELEMENTS_REL:g} relative plus rounding"
        checks.append(_abs_check("ccf", rho, oracle, tol, why))
    else:
        checks.append(_abs_check("ccf", rho, oracle, TOL_CCF_ABS))
    return checks


def _mac_check(vecs, stats, cfg: MacConfig) -> CheckRow:
    "The uplink formula on exact statistics against the log-det oracle."
    closed = mac_capacity_two_user(*stats, *cfg.snr_per_user)
    oracle = logdet_capacity_oracle(vecs, list(cfg.snr_per_user))
    return _abs_check("uplink sum capacity", closed, oracle, TOL_MAC_FORMULA_ABS)


def _bc_grid_check(closed: float, stats, cfg: BcConfig) -> CheckRow:
    """The downlink capacity ``closed`` of the statistics ``stats`` against
    the power-grid oracle on them: it may not fall more than
    TOL_BC_GRID_ONESIDED below the grid.
    """
    grid, _ = bc_power_grid_oracle(*stats, cfg, _BC_GRID_POINTS)
    note = f"closed >= grid - {TOL_BC_GRID_ONESIDED:g}"
    ok = closed >= grid - TOL_BC_GRID_ONESIDED
    return CheckRow("downlink sum capacity", closed, grid, note, ok)


def _bc_duality_checks(vecs, stats, cfg: BcConfig) -> list[CheckRow]:
    """Covariances recovered from the dual power split on exact vectors:
    the rates they achieve against the dual-uplink rates, and their
    summed power against the budget.
    """
    alloc = bc_power_allocation_two_user(*stats, cfg)
    covs = bc_covariance_recovery(vecs[0], vecs[1], alloc, cfg)
    gap = _duality_gap(covs, vecs, stats, alloc, cfg)
    return [
        _abs_check("downlink duality", gap, 0.0, TOL_BC_DUALITY_ABS),
        CheckRow(
            "downlink covariance power", covs.total_power, alloc.total, "abs <= 1e-6 * P",
            abs(covs.total_power - alloc.total) <= 1e-6 * cfg.total_power_P,
        ),
    ]


def _duality_gap(covs: CovariancePair, vecs, stats, alloc, cfg: BcConfig) -> float:
    """Worst per-user difference between downlink rates achieved by the
    recovered covariances ``covs`` and the dual-uplink successive-decoding
    rates of the exact statistics ``stats`` of ``vecs``.
    """
    (var1, var2), (g1, g2, rho) = cfg.noise_var_per_user, stats
    e1 = vecs[0] / math.sqrt(var1)
    e2 = vecs[1] / math.sqrt(var2)
    q11 = covs.quad(1, e1)
    q21 = covs.quad(1, e2)
    q22 = covs.quad(2, e2)
    r1_dl = math.log2(1.0 + q11)
    r2_dl = math.log2(1.0 + q22 / (1.0 + q21))
    p1, p2 = alloc.p_per_user
    dual = sic_rates_two_user(g1 / var1, g2 / var2, rho, p1, p2, "u1_first")
    return max(abs(r1_dl - dual.r1), abs(r2_dl - dual.r2))


def _mc_check(vecs, stats, cfg: BcConfig) -> CheckRow:
    """The multicast formula on exact statistics: within TOL_MC_ABS of
    the convex-dual oracle on the vectors, and not above the averaging
    upper bound.
    """
    closed, bound = _mc_formulas(*stats, cfg)
    oracle = mc_beam_grid_oracle(*vecs, cfg.noise_var_per_user, cfg.total_power_P)
    note = f"abs <= {TOL_MC_ABS:g}, closed <= bound + 1e-12"
    ok = abs(closed - oracle) <= TOL_MC_ABS and closed <= bound + 1e-12
    return CheckRow("multicast capacity", closed, oracle, note, ok)


# ---------------------------------------------------------------------------
# the point runners: one scaffold, one kind per command


def _mac_formulas(g1, g2, rho, cfg: MacConfig) -> tuple:
    s1, s2 = cfg.snr_per_user
    cap = mac_capacity_two_user(g1, g2, rho, s1, s2)
    ca = sic_rates_two_user(g1, g2, rho, s1, s2, "u1_first")
    cb = sic_rates_two_user(g1, g2, rho, s1, s2, "u2_first")
    return (cap, ca.r1, ca.r2, cb.r1, cb.r2, *[
        linear_combiner_sum_rate(scheme, g1, g2, rho, s1, s2)
        for scheme in ("opt", "mrc", "zf")
    ])


def _bc_formulas(g1, g2, rho, cfg: BcConfig) -> tuple:
    cap = bc_capacity_two_user(g1, g2, rho, cfg)
    alloc = bc_power_allocation_two_user(g1, g2, rho, cfg)
    power = cfg.total_power_P
    var1, var2 = cfg.noise_var_per_user
    snr_hats = (power / 2.0 / var1, power / 2.0 / var2)
    r_mrt = linear_precoder_sum_rate("mrt", g1, g2, rho, snr_hats)
    r_zf = linear_precoder_sum_rate("zf", g1, g2, rho, snr_hats)
    with np.errstate(all="ignore"):
        gammas = [np.where(cap > 0, np.divide(r, cap), 1.0) for r in (r_mrt, r_zf)]
    return (cap, *alloc.p_per_user, r_mrt, r_zf, *gammas)


def _mc_formulas(g1, g2, rho, cfg: BcConfig) -> tuple:
    (var1, var2), power = cfg.noise_var_per_user, cfg.total_power_P
    cap = mc_capacity_two_user(g1, g2, rho, var1, var2, power)
    return cap, mc_upper_bound((g1, g2), (var1, var2), power)


def _channel_verify(scenario, geom, users, link, stats, values, pair) -> list[CheckRow]:
    return _channel_checks(scenario, geom, users, stats, pair[1])


def _mac_verify(scenario, geom, users, link, stats, values, pair) -> list[CheckRow]:
    return [_mac_check(*pair, link)]


def _bc_verify(scenario, geom, users, link, stats, values, pair) -> list[CheckRow]:
    # the grid check takes the printed capacity and its own statistics
    return [_bc_grid_check(values[0], stats, link), *_bc_duality_checks(*pair, link)]


def _mc_verify(scenario, geom, users, link, stats, values, pair) -> list[CheckRow]:
    return [_mc_check(*pair, link)]


@dataclass(frozen=True)
class _Kind:
    """What one point runner prints and checks.

    A row is the swept variable, then g1, g2 and ccf of :func:`_stats`,
    then the values under ``columns``: those of
    ``formulas(g1, g2, rho, link)``, then c_asym when ``limit`` is set.
    ``link`` is the run's MacConfig when ``uplink``, else its BcConfig.
    ``limit(geom, users, link, model)`` is the kind's large-array limit,
    its capacity at the limit statistics of the field model.
    ``formulas`` and ``limit`` are called once per run, on the
    :func:`_swept` arrays of the run's points: each takes and returns
    floats and arrays of one value per point.
    Verification appends, for each check that ``verify`` returns in
    turn, the field of it that ``oracle_columns`` names, then verify_ok;
    ``verify(scenario, geom, users, link, stats, values, pair)`` runs on
    one point, with the statistics and the values past them of its row
    and the point's one :func:`pair_sum_oracle` evaluation.
    Every function here calls the formulas through this module's
    attributes, so that a test or a tracer that replaces one sees every
    call.
    """

    columns: tuple[str, ...]
    formulas: Callable[..., Sequence[float]]
    verify: Callable[..., list[CheckRow]]
    oracle_columns: tuple[tuple[str, str], ...]
    uplink: bool = False
    limit: Callable[..., float] | None = None


_KINDS = {
    "channel": _Kind(
        (), lambda g1, g2, rho, link: (), _channel_verify,
        (("g1_oracle", "oracle"), ("g2_oracle", "oracle"), ("ccf_oracle", "oracle")),
    ),
    "mac": _Kind(
        ("c_mac", "r1_u1_first", "r2_u1_first", "r1_u2_first", "r2_u2_first",
         "r_opt", "r_mrc", "r_zf", "c_asym"),
        _mac_formulas, _mac_verify, (("c_oracle", "oracle"),),
        uplink=True, limit=lambda *args: mac_asymptotics(*args),
    ),
    "bc": _Kind(
        ("c_bc", "p1", "p2", "r_mrt", "r_zf", "gamma_dl_mrt", "gamma_dl_zf", "c_asym"),
        _bc_formulas, _bc_verify, (("c_oracle", "oracle"), ("duality_gap", "closed")),
        limit=lambda *args: bc_asymptotics(*args),
    ),
    "mc": _Kind(
        ("c_mc", "c_bound", "c_asym"), _mc_formulas, _mc_verify,
        (("c_oracle", "oracle"),), limit=lambda *args: mc_asymptotics(*args),
    ),
}


def _run(scenario: Scenario, verify: bool, command: str) -> SweepResult:
    kind = _KINDS[command]
    variable, points = _sweep_points(scenario)
    try:
        columns, table, violations = _table(scenario, kind, variable, points, verify)
    except ValueError as exc:
        raise _first_failure(scenario, kind, variable, points, verify, exc) from None
    return SweepResult(columns, table, _provenance(scenario, command, verify),
                       tuple(violations))


def _table(scenario: Scenario, kind: _Kind, variable: str, points, verify: bool):
    """The columns, the (points, columns) float64 table and the violations
    of the sweep ``points``: the :func:`_stats` of the run's one pair,
    then :func:`_fill`. Raises ValueError if a point fails: the error of
    the point, when there is one.
    """
    swept = _swept(scenario, variable, points[0] if len(points) == 1 else np.array(points))
    geom, users = swept[:2]
    (stats,) = _stats(scenario, geom, users[0], users[1:2])
    return _fill(scenario, kind, variable, points, verify, swept, stats)


def _fill(scenario: Scenario, kind: _Kind, variable: str, points, verify: bool,
          swept, stats):
    """The columns, table and violations of the sweep ``points``, from its
    :func:`_swept` ``swept`` and the (g1, g2, rho) ``stats`` of its pair.

    The first column is the points, 0 for a run without a sweep. Each
    formula is evaluated once, on the arrays of all points, into its
    column; a float, which the points share, fills its column. Under
    verification each check runs once per point, on the Python floats of
    its row, and writes its oracle and verify_ok into that row. Raises
    ValueError naming the first column of the first row that is not
    finite.
    """
    geom, users, mac_cfg, bc_cfg = swept
    link = mac_cfg if kind.uplink else bc_cfg
    formulas = [*stats, *kind.formulas(*stats, link)]
    if kind.limit is not None:
        formulas.append(kind.limit(geom, users, link, scenario.channel_model))
    columns = (variable, "g1", "g2", "ccf", *kind.columns)
    width = len(columns)
    checked = len(kind.oracle_columns) + 1 if verify else 0
    table = np.empty((len(points), width + checked))
    table[:, 0] = 0.0 if points[0] is None else points
    for k, column in enumerate(formulas, 1):
        table[:, k] = column
    finite = np.isfinite(table[:, :width]).all(axis=1)
    if not finite.all():
        _finite(columns, table[finite.argmin(), :width].tolist())
    violations: list[str] = []
    if verify:
        columns += (*(name for name, _ in kind.oracle_columns), "verify_ok")
        for i, x in enumerate(points):
            geom, users, mac_cfg, bc_cfg = _swept(scenario, variable, x)
            _check_verify_size(geom)
            pair = pair_sum_oracle(geom, users[0], users[1], scenario.channel_model.lower())
            row = table[i, :width].tolist()
            checks = kind.verify(scenario, geom, users, mac_cfg if kind.uplink else bc_cfg,
                                 row[1:4], row[4:], pair)
            row += [getattr(check, field)
                    for (_, field), check in zip(kind.oracle_columns, checks)]
            row.append(float(all(c.ok for c in checks)))
            _finite(columns, row)
            table[i, width:] = row[width:]
            violations += [_violation(variable, row[0], check)
                           for check in checks if not check.ok]
    return columns, table, violations


def _first_failure(
    scenario: Scenario, kind: _Kind, variable: str, points, verify: bool, exc: ValueError
) -> ScenarioError:
    """The error of the first of ``points`` that fails when run alone, in
    sweep order, named at that point. ``exc`` is the error of a run of
    all of them: it is named at the one point, if there is only one, and
    returned unnamed if every point passes alone.
    """
    if len(points) == 1:
        return _point_error(exc, variable, points[0])
    for x in points:
        try:
            _table(scenario, kind, variable, (x,), verify)
        except ValueError as failure:
            return _point_error(failure, variable, x)
    return _point_error(exc, variable, None)


def run_channel(scenario: Scenario, verify: bool = False) -> SweepResult:
    """Per-sweep-point channel statistics: gains and correlation.

    With ``verify`` on, per-element sum oracles are evaluated alongside
    and each of the three values is checked as ``nfcap verify`` checks
    it: gains to a relative tolerance, the NF correlation to 1e-10
    relative plus rounding where it is the exact element sum and to
    TOL_CCF_ABS where it is the T x T rule, the FF correlation to
    TOL_FF_STATS_ABS.
    """
    return _run(scenario, verify, "channel")


def run_mac(scenario: Scenario, verify: bool = False) -> SweepResult:
    """Uplink outputs per sweep point: sum capacity, both decode-order
    corner pairs, linear-combiner rates, and the relevant large-array
    value.

    Verification recomputes the sum capacity as a log-determinant on
    explicit channel vectors, feeding the closed formula the exact
    vector statistics so the comparison isolates the capacity
    expression itself.
    """
    return _run(scenario, verify, "mac")


def run_bc(scenario: Scenario, verify: bool = False) -> SweepResult:
    """Downlink outputs per sweep point: sum capacity, optimal dual
    power split, linear-precoder rates with their ratio to capacity,
    and the relevant large-array value.

    Verification compares the printed capacity against the exhaustive
    power-grid oracle on the same statistics (one-sided: the closed form
    must not fall more than the tolerance below the grid), and checks
    covariance-recovery duality and the recovered covariances' power on
    explicit vectors.
    """
    return _run(scenario, verify, "bc")


def run_mc(scenario: Scenario, verify: bool = False) -> SweepResult:
    """Multicast outputs per sweep point: capacity, the averaging upper
    bound, and the relevant large-array value.

    Verification runs the convex-dual oracle on explicit vectors; the
    closed form must match it within the tolerance and respect the
    upper bound.
    """
    return _run(scenario, verify, "mc")


@_nominal_point
def run_region(scenario: Scenario, mode: str = "mac") -> SweepResult:
    """Rate-region boundary vertices at the scenario's nominal point.

    Both modes take the statistics that ``nfcap mac`` and ``nfcap bc``
    print. ``mode`` "mac" samples the uplink pentagon from the
    closed-form corner rates; "bc" sweeps dual power splits and returns
    the hull. Columns: vertex index, r1, r2.
    """
    key = mode.lower()
    if key not in ("mac", "bc"):
        raise ScenarioError(f"region mode must be 'mac' or 'bc', got {mode!r}")
    ((g1, g2, rho),) = _stats(scenario, scenario.geometry, scenario.users[0],
                             scenario.users[1:2])
    # The nominal capacity first, so an overflowing link budget is
    # reported the way `nfcap mac` or `nfcap bc` reports it.
    if key == "mac":
        s1, s2 = scenario.mac_cfg.snr_per_user
        mac_capacity_two_user(g1, g2, rho, s1, s2)
        region = mac_region_two_user(g1, g2, rho, s1, s2)
    else:
        _finite(("c_bc",), (bc_capacity_two_user(g1, g2, rho, scenario.bc_cfg),))
        region = bc_region_two_user(g1, g2, rho, scenario.bc_cfg)
    vertices = region.vertices
    table = np.column_stack([np.arange(len(vertices), dtype=float),
                             [v.r1 for v in vertices], [v.r2 for v in vertices]])
    return SweepResult(
        ("vertex", "r1", "r2"),
        table,
        _provenance(replace(scenario, sweep=None), f"region {key}", False),
    )


def run_sweep(scenario: Scenario, verify: bool = False) -> SweepResult:
    """Dispatch the scenario's sweep to its target runner."""
    if scenario.sweep is None:
        raise ScenarioError("scenario has no [sweep] section")
    runner: Callable[[Scenario, bool], SweepResult] = {
        "channel": run_channel,
        "mac": run_mac,
        "bc": run_bc,
        "mc": run_mc,
    }[scenario.sweep.target]
    return runner(scenario, verify)


# ---------------------------------------------------------------------------
# figure-data presets: the reference scenario swept


_M_AXIS_GRID = (3, 5, 9, 15, 25, 35, 51, 75, 101, 151, 201, 251, 301, 351, 401, 451, 501, 551)
_R2_GRID = tuple(0.5 * i for i in range(1, 61))

# name -> (kind, swept variable, grid, array side; None keeps the scenario's)
PRESETS: dict[str, tuple[str, str, tuple[float, ...], int | None]] = {
    "mac-vs-M": ("mac", "m_per_axis", _M_AXIS_GRID, None),
    "bc-vs-M": ("bc", "m_per_axis", _M_AXIS_GRID, None),
    "mc-vs-M": ("mc", "m_per_axis", _M_AXIS_GRID, None),
    "mc-vs-r2": ("mc", "r2_m", _R2_GRID, 551),
}


def _preset_scenarios(preset: str) -> tuple[Scenario, dict[str, Scenario]]:
    """The swept reference scenario of ``preset``, and the scenario of
    each of its four runs under its column name."""
    kind, variable, grid, side = PRESETS[preset]
    base = default_scenario()
    geom = base.geometry if side is None else replace(base.geometry, m_x=side, m_z=side)
    base = replace(base, geometry=geom, sweep=SweepSpec(variable, grid, kind))
    u1, u2 = base.users
    pairs = (("dd", base.users), ("sd", (u1, replace(u1, range_r=u2.range_r))))
    return base, {
        f"C_{model.lower()}_{tag}": replace(base, channel_model=model, users=users)
        for model in ("NF", "FF") for tag, users in pairs
    }


def reproduce(preset: str) -> SweepResult:
    """Rebuild one of the bundled figure-data tables by name.

    A preset is ``default_scenario()`` swept over its grid and run four
    times through the kind's scaffold: near field (nf) and far field
    (ff), each with user 2 in its own direction (dd) and at user 1's
    angles (sd), as ``direction = same`` places it. The two runs of a
    field model share the array and user 1, so their statistics are one
    :func:`_stats` call with both second users, for NF one kernel call
    per array size, and each run's table is filled (:func:`_fill`) from
    its pair's share: the bits of each run alone. The table holds the
    swept value, each run's capacity as C_<model>_<dd|sd> and, for the
    -vs-M presets, whose first column is M = m_per_axis^2, the nf dd
    run's c_asym as C_asym.
    """
    if preset not in PRESETS:
        raise ScenarioError(
            f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
        )
    kind = _KINDS[PRESETS[preset][0]]
    base, scenarios = _preset_scenarios(preset)
    variable, points = _sweep_points(base)
    xs = np.array(points)
    runs = {}
    for model in ("NF", "FF"):
        labels = [label for label, s in scenarios.items() if s.channel_model == model]
        swept = [_swept(scenarios[label], variable, xs) for label in labels]
        geom, (u1, _) = swept[0][:2]
        stats = _stats(scenarios[labels[0]], geom, u1, [users[1] for _, users, _, _ in swept])
        for label, run, pair in zip(labels, swept, stats):
            runs[label] = _fill(scenarios[label], kind, variable, points, False, run, pair)
    columns = [variable, *runs]
    tables = [table[:, names.index(kind.columns[0])] for names, table, _ in runs.values()]
    if variable == "m_per_axis":
        # M = m^2 is exact in float64 for every m below 2^26
        columns[0], xs = "M", xs * xs
        columns.append("C_asym")
        names, table, _ = runs["C_nf_dd"]
        tables.append(table[:, names.index("c_asym")])
    provenance = _provenance(base, f"reproduce {preset}", False) + (
        f"preset = {preset}: link.model NF and FF, user2 as above (dd) "
        "and at user1's angles (sd)\n"
    )
    return SweepResult(tuple(columns), np.column_stack([xs, *tables]), provenance)


# ---------------------------------------------------------------------------
# standalone verification report


@_nominal_point
def verification_report(scenario: Scenario) -> tuple[list[CheckRow], str]:
    """Cross-check every closed form against its brute-force oracle.

    Exact-vector oracles run on the scenario's array, or on a copy cut
    to VERIFY_MAX_AXIS elements per axis, the limit of every --verify,
    where it is larger; the returned header string states the size
    used. The rows are those of ``channel``, ``mac``, ``bc`` and
    ``mc --verify``, from the same check functions, with all closed forms fed the exact
    vector statistics past the channel rows, plus the paper's T x T
    rule against the correlation oracle and both uplink decode corners
    against the successive-decoding oracle. The rule's row is left out,
    and the header says why, when a user of an FF scenario lies beyond
    the range that the NF model, and so the rule, can take.
    """
    m_x = min(scenario.geometry.m_x, VERIFY_MAX_AXIS)
    m_z = min(scenario.geometry.m_z, VERIFY_MAX_AXIS)
    geom = replace(scenario.geometry, m_x=m_x, m_z=m_z)
    header = (
        f"exact-vector oracles run at {m_x}x{m_z} elements "
        f"(scenario array {scenario.geometry.m_x}x{scenario.geometry.m_z})"
    )
    model, nodes = scenario.channel_model, scenario.quadrature_nodes
    users = scenario.users[:2]
    u1, u2 = users
    snrs = list(scenario.mac_cfg.snr_per_user)
    bc_cfg = scenario.bc_cfg

    (stats,) = _stats(scenario, geom, u1, (u2,))
    vecs, exact = pair_sum_oracle(geom, u1, u2, model.lower())
    checks = _channel_checks(scenario, geom, users, stats, exact)
    # the paper's rule, which the NF sweeps take beyond T^2 elements; an
    # FF scenario's users may lie beyond the NF model's range
    rule_name = f"ccf quadrature T={nodes}"
    refusal = _nf_range_refusal(geom, users)
    if refusal:
        header += f"\nno {rule_name} check: {refusal}"
    else:
        rule = nf_ccf_quadrature(geom, u1, u2, nodes).value
        rule_o = exact[2] if model == "NF" else ccf_sum_oracle(geom, u1, u2, model="nf")
        checks.append(_abs_check(rule_name, rule, rule_o, TOL_CCF_ABS))

    checks.append(_mac_check(vecs, exact, scenario.mac_cfg))
    for order, tag in (("u1_first", (0, 1)), ("u2_first", (1, 0))):
        corner = sic_rates_two_user(*exact, *snrs, order)
        rates_o = sic_rates_oracle(vecs, snrs, tag)
        worst = max(abs(corner.r1 - rates_o[0]), abs(corner.r2 - rates_o[1]))
        checks.append(CheckRow(
            f"decode corner {order}", corner.r1 + corner.r2, sum(rates_o),
            f"per-rate abs <= {TOL_MAC_FORMULA_ABS:g}", worst <= TOL_MAC_FORMULA_ABS,
        ))

    bc_closed = bc_capacity_two_user(*exact, bc_cfg)
    _finite(("downlink sum capacity",), (bc_closed,))
    checks.append(_bc_grid_check(bc_closed, exact, bc_cfg))
    checks += _bc_duality_checks(vecs, exact, bc_cfg)
    checks.append(_mc_check(vecs, exact, bc_cfg))
    return checks, header
