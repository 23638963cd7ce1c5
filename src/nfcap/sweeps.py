"""Experiment runners: evaluate channel statistics and capacities over
scenario sweeps, compare against brute-force oracles on demand, emit
deterministic CSV files, and rebuild the bundled figure-data presets.

Row layout: the first column is the swept variable (or "point" for a
single-shot scenario) and every later column is a named numeric output.
Identical scenarios always produce identical bytes: nothing here reads
clocks, hostnames, or global state.

Verification mode appends oracle columns and records tolerance
violations on the result; exact-vector oracles are only run at reduced
array sizes (at most 65 elements per axis), since the dense reference
computations grow with the square of the element count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import __version__
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
from .config import Scenario, ScenarioError, db_to_linear
from .geometry import (
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
    sic_rates_oracle,
)
from .stats import (
    ff_ccf_closed,
    ff_gain_closed,
    nf_ccf_quadrature,
    nf_gain_closed,
)

__all__ = [
    "SweepResult",
    "CheckRow",
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
    "TOL_FF_STATS_ABS",
    "TOL_MAC_FORMULA_ABS",
    "TOL_BC_GRID_ONESIDED",
    "TOL_BC_DUALITY_ABS",
    "TOL_MC_GRID_ONESIDED",
    "VERIFY_MAX_AXIS",
]

TOL_GAIN_REL = 1e-2
TOL_CCF_ABS = 1e-3
TOL_FF_STATS_ABS = 1e-9
TOL_MAC_FORMULA_ABS = 1e-9
TOL_BC_GRID_ONESIDED = 1e-6
TOL_BC_DUALITY_ABS = 1e-9
TOL_MC_GRID_ONESIDED = 1e-3
VERIFY_MAX_AXIS = 65

_BC_GRID_POINTS = 100_000
_MC_GRID_SPEC = (400, 400, 64)


@dataclass(frozen=True)
class SweepResult:
    """Tabular sweep output plus a provenance block.

    ``rows`` holds plain floats ordered like ``columns``; rows ascend in
    their first (sweep) column. ``violations`` lists human-readable
    descriptions of verification failures, empty when all comparisons
    passed or verification was off.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    provenance: str
    violations: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.columns) == 0:
            raise ValueError("columns must not be empty")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} does not match {len(self.columns)} columns"
                )
        firsts = [row[0] for row in self.rows]
        if firsts != sorted(firsts):
            raise ValueError("rows must ascend in the sweep column")

    def column(self, name: str) -> tuple[float, ...]:
        idx = self.columns.index(name)
        return tuple(row[idx] for row in self.rows)


def _fmt(value: float) -> str:
    return f"{value:.11e}"


def emit_csv(result: SweepResult, path: str) -> None:
    """Write the result table as UTF-8 CSV with 12 significant digits,
    plus a sidecar provenance file at ``<path>.provenance.txt``.
    """
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    with open(path + ".provenance.txt", "w", encoding="utf-8", newline="\n") as handle:
        handle.write(result.provenance)


def _provenance(scenario: Scenario, command: str, verify: bool) -> str:
    lines = [f"tool = nfcap {__version__}", f"command = {command}"]
    if verify:
        lines.append("verify = on")
    lines.extend(f"{key} = {value}" for key, value in scenario.resolved_items())
    return "\n".join(lines) + "\n"


def _sweep_points(scenario: Scenario) -> tuple[str, tuple[float | None, ...]]:
    if scenario.sweep is None:
        return "point", (None,)
    return scenario.sweep.variable, scenario.sweep.values


def _apply_point(
    scenario: Scenario, variable: str, value: float | None
) -> tuple[ArrayGeometry, tuple[UserLocation, ...], MacConfig, BcConfig]:
    geom = scenario.geometry
    users = scenario.users
    mac_cfg = scenario.mac_cfg
    bc_cfg = scenario.bc_cfg
    if value is None:
        return geom, users, mac_cfg, bc_cfg
    if variable == "m_per_axis":
        m = int(value)
        geom = ArrayGeometry(
            m_x=m,
            m_z=m,
            pitch_d=geom.pitch_d,
            wavelength=geom.wavelength,
            element_side=geom.element_side,
        )
    elif variable == "r2_m":
        old = users[1]
        users = (
            users[0],
            UserLocation(
                range_r=float(value),
                azimuth_theta=old.azimuth_theta,
                elevation_phi=old.elevation_phi,
            ),
        )
    elif variable == "snr_db":
        snr = db_to_linear(value)
        mac_cfg = MacConfig(snr_per_user=(snr,) * len(mac_cfg.snr_per_user))
    elif variable == "power_db":
        bc_cfg = BcConfig(
            total_power_P=db_to_linear(value),
            noise_var_per_user=bc_cfg.noise_var_per_user,
        )
    else:
        raise ScenarioError(f"unsupported sweep variable {variable!r}")
    return geom, users, mac_cfg, bc_cfg


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


def _finite(columns: Sequence[str], row: Sequence[float]) -> tuple[float, ...]:
    "The row as a tuple; ValueError naming the first column that is not finite."
    if not all(map(math.isfinite, row)):
        name, v = next((n, v) for n, v in zip(columns, row) if not math.isfinite(v))
        raise ValueError(
            f"{name} = {v!r}: the link budget is beyond the floating-point "
            "range of the formulas"
        )
    return tuple(row)


def _point_value(value: float | None) -> float:
    return 0.0 if value is None else float(value)


def _pair_stats(
    model: str,
    geom: ArrayGeometry,
    u1: UserLocation,
    u2: UserLocation,
    nodes: int,
) -> tuple[float, float, float]:
    """Gains and correlation (g1, g2, rho) of one channel.

    ``run_channel``, ``run_mac``, ``run_bc`` and ``run_mc`` memoise this
    for the length of one call, so an SNR or power sweep evaluates its
    single channel once.
    """
    if model == "NF":
        g1 = nf_gain_closed(geom, u1)
        g2 = nf_gain_closed(geom, u2)
        rho = nf_ccf_quadrature(geom, u1, u2, nodes).value
    else:
        g1 = ff_gain_closed(geom, u1)
        g2 = ff_gain_closed(geom, u2)
        rho = ff_ccf_closed(geom, u1, u2)
    return g1, g2, rho


def _exact_pair(
    model: str, geom: ArrayGeometry, users: Sequence[UserLocation]
) -> tuple[list, float, float, float]:
    build = nf_channel_vector if model == "NF" else ff_channel_vector
    vecs = [build(geom, u) for u in users]
    e1 = np.asarray(vecs[0].entries)
    e2 = np.asarray(vecs[1].entries)
    g1 = float(np.vdot(e1, e1).real)
    g2 = float(np.vdot(e2, e2).real)
    rho = float(abs(np.vdot(e1, e2)) ** 2 / (g1 * g2))
    return vecs, g1, g2, rho


def _check_verify_size(geom: ArrayGeometry) -> None:
    if max(geom.m_x, geom.m_z) > VERIFY_MAX_AXIS:
        raise ScenarioError(
            "verification runs exact-vector oracles and is limited to "
            f"{VERIFY_MAX_AXIS} elements per axis; got {geom.m_x}x{geom.m_z}"
        )


def _same_direction(u1: UserLocation, u2: UserLocation) -> bool:
    return (
        abs(u1.azimuth_theta - u2.azimuth_theta) < 1e-15
        and abs(u1.elevation_phi - u2.elevation_phi) < 1e-15
    )


def run_channel(scenario: Scenario, verify: bool = False) -> SweepResult:
    """Per-sweep-point channel statistics: gains and correlation.

    With ``verify`` on, per-element sum oracles are evaluated alongside
    the closed forms; gain deltas are relative, correlation deltas
    absolute.
    """
    variable, points = _sweep_points(scenario)
    columns = [variable, "g1", "g2", "ccf"]
    if verify:
        columns += ["g1_oracle", "g2_oracle", "ccf_oracle", "verify_ok"]
    rows = []
    violations: list[str] = []
    pair_stats = functools.cache(_pair_stats)
    for value in points:
        try:
            geom, users, _, _ = _apply_point(scenario, variable, value)
            u1, u2 = users[0], users[1]
            g1, g2, rho = pair_stats(
                scenario.channel_model, geom, u1, u2, scenario.quadrature_nodes
            )
            row = [_point_value(value), g1, g2, rho]
            if verify:
                _check_verify_size(geom)
                model = scenario.channel_model.lower()
                g1_o = gain_sum_oracle(geom, u1, model=model)
                g2_o = gain_sum_oracle(geom, u2, model=model)
                rho_o = ccf_sum_oracle(geom, u1, u2, model=model)
                gain_tol = TOL_GAIN_REL if model == "nf" else TOL_FF_STATS_ABS
                ccf_tol = TOL_CCF_ABS if model == "nf" else TOL_FF_STATS_ABS
                ok = True
                for name, closed, oracle in (("g1", g1, g1_o), ("g2", g2, g2_o)):
                    rel = abs(closed - oracle) / oracle if oracle > 0 else 0.0
                    if rel > gain_tol:
                        ok = False
                        violations.append(
                            f"{variable}={row[0]:g}: {name} closed {closed!r} vs "
                            f"oracle {oracle!r} exceeds rel tol {gain_tol:g}"
                        )
                if abs(rho - rho_o) > ccf_tol:
                    ok = False
                    violations.append(
                        f"{variable}={row[0]:g}: ccf closed {rho!r} vs oracle "
                        f"{rho_o!r} exceeds abs tol {ccf_tol:g}"
                    )
                row += [g1_o, g2_o, rho_o, 1.0 if ok else 0.0]
            rows.append(_finite(columns, row))
        except ValueError as exc:
            raise _point_error(exc, variable, value) from None
    return SweepResult(
        tuple(columns),
        tuple(rows),
        _provenance(scenario, "channel", verify),
        tuple(violations),
    )


def run_mac(scenario: Scenario, verify: bool = False) -> SweepResult:
    """Uplink outputs per sweep point: sum capacity, both decode-order
    corner pairs, linear-combiner rates, and the relevant large-array
    value.

    Verification recomputes the sum capacity as a dense
    log-determinant on explicit channel vectors, feeding the closed
    formula the exact vector statistics so the comparison isolates the
    capacity expression itself.
    """
    variable, points = _sweep_points(scenario)
    columns = [
        variable,
        "g1",
        "g2",
        "ccf",
        "c_mac",
        "r1_u1_first",
        "r2_u1_first",
        "r1_u2_first",
        "r2_u2_first",
        "r_opt",
        "r_mrc",
        "r_zf",
        "c_asym",
    ]
    if verify:
        columns += ["c_oracle", "verify_ok"]
    rows = []
    violations: list[str] = []
    pair_stats = functools.cache(_pair_stats)
    for value in points:
        try:
            geom, users, mac_cfg, _ = _apply_point(scenario, variable, value)
            u1, u2 = users[0], users[1]
            s1, s2 = mac_cfg.snr_per_user
            g1, g2, rho = pair_stats(
                scenario.channel_model, geom, u1, u2, scenario.quadrature_nodes
            )
            cap = mac_capacity_two_user(g1, g2, rho, s1, s2)
            ca = sic_rates_two_user(g1, g2, rho, s1, s2, "u1_first")
            cb = sic_rates_two_user(g1, g2, rho, s1, s2, "u2_first")
            combiners = [
                linear_combiner_sum_rate(scheme, g1, g2, rho, s1, s2)
                for scheme in ("opt", "mrc", "zf")
            ]
            if scenario.channel_model == "FF":
                asym = mac_asymptotics(
                    None, mac_cfg, "ff", geom=geom, users=list(users),
                    m_total=geom.m_total,
                )
                c_asym = asym.static if _same_direction(u1, u2) else asym.dynamic
            elif geom.m_x == 1:
                c_asym = mac_asymptotics(
                    None, mac_cfg, "nf_ula", geom=geom, users=list(users)
                )
            else:
                c_asym = mac_asymptotics(geom.occupation_ratio, mac_cfg, "nf_upa")
            row = [
                _point_value(value),
                g1,
                g2,
                rho,
                cap,
                ca.r1,
                ca.r2,
                cb.r1,
                cb.r2,
                *combiners,
                c_asym,
            ]
            if verify:
                _finite(columns, row)
                _check_verify_size(geom)
                vecs, g1_ex, g2_ex, rho_ex = _exact_pair(
                    scenario.channel_model, geom, users
                )
                oracle = logdet_capacity_oracle(vecs, [s1, s2])
                closed_exact = mac_capacity_two_user(g1_ex, g2_ex, rho_ex, s1, s2)
                ok = abs(closed_exact - oracle) <= TOL_MAC_FORMULA_ABS
                if not ok:
                    violations.append(
                        f"{variable}={row[0]:g}: uplink formula {closed_exact!r} vs "
                        f"log-det oracle {oracle!r} exceeds abs tol {TOL_MAC_FORMULA_ABS:g}"
                    )
                row += [oracle, 1.0 if ok else 0.0]
            rows.append(_finite(columns, row))
        except ValueError as exc:
            raise _point_error(exc, variable, value) from None
    return SweepResult(
        tuple(columns),
        tuple(rows),
        _provenance(scenario, "mac", verify),
        tuple(violations),
    )


def run_bc(scenario: Scenario, verify: bool = False) -> SweepResult:
    """Downlink outputs per sweep point: sum capacity, optimal dual
    power split, linear-precoder rates with their ratio to capacity,
    and the relevant large-array value.

    Verification compares the closed capacity against the exhaustive
    power-grid oracle (one-sided: the closed form must not fall more
    than the tolerance below the grid) and checks covariance-recovery
    duality on explicit vectors.
    """
    variable, points = _sweep_points(scenario)
    columns = [
        variable,
        "g1",
        "g2",
        "ccf",
        "c_bc",
        "p1",
        "p2",
        "r_mrt",
        "r_zf",
        "gamma_dl_mrt",
        "gamma_dl_zf",
        "c_asym",
    ]
    if verify:
        columns += ["c_oracle", "duality_gap", "verify_ok"]
    rows = []
    violations: list[str] = []
    pair_stats = functools.cache(_pair_stats)
    for value in points:
        try:
            geom, users, _, bc_cfg = _apply_point(scenario, variable, value)
            u1, u2 = users[0], users[1]
            g1, g2, rho = pair_stats(
                scenario.channel_model, geom, u1, u2, scenario.quadrature_nodes
            )
            cap = bc_capacity_two_user(g1, g2, rho, bc_cfg)
            alloc = bc_power_allocation_two_user(g1, g2, rho, bc_cfg)
            power = bc_cfg.total_power_P
            var1, var2 = bc_cfg.noise_var_per_user
            snr_hats = (power / 2.0 / var1, power / 2.0 / var2)
            r_mrt = linear_precoder_sum_rate("mrt", g1, g2, rho, snr_hats)
            r_zf = linear_precoder_sum_rate("zf", g1, g2, rho, snr_hats)
            if scenario.channel_model == "FF":
                asym = bc_asymptotics(
                    "ff", geom=geom, users=list(users), cfg=bc_cfg,
                    m_total=geom.m_total,
                )
                c_asym = asym.static if _same_direction(u1, u2) else asym.dynamic
            elif geom.m_x == 1:
                c_asym = bc_asymptotics(
                    "nf_ula", geom=geom, users=list(users), cfg=bc_cfg
                )
            else:
                c_asym = bc_asymptotics("nf_upa", xi=geom.occupation_ratio, cfg=bc_cfg)
            row = [
                _point_value(value),
                g1,
                g2,
                rho,
                cap,
                alloc.p_per_user[0],
                alloc.p_per_user[1],
                r_mrt,
                r_zf,
                r_mrt / cap if cap > 0 else 1.0,
                r_zf / cap if cap > 0 else 1.0,
                c_asym,
            ]
            if verify:
                _finite(columns, row)
                _check_verify_size(geom)
                grid_bits, _ = bc_power_grid_oracle(g1, g2, rho, bc_cfg, _BC_GRID_POINTS)
                ok = cap >= grid_bits - TOL_BC_GRID_ONESIDED
                if not ok:
                    violations.append(
                        f"{variable}={row[0]:g}: downlink closed form {cap!r} falls "
                        f"below grid oracle {grid_bits!r} by more than "
                        f"{TOL_BC_GRID_ONESIDED:g}"
                    )
                vecs, g1_ex, g2_ex, rho_ex = _exact_pair(
                    scenario.channel_model, geom, users
                )
                alloc_ex = bc_power_allocation_two_user(g1_ex, g2_ex, rho_ex, bc_cfg)
                covs = bc_covariance_recovery(vecs[0], vecs[1], alloc_ex, bc_cfg)
                duality_gap = _duality_gap(covs, vecs, alloc_ex, bc_cfg)
                if duality_gap > TOL_BC_DUALITY_ABS:
                    ok = False
                    violations.append(
                        f"{variable}={row[0]:g}: covariance recovery misses the dual "
                        f"rates by {duality_gap!r} bits (tol {TOL_BC_DUALITY_ABS:g})"
                    )
                row += [grid_bits, duality_gap, 1.0 if ok else 0.0]
            rows.append(_finite(columns, row))
        except ValueError as exc:
            raise _point_error(exc, variable, value) from None
    return SweepResult(
        tuple(columns),
        tuple(rows),
        _provenance(scenario, "bc", verify),
        tuple(violations),
    )


def _duality_gap(covs: CovariancePair, vecs, alloc, cfg: BcConfig) -> float:
    """Worst per-user difference between downlink rates achieved by the
    recovered covariances ``covs`` and the dual-uplink successive-decoding
    rates.
    """
    e1 = np.asarray(vecs[0].entries) / math.sqrt(cfg.noise_var_per_user[0])
    e2 = np.asarray(vecs[1].entries) / math.sqrt(cfg.noise_var_per_user[1])
    q11 = covs.quad(1, e1)
    q21 = covs.quad(1, e2)
    q22 = covs.quad(2, e2)
    r1_dl = math.log2(1.0 + q11)
    r2_dl = math.log2(1.0 + q22 / (1.0 + q21))
    g1n = float(np.vdot(e1, e1).real)
    g2n = float(np.vdot(e2, e2).real)
    rho = abs(np.vdot(e1, e2)) ** 2 / (g1n * g2n) if g1n > 0 and g2n > 0 else 0.0
    p1, p2 = alloc.p_per_user
    dual = sic_rates_two_user(g1n, g2n, min(rho, 1.0), p1, p2, "u1_first")
    return max(abs(r1_dl - dual.r1), abs(r2_dl - dual.r2))


def run_mc(scenario: Scenario, verify: bool = False) -> SweepResult:
    """Multicast outputs per sweep point: capacity, the averaging upper
    bound, and the relevant large-array value.

    Verification runs the dense beam-grid oracle on explicit vectors;
    the closed form must not fall more than the tolerance below the
    grid and must respect the upper bound.
    """
    variable, points = _sweep_points(scenario)
    columns = [variable, "g1", "g2", "ccf", "c_mc", "c_bound", "c_asym"]
    if verify:
        columns += ["c_oracle", "verify_ok"]
    rows = []
    violations: list[str] = []
    pair_stats = functools.cache(_pair_stats)
    for value in points:
        try:
            geom, users, _, bc_cfg = _apply_point(scenario, variable, value)
            u1, u2 = users[0], users[1]
            g1, g2, rho = pair_stats(
                scenario.channel_model, geom, u1, u2, scenario.quadrature_nodes
            )
            power = bc_cfg.total_power_P
            var1, var2 = bc_cfg.noise_var_per_user
            cap = mc_capacity_two_user(g1, g2, rho, var1, var2, power)
            bound = mc_upper_bound((g1, g2), (var1, var2), power)
            if scenario.channel_model == "FF":
                asym = mc_asymptotics(
                    "ff", geom=geom, users=list(users), power=power,
                    noise_vars=(var1, var2), m_total=geom.m_total,
                )
                c_asym = asym.static if _same_direction(u1, u2) else asym.dynamic
            elif geom.m_x == 1:
                c_asym = mc_asymptotics(
                    "nf_ula", geom=geom, users=list(users), power=power,
                    noise_vars=(var1, var2),
                )
            else:
                c_asym = mc_asymptotics(
                    "nf_upa", xi=geom.occupation_ratio, power=power,
                    noise_vars=(var1, var2),
                )
            row = [_point_value(value), g1, g2, rho, cap, bound, c_asym]
            if verify:
                _finite(columns, row)
                _check_verify_size(geom)
                vecs, g1_ex, g2_ex, rho_ex = _exact_pair(
                    scenario.channel_model, geom, users
                )
                grid_bits, _ = mc_beam_grid_oracle(
                    vecs[0], vecs[1], (var1, var2), power, _MC_GRID_SPEC
                )
                closed_exact = mc_capacity_two_user(
                    g1_ex, g2_ex, min(rho_ex, 1.0), var1, var2, power
                )
                bound_exact = mc_upper_bound((g1_ex, g2_ex), (var1, var2), power)
                ok = closed_exact >= grid_bits - TOL_MC_GRID_ONESIDED
                if closed_exact > bound_exact + 1e-12:
                    ok = False
                    violations.append(
                        f"{variable}={row[0]:g}: multicast closed form {closed_exact!r} "
                        f"exceeds its upper bound {bound_exact!r}"
                    )
                if closed_exact < grid_bits - TOL_MC_GRID_ONESIDED:
                    violations.append(
                        f"{variable}={row[0]:g}: multicast closed form {closed_exact!r} "
                        f"falls below beam-grid oracle {grid_bits!r} by more than "
                        f"{TOL_MC_GRID_ONESIDED:g}"
                    )
                row += [grid_bits, 1.0 if ok else 0.0]
            rows.append(_finite(columns, row))
        except ValueError as exc:
            raise _point_error(exc, variable, value) from None
    return SweepResult(
        tuple(columns),
        tuple(rows),
        _provenance(scenario, "mc", verify),
        tuple(violations),
    )


@_nominal_point
def run_region(scenario: Scenario, mode: str = "mac") -> SweepResult:
    """Rate-region boundary vertices at the scenario's nominal point.

    ``mode`` "mac" samples the uplink pentagon from the closed-form
    corner rates; "bc" sweeps dual power splits on explicit channel
    vectors and returns the hull. Columns: vertex index, r1, r2.
    """
    key = mode.lower()
    if key not in ("mac", "bc"):
        raise ScenarioError(f"region mode must be 'mac' or 'bc', got {mode!r}")
    geom = scenario.geometry
    users = scenario.users
    u1, u2 = users[0], users[1]
    g1, g2, rho = _pair_stats(
        scenario.channel_model, geom, u1, u2, scenario.quadrature_nodes
    )
    # The nominal capacity first, so an overflowing link budget is
    # reported the way `nfcap mac` or `nfcap bc` reports it.
    if key == "mac":
        s1, s2 = scenario.mac_cfg.snr_per_user
        mac_capacity_two_user(g1, g2, rho, s1, s2)
        region = mac_region_two_user(g1, g2, rho, s1, s2)
    else:
        _finite(("c_bc",), (bc_capacity_two_user(g1, g2, rho, scenario.bc_cfg),))
        build = nf_channel_vector if scenario.channel_model == "NF" else ff_channel_vector
        region = bc_region_two_user(
            build(geom, u1), build(geom, u2), scenario.bc_cfg
        )
    rows = tuple(
        (float(i), v.r1, v.r2) for i, v in enumerate(region.vertices)
    )
    return SweepResult(
        ("vertex", "r1", "r2"),
        rows,
        _provenance(scenario, f"region {key}", False),
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
# figure-data presets


_M_AXIS_GRID = (3, 5, 9, 15, 25, 35, 51, 75, 101, 151, 201, 251, 301, 351, 401, 451, 501, 551)
_R2_GRID = tuple(0.5 * i for i in range(1, 61))
_QUAD_NODES = 200


def _reference_users(same_direction: bool, r2: float = 5.0) -> tuple[UserLocation, UserLocation]:
    u1 = UserLocation(range_r=10.0, azimuth_theta=math.pi / 3, elevation_phi=2 * math.pi / 3)
    if same_direction:
        u2 = UserLocation(range_r=r2, azimuth_theta=math.pi / 3, elevation_phi=2 * math.pi / 3)
    else:
        u2 = UserLocation(range_r=r2, azimuth_theta=2 * math.pi / 3, elevation_phi=math.pi / 3)
    return u1, u2


def _reference_geometry(m_axis: int) -> ArrayGeometry:
    return ArrayGeometry.from_frequency(m_x=m_axis, m_z=m_axis, frequency_hz=2.4e9)


def _preset_capacity_vs_m(kind: str) -> SweepResult:
    snr = 1000.0
    power = 1000.0
    noise = (1.0, 1.0)
    rows = []
    for m_axis in _M_AXIS_GRID:
        geom = _reference_geometry(m_axis)
        caps = {}
        for tag, same in (("dd", False), ("sd", True)):
            users = _reference_users(same)
            for model in ("NF", "FF"):
                g1, g2, rho = _pair_stats(model, geom, users[0], users[1], _QUAD_NODES)
                if kind == "mac":
                    cap = mac_capacity_two_user(g1, g2, rho, snr, snr)
                elif kind == "bc":
                    cap = bc_capacity_two_user(
                        g1, g2, rho, BcConfig(power, noise)
                    )
                else:
                    cap = mc_capacity_two_user(g1, g2, rho, noise[0], noise[1], power)
                caps[f"{model.lower()}_{tag}"] = cap
        xi = geom.occupation_ratio
        if kind == "mac":
            c_asym = mac_asymptotics(xi, MacConfig((snr, snr)), "nf_upa")
        elif kind == "bc":
            c_asym = bc_asymptotics("nf_upa", xi=xi, cfg=BcConfig(power, noise))
        else:
            c_asym = mc_asymptotics("nf_upa", xi=xi, power=power, noise_vars=noise)
        rows.append(
            (
                float(geom.m_total),
                caps["nf_dd"],
                caps["nf_sd"],
                caps["ff_dd"],
                caps["ff_sd"],
                c_asym,
            )
        )
    provenance = (
        f"tool = nfcap {__version__}\n"
        f"command = reproduce {kind}-vs-M\n"
        f"preset = {kind}-vs-M\n"
        "array = square, 2.4 GHz, half-wavelength pitch\n"
        f"m_per_axis = {','.join(str(m) for m in _M_AXIS_GRID)}\n"
        "snr_linear = 1000.0\npower_linear = 1000.0\nnoise_vars = 1.0,1.0\n"
        f"quadrature_nodes = {_QUAD_NODES}\n"
    )
    return SweepResult(
        ("M", "C_nf_dd", "C_nf_sd", "C_ff_dd", "C_ff_sd", "C_asym"),
        tuple(rows),
        provenance,
    )


def _preset_mc_vs_r2() -> SweepResult:
    power = 1000.0
    noise = (1.0, 1.0)
    m_axis = 551
    geom = _reference_geometry(m_axis)
    rows = []
    for r2 in _R2_GRID:
        caps = {}
        for tag, same in (("dd", False), ("sd", True)):
            users = _reference_users(same, r2=r2)
            for model in ("NF", "FF"):
                g1, g2, rho = _pair_stats(model, geom, users[0], users[1], _QUAD_NODES)
                caps[f"{model.lower()}_{tag}"] = mc_capacity_two_user(
                    g1, g2, rho, noise[0], noise[1], power
                )
        rows.append(
            (r2, caps["nf_dd"], caps["nf_sd"], caps["ff_dd"], caps["ff_sd"])
        )
    provenance = (
        f"tool = nfcap {__version__}\n"
        "command = reproduce mc-vs-r2\n"
        "preset = mc-vs-r2\n"
        f"array = {m_axis}x{m_axis}, 2.4 GHz, half-wavelength pitch\n"
        f"r2_m = {','.join(repr(r) for r in _R2_GRID)}\n"
        "power_linear = 1000.0\nnoise_vars = 1.0,1.0\n"
        f"quadrature_nodes = {_QUAD_NODES}\n"
    )
    return SweepResult(
        ("r2_m", "C_nf_dd", "C_nf_sd", "C_ff_dd", "C_ff_sd"),
        tuple(rows),
        provenance,
    )


PRESETS: dict[str, Callable[[], SweepResult]] = {
    "mac-vs-M": lambda: _preset_capacity_vs_m("mac"),
    "bc-vs-M": lambda: _preset_capacity_vs_m("bc"),
    "mc-vs-M": lambda: _preset_capacity_vs_m("mc"),
    "mc-vs-r2": _preset_mc_vs_r2,
}


def reproduce(preset: str) -> SweepResult:
    """Rebuild one of the bundled figure-data tables by name."""
    if preset not in PRESETS:
        raise ScenarioError(
            f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return PRESETS[preset]()


# ---------------------------------------------------------------------------
# standalone verification report


@dataclass(frozen=True)
class CheckRow:
    """One closed-form versus oracle comparison in the verify report."""

    name: str
    closed: float
    oracle: float
    tolerance_note: str
    ok: bool

    @property
    def abs_diff(self) -> float:
        return abs(self.closed - self.oracle)


@_nominal_point
def verification_report(scenario: Scenario) -> tuple[list[CheckRow], str]:
    """Cross-check every closed form against its brute-force oracle.

    Exact-vector oracles run on a reduced copy of the scenario's array
    (at most 33 elements per axis) to keep the dense computations
    tractable; the returned header string states the size used. The
    checks cover channel statistics, uplink capacity and corner rates,
    downlink power optimality and duality, and the multicast beam grid.
    """
    m_x = min(scenario.geometry.m_x, 33)
    m_z = min(scenario.geometry.m_z, 33)
    geom = ArrayGeometry(
        m_x=m_x,
        m_z=m_z,
        pitch_d=scenario.geometry.pitch_d,
        wavelength=scenario.geometry.wavelength,
        element_side=scenario.geometry.element_side,
    )
    header = (
        f"exact-vector oracles run at {m_x}x{m_z} elements "
        f"(scenario array {scenario.geometry.m_x}x{scenario.geometry.m_z})"
    )
    model = scenario.channel_model
    u1, u2 = scenario.users[0], scenario.users[1]
    s1, s2 = scenario.mac_cfg.snr_per_user
    bc_cfg = scenario.bc_cfg
    var1, var2 = bc_cfg.noise_var_per_user
    power = bc_cfg.total_power_P
    checks: list[CheckRow] = []

    # channel statistics against per-element scalar sums
    g1_c, g2_c, rho_c = _pair_stats(model, geom, u1, u2, scenario.quadrature_nodes)
    low = model.lower()
    gain_tol = TOL_GAIN_REL if model == "NF" else TOL_FF_STATS_ABS
    for name, closed, user in (("gain user1", g1_c, u1), ("gain user2", g2_c, u2)):
        oracle = gain_sum_oracle(geom, user, model=low)
        rel = abs(closed - oracle) / oracle
        checks.append(
            CheckRow(name, closed, oracle, f"rel <= {gain_tol:g}", rel <= gain_tol)
        )
    rho_o = ccf_sum_oracle(geom, u1, u2, model=low)
    ccf_tol = TOL_CCF_ABS if model == "NF" else TOL_FF_STATS_ABS
    checks.append(
        CheckRow(
            "ccf", rho_c, rho_o, f"abs <= {ccf_tol:g}", abs(rho_c - rho_o) <= ccf_tol
        )
    )

    # uplink: closed formula vs dense log-determinant on exact vectors
    vecs, g1_ex, g2_ex, rho_ex = _exact_pair(model, geom, (u1, u2))
    cap_closed = mac_capacity_two_user(g1_ex, g2_ex, min(rho_ex, 1.0), s1, s2)
    cap_oracle = logdet_capacity_oracle(vecs, [s1, s2])
    checks.append(
        CheckRow(
            "uplink sum capacity",
            cap_closed,
            cap_oracle,
            f"abs <= {TOL_MAC_FORMULA_ABS:g}",
            abs(cap_closed - cap_oracle) <= TOL_MAC_FORMULA_ABS,
        )
    )
    for order, tag in (("u1_first", (0, 1)), ("u2_first", (1, 0))):
        pair = sic_rates_two_user(g1_ex, g2_ex, min(rho_ex, 1.0), s1, s2, order)
        rates_o = sic_rates_oracle(vecs, [s1, s2], tag)
        worst = max(abs(pair.r1 - rates_o[0]), abs(pair.r2 - rates_o[1]))
        checks.append(
            CheckRow(
                f"decode corner {order}",
                pair.r1 + pair.r2,
                sum(rates_o),
                f"per-rate abs <= {TOL_MAC_FORMULA_ABS:g}",
                worst <= TOL_MAC_FORMULA_ABS,
            )
        )

    # downlink: power split optimality and covariance duality
    bc_closed = bc_capacity_two_user(g1_ex, g2_ex, min(rho_ex, 1.0), bc_cfg)
    _finite(("downlink sum capacity",), (bc_closed,))
    bc_grid, _ = bc_power_grid_oracle(
        g1_ex, g2_ex, min(rho_ex, 1.0), bc_cfg, _BC_GRID_POINTS
    )
    checks.append(
        CheckRow(
            "downlink sum capacity",
            bc_closed,
            bc_grid,
            f"closed >= grid - {TOL_BC_GRID_ONESIDED:g}",
            bc_closed >= bc_grid - TOL_BC_GRID_ONESIDED,
        )
    )
    alloc = bc_power_allocation_two_user(g1_ex, g2_ex, min(rho_ex, 1.0), bc_cfg)
    covs = bc_covariance_recovery(vecs[0], vecs[1], alloc, bc_cfg)
    gap = _duality_gap(covs, vecs, alloc, bc_cfg)
    checks.append(
        CheckRow(
            "downlink duality",
            gap,
            0.0,
            f"abs <= {TOL_BC_DUALITY_ABS:g}",
            gap <= TOL_BC_DUALITY_ABS,
        )
    )
    trace_err = abs(covs.total_power - alloc.total)
    checks.append(
        CheckRow(
            "downlink covariance power",
            covs.total_power,
            alloc.total,
            "abs <= 1e-6 * P",
            trace_err <= 1e-6 * power,
        )
    )

    # multicast: beam grid from below, averaging bound from above
    mc_closed = mc_capacity_two_user(
        g1_ex, g2_ex, min(rho_ex, 1.0), var1, var2, power
    )
    mc_grid, _ = mc_beam_grid_oracle(
        vecs[0], vecs[1], (var1, var2), power, _MC_GRID_SPEC
    )
    bound = mc_upper_bound((g1_ex, g2_ex), (var1, var2), power)
    checks.append(
        CheckRow(
            "multicast capacity",
            mc_closed,
            mc_grid,
            f"closed >= grid - {TOL_MC_GRID_ONESIDED:g}",
            mc_closed >= mc_grid - TOL_MC_GRID_ONESIDED
            and mc_closed <= bound + 1e-12,
        )
    )
    return checks, header
