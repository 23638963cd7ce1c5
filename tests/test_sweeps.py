"""Experiment runners: result container invariants, CSV emission with
provenance sidecars, the per-target runners with and without
verification, sweep application, presets, and the verification report.
"""

import importlib
import math
import re
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MC_BLIND_SPOT_INI, synth_pair
from nfcap import stats, sweeps
from nfcap.cli import main
from nfcap.config import ScenarioError, default_scenario, load_scenario
from nfcap.geometry import ArrayGeometry, UserLocation, nf_channel_vector
from nfcap.oracles import logdet_capacity_oracle
from nfcap.stats import ccf_exact, nf_ccf_quadrature
from nfcap.sweeps import (
    PRESETS,
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

G1_REF = 0.003140814135542447
G2_REF = 0.012552999941342702
# Capacities of the default scenario (65x65, reference users, closed-form
# gains, exact element-sum correlation)
C_MAC_REF = 5.81045473235
C_BC_REF = 4.26793284373
C_MC_REF = 1.81254689932


def _exact_ccf(scn):
    "ccf_exact of the scenario's two NF channel vectors."
    h1, h2 = (nf_channel_vector(scn.geometry, u) for u in scn.users)
    return ccf_exact(h1, h2)


def _scenario(tmp_path, body):
    path = tmp_path / "scn.ini"
    path.write_text(body)
    return load_scenario(str(path))


def test_result_container_validation():
    ok = SweepResult(
        columns=("x", "y"), table=np.array([(1.0, 2.0), (3.0, 4.0)]), provenance="p"
    )
    assert ok.column("y").tolist() == [2.0, 4.0]
    assert not ok.table.flags.writeable
    with pytest.raises(ValueError):
        ok.column("z")
    with pytest.raises(ValueError):
        SweepResult(columns=(), table=np.empty((0, 0)), provenance="p")
    with pytest.raises(ValueError):
        SweepResult(columns=("x",), table=np.array([(1.0, 2.0)]), provenance="p")
    with pytest.raises(ValueError):
        SweepResult(columns=("x",), table=np.array([(2.0,), (1.0,)]), provenance="p")


def test_emit_csv_writes_data_and_sidecar(tmp_path):
    res = SweepResult(
        columns=("a", "b"),
        table=np.array([(1.0, 0.5), (2.0, 0.25)]),
        provenance="tool = test\n",
    )
    out = tmp_path / "res.csv"
    emit_csv(res, str(out))
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "a,b"
    assert len(lines) == 3
    assert text.endswith("\n")
    assert (tmp_path / "res.csv.provenance.txt").read_text() == "tool = test\n"
    empty = SweepResult(columns=("a",), table=np.empty((0, 1)), provenance="p\n")
    emit_csv(empty, str(tmp_path / "empty.csv"))
    assert (tmp_path / "empty.csv").read_text() == "a\n"


def test_csv_text_formats_each_value_as_format_e11():
    """Each CSV field is format(v, ".11e"): signed zero, the smallest
    subnormal, the largest double, numpy scalars and integral floats."""
    rows = (
        (-0.0, 5e-324, 1.7976931348623157e308, np.float64(0.1), 3.0),
        (np.float64(2.0), -7.0, 1e22, np.float64(-2.5e-300), 5.96759163094e-09),
    )
    res = SweepResult(columns=("a", "b", "c", "d", "e"), table=np.array(rows), provenance="p")
    expected = ["a,b,c,d,e"] + [",".join(format(v, ".11e") for v in row) for row in rows]
    assert csv_text(res) == "\n".join(expected) + "\n"
    assert csv_text(res).splitlines()[1].startswith("-0.00000000000e+00,4.94065645841e-324,")


def _percent_csv(result):
    "The table as one % line per row writes it: the reference of csv_text."
    row_format = ",".join(["%.11e"] * len(result.columns))
    lines = [",".join(result.columns)]
    lines += [row_format % tuple(row) for row in result.rows]
    return "\n".join(lines) + "\n"


def _csv_table(values, width):
    """A SweepResult of ``values`` in rows of ``width``, the last padded
    with 1.0, ordered by the first column with nan last."""
    values = [float(v) for v in values] + [1.0] * (-len(values) % width)
    rows = [tuple(values[i:i + width]) for i in range(0, len(values), width)]
    rows.sort(key=lambda row: (math.isnan(row[0]), row[0]))
    return SweepResult(tuple(f"c{k}" for k in range(width)),
                       np.array(rows).reshape(-1, width), "p")


def _around(values):
    "Each of ``values`` with the doubles on either side of it."
    values = np.array(values)
    with np.errstate(over="ignore"):
        return np.concatenate([values, np.nextafter(values, np.inf),
                               np.nextafter(values, -np.inf)])


_POWERS_OF_TEN = [float(f"1e{k}") for k in range(-330, 310)]
_CSV_FIXED = {
    "zeros and subnormals": [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308,
                             2.2250738585072014e-308],
    "nan and inf": [math.nan, math.inf, -math.inf, -math.nan],
    "exponent of 100 or more": _around([1e-99, 1e99, 1e100, 1e-100, 9.99999999999e99,
                                        -1e150, 1.7976931348623157e308, 1e-300]),
    "powers of ten": _around(_POWERS_OF_TEN),
    "9.999999999995e k": _around([float(f"9.999999999995e{k}") for k in range(-110, 111)]),
    # the nearest doubles to 12-digit ties, where 10^(e - 11) is inexact
    "ties": _around([float(f"{10**11 + 7919 * i}5e{i % 190 - 110}") for i in range(2000)]),
}
# the same ties one to a row among plain values, each written into its own field
_CSV_FIXED["ties in plain rows"] = [
    v for k, tie in enumerate(_CSV_FIXED["ties"]) for v in (tie, 1.5 + k, 2.0 ** -(k % 300))]


@pytest.mark.parametrize("width", [1, 13])
@pytest.mark.parametrize("name", list(_CSV_FIXED))
def test_csv_text_matches_percent_on_fixed_values(name, width):
    table = _csv_table(_CSV_FIXED[name], width)
    assert csv_text(table) == _percent_csv(table)


@pytest.mark.parametrize("rows", [0, 1])
def test_csv_text_matches_percent_on_empty_and_single_rows(rows):
    table = _csv_table([2.5, -0.0, math.nan, 1e-5, 7.0][:5 * rows], 5)
    assert csv_text(table) == _percent_csv(table)


_BIT_PATTERNS = st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64)))
_LOG_UNIFORM = st.floats(-323.0, 308.0).map(lambda x: 10.0**x)
_TIES = st.builds(lambda m, k: float(f"{m}5e{k}"),
                  st.integers(10**11, 10**12 - 1), st.integers(-120, 100))
_CSV_TABLES = st.integers(1, 13).flatmap(lambda width: st.lists(
    st.one_of(_BIT_PATTERNS, _LOG_UNIFORM, _TIES), max_size=12 * width,
).map(lambda values: _csv_table(values, width)))
# plain rows only: ties and magnitudes from 1e-99 to 1e99
_PLAIN_TABLES = st.integers(1, 13).flatmap(lambda width: st.lists(
    st.one_of(st.floats(-99.0, 98.9).map(lambda x: 10.0**x), _TIES.filter(
        lambda v: 1e-99 <= v < 1e99)), max_size=12 * width,
).map(lambda values: _csv_table(values, width)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_CSV_TABLES)
def test_csv_text_matches_percent_on_drawn_tables(table):
    """Rows of raw bit patterns, log-uniform magnitudes and the nearest
    doubles to 12-digit ties, 1 to 13 values wide."""
    assert csv_text(table) == _percent_csv(table)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_PLAIN_TABLES)
def test_csv_text_matches_percent_on_drawn_plain_rows_with_ties(table):
    """Rows that take the numpy path, each tie in its own ``%`` field."""
    assert csv_text(table) == _percent_csv(table)


def test_csv_text_needs_its_tie_slack(monkeypatch):
    """Negative control: with no slack about a tie, the numpy path rounds
    some of the fixed ties the wrong way."""
    monkeypatch.setattr(sweeps, "_TIE_SLACK", 0.0)
    table = _csv_table(_CSV_FIXED["ties"], 1)
    wrong = [(a, b) for a, b in zip(csv_text(table).splitlines(),
                                     _percent_csv(table).splitlines()) if a != b]
    assert wrong


def test_channel_point_reproduces_reference_stats():
    scn = default_scenario()
    res = run_channel(scn)
    assert res.rows and len(res.rows) == 1
    row = dict(zip(res.columns, res.rows[0]))
    assert row["g1"] == pytest.approx(G1_REF, rel=1e-9)
    assert row["g2"] == pytest.approx(G2_REF, rel=1e-9)
    assert row["ccf"] == pytest.approx(_exact_ccf(scn), rel=1e-10)
    assert res.violations == ()
    assert "verify" not in ",".join(res.columns)


def test_channel_verify_small_array(tmp_path):
    scn = _scenario(tmp_path, "[array]\nm_per_axis = 33\n")
    res = run_channel(scn, verify=True)
    row = dict(zip(res.columns, res.rows[0]))
    assert row["verify_ok"] == 1.0
    assert res.violations == ()
    assert "verify = on" in res.provenance


def test_verify_size_guard(tmp_path):
    scn = _scenario(tmp_path, "[array]\nm_per_axis = 67\n")
    with pytest.raises(ScenarioError, match="verif"):
        run_channel(scn, verify=True)
    assert run_channel(scn).violations == ()


def test_mac_point_capacity_and_corners():
    scn = default_scenario()
    res = run_mac(scn)
    row = dict(zip(res.columns, res.rows[0]))
    assert row["c_mac"] == pytest.approx(C_MAC_REF, abs=1e-9)
    # the reference value is the dense log-det capacity of a channel pair
    # with the closed-form gains and the exact correlation
    pair = synth_pair(row["g1"], row["g2"], _exact_ccf(scn))
    oracle = logdet_capacity_oracle(pair, list(scn.mac_cfg.snr_per_user))
    assert C_MAC_REF == pytest.approx(oracle, abs=sweeps.TOL_MAC_FORMULA_ABS)
    assert row["r1_u1_first"] + row["r2_u1_first"] == pytest.approx(
        row["c_mac"], abs=1e-9
    )
    assert row["r1_u2_first"] + row["r2_u2_first"] == pytest.approx(
        row["c_mac"], abs=1e-9
    )
    assert row["c_mac"] >= row["r_opt"] >= row["r_mrc"] - 1e-12
    assert row["c_asym"] == pytest.approx(14.64664903308479, rel=1e-12)


def test_bc_point_power_split_and_precoders():
    res = run_bc(default_scenario())
    row = dict(zip(res.columns, res.rows[0]))
    assert row["c_bc"] == pytest.approx(C_BC_REF, abs=1e-9)
    assert row["p1"] + row["p2"] == pytest.approx(1000.0, rel=1e-12)
    for key in ("gamma_dl_mrt", "gamma_dl_zf"):
        assert 0.9 < row[key] <= 1.0
    assert row["c_asym"] == pytest.approx(12.664609261026872, rel=1e-12)


def test_mc_point_stays_below_bound():
    res = run_mc(default_scenario())
    row = dict(zip(res.columns, res.rows[0]))
    assert row["c_mc"] == pytest.approx(C_MC_REF, abs=1e-9)
    assert row["c_mc"] <= row["c_bound"] + 1e-12
    assert row["c_asym"] == pytest.approx(6.332304630513436, rel=1e-12)


def test_bc_and_mc_verify_small_array(tmp_path):
    scn = _scenario(tmp_path, "[array]\nm_per_axis = 25\n")
    bc = run_bc(scn, verify=True)
    bc_row = dict(zip(bc.columns, bc.rows[0]))
    assert bc.violations == ()
    assert bc_row["duality_gap"] < 1e-9
    mc = run_mc(scn, verify=True)
    assert mc.violations == ()


def test_region_runner_modes():
    scn = default_scenario()
    mac = run_region(scn, mode="mac")
    assert mac.columns == ("vertex", "r1", "r2")
    assert mac.rows[0][1:] == (0.0, 0.0)
    bc = run_region(scn, mode="bc")
    r1_bc = bc.column("r1")
    assert max(r1_bc) > 0.0
    with pytest.raises(ScenarioError, match="mode"):
        run_region(scn, mode="mc")


def test_region_bc_takes_the_statistics_that_bc_prints():
    "The r1-axis vertex of the downlink region is log2(1 + P g1 / var1)."
    scn = default_scenario()
    g1 = run_bc(scn).column("g1")[0]
    vertex = run_region(scn, mode="bc").rows[1]
    cfg = scn.bc_cfg
    expected = math.log2(1.0 + cfg.total_power_P * g1 / cfg.noise_var_per_user[0])
    assert vertex[1:] == (pytest.approx(expected, abs=1e-12), 0.0)


def test_region_provenance_describes_the_point_it_computes(tmp_path):
    """region runs at the scenario's own array and ignores its [sweep]
    section, so its provenance neither echoes the sweep nor describes
    the correlation at the swept sizes."""
    scn = _scenario(
        tmp_path, "[sweep]\nvariable = m_per_axis\nvalues = 3 551\ntarget = mc\n"
    )
    text = run_region(scn).provenance
    assert "sweep." not in text
    assert text.endswith("ccf = element sum, since m_x*m_z <= T^2 = 40000\n")
    assert text == run_region(replace(scn, sweep=None)).provenance


def test_sweep_over_array_size(tmp_path):
    scn = _scenario(
        tmp_path,
        "[sweep]\nvariable = m_per_axis\nvalues = 9 33\ntarget = mac\n",
    )
    res = run_sweep(scn)
    assert res.column("m_per_axis").tolist() == [9.0, 33.0]
    caps = res.column("c_mac")
    assert caps[1] > caps[0]
    gains = res.column("g1")
    assert gains[1] > gains[0]


def test_sweep_target_dispatch(tmp_path):
    scn = _scenario(
        tmp_path,
        "[sweep]\nvariable = snr_db\nvalues = 0 30\ntarget = channel\n",
    )
    res = run_sweep(scn)
    assert res.column("snr_db").tolist() == [0.0, 30.0]
    g1 = res.column("g1")
    assert g1[0] == pytest.approx(g1[1], rel=1e-15)


def test_sweep_bad_point_wraps_scenario_error(tmp_path):
    scn = _scenario(
        tmp_path,
        "[sweep]\nvariable = r2_m\nvalues = 0.0 5.0\ntarget = channel\n",
    )
    with pytest.raises(ScenarioError, match="sweep point"):
        run_sweep(scn)


def test_reproduce_rejects_unknown_preset():
    with pytest.raises(ScenarioError, match="preset"):
        reproduce("capacity-vs-frequency")
    assert set(PRESETS) == {"mac-vs-M", "bc-vs-M", "mc-vs-M", "mc-vs-r2"}


def test_verification_report_reference_scenario(tmp_path):
    scn = _scenario(tmp_path, "[array]\nm_per_axis = 21\n")
    rows, header = verification_report(scn)
    assert "21x21" in header
    assert len(rows) == 11
    for row in rows:
        assert row.ok, f"{row.name}: {row.closed} vs {row.oracle}"
        assert row.abs_diff == abs(row.closed - row.oracle)
    names = [row.name for row in rows]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize(
    ("body", "ccf_note"),
    [
        ("", "relative plus rounding"),
        # 21^2 = 441 elements > 20^2: the sweeps take the rule
        ("[link]\nquadrature_nodes = 20\n", "abs <= 0.001"),
        ("[link]\nmodel = FF\n", "abs <= 1e-09"),
    ],
)
def test_verification_report_checks_the_rule_and_the_sweeps_ccf(
    tmp_path, body, ccf_note
):
    scn = _scenario(tmp_path, "[array]\nm_per_axis = 21\n" + body)
    rows = {row.name: row for row in verification_report(scn)[0]}
    assert ccf_note in rows["ccf"].tolerance_note
    rule = rows[f"ccf quadrature T={scn.quadrature_nodes}"]
    u1, u2 = scn.users
    geom = ArrayGeometry.from_frequency(m_x=21, m_z=21, frequency_hz=2.4e9)
    assert rule.closed == nf_ccf_quadrature(geom, u1, u2, scn.quadrature_nodes).value
    assert rule.tolerance_note == "abs <= 0.001"


def test_verification_report_drops_the_rule_for_users_beyond_the_nf_range(
    tmp_path, capsys
):
    "An FF user at 1e50 m: no NF quadrature runs on it, so numpy warns of nothing."
    path = tmp_path / "far.ini"
    path.write_text("[link]\nmodel = ff\n[user1]\nrange_m = 1e50\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, header = verification_report(load_scenario(str(path)))
        assert main(["verify", "--config", str(path)]) == 0
    assert all(row.ok for row in rows)
    assert header.splitlines()[1].startswith(
        "no ccf quadrature T=200 check: [user1] range_m = 1e+50 is beyond the NF model's"
    )
    assert len(rows) == 10
    assert not any(row.name.startswith("ccf quadrature") for row in rows)
    out = capsys.readouterr().out
    assert header in out
    assert "ccf quadrature T=200:" not in out


def test_verification_report_caps_exact_size():
    "The default scenario's 65 x 65 array is checked as it is, not cut down."
    rows, header = verification_report(default_scenario())
    sizes = re.findall(r"(\d+)x(\d+)", header.splitlines()[0])
    assert sizes and set(sizes) == {("65", "65")}
    assert all(row.ok for row in rows)


def test_verification_report_cuts_larger_arrays_to_the_verify_limit(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(sweeps, "VERIFY_MAX_AXIS", 9)
    rows, header = verification_report(_scenario(tmp_path, "[array]\nm_per_axis = 11\n"))
    assert header.splitlines()[0] == (
        "exact-vector oracles run at 9x9 elements (scenario array 11x11)"
    )
    assert all(row.ok for row in rows)


PRESET_DATA = Path(__file__).parent / "data" / "presets"


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_matches_stored_table(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    emit_csv(reproduce(name), str(out))
    assert out.read_bytes() == (PRESET_DATA / f"{name}.csv").read_bytes()


@pytest.fixture
def quadrature_calls(monkeypatch):
    """One entry per NF correlation the runners compute, each in an
    nf_ccf_batch call: the path ("nf_ccf_elements" for the element sum,
    "nf_ccf_quadrature" for the rule) and the pair, a second user with
    an array of ranges once per range."""
    calls = []
    batch = sweeps.nf_ccf_batch

    def recording(geom, u1, seconds, nodes_T=None):
        path = "nf_ccf_elements" if nodes_T is None else "nf_ccf_quadrature"
        calls.extend((path, geom, u1, replace(u2, range_r=r))
                     for u2 in seconds for r in np.ravel(u2.range_r).tolist())
        return batch(geom, u1, seconds, nodes_T)

    monkeypatch.setattr(sweeps, "nf_ccf_batch", recording)
    return calls


@pytest.mark.parametrize(
    ("variable", "runner"),
    [("snr_db", run_mac), ("power_db", run_bc), ("power_db", run_mc)],
)
def test_link_budget_sweep_evaluates_its_channel_once(
    tmp_path, quadrature_calls, variable, runner
):
    values = [0.5 * k for k in range(50)]
    text = " ".join(repr(v) for v in values)
    target = runner.__name__.removeprefix("run_")
    swept = runner(_scenario(
        tmp_path, f"[sweep]\nvariable = {variable}\nvalues = {text}\ntarget = {target}\n"
    ))
    assert len(quadrature_calls) == 1
    assert swept.column(variable).tolist() == values
    for value, row in zip(values, swept.rows):
        single = runner(_scenario(tmp_path, f"[link]\n{variable} = {value!r}\n"))
        assert row[1:] == single.rows[0][1:]
    assert len(quadrature_calls) == 1 + len(values)


# per target: the swept variable, the section and key that set it at
# one point, and two points; each scenario is NF or FF on a 9 x 9 array
_VERIFY_SWEEPS = {
    "channel": ("r2_m", ("user2", "range_m"), (4.0, 7.0)),
    "mac": ("snr_db", ("link", "snr_db"), (0.0, 20.0)),
    "bc": ("power_db", ("link", "power_db"), (10.0, 30.0)),
    "mc": ("m_per_axis", ("array", "m_per_axis"), (5, 9)),
}


_RUNNERS = {"channel": run_channel, "mac": run_mac, "bc": run_bc, "mc": run_mc}


def _ini(sections):
    "INI text of {section: {key: value}}."
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


@pytest.mark.parametrize("model", ["nf", "ff"])
@pytest.mark.parametrize("target", list(_VERIFY_SWEEPS))
def test_verified_sweep_rows_are_the_verified_points(tmp_path, target, model):
    """Each row of a --verify sweep, its oracle columns and verify_ok
    included, is the verified row of its point alone; ``rows`` is the
    table as tuples of Python floats."""
    variable, (section, key), values = _VERIFY_SWEEPS[target]
    base = {"array": {"m_per_axis": 9}, "link": {"model": model}}
    swept = run_sweep(_scenario(tmp_path, _ini({**base, "sweep": {
        "variable": variable, "values": " ".join(map(str, values)), "target": target}})),
        verify=True)
    assert swept.columns[-1] == "verify_ok"
    assert swept.table.dtype == np.float64
    assert swept.table.shape == (len(values), len(swept.columns))
    assert swept.rows == tuple(tuple(row) for row in swept.table.tolist())
    assert all(type(v) is float for row in swept.rows for v in row)
    for value, row in zip(values, swept.rows):
        point = {**base, section: {**base.get(section, {}), key: value}}
        single = _RUNNERS[target](_scenario(tmp_path, _ini(point)), verify=True)
        assert single.columns[1:] == swept.columns[1:]
        assert row[0] == value
        assert row[1:] == single.rows[0][1:]


def test_range_sweep_evaluates_every_channel(tmp_path, quadrature_calls):
    res = run_mc(_scenario(
        tmp_path, "[sweep]\nvariable = r2_m\nvalues = 2 4 6 8 10\ntarget = mc\n"
    ))
    assert len(res.rows) == 5
    assert len(quadrature_calls) == 5


def test_runner_calls_share_no_channel_statistics(quadrature_calls):
    scn = default_scenario()
    first = run_mac(scn)
    second = run_mac(scn)
    assert len(quadrature_calls) == 2
    assert first.rows == second.rows


@pytest.mark.parametrize(
    ("m_x", "m_z", "nodes", "path"),
    [
        (9, 9, 9, "nf_ccf_elements"),
        (1, 81, 9, "nf_ccf_elements"),
        # arrays have odd axes, so 83 elements is the next size past 9^2
        (1, 83, 9, "nf_ccf_quadrature"),
        (65, 65, 65, "nf_ccf_elements"),
        (65, 65, 64, "nf_ccf_quadrature"),
    ],
)
def test_nf_correlation_path_switches_past_t_squared(
    quadrature_calls, user1, user2_dd, m_x, m_z, nodes, path
):
    "The element sum while m_x*m_z <= T^2, the T x T rule one size past it."
    geom = ArrayGeometry.from_frequency(m_x=m_x, m_z=m_z, frequency_hz=2.4e9)
    run_channel(replace(default_scenario(), geometry=geom, users=(user1, user2_dd),
                        quadrature_nodes=nodes))
    assert [call[0] for call in quadrature_calls] == [path]


@pytest.fixture
def batches(monkeypatch):
    """The number of channels of each batch of NF correlations the
    runners compute, in turn: a second user with an array of ranges
    counts once per range."""
    sizes = []
    batch = sweeps.nf_ccf_batch

    def recording(geom, u1, seconds, nodes_T=None):
        sizes.append(sum(np.size(u2.range_r) for u2 in seconds))
        return batch(geom, u1, seconds, nodes_T)

    monkeypatch.setattr(sweeps, "nf_ccf_batch", recording)
    return sizes


def _per_pair(monkeypatch):
    """Make the runners compute every NF correlation alone, one pair to a
    call of the stats module's nf_ccf_batch, past any recording: a
    second user with an array of ranges is one user per range."""
    batch = stats.nf_ccf_batch
    monkeypatch.setattr(sweeps, "nf_ccf_batch", lambda geom, u1, seconds, nodes_T=None: [
        batch(geom, u1, [replace(u2, range_r=r)], nodes_T)[0]
        for u2 in seconds for r in np.ravel(u2.range_r).tolist()])


# 129^2 = 16641 elements: the element sum takes two kernel blocks
R2_SWEEP_129 = "[array]\nm_per_axis = 129\n[sweep]\nvariable = r2_m\nvalues = {}\ntarget = mc\n"


def test_batched_statistics_are_the_per_pair_bits(tmp_path, monkeypatch, batches):
    """Two r2 sweeps at 129 x 129 (element sum), each with a repeated
    point, user 2 in its own direction and in user 1's, through r2 = r1,
    and mc-vs-r2 (the T x T rule at 551 x 551), print the same rows as
    each pair alone. A sweep's batch holds its distinct ranges."""
    scenarios = [_scenario(tmp_path, R2_SWEEP_129.format("2 3 4 4 5 6")),
                 _scenario(tmp_path, "[user2]\ndirection = same\n"
                           + R2_SWEEP_129.format("5 10 10 12"))]

    def rows():
        return [run_mc(scn).rows for scn in scenarios], reproduce("mc-vs-r2").rows

    batched = rows()
    assert batched[0][1][1][3] == 1.0  # the co-located point
    # the sweeps, then the preset's two NF runs in one call; its FF runs take none
    assert batches == [5, 3, 120]
    _per_pair(monkeypatch)
    assert rows() == batched
    assert batches == [5, 3, 120]


def test_m_preset_takes_one_batch_of_both_pairs_per_array_size(batches):
    "mac-vs-M computes its dd and sd NF correlations in one call per array size."
    reproduce("mac-vs-M")
    assert batches == [2] * len(PRESETS["mac-vs-M"][2])


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_is_its_runs_alone_with_every_pair_alone(monkeypatch, name):
    """Each preset prints, column by column, the capacities of its four
    runs, each run alone (one pair to a ``_stats`` call) and every NF pair
    alone (one pair to a kernel call)."""
    batched = reproduce(name)
    _per_pair(monkeypatch)
    kind = PRESETS[name][0]
    for label, scenario in sweeps._preset_scenarios(name)[1].items():
        alone = sweeps._run(scenario, False, kind)
        assert batched.column(label).tolist() == alone.column(f"c_{kind}").tolist()
        if label == "C_nf_dd" and "C_asym" in batched.columns:
            assert batched.column("C_asym").tolist() == alone.column("c_asym").tolist()
    assert reproduce(name).rows == batched.rows


def test_range_sweep_is_one_batch_with_no_user_a_point(tmp_path, monkeypatch, batches):
    """A 200-point NF r2 sweep at 65 x 65 makes one nf_ccf_batch call
    of its 200 channels and builds two UserLocations, not one a point:
    user 2 at the sweep's ranges, then at its distinct ranges."""
    values = " ".join(repr(v) for v in np.linspace(2.0, 20.0, 200).tolist())
    scn = _scenario(tmp_path, f"[sweep]\nvariable = r2_m\nvalues = {values}\ntarget = mc\n")
    built = []
    init = UserLocation.__post_init__

    def counted(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(UserLocation, "__post_init__", counted)
    assert len(run_mc(scn).rows) == 200
    assert batches == [200]
    assert len(built) == 2


@pytest.mark.parametrize(
    ("values", "point", "batched"),
    [
        # refused by the NF range guard before any sum runs, so each
        # point before it is then run alone
        pytest.param("2 4 1e300 1e301", "r2_m=1e+300", [1, 1], id="2 4 1e300 1e301-r2_m=1e+300"),
        # refused when the point is applied, after the three before it
        # were run alone
        pytest.param("2 4 6 inf", "r2_m=inf", [1, 1, 1], id="2 4 6 inf-r2_m=inf"),
        # the range guard refuses 1e300 alone before inf, which cannot
        # be applied, is reached
        pytest.param("2 1e300 inf", "r2_m=1e+300", [1], id="2 1e300 inf-r2_m=1e+300"),
    ],
)
def test_refused_sweep_point_is_named_at_its_own_point(
    tmp_path, monkeypatch, batches, values, point, batched
):
    scn = _scenario(tmp_path, R2_SWEEP_129.format(values))
    messages = []
    for per_pair in (False, True):
        if per_pair:
            _per_pair(monkeypatch)
        with pytest.raises(ScenarioError) as info:
            run_mc(scn)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"at sweep point {point}: ")
    assert batches == batched


def test_nf_range_refusal_of_arrays_names_the_first_refused_point():
    """On an array of ranges or of sizes the refusal is that of the first
    point refused, as the point alone gives it, with user 1 named first."""
    scn = default_scenario()
    geom, (u1, u2) = scn.geometry, scn.users
    refusal = sweeps._nf_range_refusal
    alone = refusal(geom, (u1, replace(u2, range_r=1e300)))
    assert alone.startswith("[user2] range_m = 1e+300 ")
    ranges = replace(u2, range_r=np.array([2.0, 1e300, 5.0, 1e301]))
    assert refusal(geom, (u1, ranges)) == alone
    far = replace(u1, range_r=1e300)
    sides = np.array([5.0, 3.0, 7.0])
    alone = refusal(replace(geom, m_x=5, m_z=5), (far, replace(u2, range_r=1e301)))
    assert alone.startswith("[user1] range_m = 1e+300 ") and " on 5x5 elements" in alone
    assert refusal(replace(geom, m_x=sides, m_z=sides), (far, replace(u2, range_r=1e301))) == alone
    assert refusal(geom, (u1, replace(u2, range_r=np.array([2.0, 5.0])))) == ""


def test_ff_runs_take_no_batch_and_single_channel_commands_a_batch_of_one(
    tmp_path, batches
):
    big = "[array]\nm_per_axis = 129\n"
    run_mc(_scenario(tmp_path, "[link]\nmodel = ff\n" + R2_SWEEP_129.format("2 3 4")))
    for variable, target in (("snr_db", "mac"), ("power_db", "bc")):
        run_sweep(_scenario(
            tmp_path, big + f"[sweep]\nvariable = {variable}\nvalues = 0 10 20\ntarget = {target}\n"
        ))
    run_mc(_scenario(tmp_path, big))
    run_channel(default_scenario(), verify=True)
    assert batches == [1, 1, 1, 1]


def test_runner_past_t_squared_prints_the_rule_bit_for_bit(tmp_path):
    scn = _scenario(tmp_path, "[array]\nm_per_axis = 201\n")
    res = run_channel(scn)
    u1, u2 = scn.users
    assert res.rows[0][3] == nf_ccf_quadrature(scn.geometry, u1, u2, 200).value
    assert "ccf = 200 x 200 Chebyshev-Gauss rule" in res.provenance


def test_provenance_names_the_correlation_path(tmp_path):
    assert "ccf = element sum, since m_x*m_z <= T^2 = 40000\n" in (
        run_mac(default_scenario()).provenance
    )
    swept = run_sweep(_scenario(
        tmp_path, "[sweep]\nvariable = m_per_axis\nvalues = 9 201\ntarget = mac\n"
    ))
    assert swept.provenance.endswith(
        "ccf = element sum where m_x*m_z <= T^2 = 40000, "
        "else the 200 x 200 Chebyshev-Gauss rule\n"
    )
    ff = _scenario(tmp_path, "[link]\nmodel = FF\n")
    assert "ccf = far-field closed form\n" in run_mac(ff).provenance


def test_channel_verify_gates_the_element_sum_correlation(tmp_path, monkeypatch, capsys):
    """A correlation 1e-6 relative off the element sum fails channel
    --verify, at one point or over an r2 sweep."""
    batch = sweeps.nf_ccf_batch

    def off(*args):
        return [est._replace(value=est.value * (1 + 1e-6)) for est in batch(*args)]

    path = tmp_path / "scn.ini"
    for sweep, points in (("", 1), ("[sweep]\nvariable = r2_m\nvalues = 4 5\n", 2)):
        path.write_text("[array]\nm_per_axis = 21\n" + sweep)
        with monkeypatch.context() as patch:
            patch.setattr(sweeps, "nf_ccf_batch", off)
            res = run_channel(load_scenario(str(path)), verify=True)
            assert main(["channel", "--verify", "--config", str(path)]) == 3
        assert res.column("verify_ok").tolist() == [0.0] * points
        assert len(res.violations) == points
        assert all("ccf: closed" in v and "relative plus rounding" in v
                   for v in res.violations)
        assert f"verification found {points} violation(s)" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["nf", "ff"])
def test_every_check_of_a_point_reads_one_exact_pair(tmp_path, monkeypatch, model):
    """channel, mac, bc and mc --verify and verify evaluate
    ``pair_sum_oracle`` once per point, and no check builds a channel
    vector or a Gram matrix of its own."""
    calls = []
    pair = sweeps.pair_sum_oracle

    def counted(*args):
        calls.append(args)
        return pair(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("a check built its own channel vectors or Gram matrix")

    monkeypatch.setattr(sweeps, "pair_sum_oracle", counted)
    for name in ("nf_channel_vector", "ff_channel_vector", "gram_matrix", "gram_stats"):
        monkeypatch.setattr(sweeps, name, refuse, raising=False)
    path = tmp_path / "scn.ini"
    for sweep, points in (("", 1), ("[sweep]\nvariable = r2_m\nvalues = 4 5 6\n", 3)):
        path.write_text(f"[array]\nm_per_axis = 9\n[link]\nmodel = {model}\n" + sweep)
        for command in ("channel", "mac", "bc", "mc"):
            calls.clear()
            out = tmp_path / f"{command}.csv"
            assert main([command, "--verify", "--config", str(path), "--out", str(out)]) == 0
            assert len(calls) == points, command
    path.write_text(f"[array]\nm_per_axis = 9\n[link]\nmodel = {model}\n")
    calls.clear()
    assert main(["verify", "--config", str(path)]) == 0
    assert len(calls) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("range_m", [1e78, 1e90, 1e102])
def test_ff_verify_holds_up_to_the_ff_range_limit(tmp_path, capsys, range_m):
    """Both users of a 9 x 9 FF scenario at ``range_m``, up to the
    largest FF range accepted: each gain is below 1e-150, so |h1^H h2|^2
    and g1 g2 fall below the smallest normal double, yet every --verify
    and verify passes, with no warning."""
    path = tmp_path / "far.ini"
    path.write_text(f"[array]\nm_per_axis = 9\n[link]\nmodel = ff\n"
                    f"[user1]\nrange_m = {range_m!r}\n[user2]\nrange_m = {range_m!r}\n")
    for command in ("channel", "mac", "bc", "mc"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--verify", "--config", str(path), "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert float(row.split(",")[header.split(",").index("verify_ok")]) == 1.0
    assert main(["verify", "--config", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_mc_verify_fails_a_capacity_that_overstates(tmp_path, monkeypatch):
    "A multicast capacity 1e-6 bits too high fails mc --verify and verify."
    exact = sweeps.mc_capacity_two_user
    monkeypatch.setattr(sweeps, "mc_capacity_two_user", lambda *a: exact(*a) + 1e-6)
    scn = _scenario(tmp_path, "[array]\nm_per_axis = 21\n")
    res = run_mc(scn, verify=True)
    assert len(res.violations) == 1
    assert "multicast capacity: closed" in res.violations[0]
    failed = [row.name for row in verification_report(scn)[0] if not row.ok]
    assert failed == ["multicast capacity"]


def test_mc_verify_meets_the_capacity_a_beam_grid_misses(capsys):
    """On this scenario the best beam of a 400 x 400 x 64 grid lies
    2.9e-3 bits below the capacity. The oracle meets the closed form on
    the exact statistics within 1e-9 bits. The printed c_mc takes the
    closed-form gains, 4.9e-8 bits from it here."""
    scn = load_scenario(str(MC_BLIND_SPOT_INI))
    res = run_mc(scn, verify=True)
    row = dict(zip(res.columns, res.rows[0]))
    (check,) = [c for c in verification_report(scn)[0] if c.name == "multicast capacity"]
    assert check.ok and check.abs_diff <= 1e-9
    assert row["c_oracle"] == check.oracle
    assert abs(row["c_mc"] - row["c_oracle"]) <= 1e-7
    assert main(["mc", "--verify", "--config", str(MC_BLIND_SPOT_INI)]) == 0


def test_verify_columns_are_the_report_oracles(tmp_path):
    "At 21 x 21 the report runs at the scenario's size, on the same checks."
    scn = _scenario(tmp_path, "[array]\nm_per_axis = 21\n")
    report = {row.name: row.oracle for row in verification_report(scn)[0]}

    def oracles(runner):
        res = runner(scn, verify=True)
        return dict(zip(res.columns, res.rows[0]))

    channel = oracles(run_channel)
    assert channel["g1_oracle"] == report["gain user1"]
    assert channel["g2_oracle"] == report["gain user2"]
    assert channel["ccf_oracle"] == report["ccf"]
    assert oracles(run_mac)["c_oracle"] == report["uplink sum capacity"]
    assert oracles(run_mc)["c_oracle"] == report["multicast capacity"]


def test_every_traced_name_resolves():
    "The benchmark's tracer replaces these attributes; each must exist."
    perfbench = Path(__file__).parent.parent / "perfbench"
    sys.path.insert(0, str(perfbench))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(perfbench))
    for module, attr, _ in spans.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


@pytest.mark.parametrize("preset", ["mac-vs-M", "mc-vs-r2"])
def test_uplink_and_downlink_never_exceed_their_limit(preset):
    """On every run of the presets' scenarios (the -vs-M sweeps share
    one), NF and FF, dd and sd, c_mac and c_bc stay at or below c_asym.
    Multicast need not: a common stream gains from correlation (README)."""
    for label, scenario in sweeps._preset_scenarios(preset)[1].items():
        for kind in ("mac", "bc"):
            res = sweeps._run(replace(scenario, sweep=replace(scenario.sweep, target=kind)),
                              False, kind)
            over = [(row[0], c, limit)
                    for row, c, limit in zip(res.rows, res.column(f"c_{kind}"),
                                             res.column("c_asym"))
                    if c > limit + 1e-12]
            assert over == [], (label, kind)
