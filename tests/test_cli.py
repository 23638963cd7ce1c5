"""Command-line interface: exit codes, table and CSV delivery, option
plumbing through to the runners, and the verify subcommand.
"""

import math
import os
import subprocess
import sys

import pytest

import nfcap
from nfcap.cli import main
from nfcap.config import default_scenario, load_scenario
from nfcap.sweeps import run_bc, run_channel, run_mac, run_mc


def test_no_command_prints_usage_and_exits_one(capsys):
    assert main([]) == 1
    captured = capsys.readouterr()
    assert "usage:" in captured.err


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as info:
        main(["channel", "--fast"])
    assert info.value.code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "nfcap" in capsys.readouterr().out


def test_channel_prints_csv_table(capsys):
    assert main(["channel"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("point,g1,g2,ccf")
    assert len(lines) == 2
    values = lines[1].split(",")
    assert float(values[1]) == pytest.approx(0.003140814135542447, rel=1e-9)


def test_missing_config_exits_two(capsys):
    assert main(["mac", "--config", "/does/not/exist.ini"]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_key_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[array]\nshape = round\n")
    assert main(["bc", "--config", str(path)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_out_writes_identical_files_across_runs(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["mc", "--out", str(a)]) == 0
    assert main(["mc", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    prov = (tmp_path / "a.csv.provenance.txt").read_text()
    assert "nfcap" in prov and "command = mc" in prov


def test_region_modes(capsys):
    assert main(["region", "--mode", "bc"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("vertex,r1,r2")
    assert main(["region"]) == 0


def test_quadrature_nodes_flag_changes_correlation(capsys):
    assert main(["channel"]) == 0
    base = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert main(["channel", "--quadrature-T", "50"]) == 0
    coarse = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert base[1] == coarse[1]
    assert base[3] != coarse[3]


def test_quadrature_nodes_must_be_at_least_two(tmp_path, capsys):
    assert main(["channel", "--quadrature-T", "1"]) == 2
    assert "quadrature" in capsys.readouterr().err
    path = tmp_path / "nodes.ini"
    path.write_text("[link]\nquadrature_nodes = 1\n")
    assert main(["channel", "--config", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: [link] quadrature_nodes must be at least 2, got 1\n")


@pytest.mark.parametrize(("args", "body", "line"), [
    (["--quadrature-T", "1"], "", "error: --quadrature-T must be at least 2, got 1\n"),
    ([], "[link]\nquadrature_nodes = 1\n",
     "error: [link] quadrature_nodes must be at least 2, got 1\n"),
], ids=["flag", "key"])
def test_quadrature_bound_names_the_flag_or_the_key(tmp_path, capsys, args, body, line):
    path = tmp_path / "nodes.ini"
    path.write_text(body)
    assert main(["channel", "--config", str(path), *args]) == 2
    assert capsys.readouterr() == ("", line)


def test_zero_element_side_exits_two_naming_it(tmp_path, capsys):
    "A side of 0 is refused like any other side that is not positive."
    path = tmp_path / "side.ini"
    path.write_text("[array]\nelement_side_m = 0\n")
    assert main(["channel", "--config", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: [array] element_side_m: must be finite and positive, got 0.0\n")


def test_verify_subcommand_passes_on_small_array(tmp_path, capsys):
    path = tmp_path / "small.ini"
    path.write_text("[array]\nm_per_axis = 17\n")
    assert main(["verify", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[ok  ]" in out and "FAIL" not in out
    assert "all 11 checks passed" in out


def test_sweep_subcommand_runs_config_grid(tmp_path, capsys):
    path = tmp_path / "sweep.ini"
    path.write_text("[sweep]\nvariable = snr_db\nvalues = 10 20\ntarget = mac\n")
    assert main(["sweep", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("snr_db,")
    assert len(lines) == 3


def test_reproduce_rejects_unknown_preset():
    with pytest.raises(SystemExit) as info:
        main(["reproduce", "capacity-vs-weather"])
    assert info.value.code == 1


def test_parser_lists_all_subcommands(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    text = capsys.readouterr().out
    for name in ("channel", "mac", "bc", "mc", "region", "sweep", "reproduce", "verify"):
        assert name in text


@pytest.mark.parametrize(
    ("argv", "needle"),
    [
        (["frob"], "nfcap: error: argument COMMAND: invalid choice: 'frob'"),
        (["channel", "--fast"], "error: unrecognized arguments: --fast"),
        (["mac", "--config"], "error: argument --config: expected one argument"),
        (["channel", "--quadrature-T", "x"],
         "error: argument --quadrature-T: invalid int value: 'x'"),
        (["region", "--mode", "xy"], "error: argument --mode: invalid choice: 'xy'"),
        (["reproduce"], "error: the following arguments are required: preset"),
        (["reproduce", "capacity-vs-weather"],
         "error: argument preset: invalid choice: 'capacity-vs-weather'"),
        # an option's value may start with "-" only if it reads as a number
        (["channel", "--config", "--out"], "error: argument --config: expected one argument"),
    ],
    ids=["command", "flag", "missing-value", "int", "mode", "no-preset", "preset",
         "flag-as-value"],
)
def test_usage_errors_exit_one_with_usage_and_reason(capsys, argv, needle):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: nfcap")
    assert needle in captured.err.splitlines()[-1]


def test_option_spellings_reach_the_same_settings(tmp_path, capsys):
    "--flag=value, a unique prefix and a repeated option as argparse read them."
    path = tmp_path / "small.ini"
    path.write_text("[array]\nm_per_axis = 17\n")
    assert main(["channel", "--config", str(path)]) == 0
    spaced = capsys.readouterr().out
    assert main(["channel", f"--config={path}"]) == 0
    assert capsys.readouterr().out == spaced
    assert main(["channel"]) == 0
    assert capsys.readouterr().out != spaced

    assert main(["channel", "--quadrature-T", "50"]) == 0
    full = capsys.readouterr().out
    assert main(["channel", "--quad", "50"]) == 0
    assert capsys.readouterr().out == full

    first, last = tmp_path / "first.csv", tmp_path / "last.csv"
    assert main(["mc", "--out", str(first), "--out", str(last)]) == 0
    assert last.exists() and not first.exists()
    assert capsys.readouterr().out == ""


def test_negative_quadrature_nodes_reach_the_scenario_check(capsys):
    assert main(["channel", "--quadrature-T", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --quadrature-T must be at least 2, got -5\n"


_COMMAND_FLAGS = {
    "channel": ["--config", "--out", "--verify", "--quadrature-T"],
    "mac": ["--config", "--out", "--verify", "--quadrature-T"],
    "bc": ["--config", "--out", "--verify", "--quadrature-T"],
    "mc": ["--config", "--out", "--verify", "--quadrature-T"],
    "region": ["--mode", "--config", "--out", "--quadrature-T"],
    "sweep": ["--config", "--out", "--verify", "--quadrature-T"],
    "reproduce": ["--out", "mac-vs-M", "bc-vs-M", "mc-vs-M", "mc-vs-r2"],
    "verify": ["--config", "--quadrature-T"],
}


@pytest.mark.parametrize("command", sorted(_COMMAND_FLAGS))
def test_command_help_lists_its_options(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "-h"])
    assert info.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(f"usage: nfcap {command} ")
    for flag in ["--help", *_COMMAND_FLAGS[command]]:
        assert flag in captured.out


def test_version_is_printed_alone(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr() == (f"nfcap {nfcap.__version__}\n", "")


@pytest.mark.parametrize(
    ("command", "body", "needle"),
    [
        # 1e300 is a float, but the uplink capacity's gamma1*gamma2 term is not
        ("mac", "[link]\nsnr_db = 3000\n", "uplink capacity overflows"),
        # 10^310 is not a float at all
        ("mac", "[link]\nsnr_db = 3100\n", "[link] snr_db"),
        ("bc", "[link]\nsnr_db = 3100\n", "[link] snr_db"),
        ("bc", "[link]\npower_db = 3000\n", "c_bc = inf"),
        ("mc", "[link]\npower_db = 3100\n", "[link] power_db"),
        # region reports the overflow of the nominal capacity, as mac and bc do
        ("region", "[link]\nsnr_db = 3000\n", "uplink capacity overflows"),
        ("region --mode bc", "[link]\npower_db = 3000\n", "c_bc = inf"),
        ("verify", "[link]\nsnr_db = 3000\n", "uplink capacity overflows"),
        ("verify", "[link]\npower_db = 3000\n", "downlink sum capacity = inf"),
        ("sweep", "[sweep]\nvariable = snr_db\nvalues = 10 3000\ntarget = mac\n",
         "at sweep point snr_db=3000.0"),
        ("sweep", "[sweep]\nvariable = snr_db\nvalues = 10 3100\ntarget = mac\n",
         "at sweep point snr_db=3100.0"),
        ("sweep", "[sweep]\nvariable = power_db\nvalues = 10 3000\ntarget = bc\n",
         "at sweep point power_db=3000.0"),
        ("sweep", "[sweep]\nvariable = power_db\nvalues = 10 3100\ntarget = bc\n",
         "at sweep point power_db=3100.0"),
        ("sweep", "[sweep]\nvariable = power_db\nvalues = 10 3100\ntarget = mc\n",
         "at sweep point power_db=3100.0"),
    ],
)
def test_link_budget_beyond_float_range_exits_two(tmp_path, capsys, command, body, needle):
    path = tmp_path / "huge.ini"
    path.write_text(body)
    assert main([*command.split(), "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert needle in lines[0]


_TYPED_KEYS = {
    "number": ["array frequency_hz", "array pitch_m", "array element_side_m",
               "link noise_var1", "link noise_var2", "user1 range_m", "user2 range_m"],
    "integer": ["array m_x", "array m_z", "array m_per_axis", "link quadrature_nodes"],
    "dB": ["link snr_db", "link power_db"],
    "angle": ["user1 azimuth", "user1 elevation", "user2 azimuth", "user2 elevation"],
    "values": ["sweep values"],
}
_BAD_TEXTS = {
    "number": [("abc", "cannot parse 'abc' as a number"),
               ("", "cannot parse '' as a number")],
    "integer": [("abc", "cannot parse 'abc' as an integer"),
                ("1.5", "cannot parse '1.5' as an integer")],
    "dB": [("abc", "cannot parse 'abc' as a number"),
           ("4000", "4000.0 dB overflows a float (at most about 3082 dB)")],
    "angle": [("abc", "cannot parse angle 'abc'"),
              ("60deg", "angle '60deg' looks like degrees; use radians or pi fractions"),
              ("pi/0", "zero denominator in angle 'pi/0'")],
    "values": [("", "empty list"), ("10 abc", "cannot parse 'abc' as a number")],
}


@pytest.mark.parametrize(
    ("section", "key", "text", "reason"),
    [pytest.param(*where.split(), text, reason, id=f"{where}={text}")
     for kind, keys in _TYPED_KEYS.items() for where in keys
     for text, reason in _BAD_TEXTS[kind]],
)
def test_bad_typed_value_exits_two_naming_its_key(tmp_path, capsys, section, key, text, reason):
    "Every number, integer, dB and angle key, and the sweep's values."
    body = f"[{section}]\n{key} = {text}\n"
    if section == "sweep":
        body += "variable = snr_db\ntarget = mac\n"
    path = tmp_path / "bad.ini"
    path.write_text(body)
    assert main(["sweep" if section == "sweep" else "channel", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: [{section}] {key}: {reason}\n")


# a value that parses but that its key cannot take, and the one line
# naming the key that the CLI prints for it
_BAD_VALUES = [
    ("array", "m_x", "4", "must be odd (symmetric index set), got 4"),
    ("array", "m_z", "0", "must be a positive integer, got 0"),
    ("array", "m_per_axis", "4", "must be odd (symmetric index set), got 4"),
    ("array", "m_per_axis", "-3", "must be a positive integer, got -3"),
    ("array", "frequency_hz", "-5", "must be finite and positive, got -5.0"),
    ("array", "frequency_hz", "1e-310", "must give a finite wavelength, got 1e-310"),
    ("array", "pitch_m", "-1", "must be finite and positive, got -1.0"),
    ("array", "pitch_m", "0.01",
     "elements overlap: pitch 0.01 m < element side 0.03523745458953713 m"),
    ("array", "element_side_m", "-1", "must be finite and positive, got -1.0"),
    ("array", "element_side_m", "1",
     "elements overlap: pitch 0.06245676208333333 m < element side 1.0 m"),
    ("link", "noise_var1", "0", "must be finite and positive, got 0.0"),
    ("link", "noise_var2", "inf", "must be finite and positive, got inf"),
    ("link", "snr_db", "nan", "must be a number of dB below inf, got nan"),
    ("link", "power_db", "inf", "must be a number of dB below inf, got inf"),
    ("link", "power_db", "-4000",
     "-4000.0 dB underflows to a power of 0 (at least about -3236 dB)"),
    ("user1", "range_m", "-1", "must be finite and positive, got -1.0"),
    ("user2", "range_m", "0", "must be finite and positive, got 0.0"),
    ("user1", "azimuth", "0", "must lie in the open interval (0, pi), got 0.0"),
    ("user2", "elevation", "pi", "must lie in the open interval (0, pi), got 3.141592653589793"),
]


@pytest.mark.parametrize(
    ("section", "key", "text", "reason"),
    [pytest.param(*case, id=f"{case[0]} {case[1]}={case[2]}") for case in _BAD_VALUES],
)
def test_bad_value_exits_two_naming_its_key(tmp_path, capsys, section, key, text, reason):
    "A value its key cannot take prints one line, [section] key: reason."
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = {text}\n")
    assert main(["channel", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: [{section}] {key}: {reason}\n")


def test_direction_in_the_array_plane_names_both_angles(tmp_path, capsys):
    path = tmp_path / "plane.ini"
    path.write_text("[user1]\nelevation = 1e-10\n")
    assert main(["channel", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", (
        "error: [user1] azimuth, elevation: user lies in (or too close to) the array "
        "plane: sin(phi)*sin(theta) = 8.660e-11 <= 1e-9\n"))


def test_infinite_array_size_sweep_value_exits_two(tmp_path, capsys):
    path = tmp_path / "inf.ini"
    path.write_text("[sweep]\nvariable = m_per_axis\nvalues = 3 inf\ntarget = channel\n")
    assert main(["sweep", "--config", str(path)]) == 2
    assert "odd positive integers, got inf" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("body", "needle"),
    [
        ("[array]\nfrequency_hz = nan\n", "[array] frequency_hz: must be finite"),
        ("[array]\nfrequency_hz = inf\n", "[array] frequency_hz: must be finite"),
        ("[array]\npitch_m = nan\n", "[array] pitch_m: must be finite"),
        ("[array]\npitch_m = inf\n", "[array] pitch_m: must be finite"),
        ("[array]\nelement_side_m = nan\n", "[array] element_side_m: must be finite"),
        ("[user1]\nrange_m = nan\n", "[user1] range_m: must be finite"),
        ("[user1]\nrange_m = inf\n", "[user1] range_m: must be finite"),
        ("[user2]\nrange_m = nan\n", "[user2] range_m: must be finite"),
        ("[sweep]\nvariable = r2_m\nvalues = nan\ntarget = channel\n",
         "at sweep point r2_m=nan: range_r must be finite"),
    ],
)
def test_non_finite_geometry_or_range_exits_two_naming_it(tmp_path, capsys, body, needle):
    "NaN fails every comparison, so each of these is checked to be finite."
    path = tmp_path / "nan.ini"
    path.write_text(body)
    assert main(["channel" if "[sweep]" not in body else "sweep",
                 "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert needle in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("command", "body", "needle"),
    [
        # d/r in three significant digits, not 300 integer digits
        ("channel", "[array]\npitch_m = 1e300\n", "(d/r = 1e+299 >= 1)"),
        ("channel", "[user2]\nrange_m = 1e-300\n", "(d/r = 6.25e+298 >= 1)"),
        # phases of about 5e301 rad: refused before any NF kernel runs
        ("mac", "[user1]\nrange_m = 1e300\n", "error: [user1] range_m = 1e+300 is"),
        ("channel", "[user2]\nrange_m = 1e300\n", "error: [user2] range_m = 1e+300 is"),
        ("verify", "[user1]\nrange_m = 1e300\n", "error: [user1] range_m = 1e+300 is"),
        ("region", "[user2]\nrange_m = 1e300\n", "error: [user2] range_m = 1e+300 is"),
        ("sweep", "[sweep]\nvariable = r2_m\nvalues = 5 1e300\ntarget = mac\n",
         "at sweep point r2_m=1e+300: [user2] range_m = 1e+300 is"),
        # an FF gain and the FF element oracle take the range squared
        ("mac", "[link]\nmodel = ff\n[user1]\nrange_m = 1e200\n",
         "error: [user1] range_m = 1e+200 is beyond the FF model's"),
        ("bc", "[link]\nmodel = ff\n[user2]\nrange_m = 1e200\n",
         "error: [user2] range_m = 1e+200 is beyond the FF model's"),
    ],
)
def test_extreme_range_or_pitch_exits_two_naming_it(tmp_path, capsys, command, body, needle):
    path = tmp_path / "extreme.ini"
    path.write_text(body)
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert needle in lines[0]
    assert len(lines[0]) < 200


@pytest.mark.filterwarnings("error")
def test_nf_range_refusal_names_the_frequency_and_array(tmp_path, capsys):
    """The NF range bound falls as the carrier frequency rises: 1e8 m is
    within it at 2.4 GHz on 65 x 65 elements and beyond it at 24 GHz,
    and the refusal names the frequency and array that set it."""
    path = tmp_path / "far.ini"
    body = "[user2]\nrange_m = 1e8\n"
    path.write_text(body)
    assert main(["channel", "--config", str(path)]) == 0
    capsys.readouterr()
    path.write_text("[array]\nfrequency_hz = 2.4e10\n" + body)
    assert main(["channel", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: [user2] range_m = 1e+08 is beyond the NF model's numerical range "
        "at 2.4e+10 Hz on 65x65 elements: phase rounding moves sqrt(rho) by about "
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("range_m", [2.0, 100.0, 1e6, 1e100])
def test_ff_limit_is_the_capacity_at_the_limit_statistics(tmp_path, capsys, range_m):
    """FF c_asym is the kind's capacity at the FF gains: never negative,
    the printed capacity itself for users sharing a direction, and for
    distinct ones at least the uplink and downlink capacity, which do not
    increase with rho at equal gains."""
    for direction in ("same", "own"):
        body = f"[link]\nmodel = ff\n[user1]\nrange_m = {range_m!r}\n"
        if direction == "same":
            body += "[user2]\ndirection = same\n"
        path = tmp_path / f"ff-{direction}.ini"
        path.write_text(body)
        scn = load_scenario(str(path))
        for command, runner in (("mac", run_mac), ("bc", run_bc), ("mc", run_mc)):
            assert main([command, "--config", str(path)]) == 0
            assert capsys.readouterr().err == ""
            res = runner(scn)
            row = dict(zip(res.columns, res.rows[0]))
            capacity = row[f"c_{command}"]
            assert row["c_asym"] >= 0.0
            if direction == "same":
                assert row["c_asym"] == capacity
            elif command != "mc":
                assert row["c_asym"] >= capacity


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    "Run a fresh interpreter on this checkout's package, capturing real stderr."
    src = os.path.dirname(os.path.dirname(nfcap.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


@pytest.mark.parametrize("power_db", ["3000", "2990"])
def test_verify_on_overflowed_link_budget_prints_one_line(tmp_path, power_db):
    "The oracles never see an infinite capacity, so numpy prints no warning."
    path = tmp_path / "huge.ini"
    path.write_text(f"[link]\npower_db = {power_db}\n")
    proc = _run_cli("-m", "nfcap.cli", "bc", "--verify", "--config", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: c_bc = inf")


def test_module_help_runs_as_a_script():
    proc = _run_cli("-m", "nfcap.cli", "--help")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("usage: nfcap")
    for name in _COMMAND_FLAGS:
        assert name in proc.stdout


def test_channel_loads_no_argument_parser_machinery():
    "A command pays for parsing its own arguments and nothing more."
    proc = _run_cli("-c", "import sys, nfcap.cli; nfcap.cli.main(['channel']); "
                    "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "[]"


def test_import_and_channel_emit_no_warning():
    assert _run_cli("-W", "error", "-c", "import nfcap.cli").returncode == 0
    proc = _run_cli("-m", "nfcap.cli", "channel")
    assert proc.returncode == 0
    assert proc.stderr == ""


_LOW_DB = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
_RANGES = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("before", [0, 3, 6], ids=["first", "middle", "last"])
@pytest.mark.parametrize(
    ("body", "variable", "target", "bad", "above", "message"),
    [
        pytest.param(
            "", "snr_db", "mac", 3000.0, [3010.0 + 10 * k for k in range(6)],
            "error: at sweep point snr_db=3000.0: uplink capacity overflows: 1 + "
            "gamma1*g1 + gamma2*g2 + gamma1*gamma2*g1*g2*(1 - rho) is not finite for "
            "g=({g1}, {g2}), gamma=(1e+300, 1e+300), rho={rho}",
            id="uplink-overflow"),
        # the points after it overflow a float, so the sweep cannot be set to them
        pytest.param(
            "", "snr_db", "mac", 3000.0, [3100.0 + 10 * k for k in range(6)],
            "error: at sweep point snr_db=3000.0: uplink capacity overflows: 1 + "
            "gamma1*g1 + gamma2*g2 + gamma1*gamma2*g1*g2*(1 - rho) is not finite for "
            "g=({g1}, {g2}), gamma=(1e+300, 1e+300), rho={rho}",
            id="uplink-overflow-then-unsettable"),
        pytest.param(
            "", "power_db", "bc", 3000.0, [3010.0 + 10 * k for k in range(6)],
            "error: at sweep point power_db=3000.0: c_bc = inf: the link budget is "
            "beyond the floating-point range of the formulas",
            id="c_bc-inf"),
        pytest.param(
            "", "power_db", "mc", 3100.0, [3110.0 + 10 * k for k in range(6)],
            "error: at sweep point power_db=3100.0: 3100.0 dB overflows a float "
            "(at most about 3082 dB)",
            id="beyond-float"),
        pytest.param(
            "[link]\nmodel = ff\n", "r2_m", "mc", 1e200, [(k + 2) * 1e200 for k in range(6)],
            "error: at sweep point r2_m=1e+200: [user2] range_m = 1e+200 is beyond the "
            "FF model's numerical range, which ends at 5.64e+102 m",
            id="ff-range"),
        pytest.param(
            "", "r2_m", "mac", 1e300, [(k + 2) * 1e300 for k in range(6)],
            "error: at sweep point r2_m=1e+300: [user2] range_m = 1e+300 is beyond the "
            "NF model's numerical range at 2.4e+09 Hz on 65x65 elements: phase rounding "
            "moves sqrt(rho) by about 1.37e+285, above 1e-06",
            id="nf-refusal"),
        # NaN is left where it is by the sort, so the ranges after it come last
        pytest.param(
            "", "r2_m", "mc", math.nan, None,
            "error: at sweep point r2_m=nan: range_r must be finite and positive, got nan",
            id="nan-range"),
    ],
)
def test_sweep_names_its_first_bad_point(
    tmp_path, capsys, body, variable, target, bad, above, message, before
):
    """A 7-point sweep with one bad value first, in the middle or last
    (and, but for NaN, only worse ones after it) names that point, with
    the error a run of it alone raises. The uplink overflow prints the
    default scenario's statistics in full: the last digits of rho depend
    on the SIMD loops numpy picks for this CPU, so they are taken from
    a run of that scenario in this process."""
    g1, g2, rho = run_channel(default_scenario()).rows[0][1:]
    good = _LOW_DB if variable != "r2_m" else _RANGES
    after = above[: 6 - before] if above else good[before:]
    values = [*good[:before], bad, *after]
    path = tmp_path / "sweep.ini"
    path.write_text(body + f"[sweep]\nvariable = {variable}\nvalues = "
                    + " ".join(repr(v) for v in values) + f"\ntarget = {target}\n")
    assert main(["sweep", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message.format(g1=g1, g2=g2, rho=rho)]
