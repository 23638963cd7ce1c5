"""The benchmark's workloads: nfcap commands per pass, built from a seed.

Each workload function returns the :class:`Command` list of one pass.
Seeded workloads write their scenario INI files into the run's work
directory; the program only ever sees those files. Every command that accepts ``--out`` writes its CSV
there too, so ``sweeps.emit_csv`` is exercised.

A :class:`Command` also carries what the checks and the error reference
need to know about its inputs (a :class:`Link` per printed row), so that
nothing has to be parsed back out of the INI files.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

REF_FREQUENCY_HZ = 2.4e9
REF_USER1 = (10.0, math.pi / 3, 2 * math.pi / 3)
REF_USER2 = (5.0, 2 * math.pi / 3, math.pi / 3)

PRESETS = ("mac-vs-M", "bc-vs-M", "mc-vs-M", "mc-vs-r2")

# How far the seed moves the NF user pair from the reference pair: the
# ranges by a relative 1e-4 (1 mm at 10 m), the angles by 1e-4 rad. The NF
# correlation error at 65 elements per axis changes by 5% between pairs a
# few centimetres apart and by an order of magnitude between unrelated
# pairs, so a wider draw would make err_bits_max measure the draw rather
# than the program. No input repeats between seeds all the same.
NF_RANGE_JITTER = 1e-4
NF_ANGLE_JITTER = 1e-4


@dataclass(frozen=True)
class Link:
    """The scenario settings a printed row depends on."""

    model: str  # "nf" or "ff"
    m_axis: int
    users: tuple[tuple[float, float, float], ...]  # (range, azimuth, elevation)
    snr_db: float = 30.0
    power_db: float = 30.0

    @property
    def snr(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def power(self) -> float:
        return 10.0 ** (self.power_db / 10.0)

    def at(self, variable: str, value: float) -> "Link":
        """The link at one sweep point, as ``nfcap.sweeps`` applies it."""
        if variable == "m_per_axis":
            return Link(self.model, int(value), self.users, self.snr_db, self.power_db)
        if variable == "r2_m":
            u2 = (float(value),) + self.users[1][1:]
            return Link(self.model, self.m_axis, (self.users[0], u2),
                        self.snr_db, self.power_db)
        if variable == "snr_db":
            return Link(self.model, self.m_axis, self.users, value, self.power_db)
        if variable == "power_db":
            return Link(self.model, self.m_axis, self.users, self.snr_db, value)
        raise ValueError(f"unknown sweep variable {variable!r}")


@dataclass(frozen=True)
class Command:
    """One nfcap invocation of a pass."""

    label: str
    argv: tuple[str, ...]
    kind: str  # "preset", "channel", "mac", "bc", "mc" or "verify"
    out: str | None = None  # CSV written through --out
    link: Link | None = None
    variable: str | None = None  # swept variable, None for a single point
    values: tuple[float, ...] = ()  # sweep values, in the order printed
    ini: str | None = None  # scenario file text, for the run record

    def points(self) -> list[tuple[float, Link]]:
        """(first column, link) of every row the command prints."""
        if self.variable is None:
            return [(0.0, self.link)]
        return [(x, self.link.at(self.variable, x)) for x in self.values]


def _ini(link: Link, sweep: tuple[str, list[float], str] | None) -> str:
    (r1, az1, el1), (r2, az2, el2) = link.users
    lines = [
        "[array]",
        f"m_per_axis = {link.m_axis}",
        f"frequency_hz = {REF_FREQUENCY_HZ!r}",
        "[link]",
        f"model = {link.model}",
        f"snr_db = {link.snr_db!r}",
        f"power_db = {link.power_db!r}",
        "[user1]",
        f"range_m = {r1!r}",
        f"azimuth = {az1!r}",
        f"elevation = {el1!r}",
        "[user2]",
        f"range_m = {r2!r}",
        f"azimuth = {az2!r}",
        f"elevation = {el2!r}",
    ]
    if sweep is not None:
        variable, values, target = sweep
        lines += [
            "[sweep]",
            f"variable = {variable}",
            "values = " + " ".join(repr(v) for v in values),
            f"target = {target}",
        ]
    return "\n".join(lines) + "\n"


def _near_reference_pair(rng: random.Random) -> tuple[tuple[float, float, float], ...]:
    def jitter(user):
        r, az, el = user
        return (
            r * (1.0 + rng.uniform(-NF_RANGE_JITTER, NF_RANGE_JITTER)),
            az + rng.uniform(-NF_ANGLE_JITTER, NF_ANGLE_JITTER),
            el + rng.uniform(-NF_ANGLE_JITTER, NF_ANGLE_JITTER),
        )

    return (jitter(REF_USER1), jitter(REF_USER2))


def _random_pair(rng: random.Random) -> tuple[tuple[float, float, float], ...]:
    def user(lo, hi):
        return (rng.uniform(lo, hi), rng.uniform(0.3, math.pi - 0.3),
                rng.uniform(0.3, math.pi - 0.3))

    return (user(5.0, 40.0), user(2.0, 40.0))


def _scenario_command(work: str, stem: str, kind: str, link: Link,
                      sweep: tuple[str, list[float], str] | None,
                      verify: bool = False) -> Command:
    text = _ini(link, sweep)
    ini_path = os.path.join(work, stem + ".ini")
    with open(ini_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    if kind == "verify":
        return Command(f"verify {stem}", ("verify", "--config", ini_path), kind,
                       link=link, ini=text)
    out = os.path.join(work, f"{stem}-{kind}.csv")
    command = "sweep" if sweep is not None else kind
    argv = [command, "--config", ini_path, "--out", out]
    if verify:
        argv.append("--verify")
    label = " ".join([command] + (["--verify"] if verify else []) + [stem])
    if sweep is None:
        return Command(label, tuple(argv), kind, out=out, link=link, ini=text)
    return Command(label, tuple(argv), kind, out=out, link=link,
                   variable=sweep[0], values=tuple(sorted(sweep[1])), ini=text)


def presets(seed: int, work: str) -> list[Command]:
    """The four published tables; fixed inputs, so the seed is unused."""
    del seed
    return [
        Command(f"reproduce {name}",
                ("reproduce", name, "--out", os.path.join(work, name + ".csv")),
                "preset", out=os.path.join(work, name + ".csv"))
        for name in PRESETS
    ]


def verify_65(seed: int, work: str) -> list[Command]:
    """Every --verify path plus ``verify`` on the 65x65 reference array."""
    rng = random.Random(seed)
    link = Link("nf", 65, _near_reference_pair(rng))
    commands = [
        _scenario_command(work, "v65", kind, link, None, verify=True)
        for kind in ("channel", "mac", "bc", "mc")
    ]
    commands.append(_scenario_command(work, "v65", "verify", link, None))
    return commands


NF_SWEEP_POINTS = 200
FF_SWEEP_POINTS = 2500


def sweeps_nf_65(seed: int, work: str) -> list[Command]:
    """NF sweeps at 65x65: user-2 range, uplink SNR and downlink power."""
    rng = random.Random(seed)
    link = Link("nf", 65, _near_reference_pair(rng))
    n = NF_SWEEP_POINTS
    plan = (
        ("r2_m", [rng.uniform(2.0, 20.0) for _ in range(n)], "mc"),
        ("snr_db", [rng.uniform(0.0, 50.0) for _ in range(n)], "mac"),
        ("power_db", [rng.uniform(0.0, 50.0) for _ in range(n)], "bc"),
    )
    return [
        _scenario_command(work, f"nf65-{variable}", target, link,
                          (variable, values, target))
        for variable, values, target in plan
    ]


def sweeps_ff(seed: int, work: str) -> list[Command]:
    """FF sweeps with thousands of points, one per target."""
    rng = random.Random(seed)
    n = FF_SWEEP_POINTS
    m_values = rng.sample(range(3, 4 * n + 3, 2), n)
    # SNR and power reach 80 dB so that every seed prints capacities of 10
    # bits or more. On FF rows err_bits_max is the CSV's print precision,
    # which depends on the decade of the largest value.
    plan = (
        ("m_per_axis", [float(m) for m in m_values], "channel"),
        ("snr_db", [rng.uniform(0.0, 80.0) for _ in range(n)], "mac"),
        ("power_db", [rng.uniform(0.0, 80.0) for _ in range(n)], "bc"),
        ("r2_m", [rng.uniform(2.0, 60.0) for _ in range(n)], "mc"),
    )
    commands = []
    for variable, values, target in plan:
        # at most 65x65, so the exact-vector reference of 2500 r2 points
        # takes about a second to build
        link = Link("ff", rng.choice(range(9, 67, 2)), _random_pair(rng))
        commands.append(_scenario_command(work, f"ff-{variable}", target, link,
                                          (variable, values, target)))
    return commands


WORKLOADS = {
    "presets": presets,
    "verify-65": verify_65,
    "sweeps-nf-65": sweeps_nf_65,
    "sweeps-ff": sweeps_ff,
}
