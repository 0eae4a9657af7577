"""Scenario files: flat, sectioned key-value configuration for batch runs.

Format is INI-like: ``[section]`` headers, ``key = value`` lines, ``#``
comments. Unknown sections or keys are hard errors carrying the offending
line number. Units follow the simulator conventions: intensities in
photo-electron counts, modulation/excess noise in shot-noise units.
``KEYS`` is the one list of keys: the parser fills the dataclasses from its
rows, and ``Scenario.canonical_text`` writes them back.
"""

from __future__ import annotations

import contextlib
import decimal
import hashlib
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from .attack import DEFAULT_WAVELENGTHS, STRATEGIES
from .errors import ConfigError, check
from .physics import BUILTIN_CURVES, BeamSplitterCurve, DetectorConfig, builtin_curve, load_curve
from .protocol import AttenuationSchedule, SystemParams


def parse_float(value: str, line: int | None, key: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}", line)
    if not math.isfinite(x):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}", line)
    return x


def _parse_int(value: str, line: int, key: str) -> int:
    """The integer a value writes, exactly (``1e6`` is 1000000); a finite number
    that is no integer, or whose exponent ``decimal`` cannot hold, is refused."""
    parse_float(value, line, key)  # a value that is no finite number keeps its error
    with contextlib.suppress(decimal.InvalidOperation):
        exact = decimal.Decimal(value)
        if exact == exact.to_integral_value():
            return int(exact)
    raise ConfigError(f"{key}: expected an integer, got {value!r}", line)


def _parse_bool(value: str, line: int, key: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {value!r}", line)


def _nonempty(value: str, line: int, key: str) -> str:
    if not value:
        raise ConfigError(f"{key}: expected a name, got an empty value", line)
    return value


def _choice(value: str, line: int, key: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise ConfigError(f"attack {key} must be {'/'.join(choices)}, got {value!r}", line)
    return value


def _ranged(value: str, line: int, key: str, parse=parse_float):
    """``parse`` the value, then check it against its key's row of ``errors.DOMAINS``."""
    return check(key, parse(value, line, key), line=line)


def _attacked(scen: Scenario) -> bool:
    return scen.attack_kind != "none"


# Every scenario key but the [schedule] ratios, which are parsed and written apart: (section,
# key) -> (parser of its value, the object and field it fills, when canonical_text writes it:
# always if None), in canonical order. An absent output is not written, and a key written only
# for an attack is refused in an honest scenario. SystemParams checks electronic_noise's domain.
KEYS = {
    ("system", "modulation_variance"): (_ranged, "SystemParams", "modulation_variance", None),
    ("system", "detector_efficiency"): (_ranged, "DetectorConfig", "efficiency", None),
    ("system", "electronic_noise"): (parse_float, "DetectorConfig", "electronic_noise", None),
    ("system", "channel_transmittance"): (_ranged, "SystemParams", "channel_transmittance", None),
    ("system", "excess_noise"): (_ranged, "SystemParams", "excess_noise", None),
    ("system", "lo_intensity"): (_ranged, "SystemParams", "lo_intensity", None),
    ("system", "curve"): (_nonempty, "Scenario", "curve_name", None),
    ("attack", "strategy"): (lambda *args: _choice(*args, ("none", *STRATEGIES)), "Scenario",
                             "attack_kind", None),
    ("attack", "mode"): (lambda *args: _choice(*args, ("solve", "plan")), "Scenario",
                         "attack_mode", _attacked),
    ("attack", "plan"): (_nonempty, "Scenario", "plan_path", _attacked),
    ("attack", "compensate_lo"): (_parse_bool, "Scenario", "compensate_lo", _attacked),
    **{("attack", key): (parse_float, "wavelengths", i,
                         lambda scen: scen.wavelengths != DEFAULT_WAVELENGTHS)
       for i, key in enumerate(("set1_signal_nm", "set1_lo_nm", "set2_signal_nm", "set2_lo_nm"))},
    **{("run", key): (lambda *args: _ranged(*args, _parse_int), "Scenario", key, None)
       for key in ("slots", "master_seed")},
    **{("outputs", key): (lambda value, line, key: check("output name", value, line=line, name=key),
                          "outputs", key, None)
       for key in ("plan", "polynomial", "records", "report", "verdict")},
}
_SECTIONS = ("system", "schedule", "attack", "run", "outputs")


def _spell(value) -> str:
    """A value as canonical text writes it: a float by ``repr``, a bool as true/false."""
    return repr(value) if isinstance(value, float) else str(value).lower() \
        if isinstance(value, bool) else str(value)


@dataclass(frozen=True)
class Scenario:
    """One fully specified run: system constants, attack request, outputs."""

    params: SystemParams
    curve_name: str = "50:50"
    attack_kind: str = "none"        # none | A | B
    attack_mode: str = "solve"       # solve | plan
    plan_path: str | None = None
    compensate_lo: bool = True
    wavelengths: tuple[float, float, float, float] = DEFAULT_WAVELENGTHS
    slots: int = 1_000_000
    master_seed: int = 1
    outputs: dict[str, str] = field(default_factory=dict)
    source_text: str = ""
    directory: Path = Path()         # a relative plan or curve path starts here

    def __post_init__(self):
        check("slots", self.slots)
        check("master_seed", self.master_seed)
        if self.attack_mode == "plan" and not self.plan_path:
            raise ConfigError("attack mode 'plan' needs a plan = <path> entry")
        if not self.source_text:
            object.__setattr__(self, "source_text", self.canonical_text())

    def scenario_hash(self) -> str:
        """Hash of the source text, the effective configuration and the bytes
        of each file the scenario names: its plan, then a curve table not builtin.

        The canonical text carries any later override of ``slots`` or
        ``master_seed``, so runs that differ only in those get different hashes.
        """
        files = [self.plan_path] if self.plan_path else []
        files += [] if self.curve_name in BUILTIN_CURVES else [self.curve_name]
        data = (self.source_text + self.canonical_text()).encode("utf-8")
        data += b"".join((self.directory / name).read_bytes() for name in files)
        return hashlib.sha256(data).hexdigest()[:16]

    def load_curve(self) -> BeamSplitterCurve:
        if self.curve_name in BUILTIN_CURVES:
            return builtin_curve(self.curve_name)
        return load_curve(self.directory / self.curve_name, self.curve_name)

    def canonical_text(self) -> str:
        """Each section's header and the lines of its keys that the rows write, in row order;
        the schedule's entries by ``repr``; an empty section is left out."""
        fields = {"Scenario": vars(self), "SystemParams": vars(self.params),
                  "DetectorConfig": vars(self.params.detector),
                  "wavelengths": dict(enumerate(self.wavelengths)), "outputs": self.outputs}
        lines = []
        for section in _SECTIONS:
            if section == "schedule":
                body = [f"{r!r} = {prob!r}" for r, prob in self.params.schedule.entries]
            else:
                body = [f"{key} = {_spell(fields[obj][name])}"
                        for (sec, key), (_, obj, name, when) in KEYS.items()
                        if sec == section and fields[obj].get(name) is not None
                        and (when is None or when(self))]
            lines += [f"[{section}]", *body] if body else []
        return "\n".join(lines) + "\n"


def _located(line: int | None, build, *args, **kwargs):
    """Call ``build``; report a ValueError it raises as a ConfigError at ``line``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), line) from exc


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text, reporting problems with their line numbers.

    Each value is parsed, and checked against its row of ``errors.DOMAINS``, on
    its own line, so the first error in line order is the one reported. A key
    given twice in one section, and two ``[outputs]`` keys naming one file or a
    file and a directory it lies in, are errors naming both lines. Errors found
    when the values are put together come after: electronic_noise's derived
    domain at its line, the others at the line of their section header, then a
    ``plan`` key or output an honest or solved run would not use, and last an
    ``[attack]`` key an honest run would ignore, each at its own line.
    """
    section = None
    headers: dict[str, int] = {}
    files: dict[str, int] = {}  # each output's file, by normalized name, and its line
    lines: dict[tuple[str, str], int] = {}  # each given (section, key)'s line, in line order
    given: dict[str, dict] = {obj: {} for _, obj, _, _ in KEYS.values()}  # by object and field
    schedule: dict[float, tuple[float, int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {raw.strip()!r}", lineno)
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", lineno)
            headers.setdefault(section, lineno)
            continue
        if section is None:
            raise ConfigError("entry before any [section] header", lineno)
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {raw.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if section == "schedule":
            ratio = _ranged(key, lineno, "schedule ratio")
            prob = _ranged(value, lineno, "schedule probability")
            if ratio in schedule:
                raise ConfigError(f"duplicate schedule ratio {ratio!r}, first given on "
                                  f"line {schedule[ratio][1]}", lineno)
            schedule[ratio] = (prob, lineno)
            continue
        if (section, key) not in KEYS:
            raise ConfigError(f"unknown [{section}] key {key!r}", lineno)
        if (section, key) in lines:
            raise ConfigError(f"duplicate [{section}] key {key!r}, first given on "
                              f"line {lines[section, key]}", lineno)
        parse, obj, name, _ = KEYS[section, key]
        given[obj][name] = parse(value, lineno, key)
        lines[section, key] = lineno
        if section == "outputs":
            path = os.path.normpath(value)
            for other, first in files.items():
                if os.path.commonpath([path, other]) in (path, other):
                    where = ("as line {} does" if path == other else "a directory of line {}'s file"
                             if len(path) < len(other) else "below line {}'s file")
                    raise ConfigError(f"[outputs] key {key!r} names file {value!r}, "
                                      + where.format(first), lineno)
            files[path] = lineno

    fields = given["SystemParams"]
    if "schedule" in headers:
        fields["schedule"] = _located(headers["schedule"], AttenuationSchedule,
                                      tuple((r, p) for r, (p, _) in schedule.items()))
    params = _located(lines.get(("system", "electronic_noise")), SystemParams,
                      detector=DetectorConfig(**given["DetectorConfig"]), **fields)
    scen = _located(headers.get("attack"), Scenario, params=params, outputs=given["outputs"],
                    wavelengths=tuple(given["wavelengths"].get(i, nm)
                                      for i, nm in enumerate(DEFAULT_WAVELENGTHS)),
                    source_text=text, **given["Scenario"])
    if ("outputs", "plan") in lines and scen.attack_kind == "none":
        raise ConfigError("a plan output needs an attack, but the scenario is honest",
                          lines["outputs", "plan"])
    if ("attack", "plan") in lines and (scen.attack_kind == "none" or scen.attack_mode != "plan"):
        raise ConfigError("a plan = <path> entry needs strategy A or B and mode = plan",
                          lines["attack", "plan"])
    for (section, key), lineno in lines.items():
        if KEYS[section, key][3] is _attacked and scen.attack_kind == "none":
            raise ConfigError(f"[attack] key {key!r} needs strategy A or B, but the scenario "
                              "is honest", lineno)
    return scen


def load_scenario(path) -> Scenario:
    path = Path(path)
    return replace(parse_scenario(path.read_text(encoding="utf-8")), directory=path.parent)
