"""Scenario files: flat, sectioned key-value configuration for batch runs.

Format is INI-like: ``[section]`` headers, ``key = value`` lines, ``#``
comments. Unknown sections or keys are hard errors carrying the offending
line number. Units follow the simulator conventions: intensities in
photo-electron counts, modulation/excess noise in shot-noise units.
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


def _output_name(value: str, line: int, key: str) -> str:
    return check("output name", value, line=line, name=key)


def _ranged(value: str, line: int, key: str, parse=parse_float):
    """``parse`` the value, then check it against its key's row of ``errors.DOMAINS``."""
    return check(key, parse(value, line, key), line=line)


_NM_KEYS = ("set1_signal_nm", "set1_lo_nm", "set2_signal_nm", "set2_lo_nm")
# section -> key -> parser of its value; [schedule] keys are ratios, parsed apart
_KEYS = {
    "system": {
        **dict.fromkeys(("modulation_variance", "detector_efficiency", "channel_transmittance",
                         "excess_noise", "lo_intensity"), _ranged),
        "curve": _nonempty, "electronic_noise": parse_float,  # SystemParams checks its domain
    },
    "attack": {
        "strategy": lambda *args: _choice(*args, ("none", *STRATEGIES)),
        "mode": lambda *args: _choice(*args, ("solve", "plan")),
        "plan": _nonempty, "compensate_lo": _parse_bool,
        **dict.fromkeys(_NM_KEYS, parse_float),
    },
    "run": dict.fromkeys(("slots", "master_seed"), lambda *args: _ranged(*args, _parse_int)),
    "outputs": dict.fromkeys(("records", "report", "polynomial", "verdict", "plan"),
                             _output_name),
}


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
        p = self.params
        lines = [
            "[system]",
            f"modulation_variance = {p.modulation_variance!r}",
            f"detector_efficiency = {p.detector.efficiency!r}",
            f"electronic_noise = {p.detector.electronic_noise!r}",
            f"channel_transmittance = {p.channel_transmittance!r}",
            f"excess_noise = {p.excess_noise!r}",
            f"lo_intensity = {p.lo_intensity!r}",
            f"curve = {self.curve_name}",
            "[schedule]",
        ]
        for r, prob in p.schedule.entries:
            lines.append(f"{r!r} = {prob!r}")
        lines += ["[attack]", f"strategy = {self.attack_kind}"]
        if self.attack_kind != "none":
            lines.append(f"mode = {self.attack_mode}")
            if self.plan_path:
                lines.append(f"plan = {self.plan_path}")
            lines.append(f"compensate_lo = {str(self.compensate_lo).lower()}")
        if self.wavelengths != DEFAULT_WAVELENGTHS:
            lines += [f"{k} = {nm!r}" for k, nm in zip(_NM_KEYS, self.wavelengths)]
        lines += ["[run]", f"slots = {self.slots}", f"master_seed = {self.master_seed}"]
        if self.outputs:
            lines.append("[outputs]")
            lines += [f"{k} = {v}" for k, v in sorted(self.outputs.items())]
        return "\n".join(lines) + "\n"


def _located(line: int | None, build, *args, **kwargs):
    """Call ``build``; report a ValueError it raises as a ConfigError at ``line``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), line) from exc


def _given(entries: dict[str, tuple[object, int]], *keys: str, **renamed: str) -> dict:
    """Each given key's parsed value by field name (``keys`` name their own
    field, ``renamed`` maps field=key); an omitted key keeps its default."""
    names = {**{key: key for key in keys}, **renamed}
    return {name: entries[key][0] for name, key in names.items() if key in entries}


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text, reporting problems with their line numbers.

    Each value is parsed, and checked against its row of ``errors.DOMAINS``, on
    its own line, so the first error in line order is the one reported. A key
    given twice in one section, and two ``[outputs]`` keys naming one file or a
    file and a directory it lies in, are errors naming both lines. Errors found
    when the values are put together come after: electronic_noise's derived
    domain at its line, the others at the line of their section header.
    """
    section = None
    headers: dict[str, int] = {}
    files: dict[str, int] = {}  # each output's file, by normalized name, and its line
    entries: dict[str, dict[str, tuple[object, int]]] = {name: {} for name in _KEYS}
    schedule: dict[float, tuple[float, int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {raw.strip()!r}", lineno)
            section = line[1:-1].strip().lower()
            if section != "schedule" and section not in _KEYS:
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
        parse = _KEYS[section].get(key)
        if parse is None:
            raise ConfigError(f"unknown [{section}] key {key!r}", lineno)
        seen = entries[section]
        if key in seen:
            raise ConfigError(f"duplicate [{section}] key {key!r}, first given on "
                              f"line {seen[key][1]}", lineno)
        seen[key] = (parse(value, lineno, key), lineno)
        if section == "outputs":
            name = os.path.normpath(value)
            for other, first in files.items():
                if os.path.commonpath([name, other]) in (name, other):
                    where = ("as line {} does" if name == other else "a directory of line {}'s file"
                             if len(name) < len(other) else "below line {}'s file")
                    raise ConfigError(f"[outputs] key {key!r} names file {value!r}, "
                                      + where.format(first), lineno)
            files[name] = lineno

    system, attack, run, outputs = (entries[s] for s in ("system", "attack", "run", "outputs"))
    detector = DetectorConfig(**_given(system, "electronic_noise",
                                       efficiency="detector_efficiency"))
    fields = _given(system, "modulation_variance", "channel_transmittance", "excess_noise",
                    "lo_intensity")
    if "schedule" in headers:
        fields["schedule"] = _located(headers["schedule"], AttenuationSchedule,
                                      tuple((r, p) for r, (p, _) in schedule.items()))
    params = _located(system.get("electronic_noise", (None, None))[1], SystemParams,
                      detector=detector, **fields)

    fields = _given(attack, "compensate_lo", attack_kind="strategy", attack_mode="mode",
                    plan_path="plan")
    fields["wavelengths"] = tuple(attack[k][0] if k in attack else nm
                                  for k, nm in zip(_NM_KEYS, Scenario.wavelengths))
    scen = _located(headers.get("attack"), Scenario, params=params,
                    outputs={k: v for k, (v, _) in outputs.items()}, source_text=text,
                    **fields, **_given(system, curve_name="curve"),
                    **_given(run, "slots", "master_seed"))
    if "plan" in outputs and scen.attack_kind == "none":
        raise ConfigError("a plan output needs an attack, but the scenario is honest",
                          outputs["plan"][1])
    if "plan" in attack and (scen.attack_kind == "none" or scen.attack_mode != "plan"):
        raise ConfigError("a plan = <path> entry needs strategy A or B and mode = plan",
                          attack["plan"][1])
    return scen


def load_scenario(path) -> Scenario:
    path = Path(path)
    return replace(parse_scenario(path.read_text(encoding="utf-8")), directory=path.parent)
