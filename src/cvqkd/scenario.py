"""Scenario files: flat, sectioned key-value configuration for batch runs.

Format is INI-like: ``[section]`` headers, ``key = value`` lines, ``#``
comments. Unknown sections or keys are hard errors carrying the offending
line number. Units follow the simulator conventions: intensities in
photo-electron counts, modulation/excess noise in shot-noise units.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .attack import DEFAULT_WAVELENGTHS, STRATEGIES
from .errors import ConfigError
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
    x = parse_float(value, line, key)
    if x != int(x):
        raise ConfigError(f"{key}: expected an integer, got {value!r}", line)
    return int(x)


def _parse_bool(value: str, line: int, key: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {value!r}", line)


def _text(value: str, line: int, key: str) -> str:
    return value


_NM_KEYS = ("set1_signal_nm", "set1_lo_nm", "set2_signal_nm", "set2_lo_nm")
# section -> key -> parser of its value; [schedule] keys are ratios, parsed apart
_KEYS = {
    "system": {
        "modulation_variance": parse_float, "detector_efficiency": parse_float,
        "electronic_noise": parse_float, "channel_transmittance": parse_float,
        "excess_noise": parse_float, "lo_intensity": parse_float, "curve": _text,
    },
    "attack": {
        "strategy": _text, "mode": _text, "plan": _text, "compensate_lo": _parse_bool,
        **dict.fromkeys(_NM_KEYS, parse_float),
    },
    "run": {"slots": _parse_int, "master_seed": _parse_int},
    "outputs": dict.fromkeys(("records", "report", "polynomial", "verdict", "plan"), _text),
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

    def __post_init__(self):
        if self.slots <= 0:
            raise ConfigError(f"slots must be > 0, got {self.slots}")
        if self.attack_kind not in ("none", *STRATEGIES):
            raise ConfigError(f"attack strategy must be none/A/B, got {self.attack_kind!r}")
        if self.attack_mode not in ("solve", "plan"):
            raise ConfigError(f"attack mode must be solve/plan, got {self.attack_mode!r}")
        if self.attack_mode == "plan" and not self.plan_path:
            raise ConfigError("attack mode 'plan' needs a plan = <path> entry")
        if not self.source_text:
            object.__setattr__(self, "source_text", self.canonical_text())

    def scenario_hash(self, plan_file: bytes = b"") -> str:
        """Hash of the source text and of the effective configuration.

        The canonical text carries any later override of ``slots`` or
        ``master_seed``, so runs that differ only in those get different hashes.
        ``plan_file`` holds the bytes of the plan file a plan-mode run replays.
        """
        text = self.source_text + self.canonical_text()
        return hashlib.sha256(text.encode("utf-8") + plan_file).hexdigest()[:16]

    def load_curve(self) -> BeamSplitterCurve:
        if self.curve_name in BUILTIN_CURVES:
            return builtin_curve(self.curve_name)
        return load_curve(self.curve_name)

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

    Each value is parsed on its own line, so the first error in line order is
    the one reported. A key given twice in one section is an error naming
    both lines. Errors found when the parameters are put together are
    reported at the line of the section header they come from.
    """
    section = None
    headers: dict[str, int] = {}
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
            ratio = parse_float(key, lineno, "schedule ratio")
            prob = parse_float(value, lineno, "schedule probability")
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

    system, attack, run, outputs = (entries[s] for s in ("system", "attack", "run", "outputs"))
    detector = _located(headers.get("system"), DetectorConfig, **_given(
        system, "electronic_noise", efficiency="detector_efficiency"))
    fields = _given(system, "modulation_variance", "channel_transmittance", "excess_noise",
                    "lo_intensity")
    if schedule:
        fields["schedule"] = _located(headers.get("schedule"), AttenuationSchedule,
                                      tuple((r, p) for r, (p, _) in schedule.items()))
    params = _located(headers.get("system"), SystemParams, detector=detector, **fields)

    if "slots" in run and run["slots"][0] <= 0:
        raise ConfigError(f"slots must be > 0, got {run['slots'][0]}", run["slots"][1])
    if "master_seed" in run and run["master_seed"][0] < 0:
        raise ConfigError(f"master_seed must be >= 0, got {run['master_seed'][0]}",
                          run["master_seed"][1])

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
    return scen


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
