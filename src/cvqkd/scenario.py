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

from .attack import DEFAULT_WAVELENGTHS
from .errors import ConfigError
from .physics import BeamSplitterCurve, DetectorConfig, builtin_curve, load_curve
from .protocol import TWO_POINT_SCHEDULE, AttenuationSchedule, SystemParams

_SYSTEM_KEYS = {
    "modulation_variance", "detector_efficiency", "electronic_noise",
    "channel_transmittance", "excess_noise", "lo_intensity", "curve",
}
_ATTACK_KEYS = {
    "strategy", "mode", "plan", "amplification", "compensate_lo",
    "set1_signal_nm", "set1_lo_nm", "set2_signal_nm", "set2_lo_nm",
}
_RUN_KEYS = {"slots", "master_seed"}
_OUTPUT_KEYS = {"records", "report", "polynomial", "verdict", "plan"}


def _parse_float(value: str, line: int, key: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}", line)
    if not math.isfinite(x):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}", line)
    return x


def _parse_int(value: str, line: int, key: str) -> int:
    x = _parse_float(value, line, key)
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


@dataclass
class Scenario:
    """One fully specified run: system constants, attack request, outputs."""

    params: SystemParams
    curve_name: str = "50:50"
    attack_kind: str = "none"        # none | A | B
    attack_mode: str = "solve"       # solve | plan | fixed
    plan_path: str | None = None
    fixed_amplification: float | None = None
    compensate_lo: bool = True
    wavelengths: tuple[float, float, float, float] = DEFAULT_WAVELENGTHS
    slots: int = 1_000_000
    master_seed: int = 1
    outputs: dict[str, str] = field(default_factory=dict)
    source_text: str = ""

    def __post_init__(self):
        if self.slots <= 0:
            raise ConfigError(f"slots must be > 0, got {self.slots}")
        if self.attack_kind not in ("none", "A", "B"):
            raise ConfigError(f"attack strategy must be none/A/B, got {self.attack_kind!r}")
        if self.attack_mode not in ("solve", "plan", "fixed"):
            raise ConfigError(f"attack mode must be solve/plan/fixed, got {self.attack_mode!r}")
        if self.attack_mode == "plan" and not self.plan_path:
            raise ConfigError("attack mode 'plan' needs a plan = <path> entry")
        if self.attack_mode == "fixed" and self.fixed_amplification is None:
            raise ConfigError("attack mode 'fixed' needs amplification = <N>")
        if self.attack_mode == "fixed" and self.attack_kind == "B":
            raise ConfigError("fixed-amplification mode only applies to strategy A")
        if not self.source_text:
            self.source_text = self.canonical_text()

    def scenario_hash(self) -> str:
        """Hash of the source text and of the effective configuration.

        The canonical text carries any later override of ``slots`` or
        ``master_seed``, so runs that differ only in those get different hashes.
        """
        text = self.source_text + self.canonical_text()
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def load_curve(self) -> BeamSplitterCurve:
        if self.curve_name in ("50:50", "10:90"):
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
            if self.fixed_amplification is not None:
                lines.append(f"amplification = {self.fixed_amplification!r}")
            lines.append(f"compensate_lo = {str(self.compensate_lo).lower()}")
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


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text, reporting problems with their line numbers.

    A key given twice in one section is an error naming both lines. Errors
    found when the parameters are put together are reported at the line of
    the section header they come from.
    """
    section = None
    headers: dict[str, int] = {}
    entries: dict[str, dict[str, tuple[str, int]]] = {
        "system": {}, "attack": {}, "run": {}, "outputs": {}}
    allowed = {"system": _SYSTEM_KEYS, "attack": _ATTACK_KEYS, "run": _RUN_KEYS,
               "outputs": _OUTPUT_KEYS}
    schedule: dict[float, tuple[float, int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {raw.strip()!r}", lineno)
            section = line[1:-1].strip().lower()
            if section not in ("system", "schedule", "attack", "run", "outputs"):
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
            ratio = _parse_float(key, lineno, "schedule ratio")
            prob = _parse_float(value, lineno, "schedule probability")
            if ratio in schedule:
                raise ConfigError(f"duplicate schedule ratio {ratio!r}, first given on "
                                  f"line {schedule[ratio][1]}", lineno)
            schedule[ratio] = (prob, lineno)
            continue
        if key not in allowed[section]:
            raise ConfigError(f"unknown [{section}] key {key!r}", lineno)
        seen = entries[section]
        if key in seen:
            raise ConfigError(f"duplicate [{section}] key {key!r}, first given on "
                              f"line {seen[key][1]}", lineno)
        seen[key] = (value, lineno)

    system, attack, run = entries["system"], entries["attack"], entries["run"]

    def sysf(key: str, default: float) -> float:
        if key not in system:
            return default
        value, lineno = system[key]
        return _parse_float(value, lineno, key)

    system_line = headers.get("system")
    detector = _located(system_line, DetectorConfig,
                        efficiency=sysf("detector_efficiency", 0.5),
                        electronic_noise=sysf("electronic_noise", 0.0))
    sched = TWO_POINT_SCHEDULE
    if schedule:
        sched = _located(headers.get("schedule"), AttenuationSchedule,
                         tuple((r, p) for r, (p, _) in schedule.items()))
    params = _located(system_line, SystemParams,
                      modulation_variance=sysf("modulation_variance", 5.0),
                      channel_transmittance=sysf("channel_transmittance", 0.9),
                      excess_noise=sysf("excess_noise", 0.1),
                      detector=detector,
                      lo_intensity=sysf("lo_intensity", 1e8),
                      schedule=sched)

    if "mode" in attack:
        mode = attack["mode"][0]
    elif "amplification" in attack:
        mode = "fixed"
    else:
        mode = "solve"

    wavelengths = tuple(
        _parse_float(attack[k][0], attack[k][1], k) if k in attack else DEFAULT_WAVELENGTHS[i]
        for i, k in enumerate(("set1_signal_nm", "set1_lo_nm", "set2_signal_nm", "set2_lo_nm"))
    )
    fixed_n = None
    if "amplification" in attack:
        fixed_n = _parse_float(*attack["amplification"], "amplification")
    compensate = True
    if "compensate_lo" in attack:
        compensate = _parse_bool(*attack["compensate_lo"], "compensate_lo")

    attack_kind = attack["strategy"][0] if "strategy" in attack else "none"
    outputs = entries["outputs"]
    if "plan" in outputs and attack_kind == "none":
        raise ConfigError("a plan output needs an attack, but the scenario is honest",
                          outputs["plan"][1])

    slots = 1_000_000
    if "slots" in run:
        slots = _parse_int(*run["slots"], "slots")
        if slots <= 0:
            raise ConfigError(f"slots must be > 0, got {slots}", run["slots"][1])
    seed = 1
    if "master_seed" in run:
        seed = _parse_int(*run["master_seed"], "master_seed")
        if seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {seed}", run["master_seed"][1])

    return _located(
        headers.get("attack"), Scenario,
        params=params,
        curve_name=system["curve"][0] if "curve" in system else "50:50",
        attack_kind=attack_kind,
        attack_mode=mode,
        plan_path=attack["plan"][0] if "plan" in attack else None,
        fixed_amplification=fixed_n,
        compensate_lo=compensate,
        wavelengths=wavelengths,  # type: ignore[arg-type]
        slots=slots,
        master_seed=seed,
        outputs={k: v for k, (v, _) in outputs.items()},
        source_text=text,
    )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
