"""Correctness gate behind ``error_rate``: checks on the artifacts the ops wrote.

Only checks whose false-failure rate is known and at most 1e-4 per op are gated:

- every op exits with status 0: deterministic;
- every listed artifact exists and starts with its header line (``# format=``
  with the op's seed; the records CSV's column line starts with ``slot,``):
  deterministic;
- attacked verdicts are true: at 1e6 slots the lowest a/c over 40 seeds was
  0.87 (strategy A) and 0.44 (strategy B), against the 0.05 threshold;
- the honest 2e7-slot verdict is false: a/c has sd about 0.012 there, so a
  false alarm has a chance of about 1e-5 per seed;
- the a/c that ``detect`` reports equals, character for character, the a/c in
  the polynomial artifact of the ``run`` that wrote the records: deterministic;
- repeating an op with the same seed (also traced, or at another thread
  count) gives byte-identical artifacts: deterministic.

Not gated, reported as observations: the verdict of ``honest.scenario`` at 1e6
slots (a/c sd 0.054 over 40 seeds, 2 of 40 above 0.05) and the two-point
``excess_noise_est`` of the attacks against 0.02 (11 of 40 seeds above it for
strategy A, 21 of 40 for B). Both come from the uncalibrated fixed threshold.
"""

from __future__ import annotations


def report_values(text: str, key: str) -> list[str]:
    """Every value of ``key`` in a ``key = value`` artifact, as written."""
    values = []
    for line in text.splitlines():
        k, sep, v = line.partition("=")
        if sep and not line.startswith("#") and k.strip() == key:
            values.append(v.strip())
    return values


def _header_ok(name: str, entry: dict | None, seed: int) -> bool:
    if entry is None:
        return False
    first, second = entry["head"]
    tokens = first.split()
    if not (first.startswith("# format=") and f"seed={seed}" in tokens):
        return False
    return not name.endswith(".csv") or second.startswith("slot,")


def check_records(records: list[dict]) -> list[tuple[str, bool]]:
    """(check, passed) for every gated check over the op records of one run."""
    results: list[tuple[str, bool]] = []
    by_name = {}
    for rec in records:
        by_name.setdefault(rec["name"], rec)
        label = (f"{rec['name']}[{rec.get('child', '')} pass {rec['pass']}, "
                 f"seed {rec['seed']}, {rec['threads']}t]")
        arts = rec["artifacts"]
        results.append((f"exit status 0: {label}", rec["rc"] == 0))
        for name in rec["expect"]:
            results.append((f"artifact {name} with header: {label}",
                            _header_ok(name, arts.get(name), rec["seed"])))
        if rec["attacked"] is not None:
            verdict = report_values(arts.get("verdict.txt", {}).get("text", ""), "attacked")
            want = "true" if rec["attacked"] else "false"
            results.append((f"verdict attacked = {want}: {label}", verdict == [want]))
        if rec["ac_from"] is not None:
            source = by_name.get(rec["ac_from"])
            ref = [] if source is None else report_values(
                source["artifacts"].get("polynomial.txt", {}).get("text", ""), "a_over_c")
            got = report_values(arts.get("verdict.txt", {}).get("text", ""), "a_over_c")
            results.append((f"a/c equals {rec['ac_from']} polynomial: {label}",
                            len(ref) == 1 and bool(got) and set(got) == set(ref)))
    first_seen: dict[tuple, dict] = {}
    for rec in records:
        key = (rec["name"], rec["seed"])
        if key not in first_seen:
            first_seen[key] = rec
            continue
        base = first_seen[key]
        same = ({n: e["sha256"] for n, e in rec["artifacts"].items()}
                == {n: e["sha256"] for n, e in base["artifacts"].items()})
        results.append((f"byte-identical repeat of {rec['name']}[seed {rec['seed']}] "
                        f"({base.get('child', '')} pass {base['pass']} {base['threads']}t vs "
                        f"{rec.get('child', '')} pass {rec['pass']} {rec['threads']}t)", same))
    return results


def observations(records: list[dict]) -> list[str]:
    """Ungated values worth printing: each op's verdict and excess-noise estimate."""
    lines, seen = [], set()
    for rec in records:
        key = (rec["name"], rec["seed"])
        if key in seen:
            continue
        seen.add(key)
        arts = rec["artifacts"]
        parts = []
        verdict_text = arts.get("verdict.txt", {}).get("text", "")
        for k in ("a_over_c", "attacked"):
            values = report_values(verdict_text, k)
            if values:
                parts.append(f"{k}={values[-1]}")
        xi = report_values(arts.get("report.txt", {}).get("text", ""), "excess_noise_est")
        if xi:
            parts.append(f"excess_noise_est={xi[0]} (<= 0.02: {float(xi[0]) <= 0.02})")
        gate = "gated" if rec["attacked"] is not None else "not gated"
        if parts:
            lines.append(f"{rec['name']}[seed {rec['seed']}, {rec['slots']} slots, verdict "
                         f"{gate}]: " + " ".join(parts))
    return lines
