"""Golden artifacts: every file and stdout of the CLI, byte for byte.

``golden_sha256.txt`` holds one ``<name> <sha256>`` line per artifact after a
``# numpy <version>`` line: the sampler draws through numpy, so digests made
with another numpy are not comparable. The inputs are the shipped scenarios
with ``[run] slots = 20000`` written into the file: 20000 slots end in a
partial sampler chunk and a partial records write block. One ``attack_a`` run
with ``--slots 140000`` (two full chunks of ``rng.CHUNK_SLOTS`` and a partial
one) and a ``detect`` of its records fold more than one chunk, so they pass
through the moments' merge and, on more than one CPU, the forked records
writer and reader. After a change that
is meant to move an artifact, rebuild the table with
``PYTHONPATH=src python tests/test_golden.py``, which prints each changed,
added or removed row to stderr, and name the rows that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from cvqkd.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
TABLE = Path(__file__).resolve().parent / "golden_sha256.txt"
SLOTS = 20000
CHUNKED_SLOTS = 140000  # two full sampler chunks and a partial one


def _call(argv: list[str]) -> bytes:
    """``main(argv)``'s stdout; the call must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    assert rc == 0, f"{' '.join(argv)} exited {rc}"
    return out.getvalue().encode("utf-8")


def _digests(argv: list[str], out: str) -> dict[str, str]:
    """SHA-256 of ``main(argv)``'s stdout and of each file it wrote under ``out``."""
    found = {f"{out}/stdout": hashlib.sha256(_call(argv)).hexdigest()}
    for path in sorted(Path(out).iterdir()):
        found[f"{out}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def artifacts() -> dict[str, str]:
    """Digest of every artifact, by name; run with the working directory
    empty, so each path and stdout line is the same wherever it runs."""
    Path("scenarios").mkdir()
    for name in ("honest", "attack_a", "attack_b"):
        text = (SCENARIOS / f"{name}.scenario").read_text(encoding="utf-8")
        assert text.count("slots = 1000000\n") == 1, name
        Path(f"scenarios/{name}.scenario").write_text(
            text.replace("slots = 1000000\n", f"slots = {SLOTS}\n"), encoding="utf-8")

    found: dict[str, str] = {}
    for name in ("honest", "attack_a", "attack_b"):
        for seed in ("1", "777"):
            out = f"run/{name}/seed{seed}"
            found |= _digests(["run", "--scenario", f"scenarios/{name}.scenario",
                               "--seed", seed, "--out", out], out)
    chunked = f"attack_a/slots{CHUNKED_SLOTS}"
    found |= _digests(["run", "--scenario", "scenarios/attack_a.scenario",
                       "--slots", str(CHUNKED_SLOTS), "--out", f"run/{chunked}"], f"run/{chunked}")
    for name, run in (("honest", "honest/seed1"), ("attack_a", "attack_a/seed1"),
                      (chunked, chunked)):
        out = f"detect/{name}"
        found |= _digests(["detect", "--records", f"run/{run}/records.csv", "--out", out], out)
    for name in ("attack_a", "attack_b"):
        out = f"solve/{name}"
        found |= _digests(["solve", "--scenario", f"scenarios/{name}.scenario",
                           "--out", out], out)
    sweep = ["sweep", "--scenario", "scenarios/attack_a.scenario", "--variable", "eta_ch",
             "--start", "0.5", "--stop", "0.95", "--points", "4"]
    found |= _digests(sweep + ["--mc", "--slots", str(SLOTS), "--out", "sweep/part1"],
                      "sweep/part1")
    found |= _digests(sweep + ["--mode", "solved", "--out", "sweep/solved"], "sweep/solved")
    return found


def read_table() -> tuple[str, dict[str, str]]:
    """The numpy version the table was made with, and its digests by name."""
    first, *rows = TABLE.read_text(encoding="utf-8").splitlines()
    assert first.startswith("# numpy "), f"{TABLE}: first line is not '# numpy <version>'"
    return first.removeprefix("# numpy "), dict(row.split(" ") for row in rows)


def test_every_artifact_matches_the_golden_table(tmp_path, monkeypatch):
    made_with, table = read_table()
    assert np.__version__ == made_with, (
        f"the golden table was made with numpy {made_with}, this is numpy {np.__version__}")
    monkeypatch.chdir(tmp_path)
    moved = moved_rows(table, artifacts())
    assert not moved, "artifacts differ from the golden table: " + ", ".join(moved)


def moved_rows(table: dict[str, str], found: dict[str, str]) -> list[str]:
    """Each row name whose digest differs between ``table`` and ``found``, or
    that only one of them holds, in name order."""
    return sorted(k for k in table.keys() | found.keys() if table.get(k) != found.get(k))


if __name__ == "__main__":
    table = read_table()[1] if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        found = artifacts()
    for name in moved_rows(table, found):
        change = "added" if name not in table else "removed" if name not in found else "changed"
        print(f"{change} {name}", file=sys.stderr)
    TABLE.write_text(f"# numpy {np.__version__}\n"
                     + "".join(f"{k} {v}\n" for k, v in sorted(found.items())),
                     encoding="utf-8")
    print(f"wrote {TABLE} ({len(found)} rows)", file=sys.stderr)
