"""Deterministic experiment reports: verdicts plus a hashed file manifest.

The report carries no timestamps or host data, so identical seeded runs
produce byte-identical report files.  The CSV tables it lists are written
by ``write_csv`` with 17 significant digits, so they repeat byte for byte
as well.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .errors import ConfigError

REPORT_NAME = "report.json"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(path, header, rows) -> None:
    """One header line, then one comma-separated line per row."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def emit_report(verdicts, out_dir: str) -> dict:
    """Assemble and write the JSON report for the completed suites.

    Each verdict is one suite's result dictionary; file entries are
    resolved relative to out_dir and content-hashed into the manifest.
    """
    verdicts = list(verdicts)
    if not verdicts:
        raise ConfigError("cannot report an empty suite list")
    names = [v["suite"] for v in verdicts]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate suite verdicts: {names}")

    manifest = {}
    for verdict in verdicts:
        for name in verdict.get("files", ()):
            manifest[name] = _sha256(os.path.join(out_dir, name))

    report = {
        "passed": all(v["passed"] for v in verdicts),
        "suites": {v["suite"]: v for v in verdicts},
        "files": manifest,
    }
    path = os.path.join(out_dir, REPORT_NAME)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report
