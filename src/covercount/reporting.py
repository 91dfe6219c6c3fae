"""Deterministic report emission: JSON summaries, CSV tables, and a manifest
of content hashes.  Identical inputs produce byte-identical outputs."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__


def _plain(obj):
    """Recursively convert to JSON-encodable builtins; NaN becomes None."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())  # 0-d arrays land on the scalar branches
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return None if math.isnan(x) else x
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n"


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:12]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class ReportWriter:
    """Accumulates files under a run directory; finish() writes the manifest."""

    def __init__(self, out_dir, command: str, config: dict):
        self.config = dict(config)
        self.hash = config_hash({"command": command, **self.config})
        self.dir = Path(out_dir) / f"{command}-{self.hash}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.command = command
        self._files: list[str] = []

    def write_json(self, name: str, obj) -> Path:
        path = self.dir / name
        path.write_text(canonical_json(obj))
        self._files.append(name)
        return path

    def write_csv(self, name: str, header, rows) -> Path:
        path = self.dir / name
        lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
        path.write_text("\n".join(lines) + "\n")
        self._files.append(name)
        return path

    def finish(self, fingerprints: Optional[dict] = None) -> dict:
        manifest = {
            "tool_version": __version__,
            "command": self.command,
            "config": _plain(self.config),
            "config_hash": self.hash,
            "fingerprints": _plain(fingerprints or {}),
            "files": {name: sha256_file(self.dir / name) for name in sorted(self._files)},
        }
        (self.dir / "manifest.json").write_text(canonical_json(manifest))
        manifest["manifest_sha256"] = sha256_file(self.dir / "manifest.json")
        return manifest


def census_csv_rows(report) -> tuple[list[str], list[list]]:
    """One row per class (sorted) and checkpoint; a class with no prediction
    gets nan in the predicted and ratio columns."""
    header = ["checkpoint", "class", "count", "predicted", "ratio"]
    nan = [float("nan")] * len(report.checkpoints)
    rows = []
    for key in sorted(report.counts):
        label = "|".join(str(x) for x in key) if isinstance(key, tuple) else str(key)
        cols = zip(report.checkpoints, report.counts[key],
                   report.predictions.get(key, nan), report.ratios.get(key, nan))
        rows += [[float(T), label, float(c), float(p), float(r)] for T, c, p, r in cols]
    return header, rows


def scan_csv_rows(report) -> tuple[list[str], list[list]]:
    header = ["t", "v", "p", "abs_lambda", "violation"]
    rows = [[r.t, "|".join(repr(x) for x in r.v), r.p, r.abs_lambda, int(r.violation)]
            for r in report.rows]
    return header, rows
