"""Deterministic artifact writers: CSV, JSON and the run manifest.

All files are written atomically (temp file + rename) with 17 significant
digits so downstream tools can reload values losslessly.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

FLOAT_FMT = "%.17g"


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_csv_atomic(path, columns: dict, header_comments=()) -> None:
    """Write named columns; comment lines name units and the dB flag."""
    path = Path(path)
    names = list(columns)
    arrays = [columns[k] for k in names]
    n = len(arrays[0])
    lines = [f"# {c}" for c in header_comments]
    lines.append(",".join(names))
    for i in range(n):
        lines.append(",".join(FLOAT_FMT % a[i] for a in arrays))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_json_atomic(path, payload) -> None:
    path = Path(path)
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _versions() -> dict:
    import numpy

    from scaperture import __version__

    return {
        "scaperture": __version__,
        "numpy": numpy.__version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
    }


def write_manifest(path, command: str, config_doc: dict, threads) -> None:
    """Resolved config plus versions; deterministic byte-for-byte on rerun."""
    payload = {
        "command": command,
        "config": config_doc,
        "threads": threads,
        "versions": _versions(),
    }
    write_json_atomic(path, payload)
