"""Deterministic artifact writers: CSV, JSON and the run manifest.

All files are written atomically (temp file + rename) with 17 significant
digits so downstream tools can reload values losslessly.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.17g"


@contextmanager
def _atomic_open(path):
    """A text file that replaces `path` once it is written in full; a failed
    write or rename leaves no temp file and raises an OSError naming `path`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        tmp.unlink(missing_ok=True)  # already gone after the rename


def write_csv_atomic(path, columns: dict, header_comments=()) -> None:
    """Write named columns; comment lines name units and the dB flag."""
    header = "\n".join([*(f"# {c}" for c in header_comments), ",".join(columns)])
    with _atomic_open(path) as fh:
        np.savetxt(fh, np.column_stack(list(columns.values())), fmt=FLOAT_FMT, delimiter=",",
                   header=header, comments="")


def write_json_atomic(path, payload) -> None:
    with _atomic_open(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _versions() -> dict:
    from scaperture import __version__

    return {
        "scaperture": __version__,
        "numpy": np.__version__,
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
