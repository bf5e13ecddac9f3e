"""Write one section of a BENCH_*.json file, its other sections kept.

Shared by the scripts that measure into those files. It imports no ``symform``,
so a script that runs without ``PYTHONPATH=src`` can use it; a script that pins
its BLAS threads does so before importing it, as it loads numpy.
"""
from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy as np


def machine() -> dict:
    """The machine a section was measured on, at one BLAS thread."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": platform.processor() or platform.machine(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": 1}


def write_section(path: Path, name: str, section: dict) -> None:
    """Put ``section`` under ``name`` in the JSON file at ``path`` (made if missing), with
    every other section kept and each row of the ``solver_paths`` table on one line."""
    data = json.loads(path.read_text()) if path.exists() else {}
    data[name] = section
    text = json.dumps(data, indent=1)
    for row in data.get("solver_paths", {}).get("table", []):
        text = text.replace(json.dumps(row, indent=1).replace("\n", "\n   "), json.dumps(row), 1)
    path.write_text(text + "\n")
