"""The shared machine-readable result envelope.

Every benchmark artifact (``benchmarks/results/BENCH_*.json``) and every
scenario report (``repro scenarios run --out``) wraps its payload in the
same envelope — ``schema_version``, a ``host`` block and a UTC
``generated_at`` timestamp — so any result file says which machine and
Python produced it.

``benchmarks/conftest.py::emit_result`` delegates here; the
``scenarios run`` CLI uses it directly, which is why the implementation
lives in the installable package rather than in the benchmark tree.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
from pathlib import Path
from typing import Dict

__all__ = ["RESULT_SCHEMA_VERSION", "result_envelope", "write_result"]

#: Version of the shared envelope.  Bump when a shared field changes
#: shape; per-artifact payload fields are owned by their emitter and
#: versioned implicitly through their ``benchmark`` key.
RESULT_SCHEMA_VERSION = 1


def result_envelope(payload: Dict) -> Dict:
    """``payload`` wrapped in the shared metadata envelope.

    The payload keys are merged in as-is and win on collision — an
    emitter may pin its own timestamp for reproducibility, for example.
    """
    envelope = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "generated_at": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    }
    envelope.update(payload)
    return envelope


def write_result(path: "Path | str", payload: Dict) -> Path:
    """Write ``payload`` under the envelope to ``path`` (pretty JSON)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(result_envelope(payload), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path
