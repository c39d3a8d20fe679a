"""Process plumbing: fresh child interpreters and the host record.

Each workload runs in its own interpreter so ``peak_rss_mb`` is its own
and no module-level state (request-id counters, memo caches) leaks from
one workload into the next.  Children run strictly one after another:
the box has two cores and the second is left to the OS.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

import numpy

ROOT = Path(__file__).resolve().parents[2]
#: Scratch space inside the checkout (spill streams, span dumps).
WORKDIR = ROOT / ".bench_build" / "perf"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # String hashing feeds dict and set layout; pinned so host time does
    # not move with the interpreter's per-process hash seed.
    env["PYTHONHASHSEED"] = "0"
    # One process, one thread: numpy's BLAS pool would otherwise occupy
    # the second core, which is left to the OS.
    for pool in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[pool] = "1"
    return env


def run_child(args: List[str]) -> dict:
    """Run ``python -m benchmarks.perf.child`` and return its document.

    The child's last stdout line is its JSON document; anything else it
    prints passes through to stderr.  A child that dies raises.
    """
    WORKDIR.mkdir(parents=True, exist_ok=True)
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf.child", "--workdir", str(WORKDIR), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"benchmark child exited with {done.returncode}: {' '.join(args)}"
        )
    return json.loads(lines[-1])


def _git_revision() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_record() -> dict:
    """What the numbers were measured on (recorded beside them)."""
    return {
        "nproc": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_revision": _git_revision(),
    }
