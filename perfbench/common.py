"""Helpers shared by the benchmark harness and its program processes."""

from __future__ import annotations

import math
import os
import platform
import subprocess
import sys

#: program sources, relative to the checkout root the benchmark runs from
SRC_DIR = "src"
#: working directory for inputs, data directories, spans and result files
WORK_DIR = ".perfbench_work"

#: the hash seed every program process runs with (override with
#: ``--hash-seed`` to check a claim on a second seed)
DEFAULT_HASH_SEED = 0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of pre-sorted raw samples."""
    if not sorted_values:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(samples: list[float], qs=(50, 90, 99)) -> dict:
    """Percentiles of raw samples, each with the sample count and how
    many samples lie beyond it (a tail percentile needs >= 10)."""
    values = sorted(samples)
    out = {"n": len(values)}
    for q in qs:
        value = percentile(values, q)
        beyond = sum(1 for v in values if v > value)
        out[f"p{q}"] = value
        out[f"p{q}_beyond"] = beyond
    out["mean"] = sum(values) / len(values) if values else float("nan")
    out["max"] = values[-1] if values else float("nan")
    return out


def median(values: list[float]) -> float:
    values = sorted(values)
    n = len(values)
    if n == 0:
        return float("nan")
    mid = n // 2
    return values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2.0


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a live process, in MB (10^6)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM for process {pid}")


def program_env(hash_seed: int) -> dict[str, str]:
    """Environment of every program process: the checkout's sources on
    the path and the pinned hash seed."""
    env = dict(os.environ)
    src = os.path.abspath(SRC_DIR)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def fingerprint(hash_seed: int) -> dict:
    """Environment fingerprint stored with every result."""
    try:
        import numpy  # noqa: F401

        has_numpy = True
    except ImportError:
        has_numpy = False
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": has_numpy,
        "git_sha": sha,
        "hash_seed": hash_seed,
        "executable": os.path.basename(sys.executable),
    }
