"""What a result was measured on: code identity, interpreter, libraries,
BLAS and thread settings."""

from __future__ import annotations

import hashlib
import os
import platform
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "IRS_SECRECY_THREADS")


def git_sha(root: str):
    """HEAD commit read from ``.git`` without running git; None outside a
    repository (the benchmark may run from an exported tree)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def tree_hash(*dirs: str) -> str:
    """SHA-256 over the ``.py`` files under ``dirs`` (names and contents)."""
    h = hashlib.sha256()
    for d in dirs:
        for base, subdirs, files in sorted(os.walk(d)):
            subdirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    h.update(os.path.relpath(path, d).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def describe(root: str) -> dict:
    import numpy
    import scipy

    from irs_secrecy.mcoracle import thread_budget

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(root),
        "src_sha256": tree_hash(os.path.join(root, "src")),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "thread_budget": thread_budget(),
    }
