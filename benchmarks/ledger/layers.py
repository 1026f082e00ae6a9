"""Layer map: which of the 14 layers a profiled frame belongs to.

Layers are module names of ``src/repro``. Rules are prefixes of the path
below the package directory, first match wins, and every sub-package has
an ``other`` fallback, so a module a later PR adds (or a module that
becomes a package: ``core/schema/…``) lands in a bucket without an edit
here. Code that ``core.schema`` generates at run time is compiled under
``<schema-…>`` pseudo file names and belongs to ``core.schema``.
Everything else — the benchmark's own frames, ``repro.bench``,
``repro.common``, the stdlib — is ``bench``.
"""

from __future__ import annotations

import os

LAYERS = (
    "core.schema", "core.shuffle", "core.replicate", "core.routing",
    "core.other", "rdma.qp", "rdma.other", "simnet.kernel", "simnet.shard",
    "simnet.fabric", "simnet.congestion", "simnet.other", "obs", "bench",
)

_RULES = (
    ("core/schema", "core.schema"),
    ("core/shuffle", "core.shuffle"),
    ("core/replicate", "core.replicate"),
    ("core/routing", "core.routing"),
    ("core/", "core.other"),
    ("rdma/qp", "rdma.qp"),
    ("rdma/", "rdma.other"),
    ("simnet/kernel", "simnet.kernel"),
    ("simnet/shard", "simnet.shard"),       # shard.py and shardexec.py
    ("simnet/fabric", "simnet.fabric"),
    ("simnet/link", "simnet.fabric"),
    ("simnet/congestion", "simnet.congestion"),
    ("simnet/", "simnet.other"),
    ("obs/", "obs"),
)


def layer_of(filename: str, package_dir: str) -> str:
    """Layer of a code object's ``co_filename``; ``package_dir`` is the
    directory of the imported ``repro`` package."""
    if filename.startswith("<schema-"):
        return "core.schema"
    root = os.path.join(package_dir, "")
    if not filename.startswith(root):
        return "bench"
    relative = filename[len(root):].replace(os.sep, "/")
    for prefix, layer in _RULES:
        if relative.startswith(prefix):
            return layer
    return "bench"


def bucket(entries, package_dir: str) -> dict:
    """Fold ``cProfile.Profile.getstats()`` entries into
    ``{layer: [self_seconds, calls]}`` over all 14 layers.

    A Python function's ``inlinetime`` is its self time. A C function has
    no file, so each of its calls is charged to the layer of the Python
    frame that made it (the caller's sub-entry holds exactly that time
    and count); C time with no Python caller in the profile goes to
    ``bench``.
    """
    totals = {layer: [0.0, 0] for layer in LAYERS}
    c_seconds = 0.0
    c_calls = 0
    for entry in entries:
        if isinstance(entry.code, str):
            c_seconds += entry.inlinetime
            c_calls += entry.callcount
            continue
        cell = totals[layer_of(entry.code.co_filename, package_dir)]
        cell[0] += entry.inlinetime
        cell[1] += entry.callcount
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                cell[0] += callee.inlinetime
                cell[1] += callee.callcount
                c_seconds -= callee.inlinetime
                c_calls -= callee.callcount
    totals["bench"][0] += c_seconds
    totals["bench"][1] += c_calls
    return totals
