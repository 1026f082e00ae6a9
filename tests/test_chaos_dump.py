"""The chaos matrix's outcomes, pinned.

``tests/test_chaos_faults.py`` checks each chaos cell against the
discrete oracle, which shares the product's kernel and planes: a change
that moves both the same way passes there. Here the product alone runs
90 cells — the 70 of the no-hang matrix (30 plain ``seed × flow × mode``,
15 congested bandwidth, 15 congested latency, 5 batched, 5 batched
congested), the 10 row-loop cells, and 10 latency ``batch=BATCH``
shuffle and combiner cells — and each cell's outcomes, tuple counts,
endpoint end instants and final time must equal the dump in
``tests/chaos_dump.json``. A change that means to move a cell
regenerates the dump and says why::

    PYTHONPATH=src python -m tests.test_chaos_dump
"""

import json
from pathlib import Path

from repro.core import Optimization
from tests.test_chaos_faults import (
    BATCH,
    CHAOS_CONGESTION,
    FLOW_TYPES,
    MODES,
    ROW_BATCH,
    SEEDS,
    _run_chaos,
)

DUMP = Path(__file__).with_name("chaos_dump.json")

BANDWIDTH, LATENCY = Optimization.BANDWIDTH, Optimization.LATENCY

#: ``(seed, flow type, mode, congestion, batch)`` of every pinned cell.
CELLS = (
    [(seed, flow, mode, None, None)
     for seed in SEEDS for flow in FLOW_TYPES for mode in MODES]
    + [(seed, flow, mode, CHAOS_CONGESTION, None)
       for mode in MODES for seed in SEEDS for flow in FLOW_TYPES]
    + [(seed, "shuffle", BANDWIDTH, congestion, batch)
       for batch in (BATCH, ROW_BATCH)
       for congestion in (None, CHAOS_CONGESTION) for seed in SEEDS]
    + [(seed, flow, LATENCY, None, BATCH)
       for flow in ("shuffle", "combiner") for seed in SEEDS])


def _cell_id(seed, flow, mode, congestion, batch) -> str:
    return (f"{flow}-{mode.value}-seed{seed}"
            f"{'-congested' if congestion is not None else ''}"
            f"{f'-batch{batch}' if batch is not None else ''}")


def _entries(table: dict) -> list:
    """``{("src", 0): value, ...}`` as sorted ``[kind, index, value]``
    rows, which JSON keeps."""
    return [[*key, value] for key, value in sorted(table.items())]


def _cell(seed, flow, mode, congestion, batch) -> dict:
    ends = {}
    outcomes, counts, now = _run_chaos(seed, flow, mode, congestion,
                                       batch, ends)
    return {"outcomes": _entries(outcomes), "counts": _entries(counts),
            "ends": _entries(ends), "now": now}


def dump() -> dict:
    """Every pinned cell's record, keyed by cell id."""
    return {_cell_id(*cell): _cell(*cell) for cell in CELLS}


def test_chaos_cells_match_the_pinned_dump():
    pinned = json.loads(DUMP.read_text())
    assert len(CELLS) == len(pinned) == 90
    for cell in CELLS:
        key = _cell_id(*cell)
        assert _cell(*cell) == pinned[key], key


if __name__ == "__main__":
    cells = sorted(dump().items())
    DUMP.write_text("{\n" + ",\n".join(
        f" {json.dumps(key)}: {json.dumps(record, sort_keys=True)}"
        for key, record in cells) + "\n}\n")
    print(f"wrote {len(CELLS)} cells to {DUMP}")
