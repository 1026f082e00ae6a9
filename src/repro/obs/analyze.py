"""Offline blame analyzer: ``python -m repro.obs.analyze <trace.json>``.

Consumes a Chrome trace exported by ``repro.obs.trace.export_chrome_trace``
from a run with ``enable_observability(causal=True, trace=True)`` — the
exporter embeds the causal-edge export under the ``"reproCausal"`` key
(Perfetto ignores unknown top-level keys) and per-ring drop stats under
``"reproObs"``. Prints the blame table plus top-5 straggler report, or
the canonical blame JSON with ``--json``.

Exit codes: 0 on success, 2 on a malformed or causal-less trace —
``ci/gates.sh ledger`` runs this against the shuffle trace it exports,
as a hard gate.
"""

from __future__ import annotations

import argparse
import json
import sys

from .causal import CausalError, blame_json, flow_report, render_blame
from .causal import validate_export


def _ring_dropped(document: dict) -> dict:
    stats = document.get("reproObs", {}).get("rings", {})
    out = {}
    for flow, ring in stats.items():
        try:
            out[flow] = int(ring.get("dropped", 0))
        except (AttributeError, TypeError, ValueError):
            raise CausalError(f"malformed ring stats for flow {flow!r}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.analyze",
        description="Critical-path blame report from an exported trace.")
    parser.add_argument("trace", help="Chrome trace JSON exported with "
                                      "causal recording enabled")
    parser.add_argument("--flow", default=None,
                        help="flow to analyze (default: last to close)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the canonical blame JSON instead of "
                             "the table")
    args = parser.parse_args(argv)

    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot read trace: {error}", file=sys.stderr)
        return 2

    causal = document.get("reproCausal")
    if causal is None:
        print("error: trace has no 'reproCausal' section — export it "
              "from a run with enable_observability(causal=True)",
              file=sys.stderr)
        return 2
    try:
        validate_export(causal)
        report = flow_report(causal, flow=args.flow,
                             ring_dropped=_ring_dropped(document))
    except CausalError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.as_json:
        print(blame_json(report))
    else:
        print(render_blame(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
