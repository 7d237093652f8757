"""``repro report``: render run artifacts into the paper's tables/figures.

Consumes the artifact directory ``repro run`` writes (``meta.json``,
``metrics.json``, ``metrics_baseline.json``, ``leaks.json``, and — when
traced — ``trace.jsonl``) and renders:

* the reconstructed source→sink provenance path per leak (the Section V
  case-study walks);
* a Table IV-style overhead breakdown: instrumented-run counters against
  the vanilla baseline of the same scenario;
* a Table V-style analysis-work breakdown (tracer/hook/ledger counters
  that have no vanilla equivalent);
* the resilience section (degraded events, quarantined hooks);
* the exact profile's heaviest guest functions, from the snapshot's
  ``profile.*`` counters (which the tables above leave out).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.observability.ledger import ProvenanceLedger
from repro.observability.metrics import diff_snapshots
from repro.observability.profiler import folded_lines
from repro.observability.schema import validate_trace

# Subsystem counters compared against the vanilla baseline (Table IV).
OVERHEAD_PREFIXES = ("dalvik.", "emulator.", "kernel.")
# Analysis-only counters rendered without a baseline column (Table V).
ANALYSIS_PREFIXES = ("core.", "resilience.", "ledger.")

TOP_PROFILE_FRAMES = 10


class RunArtifacts:
    """Everything ``repro run`` left in one output directory."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.meta = self._load_json("meta.json") or {}
        self.metrics = self._load_json("metrics.json") or {}
        self.baseline = self._load_json("metrics_baseline.json") or {}
        self.leaks = self._load_json("leaks.json") or []
        self.trace_path = os.path.join(directory, "trace.jsonl")
        self.ledger: Optional[ProvenanceLedger] = None
        if os.path.exists(self.trace_path):
            try:
                self.ledger = ProvenanceLedger.from_jsonl(self.trace_path)
            except (KeyError, TypeError, ValueError):
                # Malformed trace: keep an empty ledger so the schema
                # validator reports the damage instead of a crash.
                self.ledger = ProvenanceLedger()

    def _load_json(self, name: str):
        path = os.path.join(self.directory, name)
        if not os.path.exists(path):
            return None
        with open(path) as handle:
            return json.load(handle)

    def validate_trace(self) -> Tuple[int, List[str]]:
        if not os.path.exists(self.trace_path):
            return 0, []
        return validate_trace(self.trace_path)


def _format_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:,.1f}"
    return f"{value:,}"


def render_overhead_table(current: Dict, baseline: Dict,
                          title: str = "overhead vs vanilla baseline"
                          ) -> str:
    """The Table IV-style two-run comparison."""
    lines = [f"== {title} ==",
             f"  {'metric':<36} {'vanilla':>14} {'instrumented':>14} "
             f"{'ratio':>8}"]
    for name, base, cur, ratio in diff_snapshots(current, baseline):
        if not name.startswith(OVERHEAD_PREFIXES):
            continue
        ratio_text = f"{ratio:,.2f}x" if ratio is not None else "-"
        lines.append(f"  {name:<36} {_format_value(base):>14} "
                     f"{_format_value(cur):>14} {ratio_text:>8}")
    return "\n".join(lines)


def render_analysis_table(current: Dict) -> str:
    """The Table V-style analysis-work breakdown (no vanilla analogue)."""
    lines = ["== analysis work (instrumented run only) ==",
             f"  {'metric':<44} {'value':>14}"]
    for name in sorted(current):
        if name.startswith(ANALYSIS_PREFIXES):
            lines.append(f"  {name:<44} {_format_value(current[name]):>14}")
    return "\n".join(lines)


def render_resilience(current: Dict) -> str:
    quarantined = sorted(
        name[len("resilience.quarantined."):]
        for name in current if name.startswith("resilience.quarantined."))
    degraded = current.get("resilience.degraded_events", 0)
    lines = ["== resilience ==",
             f"  degraded events:   {degraded}",
             f"  quarantined hooks: "
             f"{', '.join(quarantined) if quarantined else '(none)'}"]
    return "\n".join(lines)


def render_provenance(ledger: ProvenanceLedger, leaks: List[Dict]) -> str:
    lines = ["== provenance (source -> sink) =="]
    rendered = 0
    for leak in leaks:
        path = ledger.reconstruct(taint=leak.get("taint", 0),
                                  destination=leak.get("destination"))
        if not path:
            continue
        rendered += 1
        marker = " (PARTIAL: truncated at eviction horizon)" \
            if getattr(path, "at_horizon", False) else ""
        lines.append(f"leak: {leak.get('sink')} -> "
                     f"{leak.get('destination')} "
                     f"taint=0x{leak.get('taint', 0):x} "
                     f"[{leak.get('detector')}]{marker}")
        lines.append(ledger.format_path(path))
    if not leaks:
        lines.append("  (no leaks reported)")
    elif not rendered:
        lines.append("  (no ledger path matches the reported leaks)")
    return "\n".join(lines)


def render_profile(current: Dict) -> str:
    """The heaviest guest frames, in instructions retired."""
    folded = folded_lines(current)
    lines = [f"== profile (top {TOP_PROFILE_FRAMES} guest frames, "
             f"instructions retired) =="]
    if not folded:
        lines.append("  (no instructions retired)")
    for line in folded[:TOP_PROFILE_FRAMES]:
        lines.append(f"  {line}")
    return "\n".join(lines)


def render_report(artifacts: RunArtifacts) -> Tuple[str, bool]:
    """The full report text plus a validity flag (trace schema)."""
    meta = artifacts.meta
    sections = [f"== run ==\n"
                f"  scenario: {meta.get('scenario', '?')}\n"
                f"  config:   {meta.get('config', '?')}"]
    ok = True
    if artifacts.ledger is not None:
        count, errors = artifacts.validate_trace()
        if errors:
            ok = False
            sections.append("== trace ==\n  SCHEMA INVALID:\n" +
                            "\n".join(f"    {e}" for e in errors))
        else:
            sections.append(f"== trace ==\n  {count} edges, schema ok "
                            f"({os.path.basename(artifacts.trace_path)})")
        sections.append(render_provenance(artifacts.ledger,
                                          artifacts.leaks))
    if artifacts.baseline:
        sections.append(render_overhead_table(artifacts.metrics,
                                              artifacts.baseline))
    if artifacts.metrics:
        sections.append(render_analysis_table(artifacts.metrics))
        sections.append(render_resilience(artifacts.metrics))
    if artifacts.ledger is not None:
        sections.append(render_profile(artifacts.metrics))
    return "\n\n".join(sections) + "\n", ok
