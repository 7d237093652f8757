"""The taint provenance ledger: typed propagation edges + path queries.

The paper's case studies (Section V, Figs. 6-9) are *walks*: taint enters
at a Java source, crosses JNI via ``dvmCallJNIMethod``, moves through
native instructions and modelled libc calls, and leaves at a sink
syscall.  Every engine that propagates taint appends a typed edge
``(src_loc, dst_loc, tag, mechanism, location)`` here; the query API then
reconstructs the full source→sink chain for any leak mechanically, and
exports it as JSONL (for tooling) or Graphviz DOT (the case-study
figures).

Locations are structural, not textual, so edges chain by *overlap*:

* ``reg``/``iref``/``dvreg`` locations match on their base value;
* ``mem`` locations match on byte-range intersection;
* ``java`` locations are coarse per-label nodes for the Java context
  (TaintDroid tracks variables, not addresses) and match on label
  intersection.  The DVM records moves, move-results and invoke
  arguments between frame slots; a slot some other bytecode wrote
  (string concatenation, arithmetic) has no recorded writer, so a walk
  stuck at a ``dvreg`` continues from its label's ``java`` node;
* ``api``/``sink`` locations match on name and terminate/begin chains.

The ledger is bounded (a ring): tracing a long run keeps the most recent
``maxlen`` edges and counts the drops, so observability can never grow
without bound.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, IO, Iterable, Iterator, List, Optional, Union

LOC_KINDS = ("reg", "mem", "iref", "java", "dvreg", "api", "sink")


class Loc:
    """One taint location (see the module docstring for the kinds)."""

    __slots__ = ("kind", "base", "length", "name")

    def __init__(self, kind: str, base: int = 0, length: int = 0,
                 name: str = "") -> None:
        self.kind = kind
        self.base = base
        self.length = length
        self.name = name

    # -- constructors ------------------------------------------------------

    @classmethod
    def reg(cls, index: int) -> "Loc":
        return cls("reg", base=index)

    @classmethod
    def mem(cls, address: int, length: int = 1) -> "Loc":
        return cls("mem", base=address & 0xFFFFFFFF, length=max(length, 1))

    @classmethod
    def iref(cls, iref: int) -> "Loc":
        return cls("iref", base=iref)

    @classmethod
    def java(cls, label: int) -> "Loc":
        """A coarse Java-context node covering everything tagged ``label``."""
        return cls("java", base=label)

    @classmethod
    def dvreg(cls, slot_address: int) -> "Loc":
        return cls("dvreg", base=slot_address)

    @classmethod
    def api(cls, name: str) -> "Loc":
        return cls("api", name=name)

    @classmethod
    def sink(cls, name: str) -> "Loc":
        return cls("sink", name=name)

    # -- chaining ----------------------------------------------------------

    def overlaps(self, other: "Loc") -> bool:
        if self.kind != other.kind:
            return False
        if self.kind == "mem":
            return (self.base < other.base + other.length
                    and other.base < self.base + self.length)
        if self.kind == "java":
            return bool(self.base & other.base)
        if self.kind in ("api", "sink"):
            return self.name == other.name
        return self.base == other.base

    # -- rendering / serialisation ----------------------------------------

    def describe(self) -> str:
        if self.kind == "reg":
            return f"reg:r{self.base}"
        if self.kind == "mem":
            suffix = f"+{self.length}" if self.length > 1 else ""
            return f"mem:0x{self.base:08x}{suffix}"
        if self.kind == "iref":
            return f"iref:0x{self.base:x}"
        if self.kind == "java":
            return f"java:0x{self.base:x}"
        if self.kind == "dvreg":
            return f"dvreg:0x{self.base:08x}"
        return f"{self.kind}:{self.name}"

    def to_dict(self) -> Dict:
        return {"kind": self.kind, "base": self.base, "len": self.length,
                "name": self.name}

    @classmethod
    def from_dict(cls, data: Dict) -> "Loc":
        return cls(data["kind"], base=data.get("base", 0),
                   length=data.get("len", 0), name=data.get("name", ""))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Loc {self.describe()}>"


class ProvenanceEdge:
    """One recorded propagation step: ``tag`` moved ``src`` → ``dst``."""

    __slots__ = ("seq", "tag", "mechanism", "src", "dst", "location")

    def __init__(self, seq: int, tag: int, mechanism: str, src: Loc,
                 dst: Loc, location: str = "") -> None:
        self.seq = seq
        self.tag = tag
        self.mechanism = mechanism
        self.src = src
        self.dst = dst
        self.location = location

    def format(self) -> str:
        text = (f"[{self.seq:06d}] {self.mechanism:<24} "
                f"{self.src.describe()} -> {self.dst.describe()} "
                f"tag=0x{self.tag:x}")
        if self.location:
            text += f" @{self.location}"
        return text

    def to_dict(self) -> Dict:
        return {"seq": self.seq, "tag": self.tag,
                "mechanism": self.mechanism, "location": self.location,
                "src": self.src.to_dict(), "dst": self.dst.to_dict()}

    @classmethod
    def from_dict(cls, data: Dict) -> "ProvenanceEdge":
        return cls(seq=data["seq"], tag=data["tag"],
                   mechanism=data["mechanism"],
                   src=Loc.from_dict(data["src"]),
                   dst=Loc.from_dict(data["dst"]),
                   location=data.get("location", ""))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Edge {self.format()}>"


class ProvenancePath(List[ProvenanceEdge]):
    """A reconstructed source→sink walk, with truthful completeness flags.

    Behaves exactly like the plain edge list older callers expect, plus:

    * ``complete`` — the walk reached an ``api`` source: the path shows
      the full recorded journey of the taint;
    * ``at_horizon`` — the walk stopped at a non-source edge while the
      ring had already evicted earlier edges, so the true predecessor
      may have been dropped: the path is a *partial* reconstruction and
      must be reported as such, never presented as complete;
    * ``evicted`` — how many edges the ring had dropped at reconstruction
      time (the horizon's depth).
    """

    def __init__(self, edges: Iterable[ProvenanceEdge] = (),
                 complete: bool = False, at_horizon: bool = False,
                 evicted: int = 0) -> None:
        super().__init__(edges)
        self.complete = complete
        self.at_horizon = at_horizon
        self.evicted = evicted

    @property
    def partial(self) -> bool:
        return bool(self) and not self.complete


def _predecessor(edges: List[ProvenanceEdge], current: ProvenanceEdge,
                 src: Loc, seen: set) -> Optional[ProvenanceEdge]:
    """The latest edge before ``current`` that wrote ``src`` with a tag
    intersecting ``current``'s, skipping edges already on the path."""
    for candidate in reversed(edges):
        if candidate.seq >= current.seq or candidate.seq in seen:
            continue
        if candidate.tag & current.tag and candidate.dst.overlaps(src):
            return candidate
    return None


class ProvenanceLedger:
    """Bounded append-only edge store with source→sink reconstruction."""

    def __init__(self, maxlen: int = 65536) -> None:
        self._edges: Deque[ProvenanceEdge] = deque(maxlen=maxlen)
        self._seq = 0
        self.maxlen = maxlen

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[ProvenanceEdge]:
        return iter(self._edges)

    @property
    def dropped(self) -> int:
        """Edges evicted by the ring bound."""
        return self._seq - len(self._edges)

    # -- recording ---------------------------------------------------------

    def record(self, tag: int, mechanism: str, src: Loc, dst: Loc,
               location: str = "") -> Optional[ProvenanceEdge]:
        """Append one edge; clear tags are not provenance and are skipped."""
        if not tag:
            return None
        edge = ProvenanceEdge(self._seq, tag, mechanism, src, dst, location)
        self._seq += 1
        self._edges.append(edge)
        return edge

    def clear(self) -> None:
        self._edges.clear()
        self._seq = 0

    # -- queries -----------------------------------------------------------

    def sink_edges(self, taint: int = 0,
                   destination: Optional[str] = None
                   ) -> List[ProvenanceEdge]:
        """Edges whose destination is a sink, optionally filtered."""
        return [edge for edge in self._edges
                if edge.dst.kind == "sink"
                and (not taint or edge.tag & taint)
                and (destination is None or edge.dst.name == destination)]

    def _pick_sink_edge(self, taint: int, destination: Optional[str]
                        ) -> Optional[ProvenanceEdge]:
        candidates = self.sink_edges(taint, destination)
        if not candidates:
            return None
        # Prefer a sink edge with a precise native-memory source (it
        # chains through the native segment); ties go to the latest.
        precise = [edge for edge in candidates if edge.src.kind == "mem"]
        return (precise or candidates)[-1]

    def reconstruct(self, edge: Optional[ProvenanceEdge] = None, *,
                    taint: int = 0, destination: Optional[str] = None,
                    max_hops: int = 256) -> ProvenancePath:
        """Walk backwards from a sink edge to the source (Figs. 6-9).

        Each hop finds the latest earlier edge whose destination overlaps
        the current edge's source (for a ``dvreg`` source with no such
        edge: the ``java`` node of its tag) and whose tag intersects it;
        the walk ends at an ``api`` source, the ledger's horizon, or
        ``max_hops``.
        Returns the path source-first (empty if no sink edge matches).

        After ring eviction the walk may run out of recorded history
        before reaching a source.  The returned :class:`ProvenancePath`
        is truthful about that: ``complete`` is set only when the walk
        reached an ``api`` source, and ``at_horizon`` flags a walk that
        stopped while evicted edges could have held the predecessor —
        such a path is a partial reconstruction, not a full one.
        """
        if edge is None:
            edge = self._pick_sink_edge(taint, destination)
            if edge is None:
                return ProvenancePath(evicted=self.dropped)
        edges = list(self._edges)
        path = [edge]
        seen = {edge.seq}
        current = edge
        for __ in range(max_hops):
            if current.src.kind == "api":
                break
            predecessor = _predecessor(edges, current, current.src, seen)
            if predecessor is None and current.src.kind == "dvreg":
                predecessor = _predecessor(edges, current,
                                           Loc.java(current.tag), seen)
            if predecessor is None:
                break
            seen.add(predecessor.seq)
            path.append(predecessor)
            current = predecessor
        path.reverse()
        complete = path[0].src.kind == "api"
        # Not complete + edges already evicted: the true predecessor may
        # have been dropped by the ring, so the walk ended at the horizon.
        at_horizon = not complete and self.dropped > 0
        return ProvenancePath(path, complete=complete,
                              at_horizon=at_horizon, evicted=self.dropped)

    def paths(self, taint: int = 0) -> List[ProvenancePath]:
        """One reconstructed path per distinct sink destination."""
        results = []
        seen_sinks = set()
        for edge in self.sink_edges(taint):
            key = (edge.dst.name, edge.tag)
            if key in seen_sinks:
                continue
            seen_sinks.add(key)
            best = self._pick_sink_edge(edge.tag, edge.dst.name)
            path = self.reconstruct(best)
            if path:
                results.append(path)
        return results

    # -- export ------------------------------------------------------------

    def to_jsonl(self, target: Union[str, IO[str]]) -> int:
        """Write every edge as one JSON object per line; returns count."""
        if isinstance(target, str):
            with open(target, "w") as handle:
                return self.to_jsonl(handle)
        count = 0
        for edge in self._edges:
            target.write(json.dumps(edge.to_dict(), sort_keys=True) + "\n")
            count += 1
        return count

    @classmethod
    def from_jsonl(cls, source: Union[str, Iterable[str]],
                   maxlen: int = 65536) -> "ProvenanceLedger":
        if isinstance(source, str):
            with open(source) as handle:
                return cls.from_jsonl(list(handle), maxlen=maxlen)
        ledger = cls(maxlen=maxlen)
        for line in source:
            line = line.strip()
            if not line:
                continue
            edge = ProvenanceEdge.from_dict(json.loads(line))
            ledger._edges.append(edge)
            ledger._seq = max(ledger._seq, edge.seq + 1)
        return ledger

    def to_dot(self, paths: Optional[List[List[ProvenanceEdge]]] = None
               ) -> str:
        """Render reconstructed flows as a Graphviz digraph."""
        if paths is None:
            paths = self.paths()
        lines = ["digraph provenance {", "  rankdir=LR;",
                 '  node [shape=box, fontname="monospace"];']
        node_ids: Dict[str, str] = {}

        def node(loc: Loc) -> str:
            label = loc.describe()
            if label not in node_ids:
                node_ids[label] = f"n{len(node_ids)}"
                shape = {"api": "ellipse", "sink": "doubleoctagon",
                         "java": "diamond"}.get(loc.kind, "box")
                lines.append(f'  {node_ids[label]} [label="{label}", '
                             f'shape={shape}];')
            return node_ids[label]

        emitted = set()
        for path in paths:
            for edge in path:
                src, dst = node(edge.src), node(edge.dst)
                key = (src, dst, edge.mechanism)
                if key in emitted:
                    continue
                emitted.add(key)
                label = f"{edge.mechanism}\\n0x{edge.tag:x}"
                if edge.location:
                    label += f"\\n{edge.location}"
                lines.append(f'  {src} -> {dst} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def format_path(self, path: List[ProvenanceEdge]) -> str:
        lines = ["  " + edge.format() for edge in path]
        if getattr(path, "at_horizon", False):
            evicted = getattr(path, "evicted", 0)
            lines.insert(0, f"  ... [partial: upstream history evicted at "
                            f"the ring horizon ({evicted} edges dropped)]")
        return "\n".join(lines)
