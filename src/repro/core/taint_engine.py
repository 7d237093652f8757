"""NDroid's taint engine (Section V.E).

"NDroid maintains shadow registers to store the related registers' taints
and a taint map to store the memories' taints.  The taint granularity of
NDroid is byte.  The general propagation logic follows the 'or'
operation."

Three stores:

* **shadow registers** — one label per CPU register;
* **taint map** — a byte-granular *page-chunked* map over native memory:
  labels live in dense per-page lists, so range operations (every memcpy,
  every sink check) are slice assignments and slice scans instead of one
  dict operation per byte, and a page with no taint costs one absent-key
  lookup for the whole range crossing it;
* **iref shadow** — labels for Java objects keyed by *indirect reference*,
  because "the direct pointers of Java objects may be changed [by the GC],
  the shadow memory uses the indirect reference as key" (Section V.B).

The engine also implements :class:`NativeTaintInterface`, so the modelled
libc and the kernel consult it when data leaves the process.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.taint import TAINT_CLEAR, TaintLabel
from repro.libc.taint_interface import NativeTaintInterface

# The taint map is chunked at page granularity: each present page holds a
# dense list of per-byte labels.  4 KiB matches the emulator's code pages,
# so one guest page maps to exactly one chunk.
CHUNK_SHIFT = 12
CHUNK_SIZE = 1 << CHUNK_SHIFT
CHUNK_MASK = CHUNK_SIZE - 1
ADDR_MASK = 0xFFFFFFFF

# Shared all-clear source for slice-clearing ranges (sliced, never mutated).
_CLEAR_CHUNK: List[TaintLabel] = [TAINT_CLEAR] * CHUNK_SIZE


def _spans(address: int, length: int):
    """Split ``[address, address+length)`` into (chunk, offset, span) runs.

    Handles the 2^32 address wrap the old per-byte map got for free from
    masking each key.
    """
    address &= ADDR_MASK
    out = []
    while length > 0:
        offset = address & CHUNK_MASK
        span = CHUNK_SIZE - offset
        if span > length:
            span = length
        out.append((address >> CHUNK_SHIFT, offset, span))
        address = (address + span) & ADDR_MASK
        length -= span
    return out


class TaintEngine(NativeTaintInterface):
    """Shadow registers + page-chunked taint map + iref shadow store."""

    def __init__(self) -> None:
        self.shadow_registers: List[TaintLabel] = [TAINT_CLEAR] * 16
        # Page-chunked taint map: page index -> dense per-byte label list.
        self._memory_chunks: Dict[int, List[TaintLabel]] = {}
        self._iref_taints: Dict[int, TaintLabel] = {}
        self.reset_for_job()

    # -- lifecycle (farm worker reuse) ----------------------------------------

    def reset_for_job(self) -> None:
        """Return the engine to its pristine state between analysis jobs.

        Drops every label — shadow registers, the taint map, the iref
        store, *and* the conservative degradation label (a new job means
        a new app: the previous app's quarantine pessimism does not carry
        over) — zeroes the propagation count and re-arms the clean-run
        fast path.  The stores are cleared in place: translation-time-
        compiled taint ops may hold a reference to them.
        """
        self.shadow_registers[:] = [TAINT_CLEAR] * 16
        self._memory_chunks.clear()
        self._iref_taints.clear()
        # Monotone union of every label ever stored in the map: once an
        # accumulating range query reaches it, no further byte can add a
        # bit, so the scan stops early (stale-high is safe — it only makes
        # the early exit rarer, never wrong).
        self._memory_union: TaintLabel = TAINT_CLEAR
        self.propagation_count = 0
        # Graceful degradation (resilience): when an analysis hook faults
        # and is quarantined, the taints it would have propagated become
        # unknowable.  The conservative label is OR-ed into every query so
        # the engine over-taints (stays sound, loses precision) instead of
        # silently dropping flows.
        self.conservative_label: TaintLabel = TAINT_CLEAR
        # Sticky: flips True the first time any non-clear label enters the
        # engine.  While False, every query is trivially clear (taint only
        # derives from existing taint), so both analysis paths skip
        # propagation entirely — the single-step tracer skips its handler,
        # and the TB dispatch loop runs each block's *clean* variant with
        # the taint micro-ops elided.  It never flips back on its own;
        # this method and :meth:`rearm_fast_path` re-arm it between jobs
        # (farm workers reuse engines across analyses).
        self.maybe_tainted = False

    def rearm_fast_path(self) -> bool:
        """Re-arm the clean-run fast path if no label is live anywhere.

        Unlike :meth:`reset_for_job` this never discards state: it only flips
        ``maybe_tainted`` back to ``False`` when every store is verifiably
        clear (including the conservative label — a degraded engine stays
        pessimistic).  Returns ``True`` when the fast path is armed.
        """
        if self.maybe_tainted and not self.live_label():
            self.maybe_tainted = False
            # Every chunk is verifiably all-clear: drop them, and reset
            # the monotone union so the saturation early-exit stays sharp.
            self._memory_chunks.clear()
            self._memory_union = TAINT_CLEAR
        return not self.maybe_tainted

    # -- graceful degradation -------------------------------------------------

    def degrade(self, label: TaintLabel) -> None:
        """Enter (or widen) conservative mode: ``label`` joins every query."""
        if label == TAINT_CLEAR:
            return
        self.conservative_label |= label
        self.maybe_tainted = True

    def live_label(self) -> TaintLabel:
        """Union of every label currently held anywhere in the engine.

        The widest honest answer to "what taint could a failed hook have
        been carrying?" — used to choose the degradation label.
        """
        label = self.conservative_label
        for register_label in self.shadow_registers:
            label |= register_label
        for chunk in self._memory_chunks.values():
            for distinct in set(chunk):
                label |= distinct
        for iref_label in self._iref_taints.values():
            label |= iref_label
        return label

    # -- shadow registers -----------------------------------------------------

    def get_register(self, index: int) -> TaintLabel:
        return self.shadow_registers[index] | self.conservative_label

    def set_register(self, index: int, label: TaintLabel) -> None:
        self.shadow_registers[index] = label
        self.propagation_count += 1
        if label:
            self.maybe_tainted = True

    def add_register(self, index: int, label: TaintLabel) -> None:
        self.shadow_registers[index] |= label
        self.propagation_count += 1
        if label:
            self.maybe_tainted = True

    def clear_register(self, index: int) -> None:
        self.shadow_registers[index] = TAINT_CLEAR

    def clear_all_registers(self) -> None:
        # In place: compiled taint ops may hold a reference to the list.
        self.shadow_registers[:] = [TAINT_CLEAR] * 16

    # -- taint map (byte granularity, page-chunked) ---------------------------

    def get_memory(self, address: int, length: int = 1) -> TaintLabel:
        """Union of labels over ``[address, address+length)``.

        Skips entirely when the map is empty, skips whole absent pages,
        and exits early once the accumulated label saturates the union of
        labels the map could possibly hold.
        """
        label = self.conservative_label
        chunks = self._memory_chunks
        if not chunks or length <= 0:
            return label
        saturation = label | self._memory_union
        if label == saturation:
            return label
        offset = address & CHUNK_MASK
        if offset + length <= CHUNK_SIZE:
            # Hot path: the whole range lives in one chunk (every 1/2/4
            # byte instruction-level access lands here).
            chunk = chunks.get((address & ADDR_MASK) >> CHUNK_SHIFT)
            if chunk is None:
                return label
            if length <= 8:
                for index in range(offset, offset + length):
                    label |= chunk[index]
                    if label == saturation:
                        return label
                return label
            for distinct in set(chunk[offset:offset + length]):
                label |= distinct
            return label
        for page, offset, span in _spans(address, length):
            chunk = chunks.get(page)
            if chunk is None:
                continue
            for distinct in set(chunk[offset:offset + span]):
                label |= distinct
            if label == saturation:
                return label
        return label

    def set_memory(self, address: int, length: int,
                   label: TaintLabel) -> None:
        """Overwrite labels over a range (``t(M) := label``)."""
        self.propagation_count += 1
        if length <= 0:
            return
        chunks = self._memory_chunks
        if label:
            self.maybe_tainted = True
            self._memory_union |= label
            for page, offset, span in _spans(address, length):
                chunk = chunks.get(page)
                if chunk is None:
                    chunks[page] = chunk = [TAINT_CLEAR] * CHUNK_SIZE
                if span == 1:
                    chunk[offset] = label
                else:
                    chunk[offset:offset + span] = [label] * span
            return
        if not chunks:
            return  # clearing an already-clear map costs nothing
        for page, offset, span in _spans(address, length):
            chunk = chunks.get(page)
            if chunk is None:
                continue
            if span == 1:
                chunk[offset] = TAINT_CLEAR
            else:
                chunk[offset:offset + span] = _CLEAR_CHUNK[:span]
            if not any(chunk):
                del chunks[page]

    def add_memory(self, address: int, length: int,
                   label: TaintLabel) -> None:
        """Union labels into a range (``t(M) |= label``)."""
        if not label or length <= 0:
            return
        self.propagation_count += 1
        self.maybe_tainted = True
        self._memory_union |= label
        chunks = self._memory_chunks
        for page, offset, span in _spans(address, length):
            chunk = chunks.get(page)
            if chunk is None:
                chunks[page] = chunk = [TAINT_CLEAR] * CHUNK_SIZE
            if span == 1:
                chunk[offset] |= label
            else:
                end = offset + span
                chunk[offset:end] = [old | label
                                     for old in chunk[offset:end]]

    def set_memory_bytes(self, address: int,
                         labels: List[TaintLabel]) -> None:
        """Per-byte assignment (used by modelled copies like memcpy)."""
        self.propagation_count += 1
        length = len(labels)
        if not length:
            return
        union = TAINT_CLEAR
        for distinct in set(labels):
            union |= distinct
        chunks = self._memory_chunks
        if union:
            self.maybe_tainted = True
            self._memory_union |= union
        elif not chunks:
            return  # writing all-clear labels into an empty map: no-op
        index = 0
        for page, offset, span in _spans(address, length):
            piece = labels[index:index + span] if span != length else labels
            index += span
            chunk = chunks.get(page)
            if chunk is None:
                if not any(piece):
                    continue
                chunks[page] = chunk = [TAINT_CLEAR] * CHUNK_SIZE
                chunk[offset:offset + span] = piece
                continue
            chunk[offset:offset + span] = piece
            if not any(piece) and not any(chunk):
                del chunks[page]

    def memory_bytes(self, address: int, length: int) -> List[TaintLabel]:
        base = self.conservative_label
        chunks = self._memory_chunks
        if not chunks or length <= 0:
            return [base] * length
        out: List[TaintLabel] = []
        for page, offset, span in _spans(address, length):
            chunk = chunks.get(page)
            if chunk is None:
                out.extend([base] * span)
            elif base:
                out.extend(label | base
                           for label in chunk[offset:offset + span])
            else:
                out.extend(chunk[offset:offset + span])
        return out

    def copy_memory(self, dest: int, src: int, length: int) -> None:
        """Propagate ``src``'s byte taints to ``dest`` (Listing 3)."""
        self.set_memory_bytes(dest, self.memory_bytes(src, length))

    def clear_memory(self, address: int, length: int) -> None:
        chunks = self._memory_chunks
        if not chunks or length <= 0:
            return
        for page, offset, span in _spans(address, length):
            chunk = chunks.get(page)
            if chunk is None:
                continue
            chunk[offset:offset + span] = _CLEAR_CHUNK[:span]
            if not any(chunk):
                del chunks[page]

    @property
    def tainted_bytes(self) -> int:
        return sum(CHUNK_SIZE - chunk.count(TAINT_CLEAR)
                   for chunk in self._memory_chunks.values())

    def memory_snapshot(self) -> Dict[int, TaintLabel]:
        """Every tainted byte as ``{address: label}`` (tests, reports)."""
        snapshot: Dict[int, TaintLabel] = {}
        for page, chunk in self._memory_chunks.items():
            base = page << CHUNK_SHIFT
            for offset, label in enumerate(chunk):
                if label:
                    snapshot[base + offset] = label
        return snapshot

    # -- iref shadow store ----------------------------------------------------------

    def get_iref(self, iref: int) -> TaintLabel:
        return self._iref_taints.get(iref, TAINT_CLEAR) | \
            self.conservative_label

    def set_iref(self, iref: int, label: TaintLabel) -> None:
        if iref:
            self._iref_taints[iref] = label
            self.propagation_count += 1
            if label:
                self.maybe_tainted = True

    def add_iref(self, iref: int, label: TaintLabel) -> None:
        if iref and label:
            self._iref_taints[iref] = self._iref_taints.get(
                iref, TAINT_CLEAR) | label
            self.propagation_count += 1
            self.maybe_tainted = True

    # -- NativeTaintInterface (libc/kernel view) --------------------------------------

    # The same queries as the engine's own, without a forwarding call.
    memory_taints = memory_bytes
    register_taint = get_register

    def write_memory_taints(self, address: int,
                            labels: List[TaintLabel]) -> None:
        self.set_memory_bytes(address, labels)
