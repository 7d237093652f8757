"""Translation blocks: cached straight-line runs of translated code.

NDroid inherits QEMU's translation-block architecture: guest code is
decoded once into blocks that end at control transfers, instrumentation
is decided when the block is *translated* rather than re-checked on
every executed instruction, and blocks chain directly to their static
successors so a hot loop dispatches without touching the block cache.
A block's terminator is translated too, and a call from it into a host
function that returns to the block's fall-through chains there as well.

Blocks are keyed by ``(pc, thumb)`` and indexed by the 4 KiB pages their
bytes occupy.  Invalidation is page-granular: a write over translated
code, a map or unmap of a region covering it, or a host-function
registration on its page drops every block on that page and severs all
chain links into the dropped blocks (chains are severed globally — such
changes are rare, dispatch is not).
"""

from __future__ import annotations

from typing import Dict, KeysView, List, Optional, Tuple, ValuesView

PAGE_SHIFT = 12


class TranslationBlock:
    """One translated straight-line run starting at ``(pc, thumb)``.

    ``ops`` are the body micro-ops (never write PC).  ``term_op`` is the
    translated terminator, run in the block epilogue: a closure that
    returns whether it wrote the PC (see ``translator.build_terminator``).
    ``term_ir`` is its decoded instruction.  Both are None when the block
    was cut short (max length / host-code boundary / undecodable word
    ahead), in which case control falls through to ``fall_pc``.  ``irs``
    are the decoded instructions in order, terminator included: the
    crash ring expands a block into them, and a mid-block fault derives
    its pc from their widths.

    Blocks from third-party regions carry a second executable variant:
    ``taint_ops`` interleaves a pre-bound Table V taint micro-op before
    each execution micro-op (NDroid's translation-time instrumentation
    insertion).  The dispatch loop picks the variant per execution —
    ``ops`` (*clean*) while the taint engine's sticky ``maybe_tainted``
    flag is off, ``taint_ops`` (*tainted*) once it flips — so the
    clean→tainted transition costs no retranslation.  Both variants come
    from the same translation pass.  ``traced`` counts the block's
    in-scope instructions (terminator included) for tracer accounting;
    blocks outside third-party regions have ``taint_ops is ops``,
    ``term_taint_op is None`` and ``traced == 0``.
    """

    __slots__ = ("pc", "thumb", "ops", "irs", "taint_ops", "term_taint_op",
                 "traced", "term_op", "term_ir", "term_pc", "fall_pc",
                 "taken_pc", "length", "pages", "valid", "specialised",
                 "succ_taken", "succ_fall", "watch")

    def __init__(self, pc: int, thumb: bool, ops: Tuple, term_op, term_ir,
                 term_pc: int, fall_pc: int, taken_pc: Optional[int],
                 length: int, pages: Tuple[int, ...],
                 specialised: int, irs: Tuple = (),
                 taint_ops: Optional[Tuple] = None,
                 term_taint_op=None, traced: int = 0) -> None:
        self.pc = pc
        self.thumb = thumb
        self.ops = ops
        self.irs = irs
        self.taint_ops = ops if taint_ops is None else taint_ops
        self.term_taint_op = term_taint_op
        self.traced = traced
        self.term_op = term_op
        self.term_ir = term_ir
        self.term_pc = term_pc
        self.fall_pc = fall_pc
        # Static taken-target of a PC-relative terminator (chainable);
        # None for dynamic targets (BX, LDR pc, ...), which re-resolve
        # through the cache, except a host call returning to ``fall_pc``
        # in the block's own mode: it chains through ``succ_fall``.
        self.taken_pc = taken_pc
        self.length = length
        self.pages = pages
        self.valid = True
        self.specialised = specialised
        # Direct chaining: resolved successor blocks (same thumb mode,
        # set lazily by the dispatch loop, severed on invalidation).
        self.succ_taken: Optional["TranslationBlock"] = None
        self.succ_fall: Optional["TranslationBlock"] = None
        # Whether the taken branch can reach a watching branch listener:
        # decided from ``term_pc`` and ``taken_pc`` by the emulator when
        # the block is translated or the watched addresses change; None
        # when only the dynamic target can tell.
        self.watch: Optional[bool] = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "thumb" if self.thumb else "arm"
        return (f"<TB {mode}@{self.pc:08x} len={self.length} "
                f"spec={self.specialised} valid={self.valid}>")


class TranslationCache:
    """The ``(pc, thumb)`` → block map with a per-page reverse index."""

    def __init__(self) -> None:
        self._blocks: Dict[Tuple[int, bool], TranslationBlock] = {}
        self._by_page: Dict[int, List[TranslationBlock]] = {}
        self.reset_counters()

    def __len__(self) -> int:
        return len(self._blocks)

    def get(self, key: Tuple[int, bool]) -> Optional[TranslationBlock]:
        tb = self._blocks.get(key)
        if tb is None:
            self.misses += 1
        else:
            self.hits += 1
        return tb

    def put(self, tb: TranslationBlock) -> None:
        self._blocks[(tb.pc, tb.thumb)] = tb
        for page in tb.pages:
            self._by_page.setdefault(page, []).append(tb)
        self.translations += 1

    def blocks(self) -> ValuesView[TranslationBlock]:
        """Every cached block (a live view)."""
        return self._blocks.values()

    def pages(self) -> KeysView[int]:
        """Every page currently holding translated code (a live view)."""
        return self._by_page.keys()

    def _sever_chains(self) -> None:
        for tb in self._blocks.values():
            tb.succ_taken = None
            tb.succ_fall = None

    def invalidate_page(self, page: int) -> int:
        """Drop every block overlapping ``page``; returns the count."""
        victims = self._by_page.pop(page, None)
        if not victims:
            return 0
        dropped = 0
        for tb in victims:
            if not tb.valid:
                continue
            tb.valid = False
            self._blocks.pop((tb.pc, tb.thumb), None)
            dropped += 1
            for other_page in tb.pages:
                if other_page != page:
                    siblings = self._by_page.get(other_page)
                    if siblings is not None:
                        siblings[:] = [b for b in siblings if b is not tb]
                        if not siblings:
                            del self._by_page[other_page]
        # Any block anywhere may chain into a dropped block.
        self._sever_chains()
        self.invalidations += dropped
        return dropped

    def flush(self) -> None:
        for tb in self._blocks.values():
            tb.valid = False
        self.invalidations += len(self._blocks)
        self._blocks.clear()
        self._by_page.clear()

    def reset_counters(self) -> None:
        """Zero the per-job counters (warm-worker job boundary)."""
        self.translations = 0
        self.invalidations = 0
        # Lookup counters: the dispatch loop only consults the cache after
        # a chain miss, so these tally un-chained dispatches, not every
        # block executed.
        self.hits = 0
        self.misses = 0
