"""Multilevel hooking (paper Section V.B, Fig. 5).

``dvmCallMethod*`` and ``dvmInterpret`` are hot paths invoked constantly by
the platform itself; instrumenting every call would be ruinously slow (the
ablation benchmark quantifies this).  NDroid therefore "defines and checks
a sequence of preconditions before hooking certain methods": a chain such
as ``CallVoidMethodA → dvmCallMethodA → dvmInterpret`` is only
instrumented when condition T1 — the chain head was entered by a branch
*from third-party native code* — holds, and each deeper condition Tk
requires T(k-1) plus a branch into the k-th function.  Return branches
(to the address after each call site) unwind the conditions, mirroring
T4-T6.

The manager consumes the emulator's branch-event stream ``(i_from, i_to)``
and answers two queries below.  It acts only on a branch that enters a
chain function or leaves a chain head, so it publishes those addresses
as its :class:`BranchWatch`: the emulator calls it for those branches
only, decided per translated block, and counts the rest into
``checks`` without a call.

* :meth:`gate` — should a hook on function ``name`` fire for this entry?
* :meth:`native_provenance_active` — is any chain currently live?
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.emulator.emulator import BranchWatch


class HookChain:
    """One condition chain: an ordered list of function names."""

    def __init__(self, names: Sequence[str]) -> None:
        self.names = list(names)
        # depth == k means conditions T1..Tk currently hold.
        self.depth = 0

    def reset(self) -> None:
        self.depth = 0


class MultilevelHookManager:
    """Tracks condition chains over branch events.

    Chains are indexed by member function (target side) and by head
    address (return side), so a branch that neither enters a chain
    function nor leaves a chain head costs two dictionary lookups, and
    the third-party test runs only when a chain head is entered or a
    live chain head returns.  The manager is itself the branch listener
    (``manager(i_from, i_to, emu)``); its ``branch_watch`` holds every
    chain function's address, so the emulator spares it the other
    branches, and ``checks`` counts those too.
    """

    def __init__(self, symbols: Dict[str, int],
                 is_third_party: Callable[[int], bool],
                 enabled: bool = True) -> None:
        self._symbols = symbols
        self._address_to_name = {address & ~1: name
                                 for name, address in symbols.items()}
        self._is_third_party = is_third_party
        self._chains: List[HookChain] = []
        # Member name -> the chains containing it (each chain once).
        self._chains_by_name: Dict[str, List[HookChain]] = {}
        # Head address (Thumb bit clear) -> the chains it heads.
        self._chains_by_head: Dict[int, List[HookChain]] = {}
        # Which chain names may fire their gated hooks right now.
        self._armed: Set[str] = set()
        self.branch_watch = BranchWatch()
        # When disabled (the ablation of Section V.B), every gated hook
        # fires on every entry — "the overhead will be high if we hook
        # these two functions whenever they are called".
        self.enabled = enabled
        self.reset_for_job()

    # -- configuration ----------------------------------------------------------

    def add_chain(self, names: Sequence[str]) -> HookChain:
        for name in names:
            if name not in self._symbols:
                raise KeyError(f"unknown function {name!r} in hook chain")
        chain = HookChain(names)
        self._chains.append(chain)
        self.branch_watch.addresses.update(
            self._symbols[name] & ~1 for name in chain.names)
        for name in dict.fromkeys(chain.names):
            self._chains_by_name.setdefault(name, []).append(chain)
        # A head whose address resolves to an aliasing symbol is never
        # the source name of a branch, so it cannot unwind.
        head_address = self._symbols[chain.names[0]] & ~1
        if self._address_to_name.get(head_address) == chain.names[0]:
            self._chains_by_head.setdefault(head_address, []).append(chain)
        return chain

    def reset_for_job(self) -> None:
        """Forget all chain state and counters (a warm worker's new job).
        Only a live chain (nonzero depth) needs resetting."""
        self._armed.clear()
        for chain in self._chains:
            if chain.depth:
                chain.reset()
        self._delivered = 0
        self.branch_watch.unseen = 0
        self.fires = 0

    @property
    def checks(self) -> int:
        """Branch events seen: those delivered plus those the emulator
        counted into the watch instead."""
        return self._delivered + self.branch_watch.unseen

    # -- the branch listener -------------------------------------------------------

    def on_branch(self, i_from: int, i_to: int, emu=None) -> None:
        self._delivered += 1
        target_name = self._address_to_name.get(i_to & ~1)
        if target_name is None:
            # Unwind on a return branch out of a live chain head back
            # into third-party code (conditions T5/T6).
            heads = self._chains_by_head.get(i_from & ~1)
            if heads is None:
                return
            live = [chain for chain in heads if chain.depth]
            if live and self._is_third_party(i_from) is False:
                for chain in live:
                    chain.reset()
            return
        chains = self._chains_by_name.get(target_name)
        if chains is None:
            return
        from_third_party = None
        for chain in chains:
            names = chain.names
            # Condition T1: entry into the chain head from third-party code.
            if target_name == names[0]:
                if from_third_party is None:
                    from_third_party = self._is_third_party(i_from)
                chain.depth = 1 if from_third_party else 0
                if chain.depth:
                    self._armed.add(target_name)
            # Deeper conditions: Tk needs T(k-1) true plus entry into the
            # k-th function.
            elif chain.depth and chain.depth < len(names) and \
                    target_name == names[chain.depth]:
                chain.depth += 1
                self._armed.add(target_name)

    __call__ = on_branch

    # -- queries ----------------------------------------------------------------------

    def gate(self, name: str) -> bool:
        """True if a hook on ``name`` should run for the current entry.

        Consumes the armed flag so one entry fires at most one gated hook.
        """
        if not self.enabled:
            self.fires += 1
            return True
        if name in self._armed:
            self._armed.discard(name)
            self.fires += 1
            return True
        return False

    def native_provenance_active(self) -> bool:
        return any(chain.depth for chain in self._chains)

    def active_depth(self, head: str) -> int:
        for chain in self._chains:
            if chain.names[0] == head:
                return chain.depth
        return 0
