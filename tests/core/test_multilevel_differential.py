"""Differential tests: the indexed multilevel hook manager vs a linear scan.

:class:`MultilevelHookManager` indexes its condition chains by member
function and by head address, so a branch that touches no chain
function costs two dictionary lookups.  The oracle below is the
straightforward form of Fig. 5's T1..T6 conditions: every branch event
walks every chain.  Hypothesis drives both with the same branch streams
over NDroid's real JNI symbol table and chain set, interleaved with
``gate()`` queries, and after every event compares each chain's depth,
the armed set, the gate answers and the ``checks``/``fires`` counters.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import NDroid
from repro.core.multilevel import HookChain, MultilevelHookManager
from repro.framework.android import AndroidPlatform


class LinearScanManager:
    """The oracle: every branch event scans every chain."""

    def __init__(self, symbols, is_third_party, enabled=True):
        self._symbols = symbols
        self._address_to_name = {address & ~1: name
                                 for name, address in symbols.items()}
        self._is_third_party = is_third_party
        self._chains = []
        self._armed = set()
        self.enabled = enabled
        self.checks = 0
        self.fires = 0

    def add_chain(self, names):
        chain = HookChain(names)
        self._chains.append(chain)
        return chain

    def on_branch(self, i_from, i_to, emu=None):
        target_name = self._address_to_name.get(i_to & ~1)
        self.checks += 1
        from_third_party = self._is_third_party(i_from)
        for chain in self._chains:
            if target_name == chain.names[0]:
                chain.depth = 1 if from_third_party else 0
                if chain.depth:
                    self._armed.add(chain.names[0])
                continue
            if chain.depth and chain.depth < len(chain.names) and \
                    target_name == chain.names[chain.depth]:
                chain.depth += 1
                self._armed.add(target_name)
                continue
            if chain.depth and target_name is None and \
                    from_third_party is False:
                source_name = self._address_to_name.get(i_from & ~1)
                if source_name == chain.names[0]:
                    chain.reset()

    def gate(self, name):
        if not self.enabled:
            self.fires += 1
            return True
        if name in self._armed:
            self._armed.discard(name)
            self.fires += 1
            return True
        return False


THIRD_PARTY = (0x6000_0000, 0x6010_0000)


def in_third_party(address):
    return THIRD_PARTY[0] <= address < THIRD_PARTY[1]


def always_third_party(address):
    # NDroid's ablation (use_multilevel=False) wiring.
    return True


# (enabled, is_third_party): the gated configuration, the gated chains
# with ungated hooks, and NDroid's real ablation wiring.
CONFIGURATIONS = ((True, in_third_party), (False, in_third_party),
                  (False, always_third_party))


def _ndroid_tables():
    platform = AndroidPlatform()
    ndroid = NDroid.attach(platform)
    return (dict(platform.jni.symbols),
            [list(chain.names) for chain in ndroid.multilevel._chains])


SYMBOLS, CHAINS = _ndroid_tables()
CHAIN_NAMES = sorted({name for names in CHAINS for name in names})
HEAD_NAMES = sorted({names[0] for names in CHAINS})
OTHER_NAMES = sorted(set(SYMBOLS) - set(CHAIN_NAMES))


def test_real_symbol_table_shape():
    assert len(CHAINS) == 97
    assert len(SYMBOLS) == 177
    assert OTHER_NAMES, "some symbols must be outside every chain"


def build(manager_class, enabled, is_third_party, chains=CHAINS):
    manager = manager_class(SYMBOLS, is_third_party, enabled=enabled)
    for names in chains:
        manager.add_chain(names)
    return manager


def symbol_address(names):
    return st.tuples(st.sampled_from(names), st.booleans()).map(
        lambda pair: SYMBOLS[pair[0]] | int(pair[1]))


addresses = st.one_of(
    # Chain functions, ARM and Thumb-bit forms (heads weighted in).
    symbol_address(CHAIN_NAMES),
    symbol_address(HEAD_NAMES),
    # Return sites: just past a call inside a function body.
    st.tuples(st.sampled_from(CHAIN_NAMES + OTHER_NAMES),
              st.sampled_from((2, 4, 6, 8, 12))).map(
        lambda pair: SYMBOLS[pair[0]] + pair[1]),
    # Third-party native code.
    st.integers(THIRD_PARTY[0], THIRD_PARTY[1] - 1),
    # System code: other libdvm symbols, libc/libm, anywhere else.
    symbol_address(OTHER_NAMES),
    st.integers(0x5000_0000, 0x5101_0000),
    st.integers(0, 0xFFFF_FFFF),
)
branch = st.tuples(st.just("branch"), addresses, addresses)
gate = st.tuples(st.just("gate"), st.sampled_from(CHAIN_NAMES + OTHER_NAMES),
                 st.none())


@st.composite
def chain_walk(draw):
    """Enter a chain head from third-party code, descend, then return
    out of the head — each address in ARM or Thumb-bit form."""
    names = draw(st.sampled_from(CHAINS))
    thumb = st.integers(0, 1)
    caller = draw(st.integers(THIRD_PARTY[0], THIRD_PARTY[1] - 8)) & ~1
    events = [("branch", caller, SYMBOLS[names[0]] | draw(thumb))]
    depth = draw(st.integers(1, len(names)))
    for outer, inner in zip(names[:depth - 1], names[1:depth]):
        events.append(("branch", SYMBOLS[outer] + 4,
                       SYMBOLS[inner] | draw(thumb)))
    events.append(("branch", SYMBOLS[names[0]] | draw(thumb), caller + 4))
    return events


streams = st.lists(st.one_of(st.tuples(branch), st.tuples(branch),
                             st.tuples(gate), chain_walk()),
                   max_size=20).map(
    lambda groups: [event for group in groups for event in group])


def observe(manager):
    return ([chain.depth for chain in manager._chains],
            sorted(manager._armed), manager.checks, manager.fires)


def replay(stream, chains=CHAINS):
    for enabled, is_third_party in CONFIGURATIONS:
        indexed = build(MultilevelHookManager, enabled, is_third_party,
                        chains)
        oracle = build(LinearScanManager, enabled, is_third_party, chains)
        for step, (kind, first, second) in enumerate(stream):
            if kind == "branch":
                indexed.on_branch(first, second)
                oracle.on_branch(first, second)
            else:
                assert indexed.gate(first) == oracle.gate(first), \
                    (enabled, step)
            assert observe(indexed) == observe(oracle), (enabled, step)
        assert indexed.native_provenance_active() == \
            any(chain.depth for chain in oracle._chains)
        # A job reset zeroes every chain, live or not.
        indexed.reset_for_job()
        assert not any(chain.depth for chain in indexed._chains)
        assert not indexed.native_provenance_active()


def _third_party_call(name, thumb=False):
    return ("branch", THIRD_PARTY[0] + 0x100, SYMBOLS[name] | int(thumb))


def _call(caller, callee):
    return ("branch", SYMBOLS[caller] + 4, SYMBOLS[callee])


def _return(name, to):
    return ("branch", SYMBOLS[name], to)


@settings(max_examples=250, derandomize=True, deadline=None,
          database=None)
@given(streams)
# A full three-level chain from third-party code, gated, then unwound.
@example([_third_party_call("CallVoidMethodA"),
          _call("CallVoidMethodA", "dvmCallMethodA"),
          _call("dvmCallMethodA", "dvmInterpret"),
          ("gate", "dvmInterpret", None),
          _return("CallVoidMethodA", THIRD_PARTY[0] + 0x104),
          ("gate", "CallVoidMethodA", None)])
# Thumb-bit entry; a shared inner function advancing two live chains.
@example([_third_party_call("NewObject", thumb=True),
          _third_party_call("NewObjectV"),
          _call("NewObjectV", "dvmAllocObject"),
          ("gate", "dvmAllocObject", None),
          ("gate", "dvmAllocObject", None)])
# Re-entering a live head from system code drops that chain only.
@example([_third_party_call("ThrowNew"),
          _third_party_call("NewString"),
          ("branch", 0x5000_0040, SYMBOLS["ThrowNew"]),
          _call("NewString", "dvmCreateStringFromUnicode"),
          _return("ThrowNew", THIRD_PARTY[0] + 4)])
def test_indexed_on_branch_matches_linear_scan(stream):
    replay(stream)


class CountingThirdParty:
    def __init__(self):
        self.calls = 0

    def __call__(self, address):
        self.calls += 1
        return in_third_party(address)


def test_third_party_test_runs_only_at_chain_heads():
    probe = CountingThirdParty()
    manager = build(MultilevelHookManager, True, probe)
    libc = 0x5000_0100
    # Branches between non-chain code and into non-chain symbols.
    manager.on_branch(THIRD_PARTY[0], libc)
    manager.on_branch(libc, THIRD_PARTY[0] + 8)
    manager.on_branch(THIRD_PARTY[0], SYMBOLS[OTHER_NAMES[0]])
    # Deeper chain members and a head returning while idle.
    manager.on_branch(THIRD_PARTY[0], SYMBOLS["dvmInterpret"])
    manager.on_branch(SYMBOLS["CallVoidMethodA"], THIRD_PARTY[0] + 4)
    assert probe.calls == 0
    assert manager.checks == 5
    # Entering a head evaluates T1 once; a live head's return once more.
    manager.on_branch(THIRD_PARTY[0], SYMBOLS["CallVoidMethodA"])
    assert probe.calls == 1
    manager.on_branch(SYMBOLS["CallVoidMethodA"], THIRD_PARTY[0] + 4)
    assert probe.calls == 2
    assert not manager.native_provenance_active()


def test_reset_clears_chains_armed_set_and_counters():
    manager = build(MultilevelHookManager, True, in_third_party)
    events = [_third_party_call("CallVoidMethodA"),
              _call("CallVoidMethodA", "dvmCallMethodA")]
    for __, first, second in events:
        manager.on_branch(first, second)
    assert manager.gate("CallVoidMethodA")
    assert manager.native_provenance_active()
    manager.reset_for_job()
    assert observe(manager) == ([0] * len(CHAINS), [], 0, 0)
    assert not manager.gate("dvmCallMethodA")
    # The index survives a reset: the chain arms again.
    for __, first, second in events:
        manager.on_branch(first, second)
    assert manager.active_depth("CallVoidMethodA") == 2
    assert manager.gate("dvmCallMethodA")


@pytest.mark.parametrize("chains", [
    # Repeated members: each branch advances a chain at most one level.
    [["CallVoidMethodA", "dvmInterpret", "dvmInterpret"],
     ["dvmInterpret", "dvmInterpret"]],
    # Two chains sharing a head both arm, and both unwind on its return.
    [["NewObject", "dvmAllocObject"], ["NewObject", "dvmInterpret"]],
], ids=["repeated-members", "shared-head"])
def test_unusual_chain_shapes_match_linear_scan(chains):
    head = chains[0][0]
    stream = [_third_party_call(head)] + \
        [_call(head, "dvmInterpret"), _call(head, "dvmAllocObject")] * 2 + \
        [_return(head, THIRD_PARTY[0] + 4)] + \
        [_third_party_call(head, thumb=True),
         _call(head, "dvmInterpret"),
         ("branch", SYMBOLS[head] | 1, THIRD_PARTY[0] + 4)]
    replay(stream, chains)
