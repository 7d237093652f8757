"""The ``SourcePolicy`` structure and hash map (paper Listing 1).

Each native method that receives tainted parameters gets a
``SourcePolicy`` recording where those taints must land in the native
context: the first four parameters' taints go to shadow R0-R3, the rest to
the taint map at their stack slots.  The map is keyed by the native
method's first-instruction address; the entry hook at that address invokes
``handler`` to "complete the taint initialization" right before the method
executes (Section V.B, JNI Entry).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.taint import TAINT_CLEAR, TaintLabel
from repro.cpu.state import CpuState


@dataclass
class SourcePolicy:
    """Mirror of the C struct in Listing 1."""

    method_address: int
    t_r0: TaintLabel = TAINT_CLEAR
    t_r1: TaintLabel = TAINT_CLEAR
    t_r2: TaintLabel = TAINT_CLEAR
    t_r3: TaintLabel = TAINT_CLEAR
    stack_args_num: int = 0
    stack_args_taints: List[TaintLabel] = field(default_factory=list)
    method_shorty: str = ""
    method_name: str = ""
    access_flag: int = 0
    handler: Optional[Callable[["SourcePolicy", CpuState], None]] = None

    def register_taints(self) -> List[TaintLabel]:
        return [self.t_r0, self.t_r1, self.t_r2, self.t_r3]

    def has_taint(self) -> bool:
        return bool(self.t_r0 | self.t_r1 | self.t_r2 | self.t_r3
                    or any(self.stack_args_taints))

    def apply(self, cpu: CpuState) -> None:
        if self.handler is not None:
            self.handler(self, cpu)


class SourcePolicyMap:
    """``hash map of <addr, SourcePolicy>`` keyed by method address."""

    def __init__(self) -> None:
        self.reset_for_job()

    def reset_for_job(self) -> None:
        """Forget every policy: each belongs to one job's crossing."""
        self._policies: Dict[int, SourcePolicy] = {}
        self.hits = 0

    def put(self, policy: SourcePolicy) -> None:
        self._policies[policy.method_address & ~1] = policy

    def lookup(self, address: int) -> Optional[SourcePolicy]:
        policy = self._policies.get(address & ~1)
        if policy is not None:
            self.hits += 1
        return policy

    def __len__(self) -> int:
        return len(self._policies)
