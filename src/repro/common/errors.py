"""Exception hierarchy for the reproduction.

Every layer raises a subclass of :class:`ReproError`, so harness code can
catch simulation failures without masking genuine Python bugs.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the simulated platform."""


class EmulationError(ReproError):
    """The CPU emulator reached an illegal state (bad PC, unmapped fetch).

    Carries optional execution context — the faulting PC, the CPU mode
    (``"arm"``/``"thumb"``) and the raw instruction word — so crash
    reports can show where the machine died without re-introspecting it.
    """

    def __init__(self, message: str, pc: Optional[int] = None,
                 mode: Optional[str] = None,
                 word: Optional[int] = None) -> None:
        super().__init__(message)
        self.pc = pc
        self.mode = mode
        self.word = word

    def context(self) -> str:
        parts = []
        if self.pc is not None:
            parts.append(f"pc=0x{self.pc:08x}")
        if self.mode is not None:
            parts.append(f"mode={self.mode}")
        if self.word is not None:
            width = 4 if self.mode == "thumb" else 8
            parts.append(f"word=0x{self.word:0{width}x}")
        return " ".join(parts)

    def __str__(self) -> str:
        message = super().__str__()
        context = self.context()
        return f"{message} [{context}]" if context else message


class DecodeError(EmulationError):
    """An instruction word could not be decoded as ARM or Thumb."""


class AnalysisTimeout(ReproError):
    """The supervisor's instruction-budget watchdog fired (runaway native
    code): the instruction at ``pc`` would have been number ``budget``."""

    def __init__(self, budget: int, pc: int):
        super().__init__(f"instruction budget of {budget} exhausted "
                         f"@ pc=0x{pc:08x}")
        self.budget = budget
        self.pc = pc


class MemoryError_(ReproError):
    """Access to an unmapped or protected memory address.

    Named with a trailing underscore to avoid shadowing the Python builtin.
    """

    def __init__(self, address: int, message: str = "unmapped access"):
        super().__init__(f"{message} @ 0x{address:08x}")
        self.address = address


class AssemblerError(ReproError):
    """The ARM/Thumb assembler rejected a source line."""


class DalvikError(ReproError):
    """The Dalvik VM reached an illegal state (bad register, missing class)."""


class DalvikThrow(ReproError):
    """A Java-level exception propagated out of interpreted code.

    Carries the exception object reference so JNI's ``ExceptionOccurred``
    machinery and the ``ThrowNew`` hook can inspect it.
    """

    def __init__(self, exception_ref: int, class_name: str, detail: str = ""):
        super().__init__(f"{class_name}: {detail}")
        self.exception_ref = exception_ref
        self.class_name = class_name
        self.detail = detail


class JNIError(ReproError):
    """Misuse of the JNI interface (bad indirect reference, bad shorty)."""


class KernelError(ReproError):
    """Simulated-kernel failure (bad fd, missing path, bad syscall)."""


class TransientSyscallFault(KernelError):
    """A syscall failed with a transient errno (``EINTR``/``EAGAIN``).

    Retrying the operation — or the whole analysis attempt, which is what
    the resilience supervisor does — must eventually succeed.  Carries the
    syscall name and errno value for retry policies and crash reports.
    """

    def __init__(self, syscall: str, errno_value: int):
        super().__init__(f"{syscall} failed with errno {errno_value} "
                         "(transient)")
        self.syscall = syscall
        self.errno_value = errno_value
