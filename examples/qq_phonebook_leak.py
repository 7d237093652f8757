#!/usr/bin/env python3
"""Reproduce Fig. 6: the QQPhoneBook v3.5 information flow, with its path.

The Java code passes an SMS+contacts blob (taint 0x202) as ``args[3]`` of
the native ``makeLoginRequestPackageMd5``; the native code formats it into
a login URL; a second call, ``getPostUrl``, wraps that buffer with
``NewStringUTF`` and hands it back to Java, which posts it to
``info.3g.qq.com``.  The leak's reconstructed provenance path — like the
paper's figure — shows the taint entering the native context, landing in
native memory, and being re-attached to the new String object.

Run:  python examples/qq_phonebook_leak.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.apps import qqphonebook
from repro.apps.base import run_scenario
from repro.bench.harness import make_platform
from repro.common.taint import describe_taint


def main():
    platform = make_platform("ndroid", trace=True)
    scenario = qqphonebook.build()
    run_scenario(scenario, platform)

    print("=" * 70)
    print("QQPhoneBook v3.5 (Fig. 6) under TaintDroid + NDroid")
    print("=" * 70)

    print("\nInformation-flow path (provenance ledger):")
    ledger = platform.observability.ledger
    print(ledger.format_path(ledger.reconstruct(taint=0x202)))

    print("\nWhat went over the wire to info.3g.qq.com:")
    for transmission in platform.kernel.network.transmissions_to(
            "info.3g.qq.com"):
        print(f"  {transmission.payload.decode(errors='replace')!r}")
        print(f"  carrying taint "
              f"{describe_taint(transmission.taint_union)} "
              f"(0x{transmission.taint_union:x})")

    print("\nDetected leaks:")
    print(platform.leaks.summary())

    record = platform.leaks.records[0]
    assert record.taint & 0x202, "expected the paper's 0x202 label"
    print("\nOK: the 0x202 (SMS|CONTACTS) flow of Fig. 6 is reproduced.")


if __name__ == "__main__":
    main()
