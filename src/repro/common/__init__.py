"""Shared primitives used across every layer of the reproduction.

This package holds the pieces that both the substrates (CPU, Dalvik VM,
kernel) and the analysis systems (TaintDroid, NDroid) agree on: the 32-bit
taint-label encoding and the exception hierarchy.
"""

from repro.common.errors import (
    EmulationError,
    DecodeError,
    MemoryError_,
    DalvikError,
    JNIError,
    KernelError,
    ReproError,
)
from repro.common.taint import (
    TAINT_ACCELEROMETER,
    TAINT_ACCOUNT,
    TAINT_CAMERA,
    TAINT_CLEAR,
    TAINT_CONTACTS,
    TAINT_DEVICE_SN,
    TAINT_HISTORY,
    TAINT_ICCID,
    TAINT_IMEI,
    TAINT_IMSI,
    TAINT_LOCATION,
    TAINT_LOCATION_GPS,
    TAINT_LOCATION_LAST,
    TAINT_LOCATION_NET,
    TAINT_MIC,
    TAINT_PHONE_NUMBER,
    TAINT_SMS,
    TaintLabel,
    combine,
    describe_taint,
)

__all__ = [
    "ReproError",
    "EmulationError",
    "DecodeError",
    "MemoryError_",
    "DalvikError",
    "JNIError",
    "KernelError",
    "TaintLabel",
    "TAINT_CLEAR",
    "TAINT_LOCATION",
    "TAINT_CONTACTS",
    "TAINT_MIC",
    "TAINT_PHONE_NUMBER",
    "TAINT_LOCATION_GPS",
    "TAINT_LOCATION_NET",
    "TAINT_LOCATION_LAST",
    "TAINT_CAMERA",
    "TAINT_ACCELEROMETER",
    "TAINT_SMS",
    "TAINT_IMEI",
    "TAINT_IMSI",
    "TAINT_ICCID",
    "TAINT_DEVICE_SN",
    "TAINT_ACCOUNT",
    "TAINT_HISTORY",
    "combine",
    "describe_taint",
]
