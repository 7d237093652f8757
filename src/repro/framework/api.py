"""Framework API intrinsics: TaintDroid's sources and Java-context sinks.

Sources attach taint labels when TaintDroid is active ("TaintDroid adds
taints to the sources of sensitive information — GPS data, SMS messages,
IMSI, IMEI, etc.", Section II.B).  Sinks transmit through the simulated
kernel and, when TaintDroid is active, check argument taints and report
Java-context leaks.

All intrinsics are registered under their framework symbols, e.g.
``Landroid/telephony/TelephonyManager;->getDeviceId``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.taint import (
    TAINT_ACCELEROMETER,
    TAINT_ACCOUNT,
    TAINT_CAMERA,
    TAINT_CLEAR,
    TAINT_CONTACTS,
    TAINT_HISTORY,
    TAINT_ICCID,
    TAINT_IMEI,
    TAINT_IMSI,
    TAINT_LOCATION_GPS,
    TAINT_LOCATION_NET,
    TAINT_MIC,
    TAINT_PHONE_NUMBER,
    TAINT_SMS,
    TaintLabel,
)
from repro.dalvik.heap import Slot
from repro.framework.leaks import LeakRecord
from repro.observability.ledger import Loc


class FrameworkApi:
    """Binds source/sink intrinsics to a platform instance."""

    def __init__(self, platform) -> None:
        self.platform = platform

    # -- registration ------------------------------------------------------------

    def register_all(self) -> None:
        vm = self.platform.vm
        sources = {
            "Landroid/telephony/TelephonyManager;->getDeviceId":
                (lambda d: d.imei, TAINT_IMEI),
            "Landroid/telephony/TelephonyManager;->getSubscriberId":
                (lambda d: d.imsi, TAINT_IMSI),
            "Landroid/telephony/TelephonyManager;->getSimSerialNumber":
                (lambda d: d.iccid, TAINT_ICCID),
            "Landroid/telephony/TelephonyManager;->getLine1Number":
                (lambda d: d.line1_number, TAINT_PHONE_NUMBER),
            "Landroid/telephony/TelephonyManager;->getNetworkOperator":
                (lambda d: d.network_operator, TAINT_CLEAR),
            "Landroid/provider/ContactsContract;->queryAllContacts":
                (lambda d: d.contacts_dump(), TAINT_CONTACTS),
            "Landroid/provider/Telephony$Sms;->getAllMessages":
                (lambda d: d.sms_dump(), TAINT_SMS),
            "Landroid/location/LocationManager;->getLastKnownLocation":
                (lambda d: d.location_string(), TAINT_LOCATION_GPS),
            "Landroid/location/LocationManager;->getNetworkLocation":
                (lambda d: d.location_string(), TAINT_LOCATION_NET),
            "Landroid/accounts/AccountManager;->getAccounts":
                (lambda d: ";".join(d.accounts), TAINT_ACCOUNT),
            "Landroid/hardware/SensorManager;->getAccelerometer":
                (lambda d: "0.12,9.81,0.05", TAINT_ACCELEROMETER),
            "Landroid/media/AudioRecord;->read":
                (lambda d: "PCM:" + "00" * 16, TAINT_MIC),
            "Landroid/hardware/Camera;->takePicture":
                (lambda d: "JPEG:" + "ff" * 16, TAINT_CAMERA),
            "Landroid/provider/Browser;->getHistory":
                (lambda d: "https://bank.example.com/login", TAINT_HISTORY),
        }
        for symbol, (getter, taint) in sources.items():
            vm.register_intrinsic(
                symbol, self._make_string_source(getter, taint, symbol))

        # Contact-by-id sources (the case-2 PoC reads id/name/email).
        for field_name, accessor in (
                ("getContactId", lambda c: c.contact_id),
                ("getContactName", lambda c: c.name),
                ("getContactEmail", lambda c: c.email)):
            vm.register_intrinsic(
                f"Landroid/provider/ContactsContract;->{field_name}",
                self._make_contact_source(accessor))

        # Java-context sinks.
        vm.register_intrinsic("Lorg/apache/http/client/HttpClient;->post",
                              self._sink_http_post)
        vm.register_intrinsic("Ljava/net/Socket;->sendData",
                              self._sink_socket_send)
        vm.register_intrinsic("Landroid/telephony/SmsManager;->sendTextMessage",
                              self._sink_sms_send)
        vm.register_intrinsic("Ljava/io/FileOutputStream;->writeString",
                              self._sink_file_write)

        # String utility intrinsics apps lean on.
        vm.register_intrinsic("Ljava/lang/String;->length",
                              self._string_length)
        vm.register_intrinsic("Ljava/lang/String;->equals",
                              self._string_equals)

        # System.loadLibrary / System.load.
        vm.register_intrinsic("Ljava/lang/System;->loadLibrary",
                              self._load_library)
        vm.register_intrinsic("Ljava/lang/System;->load", self._load_library)
        # Throwable.getMessage (used to leak via exceptions, case 1').
        vm.register_intrinsic("Ljava/lang/Throwable;->getMessage",
                              self._throwable_get_message)

    # -- source factories ------------------------------------------------------------

    def _source_taint(self, taint: TaintLabel) -> TaintLabel:
        """Sources taint only when TaintDroid instruments the framework."""
        return taint if self.platform.taintdroid is not None else TAINT_CLEAR

    def _trace_source(self, symbol: str, label: TaintLabel) -> None:
        ledger = getattr(self.platform.vm, "ledger", None)
        if label and ledger is not None:
            ledger.record(label, "source:framework", Loc.api(symbol),
                          Loc.java(label), location=symbol)

    def _make_string_source(self, getter, taint: TaintLabel,
                            symbol: str = ""):
        def intrinsic(vm, args: List[Slot]) -> Slot:
            label = self._source_taint(taint)
            text = getter(self.platform.device)
            record = vm.heap.alloc_string(text, label)
            self._trace_source(symbol, label)
            return Slot(record.address, label, True)
        return intrinsic

    def _make_contact_source(self, accessor):
        def intrinsic(vm, args: List[Slot]) -> Slot:
            index = args[0].value if args else 0
            contacts = self.platform.device.contacts
            contact = contacts[index % len(contacts)]
            label = self._source_taint(TAINT_CONTACTS)
            record = vm.heap.alloc_string(accessor(contact), label)
            self._trace_source(
                "Landroid/provider/ContactsContract;->getContact", label)
            return Slot(record.address, label, True)
        return intrinsic

    # -- sinks -------------------------------------------------------------------------

    def _string_and_taint(self, vm, slot: Slot):
        record = vm.heap.get(slot.value)
        return record.text, slot.taint | record.taint

    def _check_java_sink(self, sink: str, taint: TaintLabel,
                         destination: str, payload: bytes) -> None:
        taintdroid = self.platform.taintdroid
        if taintdroid is not None and taint != TAINT_CLEAR:
            taintdroid.report_leak(sink=sink, taint=taint,
                                   destination=destination, payload=payload)

    def _sink_http_post(self, vm, args: List[Slot]) -> Slot:
        destination, dest_taint = self._string_and_taint(vm, args[0])
        body, body_taint = self._string_and_taint(vm, args[1])
        payload = body.encode("utf-8")
        taint = body_taint
        kernel = self.platform.kernel
        fd = kernel.sys_socket()
        kernel.sys_connect(fd, destination)
        kernel.sys_send(fd, payload, [taint] * len(payload))
        kernel.sys_close(fd)
        self._check_java_sink("HttpClient.post", taint, destination, payload)
        return Slot(200)

    def _sink_socket_send(self, vm, args: List[Slot]) -> Slot:
        destination, __ = self._string_and_taint(vm, args[0])
        body, taint = self._string_and_taint(vm, args[1])
        payload = body.encode("utf-8")
        kernel = self.platform.kernel
        fd = kernel.sys_socket()
        kernel.sys_connect(fd, destination)
        kernel.sys_send(fd, payload, [taint] * len(payload))
        kernel.sys_close(fd)
        self._check_java_sink("Socket.send", taint, destination, payload)
        return Slot(len(payload))

    def _sink_sms_send(self, vm, args: List[Slot]) -> Slot:
        number, __ = self._string_and_taint(vm, args[0])
        body, taint = self._string_and_taint(vm, args[1])
        payload = body.encode("utf-8")
        kernel = self.platform.kernel
        fd = kernel.sys_socket()
        kernel.sys_sendto(fd, payload, f"sms:{number}",
                          [taint] * len(payload))
        kernel.sys_close(fd)
        self._check_java_sink("SmsManager.sendTextMessage", taint,
                              f"sms:{number}", payload)
        return None

    def _sink_file_write(self, vm, args: List[Slot]) -> Slot:
        path, __ = self._string_and_taint(vm, args[0])
        body, taint = self._string_and_taint(vm, args[1])
        payload = body.encode("utf-8")
        kernel = self.platform.kernel
        from repro.kernel.kernel import O_APPEND, O_CREAT
        fd = kernel.sys_open(path, O_CREAT | O_APPEND)
        kernel.sys_write(fd, payload, [taint] * len(payload))
        kernel.sys_close(fd)
        self._check_java_sink("FileOutputStream.write", taint, path, payload)
        return Slot(len(payload))

    # -- utilities ------------------------------------------------------------------------

    def _string_length(self, vm, args: List[Slot]) -> Slot:
        text, taint = self._string_and_taint(vm, args[0])
        return Slot(len(text), taint)

    def _string_equals(self, vm, args: List[Slot]) -> Slot:
        a, taint_a = self._string_and_taint(vm, args[0])
        b, taint_b = self._string_and_taint(vm, args[1])
        return Slot(1 if a == b else 0, taint_a | taint_b)

    def _load_library(self, vm, args: List[Slot]) -> Optional[Slot]:
        name, __ = self._string_and_taint(vm, args[0])
        self.platform.load_library(name)
        return None

    def _throwable_get_message(self, vm, args: List[Slot]) -> Slot:
        record = vm.heap.get(args[0].value)
        slot = record.fields.get("message")
        if slot is None or slot.value == 0:
            return Slot(vm.heap.alloc_string("").address, TAINT_CLEAR, True)
        message = vm.heap.get(slot.value)
        return Slot(slot.value, slot.taint | message.taint, True)
