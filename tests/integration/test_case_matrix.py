"""Table I end-to-end: which analysis detects which leak scenario.

Ground truth first: every leak scenario really transmits the sensitive
data (checked against the kernel's network/file records).  Then the
detection matrix: TaintDroid alone catches only case 1; TaintDroid+NDroid
catches every case; neither flags the benign control app.
"""

import pytest

from repro.apps import ALL_SCENARIOS
from repro.apps.base import run_scenario
from repro.core import NDroid
from repro.framework import AndroidPlatform
from repro.taintdroid import TaintDroid

LEAK_SCENARIOS = ["case1", "case1_prime", "case2", "case3", "case4",
                  "case2_thumb", "qqphonebook", "ephone", "poc_case2",
                  "poc_case3"]


def run_under(scenario_name, config):
    scenario = ALL_SCENARIOS[scenario_name]()
    platform = AndroidPlatform()
    if config == "taintdroid":
        TaintDroid.attach(platform)
    elif config == "ndroid":
        NDroid.attach(platform)
    elif config != "vanilla":
        raise ValueError(config)
    run_scenario(scenario, platform)
    return scenario, platform


def leaked_payload(platform, scenario):
    """The sensitive bytes that actually left the device (ground truth)."""
    destination = scenario.expected_destination
    if destination.startswith("/"):
        if not platform.kernel.filesystem.exists(destination):
            return b""
        file = platform.kernel.filesystem.lookup(destination)
        return bytes(file.data)
    chunks = [t.payload for t in
              platform.kernel.network.transmissions_to(destination)]
    return b"".join(chunks)


class TestGroundTruth:
    """The scenarios really do exfiltrate data, regardless of analysis."""

    @pytest.mark.parametrize("name", LEAK_SCENARIOS)
    def test_sensitive_data_leaves_device(self, name):
        scenario, platform = run_under(name, "vanilla")
        payload = leaked_payload(platform, scenario)
        assert payload, f"{name}: nothing reached {scenario.expected_destination}"
        device = platform.device
        sensitive_fragments = {
            "case1": device.imei, "case1_prime": device.imei,
            "case2": device.imei, "case3": device.imei,
            "case4": device.imei,
            "case2_thumb": device.imsi,
            "qqphonebook": "Vincent",          # contacts in the sid blob
            "ephone": "Vincent",
            "poc_case2": "cx@gg.com",
            "poc_case3": device.line1_number,
        }
        assert sensitive_fragments[name].encode() in payload

    def test_benign_app_transmits_only_clean_data(self):
        scenario, platform = run_under("benign", "vanilla")
        sent = platform.kernel.network.transmissions_to("stats.example.com")
        assert sent and sent[0].payload == b"hello=world&version=3"


class TestDetectionMatrix:
    """The paper's core claim (Section IV + VI)."""

    @pytest.mark.parametrize("name", LEAK_SCENARIOS)
    def test_taintdroid_alone(self, name):
        scenario, platform = run_under(name, "taintdroid")
        detected = platform.leaks.detected_by("taintdroid",
                                              scenario.expected_taint)
        assert detected == scenario.taintdroid_alone_detects, (
            f"{name}: TaintDroid-alone detection should be "
            f"{scenario.taintdroid_alone_detects}, leaks:\n"
            f"{platform.leaks.summary()}")

    @pytest.mark.parametrize("name", LEAK_SCENARIOS)
    def test_ndroid_detects_every_case(self, name):
        scenario, platform = run_under(name, "ndroid")
        records = [r for r in platform.leaks.records
                   if r.taint & scenario.expected_taint]
        assert records, (f"{name}: NDroid missed the leak; leaks:\n"
                         f"{platform.leaks.summary()}")
        destinations = " ".join(r.destination for r in records)
        assert scenario.expected_destination.split(":")[0] in destinations

    @pytest.mark.parametrize("config", ["vanilla", "taintdroid", "ndroid"])
    def test_benign_app_never_flagged(self, config):
        scenario, platform = run_under("benign", config)
        assert len(platform.leaks) == 0, platform.leaks.summary()

    def test_only_case1_detected_by_taintdroid(self):
        detected = []
        for name in LEAK_SCENARIOS:
            scenario, platform = run_under(name, "taintdroid")
            if platform.leaks.detected_by("taintdroid",
                                          scenario.expected_taint):
                detected.append(name)
        assert detected == ["case1"]

    def test_vanilla_detects_nothing(self):
        for name in LEAK_SCENARIOS:
            __, platform = run_under(name, "vanilla")
            assert len(platform.leaks) == 0
