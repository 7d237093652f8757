"""Lightweight APK model for the large-scale study.

A quarter of a million records must fit in memory, so this is a compact
``__slots__`` record rather than a full installable
:class:`~repro.framework.apk.Apk`.  The fields mirror what a static
scanner extracts from a real APK: the dex string table (to find
``System.load*`` invocations and native-method declarations), the
``lib/<abi>/`` entries, embedded secondary dex files, and manifest
metadata.
"""

from __future__ import annotations

from itertools import repeat
from typing import Tuple

LOAD_LIBRARY_STRING = "Ljava/lang/System;->loadLibrary"
LOAD_STRING = "Ljava/lang/System;->load"
NATIVE_ACTIVITY_STRING = "android.app.NativeActivity"

# The eight AdMob plugin classes the paper identifies in Type I apps
# without libraries (Section III.A).
ADMOB_CLASSES = (
    "Lcom/admob/android/ads/AdView;",
    "Lcom/admob/android/ads/AdManager;",
    "Lcom/admob/android/ads/InterstitialAd;",
    "Lcom/admob/android/ads/AdListener;",
    "Lcom/admob/android/ads/AdRequest;",
    "Lcom/admob/android/ads/AdContainer;",
    "Lcom/admob/android/ads/AdWebView;",
    "Lcom/admob/android/ads/AnalyticsConnector;",
)


class EmbeddedDexInfo:
    """A secondary (often compressed) dex payload inside an APK."""

    __slots__ = ("name", "strings")

    def __init__(self, name: str, strings: Tuple[str, ...]) -> None:
        self.name = name
        self.strings = strings

    def calls_load(self) -> bool:
        return any(map(str.startswith, self.strings, repeat(LOAD_STRING)))


class AppRecord:
    """One APK as seen by the static analyzer."""

    __slots__ = ("package", "category", "dex_strings", "native_libraries",
                 "library_archs", "embedded_dex", "manifest_flags",
                 "declared_native_classes")

    def __init__(self, package: str, category: str,
                 dex_strings: Tuple[str, ...] = (),
                 native_libraries: Tuple[str, ...] = (),
                 library_archs: Tuple[str, ...] = ("armeabi",),
                 embedded_dex: Tuple[EmbeddedDexInfo, ...] = (),
                 manifest_flags: Tuple[str, ...] = (),
                 declared_native_classes: Tuple[str, ...] = ()) -> None:
        self.package = package
        self.category = category
        self.dex_strings = dex_strings
        self.native_libraries = native_libraries
        self.library_archs = library_archs
        self.embedded_dex = embedded_dex
        self.manifest_flags = manifest_flags
        self.declared_native_classes = declared_native_classes

    # -- the probes a static scanner runs ---------------------------------------

    def calls_load(self) -> bool:
        """Does the main dex invoke System.load()/System.loadLibrary()?"""
        return any(map(str.startswith, self.dex_strings,
                       repeat(LOAD_STRING)))

    def has_native_libraries(self) -> bool:
        return bool(self.native_libraries)

    def is_pure_native(self) -> bool:
        return NATIVE_ACTIVITY_STRING in self.manifest_flags

    def has_loadable_embedded_dex(self) -> bool:
        return any(dex.calls_load() for dex in self.embedded_dex)

    def uses_admob_native_classes(self) -> bool:
        return any(cls in ADMOB_CLASSES
                   for cls in self.declared_native_classes)
