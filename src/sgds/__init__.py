"""Desk-scale class-incremental learning engine with activation sparsification."""
import ctypes
import os

__version__ = "0.1.0"

# On glibc, keep freed heap pages mapped, so later batches reuse them instead of
# faulting them in again: no mmap below 32 MiB (M_MMAP_THRESHOLD, -3) and no heap
# trim below 64 MiB (M_TRIM_THRESHOLD, -1). Either call alone turns off glibc's
# dynamic mmap threshold, which would then mmap every temporary over 128 KiB.
try:
    _glibc = (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
except (AttributeError, ValueError, OSError):  # no confstr, or no such name
    _glibc = False
_MALLOPT = ((ctypes.CDLL(None).mallopt(-3, 32 << 20),
             ctypes.CDLL(None).mallopt(-1, 64 << 20)) if _glibc else None)
