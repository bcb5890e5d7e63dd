"""The allocator setting made at ``import sgds``: freed heap pages stay mapped."""
import os
import resource

import numpy as np
import pytest

import sgds

try:
    GLIBC = (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
except (AttributeError, ValueError, OSError):
    GLIBC = False


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.skipif(not GLIBC, reason="the thresholds are set on glibc only")
def test_a_freed_mebibyte_is_allocated_again_without_a_page_fault():
    assert sgds._MALLOPT == (1, 1)  # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD
    first = np.empty(1 << 17)  # 1 MiB of float64
    first.fill(1.0)
    del first
    before = minor_faults()
    second = np.empty(1 << 17)
    second.fill(1.0)
    assert minor_faults() - before == 0
