"""Privacy-preserving uplink channel estimation for cell-free hybrid MIMO.

Switch-sampled observations at the APs are completed into full channel
blocks by two jointly private distributed algorithms (an iterative
Frank-Wolfe scheme and a one-shot spectral scheme), with every AP-to-CPU
message limited to noisy Gram releases or locally detected payload.

Allocator policy: on glibc, importing privcell fixes malloc's mmap threshold
at 32 MiB (the 64-bit ceiling of glibc's sliding threshold) and its trim
threshold at 64 MiB (the sliding rule's 2x), both or neither, so the large
temporaries a trial frees, LAPACK's workspaces among them, stay in the heap
for the next trial rather than fault in again.  No output changes.  The
setting is process-wide: a program that imports privcell inherits it.
"""

import ctypes
import os

try:
    _GLIBC = os.confstr("CS_GNU_LIBC_VERSION")
except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
    _GLIBC = None
if _GLIBC and ctypes.CDLL(None).mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD
    ctypes.CDLL(None).mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
