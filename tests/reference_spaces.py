"""Reference forms of two ``nndlab.spaces`` computations.

``lcs_length`` is the per-pair, per-character oracle for the
longest-common-substring distance: the dynamic program that ``nndlab.spaces``
ran once per pair of strings before its batched kernel, one row of the table
per character of ``a``.  The tests compare the kernel's lengths and distances
with it bit for bit.  ``wrapped_deltas`` gives the per-coordinate wrapped
distances of raw coordinate differences, whose ``max(axis=-1)``
``spaces.wrapped_distance`` equals bit for bit.
"""

import numpy as np


def lcs_length(a, b):
    """The length of the longest common substring of the strings a and b."""
    if len(a) == 0 or len(b) == 0:
        return 0
    B = np.array(list(b))
    prev = np.zeros(len(b) + 1, dtype=np.int32)
    cur = np.zeros(len(b) + 1, dtype=np.int32)
    best = 0
    for ch in a:
        cur[:] = 0
        eq = B == ch
        cur[1:][eq] = prev[:-1][eq] + 1
        best = max(best, int(cur.max()))
        prev, cur = cur, prev
    return best


def lcs_rho(space, a, b):
    """rho = 1 - M/m for strings a and b of an ``LcsSpace``, M their ``lcs_length``."""
    return 1.0 - lcs_length(space.strings[a], space.strings[b]) / space.m


def wrapped_deltas(diff):
    """Per-coordinate wrapped distances for raw coordinate differences."""
    delta = np.abs(diff)
    return np.minimum(delta, 2.0 - delta)
