"""A per-pair, per-character oracle for the longest-common-substring distance.

This is the dynamic program that ``nndlab.spaces`` ran once per pair of
strings before its batched kernel: one row of the table per character of
``a``, each tie rule applied as the row is reached.  The tests compare the
kernel's lengths, starts, distances and tie keys with it bit for bit.
"""

import math

import numpy as np


def longest_common_substring(a, b):
    """(length, start_a, start_b), each start the smallest in its string; -1 starts at length 0."""
    if len(a) == 0 or len(b) == 0:
        return 0, -1, -1
    B = np.array(list(b))
    prev = np.zeros(len(b) + 1, dtype=np.int32)
    cur = np.zeros(len(b) + 1, dtype=np.int32)
    best = 0
    best_end_a = -1
    best_end_b = -1
    for i, ch in enumerate(a):
        cur[:] = 0
        eq = B == ch
        cur[1:][eq] = prev[:-1][eq] + 1
        row_max = int(cur.max())
        if row_max > best:
            best = row_max
            best_end_a = i
            best_end_b = int(np.flatnonzero(cur[1:] == best)[0])
        elif best and row_max == best:
            j = int(np.flatnonzero(cur[1:] == best)[0])
            if j < best_end_b:
                best_end_b = j
        prev, cur = cur, prev
    if best == 0:
        return 0, -1, -1
    return best, best_end_a - best + 1, best_end_b - best + 1


def lcs_keys(space, a, b):
    """(rho, a's tie key, b's tie key) for strings a and b of an ``LcsSpace``.

    Each tie key is the negated log probability of the longest shared
    substring at its earliest start in that string, summed left to right
    (0.0 when none is shared).
    """
    sa, sb = space.strings[a], space.strings[b]
    length, start_a, start_b = longest_common_substring(sa, sb)
    logp = {c: math.log(q) for c, q in zip(space.alphabet, space.mu)}

    def tiekey(s, start):
        if not length:
            return 0.0
        total = 0.0
        for c in s[start : start + length]:
            total += logp[c]
        return -total

    return 1.0 - length / space.m, tiekey(sa, start_a), tiekey(sb, start_b)
