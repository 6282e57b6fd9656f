"""Ranking systems, exact K-nearest-neighbor graphs, and recall scoring.

A ranking system assigns to every item x a strict preference order over the
other items.  This module stores such systems as explicit rank tables, wraps
them in a work-metering preference oracle, extracts exact K-NN graphs (the
quadratic reference that descent tries to approximate cheaply), and scores
approximate graphs against exact ones.
"""

import threading

import numpy as np

from .errors import InputError

# Full rank tables cost O(n^2) memory; they are test oracles and desk-scale
# engines, not production indexes.
MAX_TABLE_ITEMS = 2 ** 15

BAD_SEED = "a seed must be an integer >= 0"


def check_table_size(n):
    """Refuse a rank table of more than ``MAX_TABLE_ITEMS`` items."""
    if n > MAX_TABLE_ITEMS:
        raise InputError(
            f"n={n} exceeds the rank-table cap of {MAX_TABLE_ITEMS}; "
            "full tables above this size are disallowed by design"
        )


def checked_ids(ids, n, message):
    """``ids`` as an array, never cast or copied, if every entry is an integer in
    [0, n); else ``InputError(message)``.  Float and bool dtypes are refused even
    with integral values, not truncated; an empty array of any dtype passes."""
    ids = np.asarray(ids)
    if ids.size and (ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= n):
        raise InputError(message)
    return ids


def checked_count(value, low, message, high=np.iinfo(np.int64).max):
    """``value`` as a Python int if it is an integer or an integral float in [low, high],
    else ``InputError(message)``: bools, NaN and infinities are refused, and nothing rounded."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and low <= int(value) <= high):
        raise InputError(message)
    return int(value)


def seeded(seed):
    """``np.random.default_rng`` of a seed ``checked_count`` takes as an int >= 0, of any size."""
    return np.random.default_rng(checked_count(seed, 0, BAD_SEED, high=np.inf))


def unique_keys(keys):
    """The sorted distinct keys, as ``np.unique`` gives them, by one plain sort.

    numpy 2's ``np.unique`` hashes integers first; that measured 9-20x slower
    than this on 50-200 keys and 30-60x on 1e5-1e6 (numpy 2.4, x86-64).
    """
    return unique_sorted(np.sort(keys))


def unique_sorted(keys):
    """The distinct entries of ascending ``keys``, ascending."""
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def key_dtype(width):
    """The dtype of keys row*width + col with row, col < width: int32 while width^2 fits it."""
    return np.int32 if width * width <= np.iinfo(np.int32).max else np.int64


def key_rows(keys, width, rows):
    """The CSR indptr of ascending keys row*width + col over ``rows`` rows: row x
    holds the keys in [x*width, (x + 1)*width), at ``indptr[x]:indptr[x + 1]``.
    ``rows * width`` must fit the keys' dtype."""
    return np.searchsorted(keys, np.arange(rows + 1, dtype=keys.dtype) * width)


def csr_rows(starts, counts):
    """The positions of the CSR rows starting at ``starts``, ``counts`` long, in turn."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if ends.size else 0)


class RankTable:
    """Explicit per-item rankings over a ground set of n items.

    ``order[x]`` lists the other n-1 items from most to least preferred by
    x, as integer ids (floats are refused, not cast); ``ranks[x, y]`` is the
    1-based position of y in that list (0 on the diagonal).  Instances are
    immutable after construction and safe to share across threads.
    """

    def __init__(self, order):
        order = np.asarray(order)
        if order.ndim != 2 or order.shape[1] != order.shape[0] - 1:
            raise InputError(f"order must be (n, n-1), got {order.shape}")
        n = order.shape[0]
        if n < 2:
            raise InputError("a ranking system needs at least two items")
        check_table_size(n)
        bad = "row x of order must be a permutation of all items except x"
        order = checked_ids(order, n, bad).astype(np.int32)
        ranks = np.zeros((n, n), dtype=np.int32)
        # ranks[x, order[x, i]] = i + 1, with no n^2 array of row indices
        np.put_along_axis(ranks, order, np.arange(1, n, dtype=np.int32)[None, :], axis=1)
        # row x is a permutation of the others iff it writes n - 1 ranks, none on
        # the diagonal: a repeated item leaves a rank of its row unwritten
        if np.count_nonzero(ranks) != n * (n - 1) or ranks.ravel()[:: n + 1].any():
            raise InputError(bad)
        self._order = order
        self._ranks = ranks
        self._order.setflags(write=False)
        self._ranks.setflags(write=False)

    @property
    def n(self):
        return self._order.shape[0]

    @property
    def order(self):
        return self._order

    @property
    def ranks(self):
        return self._ranks

    def __eq__(self, other):
        return isinstance(other, RankTable) and np.array_equal(self._order, other._order)

    def __hash__(self):
        return hash(self._order.tobytes())


class KnnGraph:
    """A K-out digraph over n items: row x of the (n, K) ``neighbors`` lists x's K
    out-neighbors, most preferred first, as integer ids in [0, n) (a read-only int32 copy)."""

    def __init__(self, neighbors):
        neighbors = np.asarray(neighbors)
        if neighbors.ndim != 2:
            raise InputError("neighbors must be a 2-D (n, K) array")
        self.n, self.k = neighbors.shape
        if not 1 <= self.k < self.n:
            raise InputError(f"need 1 <= K < n, got K={self.k}, n={self.n}")
        srt = np.sort(neighbors, axis=1)
        if (np.diff(srt, axis=1) == 0).any():
            raise InputError("neighbor lists must not repeat items")
        if (neighbors == np.arange(self.n)[:, None]).any():
            raise InputError("an item may not neighbor itself")
        neighbors = checked_ids(neighbors, self.n, "neighbor ids out of range")
        self.neighbors = neighbors.astype(np.int32)
        self.neighbors.setflags(write=False)

    def __eq__(self, other):
        return (
            isinstance(other, KnnGraph)
            and self.n == other.n
            and np.array_equal(self.neighbors, other.neighbors)
        )

    def __hash__(self):
        return hash((self.n, self.neighbors.tobytes()))


class RankingOracle:
    """Selects each item's most-preferred candidates over a RankTable, metering work.

    ``top_k`` is the one selection: it takes one fixed-width row of
    candidates per owner, gathers the owner's ranks of the row, sorts them
    and reads the best k from the table's ``order``.  The owner itself and
    repeats in a row are dropped, so an owner may pad a short row with
    itself.  It charges ``c * ceil(log2 c)`` per row of c distinct
    candidates, the comparison cost of the sort it stands in for, so
    desk-scale descent runs stay fast while ``comparisons`` stays an honest
    upper-bound accounting of comparison-based selection.  A scalar owner
    with a 1-D pool is the batch of one.  The meter is guarded by a lock so
    concurrent readers may share one oracle.
    """

    def __init__(self, table):
        if not isinstance(table, RankTable):
            raise InputError(f"an oracle takes a RankTable, got {type(table).__name__}")
        self.table = table
        self._comparisons = 0
        self._lock = threading.Lock()

    @property
    def n(self):
        return self.table.n

    @property
    def comparisons(self):
        return self._comparisons

    def _charge(self, amount):
        with self._lock:
            self._comparisons += amount

    def top_k(self, x, pools, k):
        """The k most-preferred distinct candidates of each owner, best first.

        With an array ``x``, row i of the 2-D ``pools`` is the pool of owner
        ``x[i]``, and the result has one row of k per owner, in the given
        order; a scalar ``x`` with a 1-D pool is the batch of one, and its
        result is x's best k.  Every row must hold at least k distinct
        candidates other than its owner.  Ids that are not integers or lie
        outside [0, n), a batch of no owners, a k that is not a count >= 1,
        or a short row refuse the call before anything is charged.
        """
        n = self.n
        k = checked_count(k, 1, f"top_k takes a count k >= 1, got k={k!r}")
        bad = f"top_k takes one row of integer candidates per owner, all ids in [0, {n})"
        owners = checked_ids(np.atleast_1d(x), n, bad)
        rows = checked_ids(np.atleast_2d(pools), n, bad)
        if owners.ndim != 1 or rows.ndim != 2 or not 0 < owners.size == rows.shape[0]:
            raise InputError(bad)
        short = f"every row needs at least k={k} distinct candidates other than its owner"
        if rows.shape[1] < k:  # before the gather, which a float [] would fail
            raise InputError(short)
        ranks = self.table.ranks.ravel()[rows + (owners * n)[:, None]]
        ranks.sort(axis=1)
        # a rank is new where it differs from the one before; rank 0, the owner's, sorts first
        fresh = np.empty(ranks.shape, dtype=bool)
        np.not_equal(ranks[:, 1:], ranks[:, :-1], out=fresh[:, 1:])
        np.not_equal(ranks[:, :1], 0, out=fresh[:, :1])
        sizes = fresh.sum(axis=1)
        if sizes.min() < k:
            raise InputError(short)
        # ceil(log2 c) is the bit length of c - 1, the exponent frexp returns
        self._charge(int(sizes @ np.frexp(sizes - 1)[1]))
        # the owner and repeats sort last, past every rank, so each row starts with its best
        best = np.sort(np.where(fresh, ranks, n), axis=1)[:, :k]
        # order[o, r - 1] sits at o * (n - 1) + r - 1 of the flat order
        top = self.table.order.ravel()[best + (owners * (n - 1) - 1)[:, None]]
        return top if np.ndim(x) else top[0]


def ranking_from_distance_matrix(dist):
    """RankTable from a square distance matrix: row x ranks the others by ``dist[x, y]``.

    Every entry off the diagonal must be finite and non-negative; the
    diagonal is ignored.  Ties are broken by item id, the smaller id first,
    so rebuilding a table from the same inputs is bit-reproducible.
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise InputError("distance matrix must be square")
    n = dist.shape[0]
    # the n^2 - 1 entries after [0, 0] are rows of n off-diagonal ones, each ended by a diagonal one
    off = dist.ravel()[1:].reshape(n - 1, n + 1)[:, :n]
    if not np.isfinite(off).all():
        raise InputError("distances must be finite")
    if not (off >= 0).all():
        raise InputError("distances must be non-negative")
    dist = dist.copy()
    np.fill_diagonal(dist, np.inf)  # self sorts last and is dropped
    # a stable sort keeps equal distances in item-id order
    order = dist.argsort(axis=1, kind="stable")[:, : n - 1]
    del dist  # the inf copy is not kept while the table is built
    return RankTable(order)


def exact_knn(table, K):
    """The exact K-NN graph of a ranking system; O(n^2) by construction."""
    K = checked_count(K, 1, f"need 1 <= K < n, got K={K}, n={table.n}", high=table.n - 1)
    return KnnGraph(table.order[:, :K])


def recall(approx, exact):
    """Fraction of exact K-NN arcs present in the approximation."""
    if approx.n != exact.n:
        raise InputError("graphs must share the same item count")
    if approx.k != exact.k:
        raise InputError("graphs must share the same K")
    n, k = exact.n, exact.k
    # each graph's arcs x * n + y are distinct, so a key seen twice is an arc of both
    rows = np.repeat(np.arange(n, dtype=np.int64) * n, k)
    keys = np.sort(np.concatenate([rows + exact.neighbors.ravel(), rows + approx.neighbors.ravel()]))
    return int(np.count_nonzero(keys[1:] == keys[:-1])) / (n * k)
