"""Independent oracles shared by the test modules.

These deliberately avoid the library's own algorithms: the hull oracle uses
edge detection instead of the monotone chain, and the product, term-table and
natural-breaks oracles use naive loops instead of vectorized reductions.
"""

import numpy as np


def brute_hull_2d(points):
    """Edge-detection convex hull, counterclockwise and minimal.

    An ordered pair (p, q) is a CCW hull edge when every other point lies
    strictly to its left or strictly inside the open segment pq.  Exact for
    small integer inputs.
    """
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    n = len(pts)
    if n == 1:
        return pts
    succ = {}
    for i in range(n):
        p = pts[i]
        for j in range(n):
            if i == j:
                continue
            q = pts[j]
            d = q - p
            rel = pts - p
            cross = d[0] * rel[:, 1] - d[1] * rel[:, 0]
            mask = np.ones(n, dtype=bool)
            mask[[i, j]] = False
            if np.any(cross[mask] < 0):
                continue
            zero = mask & (cross == 0)
            if zero.any():
                ahead = (pts[zero] - p) @ d > 0
                behind = (pts[zero] - q) @ d < 0
                if not np.all(ahead & behind):
                    continue
            succ[tuple(p)] = tuple(q)
    if not succ:  # every point collinear: the hull is the extreme segment
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        return pts[[order[0], order[-1]]]
    start = min(succ)
    walk = [start]
    cur = succ[start]
    for _ in range(n + 1):
        if cur == start:
            break
        walk.append(cur)
        cur = succ[cur]
    return np.array(walk)


def maxplus_apply(A, x):
    """Dense max-plus matrix-vector product on plain arrays."""
    return np.max(A + x[None, :], axis=1)


def pin_allocator_thresholds():
    """Benchmark hygiene: stop glibc from returning freed pages to the OS.

    This container re-zeroes returned pages extremely slowly, which turns
    every large temporary into a page-fault storm and swamps the quantity
    wall-clock tests measure (work per element).  No-op off glibc.
    """
    import ctypes
    import ctypes.util

    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        libc.mallopt(-3, 1 << 28)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 28)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError, TypeError):
        pass


def jenks_breaks_dp(values, k):
    """Exact natural breaks by the scalar O(k n^2) dynamic programme.

    Minimizes the total within-cluster sum of squared deviations over
    contiguous partitions of the sorted values; ties pick the lower break
    index.  Returns the k cluster means in ascending order.
    """
    _INF = float("inf")
    v = np.sort(values)
    n = len(v)
    s1 = np.concatenate([[0.0], np.cumsum(v)])
    s2 = np.concatenate([[0.0], np.cumsum(v**2)])

    def sse(i: int, j: int) -> float:
        cnt = j - i + 1
        s = s1[j + 1] - s1[i]
        return max((s2[j + 1] - s2[i]) - s * s / cnt, 0.0)

    cost = np.full((k + 1, n), _INF)
    split = np.zeros((k + 1, n), dtype=int)
    for j in range(n):
        cost[1, j] = sse(0, j)
    for c in range(2, k + 1):
        for j in range(c - 1, n):
            best, arg = _INF, c - 1
            for i in range(c - 1, j + 1):
                val = cost[c - 1, i - 1] + sse(i, j)
                if val < best:
                    best, arg = val, i
            cost[c, j] = best
            split[c, j] = arg
    bounds = [n - 1]
    for c in range(k, 1, -1):
        bounds.append(split[c, bounds[-1]] - 1)
    bounds.append(-1)
    bounds = bounds[::-1]
    return np.array([v[bounds[t] + 1:bounds[t + 1] + 1].mean() for t in range(k)])


def term_values_per_term(p, X):
    """Term table of a tropical polynomial at the rows of X, one term at a time.

    Max-plus composes the intercepts with ``X @ slopes.T``; other cloda build
    each column from its slope row (the intercept itself for a zero row, the
    intercept composed with the selected coordinate for a one-hot row).  Every
    composition goes through the checked public ``Clodum`` op.
    """
    from tropalg import MAX_PLUS

    compose = p.clodum.mul if p.orientation == "max" else p.clodum.dual_mul
    if p.clodum == MAX_PLUS:
        return compose(p.intercepts[None, :], X @ p.slopes.T)
    cols = []
    for k in range(p.rank):
        row = p.slopes[k]
        if np.all(row == 0.0):
            cols.append(np.full(X.shape[0], p.intercepts[k]))
        else:
            nz = np.flatnonzero(row)
            assert len(nz) == 1 and row[nz[0]] == 1.0
            cols.append(np.asarray(compose(p.intercepts[k], X[:, nz[0]])))
    return np.column_stack(cols)
