"""Independent oracles shared by the test modules.

These deliberately avoid the library's own algorithms: the hull oracle uses
edge detection instead of the monotone chain, the product, term-table and
natural-breaks oracles use naive loops instead of vectorized reductions, and
the gradient oracle solves one neighbourhood at a time instead of a batch.  The
tensor matrix product, the per-sample signal loops, the whole-table polynomial
evaluation and matrix-vector products, the always-NaN-filling clodum kernels,
the mask-based k-means, the ``matrix_rank`` + ``pinv`` gradient stage, the
per-cell CSV reader, the per-token tropmat parser and the per-row and
per-element text writers are the library's former implementations, kept to pin
the bytes of their replacements.
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


def resolved_with_nan_pass(op, fill):
    """The library's former NaN-resolving clodum kernel: applies ``op`` and
    always sends its NaN results (inf - inf, 0 * inf) to ``fill``."""
    def kernel(theta, a, b):
        with np.errstate(invalid="ignore", over="ignore"):
            out = np.asarray(op(a, b))
        np.copyto(out, fill, where=np.isnan(out))
        return out
    return kernel


def former_kernels(clodum):
    """(mul, dual_mul, residual) of ``clodum`` as the library computed them
    before its NaN pass could be skipped; each takes (theta, a, b)."""
    from tropalg.clodum import _TABLE

    kind = _TABLE[clodum.kind]
    inf = float("inf")
    if clodum.kind == "max-plus":
        return (resolved_with_nan_pass(np.add, -inf), resolved_with_nan_pass(np.add, inf),
                resolved_with_nan_pass(lambda a, w: w - a, inf))
    if clodum.kind == "max-times":
        return (resolved_with_nan_pass(np.multiply, 0.0),
                resolved_with_nan_pass(np.multiply, inf), kind.residual)
    return kind.mul, kind.dual_mul, kind.residual


def evaluate_full_table(p, points):
    """The library's former ``TropicalPolynomial.evaluate``: the whole m*K
    term table built at once through the former kernels, then reduced."""
    from tropalg import MAX_PLUS
    from tropalg.clodum import TropicalError
    from tropalg.tropgeom import _term_design
    from tropalg.wlattice import DimensionMismatchError

    x = np.asarray(points, dtype=float)
    single = x.ndim <= 1
    X = np.atleast_2d(x)
    if X.shape[1] != p.dimension:
        raise DimensionMismatchError(
            f"polynomial has dimension {p.dimension}, got points of dimension {X.shape[1]}"
        )
    if not np.isfinite(X).all():
        raise TropicalError("evaluation points must be finite")
    if p.clodum != MAX_PLUS:
        p.clodum.validate(X)
    mul, dual_mul, _ = former_kernels(p.clodum)
    if p.orientation == "max":
        vals = mul(p.clodum.theta, p.intercepts, _term_design(X, p.slopes, p.clodum.unit))
        out = vals.max(axis=1)
    else:
        vals = dual_mul(p.clodum.theta, p.intercepts, _term_design(X, p.slopes, p.clodum.dual_unit))
        out = vals.min(axis=1)
    return float(out[0]) if single else out


def matvec_whole(A, v, erode=False):
    """The library's former matrix-vector products: the whole m*n kernel
    table through the former kernels, then one reduction; ``erode`` gives
    the adjoint erosion ``inf_i adjoint_erosion(a_ij, v_i)``."""
    clodum = A.clodum
    m, n = A.shape
    mul, _, residual = former_kernels(clodum)
    if erode:
        if m == 0:
            return np.full(n, clodum.top)
        return np.min(residual(clodum.theta, A.values, v.values[:, None]), axis=0)
    if n == 0:
        return np.full(m, clodum.bottom)
    return np.max(mul(clodum.theta, A.values, v.values[None, :]), axis=1)


def matmul_tensor(A, B, dual=False):
    """Weighted-lattice matrix product through the whole m*k*n tensor.

    ``A`` and ``B`` are typed matrices over one clodum; the sup of ``mul``, or
    with ``dual`` the inf of ``dual_mul``, is taken over axis 1 of the
    broadcast product.
    """
    clodum = A.clodum
    (m, k), n = A.shape, B.shape[1]
    if k == 0:
        return np.full((m, n), clodum.top if dual else clodum.bottom)
    kernel, reduce = (clodum._dual_mul, np.min) if dual else (clodum._mul, np.max)
    return reduce(kernel(A.values[:, :, None], B.values[None, :, :]), axis=1)


def signal_dilate_per_sample(f, h):
    """Sup-mul convolution with one vector op per sample of ``f``; (values, origin)."""
    clodum = f.clodum
    nf, nh = len(f), len(h)
    out = np.full(nf + nh - 1, clodum.bottom)
    for i in range(nf):
        seg = out[i:i + nh]
        np.maximum(seg, clodum._mul(f.values[i], h.values), out=seg)
    return out, f.origin + h.origin


def signal_erode_per_sample(g, h):
    """Adjoint erosion with one vector op per sample of ``g``; (values, origin)."""
    clodum = g.clodum
    ng, nh = len(g), len(h)
    out = np.full(ng + nh - 1, clodum.top)
    rev = h.values[::-1]
    for j in range(ng):
        seg = out[j:j + nh]
        np.minimum(seg, clodum._adjoint_erosion(rev, g.values[j]), out=seg)
    return out, g.origin - h.origin - (nh - 1)


def kmeans_masks(points, k, rng):
    """Seeded k-means++ and Lloyd iterations through the m*k*n difference
    tensor and one boolean mask per cluster: the library's former ``_kmeans``."""
    from tropalg.regression import KMEANS_MAX_ITER, KMEANS_TOL

    n = len(points)
    tol = KMEANS_TOL * np.abs(points).max()
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total == 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    for _ in range(KMEANS_MAX_ITER):
        dist = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        assign = np.argmin(dist, axis=1)
        own = dist[np.arange(n), assign]
        new_centers = centers.copy()
        for c in range(k):
            mask = assign == c
            if mask.any():
                new_centers[c] = points[mask].mean(axis=0)
            else:
                far = int(np.argmax(own))
                new_centers[c] = points[far]
                own[far] = 0.0
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift <= tol:
            break
    return centers


def gradients_per_neighbourhood(offsets, values):
    """The gradient stage of the n-D slope estimator, one neighbourhood at a
    time: centre its offsets O and values v, keep it when ``eigvalsh(O.T @ O)``
    has lambda_min > 2^-40 lambda_max, and solve (O.T @ O) beta = O.T @ v;
    returns (mask, slopes of the kept neighbourhoods)."""
    good = np.zeros(len(offsets), dtype=bool)
    slopes = []
    for i, (o, v) in enumerate(zip(offsets, values)):
        o = o - o.mean(axis=0)
        v = v - v.mean()
        gram = o.T @ o
        lam = np.linalg.eigvalsh(gram)
        if lam[0] > 2.0**-40 * lam[-1]:
            good[i] = True
            slopes.append(np.linalg.solve(gram, o.T @ v))
    return good, np.array(slopes).reshape(-1, offsets.shape[2])


def gradients_rank_pinv(design, values):
    """The library's former gradient stage of the n-D slope estimator: the
    full-rank mask from ``np.linalg.matrix_rank``, then
    ``np.linalg.pinv(design[good]) @ values[good]``; returns (mask, coefficients)."""
    good = np.linalg.matrix_rank(design) == design.shape[2]
    beta = np.linalg.pinv(design[good]) @ values[good][..., None]
    return good, beta[..., 0]


def ingest_csv_per_cell(path, has_header=True, target=None):
    """The library's former CSV reader: each cell goes through ``float()``
    and a NaN test as its row is read, so the first defect in file order
    raises.  The csv module's reader is strict: a character after a closing
    quote raises ``csv.Error`` rather than joining the cell."""
    import csv

    from tropalg.cli import Dataset
    from tropalg.clodum import TropicalError

    def parse_cell(token, path, lineno):
        try:
            value = float(token)
        except ValueError:
            raise TropicalError(f"{path}:{lineno}: non-numeric cell {token!r}") from None
        if np.isnan(value):
            raise TropicalError(f"{path}:{lineno}: NaN is not a valid cell value")
        return value

    path = str(path)
    rows = []
    columns = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh, strict=True), start=1):
            cells = [c.strip() for c in record]
            if not cells or all(c == "" for c in cells):
                continue
            if columns is None and has_header:
                columns = cells
                continue
            values = [parse_cell(c, path, lineno) for c in cells]
            if rows and len(values) != len(rows[0]):
                raise TropicalError(
                    f"{path}:{lineno}: ragged row has {len(values)} cells, expected {len(rows[0])}"
                )
            rows.append(values)
    if not rows:
        raise TropicalError(f"{path}: no data rows")
    width = len(rows[0])
    if columns is None:
        columns = [f"col{i + 1}" for i in range(width)]
    if len(columns) != width:
        raise TropicalError(f"{path}: header has {len(columns)} names for {width} columns")
    if width < 2:
        raise TropicalError(f"{path}: need at least one feature column and one target column")
    if target is None:
        target_index = width - 1
    else:
        if target not in columns:
            raise TropicalError(f"{path}: no column named {target!r} (have {columns})")
        target_index = columns.index(target)
    return Dataset(columns, np.array(rows), target_index, path)


def grid_text_per_row(pts, vals):
    """Model-grid text of the former CLI writer, one f-string per grid point
    of a 1-D or 2-D grid."""
    lines = []
    if pts.shape[1] == 1:
        for a, v in zip(pts[:, 0], vals):
            lines.append(f"{float(a)!r} {float(v)!r}")
    else:
        for (a, b), v in zip(pts, vals):
            lines.append(f"{float(a)!r} {float(b)!r} {float(v)!r}")
    return "\n".join(lines) + "\n"


def residual_text_per_row(x, f, residuals):
    """Residual-table text of the former CLI writer, one row per sample."""
    pred = f - residuals
    lines = []
    for i in range(len(f)):
        coords = " ".join(repr(float(v)) for v in x[i])
        lines.append(f"{coords} {float(f[i])!r} {float(pred[i])!r} {float(residuals[i])!r}")
    return "\n".join(lines) + "\n"


def eval_text_per_row(pts, vals):
    """``tropalg eval`` text of the former CLI writer, one row per point."""
    lines = []
    for row, v in zip(pts, vals):
        coords = " ".join(repr(float(c)) for c in row)
        lines.append(f"{coords} {float(v)!r}")
    return "\n".join(lines) + "\n"


def parse_tropmat_per_token(text):
    """The library's former tropmat parser: the whole text split into tokens,
    each entry converted with ``float()``.  Negative dimensions are rejected
    with the dimensions message, and a carrier error names the row and column
    of the first NaN entry, or without one of the first entry outside the
    carrier, as the library now does."""
    from tropalg.clodum import CarrierError, Clodum, TropicalError
    from tropalg.wlattice import TropicalMatrix

    tokens = text.split()
    if len(tokens) < 4 or tokens[0] != "tropmat":
        raise TropicalError("not a tropmat document: expected header 'tropmat <m> <n> <clodum>'")
    try:
        m, n = int(tokens[1]), int(tokens[2])
    except ValueError as exc:
        raise TropicalError(f"bad tropmat dimensions: {tokens[1]} {tokens[2]}") from exc
    if m < 0 or n < 0:
        raise TropicalError(f"bad tropmat dimensions: {tokens[1]} {tokens[2]}")
    clodum = Clodum.parse(tokens[3])
    entries = tokens[4:]
    if len(entries) != m * n:
        raise TropicalError(f"tropmat promises {m * n} entries, found {len(entries)}")
    try:
        values = np.array([float(t) for t in entries]).reshape(m, n)
    except ValueError as exc:
        raise TropicalError(f"bad tropmat entry: {exc}") from exc
    try:
        return TropicalMatrix(values, clodum)
    except CarrierError as exc:
        # the first NaN entry in reading order, or without one the first
        # entry outside [bottom, top]
        cells = list(np.ndenumerate(values))
        nan = [ij for ij, v in cells if np.isnan(v)]
        i, j = nan[0] if nan else next(ij for ij, v in cells if not clodum.bottom <= v <= clodum.top)
        raise CarrierError(f"{exc}: row {i}, column {j}") from None


def format_tropmat_per_element(matrix):
    """tropmat text of the former writer, one ``repr(float(v))`` per entry."""
    m, n = matrix.shape
    lines = [f"tropmat {m} {n} {matrix.clodum.spec_string()}"]
    for row in matrix.values:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def report_value_per_element(value):
    """Report field text of the former CLI formatter, one ``repr(float(v))``
    per vector entry."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.ndarray):
        return " ".join(repr(float(v)) for v in value)
    return str(value)
