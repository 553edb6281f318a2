"""The four benchmark workloads: input generation, one iteration, output checks.

Inputs come from ``numpy.random.default_rng(seed)`` and are written to a work
directory before the program starts, so the program receives only the
generated data.  Each workload's ``call`` is the timed part of an iteration;
``check`` verifies the result with plain numpy (never with ``tropalg``) and
raises :class:`CheckFailed` when it is wrong.  ``check`` also returns the
residual statistics that become ``result_linf`` and ``result_rms``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np

INF = float("inf")


class CheckFailed(AssertionError):
    """An output of the program did not pass an independent check."""


def require(ok, message: str) -> None:
    if not bool(ok):
        raise CheckFailed(message)


def _close(got, want, tol: float, what: str) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    same_inf = np.isinf(got) & (got == want)
    scale = np.maximum(1.0, np.abs(np.where(np.isfinite(want), want, 0.0)))
    with np.errstate(invalid="ignore"):
        ok = same_inf | (np.abs(got - want) <= tol * scale)
    require(ok.all(), f"{what}: {int((~ok).sum())} entries off by more than {tol}")


class _CountingSink(io.TextIOBase):
    """Stands in for stdout during a CLI call and counts what is written."""

    def __init__(self) -> None:
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)


def _write_csv(path: Path, header: list[str], columns: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in columns.tolist())


def _write_tropmat(path: Path, values: np.ndarray) -> None:
    m, n = values.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"tropmat {m} {n} max-plus\n")
        fh.writelines(" ".join(map(repr, row)) + "\n" for row in values.tolist())


def maxplus_apply(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(A (*) x)_i = max_j A_ij + x_j, with -inf absorbing."""
    return np.max(A + x[None, :], axis=1)


def greatest_subsolution_ref(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x_j = min_i b_i - A_ij over finite data with A_ij = -inf giving +inf."""
    with np.errstate(invalid="ignore"):
        return np.min(b[:, None] - A, axis=0)


def _check_maxplus_mmae(A, b, x_hat, x_tilde, mu, what: str):
    """Greatest subsolution, half-error identity; returns the x_tilde residual."""
    _close(x_hat, greatest_subsolution_ref(A, b), 1e-12, f"{what} x_hat")
    scale = max(1.0, float(np.max(np.abs(b))))
    r_gle = b - maxplus_apply(A, x_hat)
    require(r_gle.min() >= -1e-12 * scale, f"{what}: x_hat is not a subsolution")
    r_mmae = b - maxplus_apply(A, x_tilde)
    e_gle = float(np.max(np.abs(r_gle)))
    e_mmae = float(np.max(np.abs(r_mmae)))
    require(abs(e_mmae - 0.5 * e_gle) <= 1e-12 * scale,
            f"{what}: x_tilde error {e_mmae!r} is not half of {e_gle!r}")
    require(abs(mu - 0.5 * e_gle) <= 1e-12 * scale, f"{what}: mu {mu!r} != {0.5 * e_gle!r}")
    return r_mmae


def _stats(residuals: np.ndarray) -> dict:
    return {
        "linf": float(np.max(np.abs(residuals))),
        "rms": float(np.sqrt(np.mean(residuals**2))),
    }


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# fit-1d / fit-2d: the CLI fit on a CSV file


def hoburg(x: np.ndarray) -> np.ndarray:
    """The convex 1-D benchmark function of Hoburg et al. used in the paper."""
    return np.maximum.reduce([-6 * x - 6, x / 2, x**5 / 5 + x / 2])


def softmax4(x: np.ndarray) -> np.ndarray:
    """A smooth convex 2-D target: log-sum-exp of four planes."""
    planes = np.stack([x[:, 0], x[:, 1], -x[:, 0] - x[:, 1], 0.5 * x[:, 0] - x[:, 1]])
    return np.logaddexp.reduce(planes, axis=0)


# temperature of the max-softmin closing: at small theta the soft dilation
# rounds away the information its adjoint erosion needs to restore, and the
# closing stops being extensive in floating point
SOFTMIN_THETA = 2.0

# every fit run cycles through the same 16 variants of its iteration: the
# k-means start (--seed) on fit-2d, whose iteration count depends on it, and
# independent noise draws of the data on fit-1d, whose fit quality depends on
# the draw (see README); result_* is the median over the variants
CYCLE = 16


class FitWorkload:
    items = "rows"

    def __init__(self, name: str, dims: int, terms: int, datasets: int, starts: int):
        self.name = name
        self.dims = dims
        self.terms = terms
        self.datasets = datasets
        self.starts = starts

    def generate(self, rng: np.random.Generator, workdir: Path, size: dict) -> None:
        m = size["m"]
        xs, fs = [], []
        for k in range(self.datasets):
            if self.dims == 1:
                # evenly spaced abscissae, as in the paper's Hoburg experiment: the
                # 1-D estimator clusters finite differences, which amplify noise
                # by 1/dx, so larger noise makes the fit quality vary by seed
                x = rng.permutation(np.linspace(-2.0, 2.0, m))[:, None]
                f = hoburg(x[:, 0]) + rng.uniform(-0.001, 0.001, m)
            else:
                x = rng.uniform(-2.0, 2.0, (m, 2))
                f = softmax4(x) + rng.uniform(-0.02, 0.02, m)
            header = [f"x{j + 1}" for j in range(self.dims)] + ["f"]
            _write_csv(workdir / f"data{k}.csv", header, np.column_stack([x, f]))
            xs.append(x)
            fs.append(f)
        np.savez(workdir / "data.npz", x=np.stack(xs), f=np.stack(fs))

    def prepare(self, workdir: Path, outdir: Path) -> None:
        data = np.load(workdir / "data.npz")
        self.xs, self.fs = data["x"], data["f"]
        self.csvs = [str(workdir / f"data{k}.csv") for k in range(self.datasets)]
        self.prefix = str(outdir / "fit")
        self.outputs = [self.prefix + s for s in (".report.txt", ".model.txt", ".grid.txt",
                                                  ".residuals.txt")]
        self.digests: dict[int, str] = {}
        self.work_items = self.fs.shape[1]

    def dataset(self, i: int) -> int:
        return i % CYCLE % self.datasets

    def cli_seed(self, i: int) -> int:
        return i % CYCLE % self.starts

    def call(self, tropalg, i: int):
        sink = _CountingSink()
        argv = ["fit", self.csvs[self.dataset(i)], "--slopes", f"auto:{self.terms}", "--method", "mmae",
                "--seed", str(self.cli_seed(i)), "--out", self.prefix]
        with contextlib.redirect_stdout(sink):
            code = tropalg.cli.main(argv)
        return {"exit": code, "stdout_chars": sink.chars}

    def check(self, i: int, out) -> dict:
        require(out["exit"] == 0, f"tropalg fit exited with {out['exit']}")
        x, f = self.xs[self.dataset(i)], self.fs[self.dataset(i)]
        table = np.loadtxt(self.prefix + ".residuals.txt", ndmin=2)
        n = self.dims
        require(table.shape == (len(f), n + 3), f"residual table has shape {table.shape}")
        require(np.array_equal(table[:, :n], x) and np.array_equal(table[:, n], f),
                "residual table does not reproduce the input samples")
        pred, res = table[:, n + 1], table[:, n + 2]
        require(abs(res.max() + res.min()) <= 1e-9, "MMAE residuals are not centred")

        slopes, intercepts = read_troppoly(self.prefix + ".model.txt", n)
        terms = x @ slopes.T + intercepts[None, :]
        mine = terms.max(axis=1)
        _close(mine, pred, 1e-9, "model file prediction")
        _close(f - mine, res, 1e-9, "model file residual")

        key = i % CYCLE
        digest = _digest(self.outputs)
        require(self.digests.setdefault(key, digest) == digest,
                f"outputs for variant {key} differ between iterations")
        written = out["stdout_chars"] + sum(Path(p).stat().st_size for p in self.outputs)
        active = len(np.unique(np.argmax(terms, axis=1))) / len(intercepts)
        return {"key": key, **_stats(res), "bytes_written": written, "active_ratio": active}


def read_troppoly(path: str, dims: int):
    """Parse a max-plus ``troppoly`` file into (slopes, intercepts)."""
    lines = [ln.split() for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln.strip()]
    require(lines and lines[0][:2] == ["troppoly", "max"], "model file header")
    rows = [[float(t) for t in ln if t != "|"] for ln in lines[1:]]
    require(rows and all(len(r) == dims + 1 for r in rows), "model file term lines")
    arr = np.array(rows)
    return arr[:, :dims], arr[:, dims]


# ---------------------------------------------------------------------------
# solve: the CLI solve on tropmat files


class SolveWorkload:
    name = "solve"
    items = "entries"

    def generate(self, rng: np.random.Generator, workdir: Path, size: dict) -> None:
        n = size["n"]
        A = rng.uniform(0.0, 10.0, (n, n))
        A[rng.random((n, n)) < 0.05] = -INF
        x = rng.uniform(-5.0, 5.0, n)
        b = maxplus_apply(A, x) + rng.uniform(-0.5, 0.5, n)
        _write_tropmat(workdir / "A.txt", A)
        _write_tropmat(workdir / "b.txt", b[:, None])
        np.savez(workdir / "data.npz", A=A, b=b)

    def prepare(self, workdir: Path, outdir: Path) -> None:
        data = np.load(workdir / "data.npz")
        self.A, self.b = data["A"], data["b"]
        self.argv = ["solve", str(workdir / "A.txt"), str(workdir / "b.txt"),
                     "--method", "mmae", "--out", str(outdir / "solve.report.txt")]
        self.report = outdir / "solve.report.txt"
        self.digest = None
        self.work_items = self.A.size

    def call(self, tropalg, i: int):
        sink = _CountingSink()
        with contextlib.redirect_stdout(sink):
            code = tropalg.cli.main(self.argv)
        return {"exit": code, "stdout_chars": sink.chars}

    def check(self, i: int, out) -> dict:
        require(out["exit"] == 0, f"tropalg solve exited with {out['exit']}")
        fields = {}
        for line in self.report.read_text(encoding="utf-8").splitlines()[1:]:
            key, _, value = line.partition(": ")
            fields[key] = value
        try:
            x_hat = np.array(fields["x_hat"].split(), dtype=float)
            x_tilde = np.array(fields["x_tilde"].split(), dtype=float)
            mu = float(fields["mu"])
        except (KeyError, ValueError) as exc:
            raise CheckFailed(f"solve report is missing or garbles a field: {exc}") from None
        r_mmae = _check_maxplus_mmae(self.A, self.b, x_hat, x_tilde, mu, "solve")
        digest = _digest([self.report])
        if self.digest is None:
            self.digest = digest
        require(digest == self.digest, "solve report differs between iterations")
        written = out["stdout_chars"] + self.report.stat().st_size
        return {"key": 0, **_stats(r_mmae), "bytes_written": written}


# ---------------------------------------------------------------------------
# algebra: in-process use of the Python API, no I/O


class AlgebraWorkload:
    name = "algebra"
    items = "systems"

    def generate(self, rng: np.random.Generator, workdir: Path, size: dict) -> None:
        k = size["matmul"]
        B = rng.uniform(0.0, 10.0, (k, k))
        C = rng.uniform(0.0, 10.0, (k, k))
        A = np.max(B[:, :, None] + C[None, :, :], axis=1)
        x = rng.uniform(-5.0, 5.0, k)
        b = maxplus_apply(A, x) + rng.uniform(-0.5, 0.5, k)

        shapes, mats, rhs = [], [], []
        for i in range(size["systems"]):
            m, n = int(rng.integers(3, 13)), int(rng.integers(2, 9))
            kind = i % 3
            if kind == 0:  # max-plus, mmae
                a = rng.uniform(0.0, 5.0, (m, n))
                y = maxplus_apply(a, rng.uniform(-2.0, 2.0, n)) + rng.uniform(-0.3, 0.3, m)
            elif kind == 1:  # max-times, mmae through the log isomorphism
                a = rng.uniform(0.1, 5.0, (m, n))
                y = np.max(a * rng.uniform(0.2, 2.0, n)[None, :], axis=1)
                y = y * np.exp(rng.uniform(-0.2, 0.2, m))
            else:  # max-min, gle
                a = rng.uniform(0.0, 1.0, (m, n))
                y = rng.uniform(0.0, 1.0, m)
            shapes.append((m, n))
            mats.append(a.ravel())
            rhs.append(y)

        length = size["signal"]
        walk = np.cumsum(rng.normal(0.0, 1.0, length))
        signal = 10.0 * (walk - walk.min()) / max(float(np.ptp(walk)), 1e-12)
        taps = np.arange(-15, 16)
        kernel = -0.02 * taps.astype(float) ** 2

        def newton_terms():
            return (rng.integers(-6, 7, (24, 2)).astype(float), rng.normal(0.0, 1.0, 24))

        (s1, c1), (s2, c2) = newton_terms(), newton_terms()
        fx = rng.uniform(0.0, 1.0, size["fit"])
        fxy = rng.uniform(0.0, 1.0, (size["fit"], 2))
        np.savez(
            workdir / "data.npz",
            B=B, C=C, A=A, b=b,
            shapes=np.array(shapes), mats=np.concatenate(mats), rhs=np.concatenate(rhs),
            signal=signal, kernel=kernel,
            poly_slopes=rng.normal(0.0, 1.0, (32, 3)), poly_intercepts=rng.normal(0.0, 1.0, 32),
            points=rng.uniform(-1.0, 1.0, (size["points"], 3)),
            s1=s1, c1=c1, s2=s2, c2=c2,
            line_x=fx,
            line_minmax=np.clip(np.maximum(np.minimum(fx, 0.7), 0.2) + rng.uniform(0, 0.1, fx.size), 0, 1),
            line_times=np.maximum(1.3 * fx, 0.4) * np.exp(rng.uniform(0, 0.1, fx.size)),
            plane_xy=fxy,
            plane_minmax=np.clip(np.max(np.minimum(fxy, [0.6, 0.8]), axis=1) + rng.uniform(0, 0.1, fx.size), 0, 1),
            plane_times=np.maximum(np.max(fxy * [1.3, 0.8], axis=1), 0.3) * np.exp(rng.uniform(0, 0.1, fx.size)),
        )

    def prepare(self, workdir: Path, outdir: Path) -> None:
        d = dict(np.load(workdir / "data.npz"))
        self.d = d
        systems, at, pos = [], 0, 0
        for m, n in d["shapes"]:
            systems.append((d["mats"][at:at + m * n].reshape(m, n), d["rhs"][pos:pos + m]))
            at += m * n
            pos += m
        self.systems = systems
        self.work_items = len(systems) + 1
        rng = np.random.default_rng(0)
        k = d["B"].shape[0]
        self.spots = rng.integers(0, k, (64, 2))
        self.point_spots = rng.integers(0, len(d["points"]), 256)

    def call(self, tropalg, i: int):
        T = tropalg
        d = self.d
        out = {}
        B = T.TropicalMatrix(d["B"], T.MAX_PLUS)
        C = T.TropicalMatrix(d["C"], T.MAX_PLUS)
        A = T.matmul_dilate(B, C)
        out["D"] = A.values
        out["E"] = T.matmul_erode(B, C).values
        b = T.TropicalVector(d["b"], T.MAX_PLUS)
        out["composite"] = T.solve(A, b, "mmae")
        out["projection"] = T.canonical_projection(A, b).values

        cloda = (T.MAX_PLUS, T.MAX_TIMES, T.MAX_MIN)
        small = []
        for j, (a, y) in enumerate(self.systems):
            cl = cloda[j % 3]
            res = T.solve(T.TropicalMatrix(a, cl), T.TropicalVector(y, cl), "gle" if j % 3 == 2 else "mmae")
            small.append(res)
        out["small"] = small

        closings = []
        for cl in (T.MAX_PLUS, T.max_softmin(SOFTMIN_THETA)):
            f = T.Signal1D(d["signal"], 0, cl)
            h = T.Signal1D(d["kernel"], -15, cl)
            dil = T.signal_dilate(f, h)
            closings.append((dil, T.signal_erode(dil, h)))
        out["closings"] = closings

        poly = T.TropicalPolynomial(d["poly_slopes"], d["poly_intercepts"])
        out["evaluated"] = poly.evaluate(d["points"])

        p = T.newton_polytope(T.TropicalPolynomial(d["s1"], d["c1"]))
        q = T.newton_polytope(T.TropicalPolynomial(d["s2"], d["c2"]))
        out["join"] = T.polytope_join(p, q).hull_vertices
        out["minkowski"] = T.polytope_minkowski_sum(p, q).hull_vertices

        out["fits"] = [
            T.fit_line(d["line_x"], d["line_minmax"], T.MAX_MIN, "gle"),
            T.fit_line(d["line_x"], d["line_times"], T.MAX_TIMES, "gle"),
            T.fit_plane(d["plane_xy"], d["plane_minmax"], T.MAX_MIN, "gle"),
            T.fit_plane(d["plane_xy"], d["plane_times"], T.MAX_TIMES, "gle"),
        ]
        return out

    def check(self, i: int, out) -> dict:
        d = self.d
        B, C, A, b = d["B"], d["C"], d["A"], d["b"]
        for (r, c) in self.spots:
            require(out["D"][r, c] == np.max(B[r] + C[:, c]), f"matmul_dilate[{r},{c}]")
            require(out["E"][r, c] == np.min(B[r] + C[:, c]), f"matmul_erode[{r},{c}]")
        res = out["composite"]
        r_mmae = _check_maxplus_mmae(A, b, res.x_hat.values, res.x_tilde.values, res.mu, "composite")
        _close(out["projection"], maxplus_apply(A, res.x_hat.values), 1e-12, "canonical projection")
        require(np.all(out["projection"] <= b + 1e-12 * np.abs(b)), "projection exceeds b")

        for j, ((a, y), sol) in enumerate(zip(self.systems, out["small"])):
            kind = j % 3
            if kind == 0:
                _check_maxplus_mmae(a, y, sol.x_hat.values, sol.x_tilde.values, sol.mu, f"system {j}")
            elif kind == 1:
                with np.errstate(divide="ignore"):
                    la, ly = np.log(a), np.log(y)
                    _check_maxplus_mmae(la, ly, np.log(sol.x_hat.values), np.log(sol.x_tilde.values),
                                        sol.mu, f"system {j} (log domain)")
            else:
                x_ref = np.min(np.where(y[:, None] >= a, 1.0, y[:, None]), axis=0)
                require(np.array_equal(sol.x_hat.values, x_ref), f"system {j}: max-min x_hat")
                require(np.all(np.max(np.minimum(a, x_ref[None, :]), axis=1) <= y),
                        f"system {j}: max-min x_hat is not a subsolution")

        self._check_closings(out["closings"])

        pts = d["points"][self.point_spots]
        want = np.max(pts @ d["poly_slopes"].T + d["poly_intercepts"][None, :], axis=1)
        _close(out["evaluated"][self.point_spots], want, 1e-12, "polynomial evaluation")

        _check_hull(out["join"], np.vstack([d["s1"], d["s2"]]), "join")
        sums = (d["s1"][:, None, :] + d["s2"][None, :, :]).reshape(-1, 2)
        _check_hull(out["minkowski"], sums, "minkowski sum")

        for rep, (x, f, kind) in zip(out["fits"], (
                (d["line_x"][:, None], d["line_minmax"], "max-min"),
                (d["line_x"][:, None], d["line_times"], "max-times"),
                (d["plane_xy"], d["plane_minmax"], "max-min"),
                (d["plane_xy"], d["plane_times"], "max-times"))):
            inter = rep.model.intercepts
            n = x.shape[1]
            mul = np.minimum if kind == "max-min" else np.multiply
            model = np.max(np.column_stack([mul(inter[j], x[:, j]) for j in range(n)] +
                                           [np.full(len(f), inter[n])]), axis=1)
            _close(rep.residuals, f - model, 1e-12, f"{kind} fit residuals")
            require(rep.residuals.min() >= -1e-12, f"{kind} GLE fit lies above the data")
        return {"key": 0, **_stats(r_mmae), "bytes_written": 0}

    def _check_closings(self, closings) -> None:
        f, h = self.d["signal"], self.d["kernel"]
        nf, nh = len(f), len(h)
        theta = SOFTMIN_THETA
        rng = np.random.default_rng(1)
        for (dil, clo), soft in zip(closings, (False, True)):
            what = "softmin closing" if soft else "max-plus closing"
            require(dil.origin == -15 and len(dil) == nf + nh - 1, f"{what}: dilation support")
            require(clo.origin == -(nh - 1) and len(clo) == nf + 2 * (nh - 1),
                    f"{what}: closing support")
            for p in rng.integers(0, nf + nh - 1, 16):
                lo, hi = max(0, p - nh + 1), min(nf, p + 1)
                fv, hv = f[lo:hi], h[p - np.arange(lo, hi)]
                if soft:
                    want = np.max(-theta * np.logaddexp(-fv / theta, -hv / theta))
                else:
                    want = np.max(fv + hv)
                _close(dil.values[p], want, 1e-12, f"{what}: dilation sample {p}")
            g = dil.values
            ng = len(g)
            for q in rng.integers(0, ng + nh - 1, 16):
                lo, hi = max(0, q - nh + 1), min(ng, q + 1)
                gv, hv = g[lo:hi], h[::-1][q - np.arange(lo, hi)]
                if soft:
                    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                        vals = np.where(gv >= hv, INF,
                                        gv - theta * np.log(-np.expm1((gv - hv) / theta)))
                    want = np.min(vals)
                else:
                    want = np.min(gv - hv)
                _close(clo.values[q], want, 1e-9, f"{what}: erosion sample {q}")
            inner = clo.values[nh - 1:nh - 1 + nf]
            require(np.all(inner >= f - 1e-9 * np.maximum(1.0, np.abs(f))),
                    f"{what}: closing is not extensive")


def _check_hull(hull: np.ndarray, candidates: np.ndarray, what: str) -> None:
    """A counterclockwise hull whose vertices are candidates and which holds them all."""
    require(hull.ndim == 2 and hull.shape[1] == 2 and len(hull) >= 3, f"{what}: hull shape")
    cand = {tuple(p) for p in candidates.tolist()}
    require(all(tuple(v) in cand for v in hull.tolist()), f"{what}: vertex not a generator")
    edges = np.roll(hull, -1, axis=0) - hull
    rel = candidates[None, :, :] - hull[:, None, :]
    cross = edges[:, None, 0] * rel[:, :, 1] - edges[:, None, 1] * rel[:, :, 0]
    require(np.all(cross >= 0), f"{what}: a generator lies outside the hull")
    turn = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] - edges[:, 1] * np.roll(edges, -1, axis=0)[:, 0]
    require(np.all(turn > 0), f"{what}: hull is not strictly convex and counterclockwise")


WORKLOADS = {
    "fit-1d": FitWorkload("fit-1d", dims=1, terms=6, datasets=CYCLE, starts=1),
    "fit-2d": FitWorkload("fit-2d", dims=2, terms=16, datasets=1, starts=CYCLE),
    "solve": SolveWorkload(),
    "algebra": AlgebraWorkload(),
}

SIZES = {
    "full": {
        "fit-1d": {"m": 300},
        "fit-2d": {"m": 5000},
        "solve": {"n": 800},
        "algebra": {"matmul": 200, "systems": 210, "signal": 3000, "points": 100_000, "fit": 2000},
    },
    "tiny": {
        "fit-1d": {"m": 40},
        "fit-2d": {"m": 200},
        "solve": {"n": 30},
        "algebra": {"matmul": 12, "systems": 9, "signal": 60, "points": 300, "fit": 50},
    },
}


def describe_size(workload: str, size: str) -> str:
    return ", ".join(f"{k}={v}" for k, v in SIZES[size][workload].items())
