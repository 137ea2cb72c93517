"""Dataset container, synthetic generators, CSV ingestion, splitting and
standardization.

All generators are deterministic given their seed. Outcomes are continuous;
treatment flags are 0/1.
"""

from __future__ import annotations

import csv
import numbers
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

FEATURE_KINDS = ("continuous", "binary")


def check_field_types(obj) -> None:
    """Refuses another type in an int, float or bool field of the dataclass
    `obj` (floats must be finite; a bool is no number) and casts the others."""
    types = {"bool": (bool, bool, "true or false"), "int": (numbers.Integral, int, "integers"),
             "float": (numbers.Real, float, "finite numbers")}
    for f in fields(obj):
        if f.type in types:
            v, (cls, cast, what) = getattr(obj, f.name), types[f.type]
            if isinstance(v, bool) != (cast is bool) or not (isinstance(v, cls) and np.isfinite(v)):
                raise ValueError(f"{f.name}: {f.type} fields must be {what}, got {v!r}")
            setattr(obj, f.name, cast(v))


@dataclass
class Dataset:
    x: np.ndarray  # (n, d)
    t: np.ndarray  # (n,) in {0, 1}
    y: np.ndarray  # (n,)
    feature_kinds: list[str]

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.t = np.asarray(self.t, dtype=int)
        self.y = np.asarray(self.y, dtype=float)
        n, d = self.x.shape
        if self.t.shape != (n,) or self.y.shape != (n,):
            raise ValueError("x, t, y length mismatch")
        if not np.all(np.isin(self.t, (0, 1))):
            raise ValueError("treatment flags must be 0/1")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("non-finite entries in dataset")
        if len(self.feature_kinds) != d:
            raise ValueError("feature_kinds length mismatch")
        for k in self.feature_kinds:
            if k not in FEATURE_KINDS:
                raise ValueError(f"unknown feature kind {k!r}")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def n1(self) -> int:
        return int(np.sum(self.t == 1))

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.x[idx], self.t[idx], self.y[idx], list(self.feature_kinds))


@dataclass
class GroundTruth:
    """Noiseless response surfaces; tau is their difference, exactly."""

    mu0: np.ndarray
    mu1: np.ndarray
    tau: np.ndarray = field(init=False)

    def __post_init__(self):
        self.mu0 = np.asarray(self.mu0, dtype=float)
        self.mu1 = np.asarray(self.mu1, dtype=float)
        if self.mu0.shape != self.mu1.shape:
            raise ValueError("mu0/mu1 shape mismatch")
        self.tau = self.mu1 - self.mu0

    def subset(self, indices) -> "GroundTruth":
        idx = np.asarray(indices, dtype=int)
        return GroundTruth(self.mu0[idx], self.mu1[idx])


@dataclass
class SplitIndices:
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


class GenerationError(RuntimeError):
    pass


# draws of a treatment vector, or of a split, before an empty arm raises
MAX_RETRIES = 10


def _retry_arms(draw):
    """Redraw until both treatment arms are non-empty."""
    for _ in range(MAX_RETRIES):
        t = draw()
        if 0 < t.sum() < len(t):
            return t
    raise GenerationError("degenerate treatment arm after retries")


def generate_ihdp_like(
    seed: int,
    n: int = 747,
    d: int = 25,
    p_treat: float = 139 / 747,
    beta_grid: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4),
    noise_scale: float = 1.0,
) -> tuple[Dataset, GroundTruth]:
    """Exponential/linear response-surface benchmark generator.

    mu0(x) = exp(<x + 0.5, beta>), mu1(x) = <x + 0.5, beta> + omega, with
    omega anchored so the treated-sample mean of mu1 - mu0 equals 4 (ATT).
    Treatment is Bernoulli(p_treat), independent of x. The first min(6, d)
    covariates are standard normal (continuous), the rest Bernoulli(0.5)
    (binary): the default 25-feature layout has 6 continuous + 19 binary.
    """
    if n < 20 or d < 1 or not 0 < p_treat < 1:
        raise ValueError("need n >= 20, d >= 1, p_treat in (0, 1)")
    rng = np.random.default_rng(seed)
    n_continuous = min(6, d)
    kinds = ["continuous"] * n_continuous + ["binary"] * (d - n_continuous)
    x = np.empty((n, d))
    x[:, :n_continuous] = rng.standard_normal((n, n_continuous))
    x[:, n_continuous:] = rng.binomial(1, 0.5, size=(n, d - n_continuous))
    beta = rng.choice(np.asarray(beta_grid, dtype=float), size=d)
    t = _retry_arms(lambda: rng.binomial(1, p_treat, size=n))

    lin = (x + 0.5) @ beta
    mu0 = np.exp(lin)
    omega = 4.0 + np.mean(mu0[t == 1] - lin[t == 1])
    mu1 = lin + omega
    noise = noise_scale * rng.standard_normal(n)
    y = np.where(t == 1, mu1, mu0) + noise
    return Dataset(x, t, y, kinds), GroundTruth(mu0, mu1)


TERM_KINDS = ("polynomial", "step", "indicator")

# acic_like's fixed layout: 23 standard normal, 27 Poisson(3) count and 8
# Bernoulli(0.5) columns; the propensity's four term kinds; the covariates
# each outcome surface reads
ACIC_CONTINUOUS, ACIC_COUNT, ACIC_BINARY = 23, 27, 8
ACIC_D = ACIC_CONTINUOUS + ACIC_COUNT + ACIC_BINARY
ACIC_TERM_KINDS = ("polynomial", "step", "polynomial", "indicator")
ACIC_OUTCOME_TERMS = 3


def _random_term(kind: str, rng: np.random.Generator):
    """A scalar function of one covariate: polynomial (deg <= 3), a step, or
    an indicator."""
    if kind == "polynomial":
        coefs = rng.uniform(-1, 1, size=4)  # degree <= 3
        return lambda v: coefs[0] + coefs[1] * v + coefs[2] * v**2 + coefs[3] * v**3
    theta = rng.uniform(-1, 1)
    if kind == "step":
        a = rng.uniform(-2, 2)
        return lambda v: a * (v > theta).astype(float)
    return lambda v: (v > theta).astype(float)


def generate_acic_like(seed: int, n: int) -> tuple[Dataset, GroundTruth]:
    """Generator with composite f(x) = sigmoid(f1(x_a) + f2(x_b) + f3(x_a) f4(x_b))
    propensity and per-arm surfaces of the same family, on the fixed ACIC_*
    layout. The count columns hold integers but are continuous to the model,
    as `load_csv` tags them. The propensity is clipped to [0.05, 0.95] so
    positivity holds by construction."""
    rng = np.random.default_rng(seed)
    kinds = ["continuous"] * (ACIC_CONTINUOUS + ACIC_COUNT) + ["binary"] * ACIC_BINARY
    x = np.empty((n, ACIC_D))
    x[:, :ACIC_CONTINUOUS] = rng.standard_normal((n, ACIC_CONTINUOUS))
    x[:, ACIC_CONTINUOUS : ACIC_CONTINUOUS + ACIC_COUNT] = rng.poisson(3.0, size=(n, ACIC_COUNT))
    x[:, ACIC_CONTINUOUS + ACIC_COUNT :] = rng.binomial(1, 0.5, size=(n, ACIC_BINARY))

    col_a, col_b = rng.choice(ACIC_D, size=2, replace=False)
    f1, f2, f3, f4 = (_random_term(k, rng) for k in ACIC_TERM_KINDS)
    xa, xb = x[:, col_a], x[:, col_b]
    raw = f1(xa) + f2(xb) + f3(xa) * f4(xb)
    propensity = np.clip(1.0 / (1.0 + np.exp(-raw)), 0.05, 0.95)
    t = _retry_arms(lambda: rng.binomial(1, propensity))

    def surface():
        cols = rng.choice(ACIC_D, size=ACIC_OUTCOME_TERMS, replace=False)
        terms = [_random_term(rng.choice(TERM_KINDS), rng) for _ in cols]
        ci, cj = rng.choice(ACIC_D, size=2, replace=False)
        inter = _random_term("polynomial", rng)
        scale = rng.uniform(0.5, 2.0)

        def g(xmat):
            out = sum(f(xmat[:, c]) for f, c in zip(terms, cols))
            return scale * (out + inter(xmat[:, ci]) * (xmat[:, cj] > 0))

        return g

    g0, g1 = surface(), surface()
    mu0, mu1 = g0(x), g1(x)
    y = np.where(t == 1, mu1, mu0) + rng.standard_normal(n)
    return Dataset(x, t, y, kinds), GroundTruth(mu0, mu1)


def generate_two_cluster_toy(seed: int, n: int = 200) -> Dataset:
    """Two horizontal Gaussian clusters offset on the second axis; treatment
    probability is logistic in x1 with opposite slopes per cluster, so the
    x-axis projection mixes arms while the 2-D view keeps them separated."""
    if n < 40:
        raise ValueError("need n >= 40")
    rng = np.random.default_rng(seed)
    cluster = rng.integers(0, 2, size=n)
    x1 = rng.standard_normal(n)
    x2 = np.where(cluster == 0, -3.0, 3.0) + 0.3 * rng.standard_normal(n)
    slope = np.where(cluster == 0, 4.0, -4.0)
    prob = 1.0 / (1.0 + np.exp(-slope * x1))
    t = _retry_arms(lambda: rng.binomial(1, prob))
    y = x1 + 0.1 * rng.standard_normal(n)  # outcome is incidental for this toy
    return Dataset(np.column_stack([x1, x2]), t, y, ["continuous", "continuous"])


class CsvFormatError(ValueError):
    pass


# rows per `save_csv` block. A block's values live as Python objects until
# written, and part of that memory stays resident for the commands that
# follow and for the processes they fork. On an acic_like n=10000 file (62
# columns), the write took 0.22-0.23 s at 8 to 128 rows per block (0.40 s
# through `csv.writer`) and left 28 KB more resident at 16 rows, 320 KB at 128
CSV_BLOCK_ROWS = 16


def save_csv(path, dataset: Dataset, truth: GroundTruth | None = None) -> None:
    """Header x0..x{d-1},t,y[,mu0,mu1]; reals at 17 significant digits
    (`repr`), rows ended by \\r\\n, the bytes `csv.writer` writes for them."""
    header = [f"x{j}" for j in range(dataset.d)] + ["t", "y"]
    reals = [dataset.y]
    if truth is not None:
        header += ["mu0", "mu1"]
        reals += [truth.mu0, truth.mu1]
    reals = np.column_stack(reals)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, dataset.n, CSV_BLOCK_ROWS):
            rows = slice(start, start + CSV_BLOCK_ROWS)
            fh.writelines(",".join(map(repr, xi + [ti] + ri)) + "\r\n"
                          for xi, ti, ri in zip(dataset.x[rows].tolist(),
                                                dataset.t[rows].tolist(),
                                                reals[rows].tolist()))


def _bad_line(path, width: int) -> str | None:
    """Message naming the first data line (1-based) that has another field
    count than the header or a non-numeric field; None if there is none."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue  # the parser skips blank lines too
            if len(row) != width:
                return f"line {lineno}: expected {width} fields, got {len(row)}"
            try:
                for v in row:
                    float(v)
            except ValueError as exc:
                return f"line {lineno}: {exc}"
    return None


def load_csv(path) -> tuple[Dataset, GroundTruth | None]:
    """Reads a `save_csv` file: the header row through `csv`, the body in one
    numpy parse. A malformed body is located by a line scan after the parse
    fails, and the CsvFormatError names that line."""
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise CsvFormatError("empty file")
        header = next(csv.reader([first]))
        if "t" not in header or "y" not in header:
            raise CsvFormatError("missing t/y column")
        d = header.index("t")
        expected = [f"x{j}" for j in range(d)] + ["t", "y"]
        has_truth = header[d + 2 :] == ["mu0", "mu1"]
        if header[: d + 2] != expected or not (has_truth or len(header) == d + 2):
            raise CsvFormatError(f"unexpected header {header}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body raises below
            try:
                arr = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None, quotechar='"')
            except ValueError as exc:
                raise CsvFormatError(_bad_line(path, len(header)) or str(exc)) from None
    if arr.size == 0:
        raise CsvFormatError("no data rows")
    if arr.shape[1] != len(header):
        raise CsvFormatError(_bad_line(path, len(header))
                             or f"expected {len(header)} fields, got {arr.shape[1]}")
    x = arr[:, :d]
    t = arr[:, d]
    if not np.all(np.isin(t, (0.0, 1.0))):
        raise CsvFormatError("t column must be 0/1")
    y = arr[:, d + 1]
    # columns holding only 0/1 values are tagged binary
    kinds = ["binary" if np.all(np.isin(x[:, j], (0.0, 1.0))) else "continuous" for j in range(d)]
    dataset = Dataset(x, t.astype(int), y, kinds)
    truth = GroundTruth(arr[:, d + 2], arr[:, d + 3]) if has_truth else None
    return dataset, truth


def split(dataset: Dataset, test_fraction: float, val_fraction: float,
          seed: int) -> SplitIndices:
    """Random permutation split. test_fraction applies to n; val_fraction to
    the remaining training part. Sizes are rounded to the nearest integer.
    Splits leaving an empty treatment arm anywhere are redrawn, up to
    MAX_RETRIES draws in all."""
    if not (0 < test_fraction < 1 and 0 < val_fraction < 1):
        raise ValueError("fractions must lie in (0, 1)")
    n = dataset.n
    n_test = int(round(n * test_fraction))
    n_val = int(round((n - n_test) * val_fraction))
    if n_test < 2 or n_val < 2 or n - n_test - n_val < 2:
        raise ValueError("split sizes too small")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_RETRIES):
        perm = rng.permutation(n)
        test = perm[:n_test]
        val = perm[n_test : n_test + n_val]
        train = perm[n_test + n_val :]
        ok = all(0 < dataset.t[part].sum() < len(part) for part in (train, val, test))
        if ok:
            return SplitIndices(np.sort(train), np.sort(val), np.sort(test))
    raise GenerationError("could not produce a split with both arms in every part")


@dataclass
class Scaler:
    """Column-wise standardization of continuous covariates and the outcome.
    Zero-variance continuous columns keep scale 1 and are flagged."""

    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: float
    y_scale: float
    continuous: np.ndarray  # boolean mask
    clamped: np.ndarray  # boolean mask of zero-variance continuous columns

    def transform_x(self, x: np.ndarray) -> np.ndarray:
        # refuse, rather than broadcast, rows of another width
        if np.shape(x)[-1:] != self.x_mean.shape:
            raise ValueError(f"expected {len(self.x_mean)} columns, got shape {np.shape(x)}")
        return (x - self.x_mean) / self.x_scale

    def transform_y(self, y: np.ndarray) -> np.ndarray:
        return (y - self.y_mean) / self.y_scale

    def inverse_y(self, y_std: np.ndarray) -> np.ndarray:
        return y_std * self.y_scale + self.y_mean

    def to_dict(self) -> dict:
        return {
            "x_mean": self.x_mean.tolist(),
            "x_scale": self.x_scale.tolist(),
            "y_mean": self.y_mean,
            "y_scale": self.y_scale,
            "continuous": self.continuous.astype(int).tolist(),
            "clamped": self.clamped.astype(int).tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scaler":
        return cls(
            np.asarray(d["x_mean"], dtype=float),
            np.asarray(d["x_scale"], dtype=float),
            float(d["y_mean"]),
            float(d["y_scale"]),
            np.asarray(d["continuous"], dtype=bool),
            np.asarray(d["clamped"], dtype=bool),
        )


def identity_scaler(d: int) -> Scaler:
    return Scaler(np.zeros(d), np.ones(d), 0.0, 1.0,
                  np.ones(d, dtype=bool), np.zeros(d, dtype=bool))


def fit_scaler(dataset: Dataset, fit_indices) -> Scaler:
    """Scaler of the fit_indices rows; binary columns keep mean 0, scale 1."""
    idx = np.asarray(fit_indices, dtype=int)
    if idx.size == 0:
        raise ValueError("fit_indices must be non-empty")
    cont = np.asarray([k != "binary" for k in dataset.feature_kinds])
    x_mean = np.zeros(dataset.d)
    x_scale = np.ones(dataset.d)
    x_fit = dataset.x[idx]
    x_mean[cont] = x_fit[:, cont].mean(axis=0)
    sd = x_fit[:, cont].std(axis=0, ddof=0)
    clamped_cont = sd == 0
    sd = np.where(clamped_cont, 1.0, sd)
    x_scale[cont] = sd
    clamped = np.zeros(dataset.d, dtype=bool)
    clamped[cont] = clamped_cont
    y_mean = float(dataset.y[idx].mean())
    y_sd = float(dataset.y[idx].std(ddof=0))
    y_scale = y_sd if y_sd > 0 else 1.0
    return Scaler(x_mean, x_scale, y_mean, y_scale, cont, clamped)
