"""Plain-numpy reference for every output the benchmark checks.

Nothing here imports flreg.  The reference follows the documented contracts
instead: the cosine-series draw (PCG64 through a SeedSequence, replication r
seeded by the spawn key (r,), observation-major uniform scores, then the
noise), centred moments, the ``eigh`` spectral cutoff, the dense-solve
ridge, population-divisor MISE with ties going to the smaller m and the
larger rho, and the CLI's text formats.  It uses matmul where flreg uses
einsum, so floating-point cells are compared to ``REL_TOL`` relative and
discrete choices (m*, rho*, excluded cutoffs, file structure) exactly.

Every ``check_*`` function returns a list of mismatch descriptions, empty
when the output is right.
"""

from __future__ import annotations

import math

import numpy as np

SQRT3 = math.sqrt(3.0)
REL_TOL = 1e-9
PCA_RANK_RTOL = 1e-10  # usable-rank cutoff, relative to the top eigenvalue
P = 50
TERMS = 50


def basis(p: int, count: int) -> np.ndarray:
    """(count, p) cosine basis on the midpoint grid: 1, sqrt(2) cos(j pi t)."""
    t = (2.0 * np.arange(1, p + 1) - 1.0) / (2.0 * p)
    j = np.arange(count, dtype=float)[:, None]
    out = math.sqrt(2.0) * np.cos(j * math.pi * t)
    out[0] = 1.0
    return out


def true_slope(p: int = P, terms: int = TERMS) -> np.ndarray:
    j = np.arange(1, terms + 1, dtype=float)
    coefs = 4.0 * (-1.0) ** (j + 1.0) / j**2
    coefs[0] = 0.3
    return coefs @ basis(p, terms)


def gammas(spacing: str, alpha: float, count: int = TERMS) -> np.ndarray:
    """Score scales: j^(-alpha/2) with alternating sign (well), or blocks of
    five nearly tied scales after a leading 1 (closely)."""
    out = np.empty(count)
    for idx in range(count):
        j = idx + 1
        sign = 1.0 if j % 2 else -1.0
        if spacing == "well_spaced":
            out[idx] = sign * j ** (-alpha / 2.0)
        elif j == 1:
            out[idx] = 1.0
        elif j <= 4:
            out[idx] = 0.2 * sign * (1.0 - 0.0001 * j)
        else:
            q, k = divmod(j, 5)
            out[idx] = 0.2 * sign * ((5.0 * q) ** (-alpha / 2.0) - 0.0001 * k)
    return out


def child_seed(seed: int, replication: int) -> int:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(replication,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def draw(n: int, sigma: float, alpha: float, spacing: str, seed: int):
    """(X, y) of one simulated dataset, X as an (n, p) matrix."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    scores = rng.uniform(-SQRT3, SQRT3, size=(n, TERMS))
    noise = sigma * rng.standard_normal(n)
    X = (scores * gammas(spacing, alpha)) @ basis(P, TERMS)
    return X, X @ true_slope() / P + noise


def moments(X: np.ndarray, y: np.ndarray):
    """Means, centred covariance and cross-covariance."""
    xm, ym = X.mean(axis=0), float(y.mean())
    xc = X - xm
    return xm, ym, xc.T @ xc / len(y), xc.T @ (y - ym) / len(y)


def spectrum(cov: np.ndarray):
    p = cov.shape[0]
    vals, vecs = np.linalg.eigh(cov / p)
    return vals[::-1], vecs[:, ::-1] * math.sqrt(p)


def cutoff_slope(vals, vecs, cross, m: int) -> np.ndarray | None:
    """Spectral-cutoff slope, or None when m exceeds the usable rank."""
    rank = int(np.sum(vals > PCA_RANK_RTOL * vals[0])) if vals[0] > 0 else 0
    if not 1 <= m <= rank:
        return None
    p = len(cross)
    coords = vecs[:, :m].T @ cross / p / vals[:m]
    return vecs[:, :m] @ coords


def ridge_slope(cov, cross, rho: float) -> np.ndarray:
    p = len(cross)
    return np.linalg.solve(cov / p + rho * np.eye(p), cross)


def rho_grid(count: int = 25, lo: float = 1e-6, hi: float = 1.0) -> tuple[float, ...]:
    return tuple(float(r) for r in np.logspace(math.log10(lo), math.log10(hi), count))


def _errors(stack: np.ndarray, target: np.ndarray):
    mean = stack.mean(axis=0)
    bias2 = float(np.sum((mean - target) ** 2)) / P
    var = float(np.sum((stack - mean) ** 2)) / (stack.shape[0] * P)
    return bias2, var, bias2 + var


def mc_reference(n, sigma, alpha, spacing, seed, reps, m_grid=tuple(range(1, 21)), rhos=None):
    """What ``mc_run`` must return for the scenario, as a plain dict."""
    rhos = rhos or rho_grid()
    pca = {m: [] for m in m_grid}
    ridge = {rho: [] for rho in rhos}
    excluded = set()
    for r in range(reps):
        X, y = draw(n, sigma, alpha, spacing, child_seed(seed, r))
        _, _, cov, cross = moments(X, y)
        vals, vecs = spectrum(cov)
        for m in m_grid:
            slope = cutoff_slope(vals, vecs, cross, m)
            if slope is None:
                excluded.add(m)
            else:
                pca[m].append(slope)
        for rho in rhos:
            ridge[rho].append(ridge_slope(cov, cross, rho))
    target = true_slope()
    pca_err = {m: _errors(np.stack(s), target) for m, s in pca.items() if m not in excluded}
    ridge_err = {rho: _errors(np.stack(s), target) for rho, s in ridge.items()}
    m_star = min(pca_err, key=lambda m: (pca_err[m][2], m))
    rho_star = min(ridge_err, key=lambda rho: (ridge_err[rho][2], -rho))
    return {
        "replications": reps,
        "m_star": m_star,
        "rho_star": rho_star,
        "excluded_m": tuple(sorted(excluded)),
        "pca": pca_err[m_star],
        "ridge": ridge_err[rho_star],
        "m_profile": tuple((m, e[2]) for m, e in sorted(pca_err.items())),
        "rho_profile": tuple((rho, e[2]) for rho, e in sorted(ridge_err.items())),
    }


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def close_arrays(a: np.ndarray, b: np.ndarray, tol: float = REL_TOL) -> bool:
    """Equal shape and max |a - b| within tol of max |b|."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= tol * max(
        float(np.max(np.abs(b), initial=0.0)), 1e-300
    )


def check_mc_result(result, ref: dict) -> list[str]:
    """Compare an ``McResult`` with ``mc_reference`` output."""
    problems = []
    for key in ("replications", "m_star", "rho_star", "excluded_m"):
        if getattr(result, key) != ref[key]:
            problems.append(f"{key}: got {getattr(result, key)!r}, expected {ref[key]!r}")
    cells = {
        "pca": (result.bias2_pca, result.var_pca, result.mise_pca),
        "ridge": (result.bias2_ridge, result.var_ridge, result.mise_ridge),
    }
    for est, got in cells.items():
        for part, a, b in zip(("bias2", "var", "mise"), got, ref[est]):
            if not close(a, b):
                problems.append(f"{part}_{est}: got {a!r}, expected {b!r}")
    for key in ("m_profile", "rho_profile"):
        got, want = getattr(result, key), ref[key]
        if [c for c, _ in got] != [c for c, _ in want] or not all(
            close(a, b) for (_, a), (_, b) in zip(got, want)
        ):
            problems.append(f"{key} differs from the reference")
    return problems


def parse_dataset_csv(text: str, step: int = 1):
    """(X, y or None, row count) from flreg's dataset CSV.

    Parses every ``step``-th data row, row by row, so the check adds little
    to the workload's peak memory.
    """
    lines = text.splitlines()
    if len(lines) < 3 or lines[0] != f"# grid=midpoint p={P}":
        raise ValueError("bad metadata line")
    names = lines[1].split(",")
    if names[:P] != [f"x_{i}" for i in range(1, P + 1)] or names[P:] not in ([], ["y"]):
        raise ValueError("bad header line")
    rows = lines[2::step]
    data = np.empty((len(rows), len(names)))
    for i, line in enumerate(rows):
        cells = line.split(",")
        if len(cells) != len(names):
            raise ValueError(f"row {i * step + 1}: bad column count")
        data[i] = cells
    return data[:, :P], (data[:, P] if len(names) > P else None), len(lines) - 2


def fit_reference(X, y, method: str, parameter: float):
    """(slope, intercept) of the cutoff (parameter = m) or ridge fit."""
    xm, ym, cov, cross = moments(X, y)
    if method == "pca":
        slope = cutoff_slope(*spectrum(cov), cross, int(parameter))
    else:
        slope = ridge_slope(cov, cross, parameter)
    return slope, ym - float(slope @ xm) / P


def check_model(text: str, method: str, parameter: float, slope, intercept) -> list[str]:
    """Compare a model file with the reference fit."""
    lines = text.splitlines()
    key = "m" if method == "pca" else "rho"
    heads = [line.partition("=") for line in lines[:4]]
    if len(heads) < 4 or [h[0] for h in heads] != ["method", key, "intercept", "p"]:
        return ["model file header is malformed"]
    try:
        got_param = float(heads[1][2])
        got_intercept = float(heads[2][2])
        got_slope = np.array([float(v) for v in lines[4:]])
    except ValueError:
        return ["model file has a non-numeric value"]
    problems = []
    if heads[0][2] != method or got_param != parameter or heads[3][2] != str(P):
        problems.append(f"model header: {lines[:2] + lines[3:4]!r}")
    if not close_arrays(got_slope, slope):
        problems.append("slope differs from the reference fit")
    if abs(got_intercept - intercept) > REL_TOL * max(abs(intercept), 1.0):
        problems.append(f"intercept: got {got_intercept!r}, expected {intercept!r}")
    return problems


def check_predictions(text: str, expected: np.ndarray) -> list[str]:
    try:
        got = np.array([float(v) for v in text.splitlines()])
    except ValueError:
        return ["prediction file has a non-numeric line"]
    if not close_arrays(got, expected):
        return ["predictions differ from the reference fit"]
    return []


def check_simulated(text: str, n, sigma, alpha, spacing, seed, step: int = 10) -> list[str]:
    """Row count, and every ``step``-th row against the reference draw."""
    try:
        X, y, rows = parse_dataset_csv(text, step)
    except ValueError as exc:
        return [f"simulated CSV: {exc}"]
    X_ref, y_ref = draw(n, sigma, alpha, spacing, seed)
    if rows != n or y is None or not (
        close_arrays(X, X_ref[::step]) and close_arrays(y, y_ref[::step])
    ):
        return ["simulated CSV differs from the reference draw"]
    return []


def check_diagnose(text: str, n, sigma, alpha, spacing, seed, j_max: int = 10) -> list[str]:
    """Structure, the Hilbert-Schmidt gap against the reference, and
    nonnegative slack for both stability bounds at every rank."""
    lines = text.splitlines()
    if len(lines) != j_max + 2 or not lines[0].startswith("# hs_gap="):
        return ["diagnose report has the wrong shape"]
    try:
        hs_gap = float(lines[0].split("\t")[0][len("# hs_gap="):])
        rows = np.array([[float(c) for c in line.split("\t")] for line in lines[2:]])
    except ValueError:
        return ["diagnose report has a non-numeric cell"]
    problems = []
    if rows.shape != (j_max, 5) or list(rows[:, 0]) != list(range(1, j_max + 1)):
        return ["diagnose report rows are not ranks 1..j_max"]
    if np.any(rows[:, 3:] < 0.0):
        problems.append("a diagnose slack is negative")
    X, _ = draw(n, sigma, alpha, spacing, seed)
    B = basis(P, TERMS)
    kernel = (B.T * gammas(spacing, alpha) ** 2) @ B
    xc = X - X.mean(axis=0)
    ref_gap = float(np.linalg.norm(kernel - xc.T @ xc / n)) / P
    if not close(hs_gap, ref_gap):
        problems.append(f"hs_gap: got {hs_gap!r}, expected {ref_gap!r}")
    return problems
