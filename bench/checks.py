"""Checks of the program's outputs against computations of the benchmark's own.

Nothing here imports ptspec.  Energies come from the closed forms
E = 4n + 2 +/- 2 alpha (oscillator) and E = (k +/- (ell + 1/2) + 1/2)^2
(angular equation); grids, potentials and the 3-point operator's trace are
assembled here from the contour definitions.  Each check returns the worst
relative error it measured and raises CheckFailed when a property fails.
"""

import json
import math

import numpy as np

DEFAULT_HALFWIDTH = 12.0


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# -- parsing -----------------------------------------------------------------

def parse_output(text, fmt):
    """(columns, rows, rest) of one CLI output: rest is the JSON document,
    or {"comments": [...]} holding the CSV's comment lines."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["columns"], doc["rows"], doc
    lines = text.splitlines()
    columns = lines[0].split(",")
    rows, comments = [], []
    for line in lines[1:]:
        if line.startswith("#"):
            comments.append(line)
            continue
        rows.append([cell if cell in ("real", "pair", "spurious")
                     else float(cell) for cell in line.split(",")])
    return columns, rows, {"comments": comments}


# -- closed forms and grids ----------------------------------------------------

def model_params(cfg):
    m = cfg["model"]
    if m["kind"] == "ptho":
        return "ptho", float(m["alpha"]), float(m.get("shift", 1.0))
    return "angular", float(m["ell"]), float(m.get("shift", 1.0))


def lowest_energies(cfg, count):
    """Sorted lowest `count` closed-form energies of the configured model."""
    kind, p, _ = model_params(cfg)
    depth = count + int(math.ceil(p)) + 3
    if kind == "ptho":
        energies = [4 * n + 2 + s * 2 * p for n in range(depth)
                    for s in (-1, 1)]
    else:
        energies = [(k + s * (p + 0.5) + 0.5) ** 2 for k in range(depth)
                    for s in (-1, 1)]
    return np.sort(energies)[:count]


def grid(cfg):
    """Contour parameters t_j and the step h of the configured grid."""
    kind, _, _ = model_params(cfg)
    n = int(cfg["contour"]["npoints"])
    if kind == "ptho":
        half = float(cfg["contour"].get("halfwidth", DEFAULT_HALFWIDTH))
        return np.linspace(-half, half, n), 2 * half / (n - 1)
    h = 2 * np.pi / n
    return -np.pi + h * (np.arange(n) + 0.5), h


def potential(cfg, t):
    kind, p, shift = model_params(cfg)
    z = np.asarray(t) - 1j * shift
    if kind == "ptho":
        return z * z + (p * p - 0.25) / (z * z)
    return p * (p + 1) / np.sin(z) ** 2


def relative_errors(numeric, exact):
    numeric, exact = np.asarray(numeric), np.asarray(exact)
    return np.abs(numeric - exact) / np.maximum(1.0, np.abs(exact))


# -- per-command checks ----------------------------------------------------------

def check_verify(cfg, text, fmt, tol):
    """Lowest levels against the benchmark's own closed form."""
    columns, rows, _ = parse_output(text, fmt)
    require(columns == ["index", "numeric", "analytic", "abs_err", "rel_err"],
            f"verify columns {columns}")
    count = int(cfg["verify"]["count"])
    require(len(rows) == count, f"verify gave {len(rows)} rows, not {count}")
    exact = lowest_energies(cfg, count)
    numeric = np.array([r[1] for r in rows])
    analytic = np.array([r[2] for r in rows])
    require(np.all(relative_errors(analytic, exact) < 1e-10),
            f"analytic column {analytic} differs from closed form {exact}")
    err = relative_errors(numeric, exact)
    require(err.max() <= tol, f"verify level error {err.max():.3e} > {tol}")
    return float(err.max())


def check_spectrum(cfg, text, fmt, tol, count=8):
    """Trace identity, conjugation closure and the lowest real levels."""
    columns, rows, _ = parse_output(text, fmt)
    require(columns == ["index", "re_e", "im_e", "class", "pt_defect"],
            f"spectrum columns {columns}")
    t, h = grid(cfg)
    require(len(rows) == len(t), f"spectrum has {len(rows)} of {len(t)} values")
    values = np.array([r[1] + 1j * r[2] for r in rows])
    # sum of eigenvalues = trace of the 3-point operator -D2 + V
    trace = np.sum(2.0 / h ** 2 + potential(cfg, t))
    scale = np.sum(np.abs(values))
    require(abs(values.sum() - trace) <= 1e-9 * scale,
            f"eigenvalue sum {values.sum()} != trace {trace}")
    # the multiset is closed under complex conjugation
    defect = _closure_defect(values)
    require(defect.max() <= 1e-4,
            f"conjugation closure defect {defect.max():.3e}")
    real = np.sort([r[1] for r in rows if r[3] == "real"])
    require(len(real) >= count, f"only {len(real)} real levels")
    err = relative_errors(real[:count], lowest_energies(cfg, count))
    require(err.max() <= tol, f"spectrum level error {err.max():.3e} > {tol}")
    return float(err.max())


def _closure_defect(values):
    """Relative distance of each value to the conjugate of its nearest
    partner, found among neighbours in real-part order."""
    order = np.argsort(values.real, kind="stable")
    v = values[order]
    defect = np.empty(len(v))
    for i in range(len(v)):
        lo, hi = max(0, i - 16), min(len(v), i + 17)
        defect[i] = np.min(np.abs(np.conj(v[lo:hi]) - v[i]))
    return defect / np.maximum(1.0, np.abs(v))


def check_rows_equal(text_a, fmt_a, text_b, fmt_b):
    """CSV and JSON renderings carry identical payloads."""
    _, rows_a, _ = parse_output(text_a, fmt_a)
    _, rows_b, _ = parse_output(text_b, fmt_b)
    require(rows_a == rows_b, "CSV and JSON payloads differ")


def check_scan(cfg, text, fmt, tol, away=0.15):
    """Crossings at alpha = 1 and 2; levels away from them on the closed form."""
    columns, rows, doc = parse_output(text, fmt)
    require(columns == ["param", "index", "re_e", "im_e"],
            f"scan columns {columns}")
    if fmt == "json":
        crossings = [c["param"] for c in doc["crossings"]]
        require(not doc["failures"], f"scan failures {doc['failures']}")
    else:
        crossings = [float(line.split()[2].split("=")[1])
                     for line in doc["comments"] if line.startswith("# crossing")]
        require(not any(line.startswith("# failed") for line in doc["comments"]),
                "scan reported failed points")
    require(crossings, "scan reported no crossing")
    for c in crossings:
        require(min(abs(c - 1), abs(c - 2)) <= 0.02,
                f"crossing at {c} is not within 0.02 of 1 or 2")
    for target in (1, 2):
        require(any(abs(c - target) <= 0.02 for c in crossings),
                f"no crossing found near alpha={target}")
    sc = cfg["scan"]
    levels = int(sc["levels"])
    params = np.linspace(float(sc["lo"]), float(sc["hi"]), int(sc["steps"]))
    by_param = {}
    for p, i, re_e, im_e in rows:
        by_param.setdefault(p, []).append(re_e)
    worst = 0.0
    checked = 0
    for p in params:
        if abs(p - round(p)) < away:
            continue
        got = by_param.get(float(f"{p:.12g}"))
        require(got is not None and len(got) == levels,
                f"scan rows missing at alpha={p}")
        exact = lowest_energies({"model": {"kind": "ptho", "alpha": p}}, levels)
        err = relative_errors(got, exact)
        require(err.max() <= tol, f"scan level error {err.max():.3e} at {p}")
        worst = max(worst, float(err.max()))
        checked += 1
    require(checked > 0, "no scan point away from the crossings")
    return worst


def _ode_residual(psi, v, energy, h):
    lap = (psi[2:] - 2 * psi[1:-1] + psi[:-2]) / h ** 2
    r = -lap + (v[1:-1] - energy) * psi[1:-1]
    return np.linalg.norm(r) / np.linalg.norm(psi[1:-1]) / max(1.0, abs(energy))


def wavefunction_energy(cfg):
    kind, p, _ = model_params(cfg)
    idx = int(cfg["wavefunction"]["index"])
    q = int(cfg["wavefunction"]["qparity"])
    if kind == "ptho":
        return 4 * idx + 2 + q * 2 * p
    return (idx + q * (p + 0.5) + 0.5) ** 2


def check_wavefunction(cfg, text, fmt, step=0.01):
    """PT symmetry of the tabulated eigenfunction and an O(h^2) residual of
    the 3-point discretized ODE, evaluated on sub-grids of stride ~`step`
    (finer strides would measure the 12-digit rounding of the output)."""
    columns, rows, _ = parse_output(text, fmt)
    require(columns == ["t", "re_psi", "im_psi"],
            f"wavefunction columns {columns}")
    data = np.array(rows, dtype=float)
    t, psi = data[:, 0], data[:, 1] + 1j * data[:, 2]
    t_exp, h = grid(cfg)
    require(len(t) == len(t_exp) and np.allclose(t, t_exp, rtol=0, atol=1e-9),
            "wavefunction grid differs from the contour grid")
    require(np.all(t == -t[::-1]), "grid is not reflection symmetric")
    # PT symmetry: psi(-t) = e^{i phi} conj(psi(t)) for one constant phase,
    # i.e. Re is even and Im is odd after removing that phase
    mirrored = psi[::-1]
    phase = np.vdot(np.conj(psi), mirrored) / np.vdot(psi, psi)
    require(abs(abs(phase) - 1) < 1e-9, f"PT phase modulus {abs(phase)}")
    rotated = psi * np.conj(np.sqrt(phase))
    norm = np.linalg.norm(psi)
    even = np.linalg.norm(rotated.real - rotated.real[::-1]) / norm
    odd = np.linalg.norm(rotated.imag + rotated.imag[::-1]) / norm
    require(even < 1e-9 and odd < 1e-9,
            f"Re psi not even / Im psi not odd: {even:.2e}, {odd:.2e}")
    # discrete ODE residual at strides H and 2H: second order means ratio ~4
    energy = wavefunction_energy(cfg)
    v = potential(cfg, t)
    stride = max(1, int(round(step / h)))
    res_h = _ode_residual(psi[::stride], v[::stride], energy, stride * h)
    res_2h = _ode_residual(psi[::2 * stride], v[::2 * stride], energy,
                           2 * stride * h)
    ratio = res_2h / res_h
    require(3.5 <= ratio <= 4.5,
            f"ODE residual ratio {ratio:.3f} at h={stride * h:.3g} is not "
            f"second order (residual {res_h:.3e})")
    require(res_h < 1e-2, f"ODE residual {res_h:.3e}")
    return float(res_h)
