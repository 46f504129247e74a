"""Command-line front end.

    ptspec spectrum|verify|scan|wavefunction --config cfg.json
           [--out FILE] [--format csv|json]

Configuration is a single JSON document, the only way to set a run's
parameters.  parse_config types and range-checks it in full against
DEFAULTS before any numerics run, into the {section: {key: value}} dict
that every command reads and the JSON payload echoes.

Every run is deterministic, byte for byte, at a fixed BLAS thread count.
The oscillator's ``spectrum`` still depends on it: threaded OpenBLAS
rounds LAPACK's blocked reductions by it, and at N=800 140 of 800 rows
differ between one thread and two (up to 3.1e-8 relative, no label
changes).  The angular one on two half-grid blocks no longer does.

A command's table is one ndarray per column, written in blocks of
BLOCK_ROWS rows, never held as text whole.  A block is one %-format: a
row template of per-column specs (``%.12g`` for a float dtype, ``%d`` for
an int, ``%s`` for any other, the strings), repeated for every row and
applied once to the block's cells in row order.  A string cell is always
a value, never template text.

``wavefunction`` evaluates psi in the same blocks, into one complex array
that is whole, and checked finite, before any row is written.  Its
working set is psi (16 N bytes), the grid (8 N bytes) and one block's
recurrence temporaries.  At N = 2^20 the process's peak RSS rises
25-26 MB above an import-only process, for either model, where one
whole-grid evaluation rose 104.6 MB (angular, k = 3) to 121.8 MB
(oscillator, n = 3, quasi-parity -1).

A CSV float cell is ``"%.12g" % x`` (``nan``, ``inf``, ``-inf`` when not
finite); an int is its decimal digits and a string is written as is.
A JSON float is ``repr(float(cell))`` of that CSV cell, the shortest repr
of the float it reads as, so both formats carry the same numeric payload;
non-finite values are ``NaN``, ``Infinity`` and ``-Infinity``.  A JSON
string is escaped as by ``json.dumps``.  The JSON document is
``json.dumps(..., indent=2, sort_keys=True)`` of the payload with its
``rows`` key last.

Distinct decimals of at most 15 significant digits read as distinct
doubles in the normal range (DBL_DIG = 15), so no shorter decimal reads as
the float a 12-digit cell does, and that float's repr has the cell's
digits.  Where it also has the cell's notation, the repr is the cell as it
stands: a positional cell with a ``.``, or one with a two-digit negative
exponent.  Elsewhere it differs: an integer-like cell needs ``.0``, repr
writes 1e12 to 1e16 positionally, and a three-digit negative exponent may
be a subnormal, which holds fewer than 15 digits (the cell
``4.94065645841e-324`` reads as ``5e-324``).

So only a cell of a float x that is not finite, has |x| >= 1e11 (a
12-digit integer) or |x| < 1e-98 (a three-digit exponent), or lies within
1e-10 |x| of an integer (a cell with no ``.``) can need re-spelling.
numpy finds these candidate cells in each block; only they are spelled by
the rule above, under a ``%s`` in their row's template.

Exit codes: 0 success, 2 input rejected before any numerics (bad config,
unsupported model regime, a grid above the command's cap, a wavefunction
index at or above contour.npoints, an --out path that cannot be written),
3 the numerics failed (among them a wavefunction that is not finite at
some grid point, a parameter or potential that overflows, and a scan
whose every sweep point failed), 4 verification FAIL.
"""

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import __version__
from .contour import (DEFAULT_HALFWIDTH, MAX_POINTS, contour_for,
                      grid_points)
from .eigen import (DEFAULT_CROSSING_TOL, DEFAULT_REALITY_TOL, match_spectra,
                    ptho_numeric_family, scan_parameter, solve_lowest,
                    solve_spectrum)
from .exceptions import NonConvergence, UnsupportedModel
from .models import (AngularParams, PthoParams, angular_wavefunction,
                     ptho_levels, ptho_wavefunction, termination_levels)

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY_FAIL = 4

# Largest wavefunction grid and scan table (steps * levels rows): far above
# any useful tabulation, it keeps a mistyped size from allocating gigabytes.
MAX_ROWS = 2 ** 20

# Rows rendered, and wavefunction points evaluated, at a time: bounds the
# memory the cell tokens and the recurrences' temporaries take.
BLOCK_ROWS = 4096

# JSON spellings of the non-finite floats, as json.dumps writes them
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# the %-format of an ndarray column's cells, by dtype kind
_CELL_SPECS = {"f": "%.12g", "i": "%d", "u": "%d"}


class ConfigError(ValueError):
    pass


def fmt(x):
    """Shortest float rendering capped at 12 significant digits."""
    return "%.12g" % x


def fnum(x):
    """The numeric payload actually emitted: value after 12-digit capping."""
    return float(fmt(x))


# Every config key with its default.  A value must have its default's type:
# a string, a finite float, or an int given as an integral number.
DEFAULTS = {
    "model": {"kind": "ptho", "alpha": 1.5, "ell": 1.0, "lambda": 0.0,
              "shift": 1.0},
    "contour": {"npoints": 2000, "halfwidth": DEFAULT_HALFWIDTH},
    "tolerances": {"reality": DEFAULT_REALITY_TOL,
                   "crossing": DEFAULT_CROSSING_TOL,
                   "match": 1e-3},
    "scan": {"lo": 0.5, "hi": 2.5, "steps": 41, "levels": 6},
    "wavefunction": {"index": 0, "qparity": 1},
    "verify": {"count": 8},
}

# the keys each model kind takes, in the sections where the kinds differ;
# the angular model's periodic contour has no halfwidth
MODEL_KEYS = {"ptho": {"model": ("kind", "alpha", "shift"),
                       "contour": ("npoints", "halfwidth")},
              "angular": {"model": ("kind", "ell", "lambda", "shift"),
                          "contour": ("npoints",)}}


_TYPE_NAMES = {str: "a string", int: "an integer", float: "a finite number"}


def _typed(name, value, default):
    """`value` as the type of `default`: a string, a finite float, or an
    int given as an integral number.  Booleans are not numbers here."""
    want = type(default)
    ok = isinstance(value, str) if want is str else (
        type(value) in (int, float) and abs(value) <= sys.float_info.max
        and (want is float or value == int(value)))
    if not ok:
        raise ConfigError(f"{name} must be {_TYPE_NAMES[want]}: {value!r}")
    return want(value)


def _check_bounds(cfg):
    sc, wf = cfg["scan"], cfg["wavefunction"]
    count, tol = cfg["verify"]["count"], cfg["tolerances"]
    npoints = cfg["contour"]["npoints"]
    for ok, message in [
            (count >= 1, "verify.count must be at least 1"),
            (count <= npoints,
             f"verify.count must not exceed contour.npoints ({npoints}): "
             "the grid has no more levels"),
            (sc["steps"] >= 2, "scan.steps must be at least 2"),
            (sc["steps"] * sc["levels"] <= MAX_ROWS,
             f"scan.steps * scan.levels must not exceed {MAX_ROWS} rows"),
            (sc["levels"] >= 2, "scan.levels must be at least 2"),
            (sc["levels"] <= npoints,
             f"scan.levels must not exceed contour.npoints ({npoints}): "
             "the grid has no more levels"),
            (sc["lo"] > 0, "scan.lo must be positive"),
            (sc["lo"] < sc["hi"], "scan.lo must be below scan.hi"),
            (wf["index"] >= 0, "wavefunction.index must be non-negative"),
            (wf["index"] < npoints,
             f"wavefunction.index must be below contour.npoints ({npoints}):"
             " the grid has no more levels"),
            (wf["qparity"] in (1, -1),
             "wavefunction.qparity must be +1 or -1"),
            (min(tol.values()) >= 0,
             f"tolerances must be non-negative: {tol}")]:
        if not ok:
            raise ConfigError(message)


def parse_config(doc):
    """Parse and range-check a config document: {section: {key: value}},
    every value typed, and a section's missing keys at their defaults."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(doc) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    cfg = {}
    for name, defaults in DEFAULTS.items():
        given = doc.get(name, {})
        if not isinstance(given, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        if name == "model":
            kind = _typed("model.kind", given.get("kind", defaults["kind"]),
                          defaults["kind"])
            if kind not in MODEL_KEYS:
                raise ConfigError(f"unknown model kind {kind!r}")
        keys, where = list(defaults), repr(name)
        if name in MODEL_KEYS[kind]:
            keys = MODEL_KEYS[kind][name]
            where = f"{name!r} for model kind {kind!r}"
        bad = set(given) - set(keys)
        if bad:
            raise ConfigError(f"unknown key(s) in {where}: {sorted(bad)}")
        cfg[name] = {key: _typed(f"{name}.{key}",
                                 given.get(key, defaults[key]), defaults[key])
                     for key in keys}
    _check_bounds(cfg)
    return cfg


def build(cfg):
    """The model and its contour; ConfigError when a value lies outside
    the model's or the contour's domain."""
    m = cfg["model"]
    try:
        if m["kind"] == "ptho":
            model = PthoParams(alpha=m["alpha"], c=m["shift"])
        else:
            model = AngularParams(ell=m["ell"], eps=m["shift"],
                                  lam=m["lambda"])
        return model, contour_for(model, **cfg["contour"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path):
    doc = {}
    if path:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config(doc)


def _json_float(cell):
    """The JSON token of the float whose CSV cell is `cell`: the repr of
    the float it reads as, or the JSON name of a non-finite value."""
    return _JSON_NONFINITE.get(cell) or repr(float(cell))


def _respell_candidates(x):
    """Indices of the float cells whose JSON token may differ from their
    CSV cell: x outside [1e-98, 1e11), or within 1e-10 |x| of an integer.
    Every other cell is positional with a ``.`` or has a two-digit
    negative exponent, which is already the repr of the float it reads
    as (see the module docstring)."""
    ax = np.abs(x)
    with np.errstate(invalid="ignore"):
        near_int = np.abs(x - np.rint(x)) <= 1e-10 * ax
    # NaN fails both bounds and +-inf the upper one, so they are in too
    return np.flatnonzero(~((ax >= 1e-98) & (ax < 1e11)) | near_int)


def _write_rows(fh, table, outfmt, cell_sep, row_sep):
    """Write the rows of `table`, given as ndarray columns, in blocks of
    BLOCK_ROWS rows; cells are joined by `cell_sep` and rows by `row_sep`.
    A block is one %-format: the row template, repeated for every row,
    applied to the block's cells in row order.  A column of a dtype kind
    not in _CELL_SPECS takes ``%s`` and, in JSON, json.dumps; a JSON float
    cell that may need re-spelling enters as its _json_float token."""
    ncols, nrows = len(table), len(table[0])
    specs = [_CELL_SPECS.get(column.dtype.kind, "%s") for column in table]
    template = cell_sep.join(specs)
    for start in range(0, nrows, BLOCK_ROWS):
        block = [column[start:start + BLOCK_ROWS] for column in table]
        rows = [template] * len(block[0])
        cells = [None] * (len(rows) * ncols)
        respelled = {}
        for j, column in enumerate(block):
            escape = outfmt == "json" and specs[j] == "%s"
            cells[j::ncols] = (map(json.dumps, column.tolist()) if escape
                               else column.tolist())
            if outfmt == "json" and column.dtype.kind == "f":
                for i in _respell_candidates(column).tolist():
                    k = i * ncols + j
                    cells[k] = _json_float("%.12g" % cells[k])
                    respelled.setdefault(i, list(specs))[j] = "%s"
        for i, row_specs in respelled.items():
            rows[i] = cell_sep.join(row_specs)
        if start:
            fh.write(row_sep)
        fh.write(row_sep.join(rows) % tuple(cells))


def _render(payload, columns, table, comments, out, outfmt):
    """Write one result table, given as one ndarray per column, as
    CSV (with # comment trailer) or JSON, to the file or stdout."""
    nrows = len(table[0])
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        if outfmt == "csv":
            fh.write(",".join(columns) + "\n")
            if nrows:
                _write_rows(fh, table, outfmt, ",", "\n")
                fh.write("\n")
            fh.write("".join(line + "\n" for line in comments))
            return
        doc = json.dumps({**payload, "columns": columns, "rows": []},
                         indent=2, sort_keys=True)
        if nrows:
            # "rows" sorts after every other payload key, so the document
            # ends with its list: open it, write the rows, close it
            fh.write(doc[:-len("]\n}")] + "\n    [\n      ")
            _write_rows(fh, table, outfmt, ",\n      ",
                        "\n    ],\n    [\n      ")
            doc = "\n    ]\n  ]\n}"
        fh.write(doc + "\n")


# Each command returns (column names, table, comments, extra payload, exit
# code).  The table is one ndarray column per name.

def cmd_spectrum(cfg, model, g):
    result = solve_spectrum(model, g, reality_tol=cfg["tolerances"]["reality"])
    ev = result.eigenvalues
    table = [np.arange(len(ev)), ev.real, ev.imag, result.classifications,
             result.pt_defects]
    return (["index", "re_e", "im_e", "class", "pt_defect"], table, [], {},
            EXIT_OK)


def cmd_verify(cfg, model, g):
    tol = cfg["tolerances"]
    count = cfg["verify"]["count"]
    # the closed form first: a model without one exits before the solve
    levels = (ptho_levels if isinstance(model, PthoParams)
              else termination_levels)(model, count)
    result = solve_lowest(model, g, count, reality_tol=tol["reality"])
    columns = match_spectra(result, levels, count)
    n, rel_err = len(columns[0]), columns[-1]
    passed = bool(n == count and np.all(rel_err <= tol["match"]))
    comments = []
    if n < count:       # too few real levels survive: report what exists
        comments.append(f"# insufficient real levels ({n} < {count})")
    comments.append(f"# {'PASS' if passed else 'FAIL'}" + (
        f" worst_rel_err={fmt(rel_err.max())}" if n else ""))
    return (["index", "numeric", "analytic", "abs_err", "rel_err"],
            [np.arange(n), *columns], comments, {"passed": passed},
            EXIT_OK if passed else EXIT_VERIFY_FAIL)


def cmd_scan(cfg, model, g):
    if not isinstance(model, PthoParams):
        raise ConfigError("scan sweeps the oscillator coupling; "
                          "model kind must be 'ptho'")
    sc = cfg["scan"]
    family = ptho_numeric_family(model, g, sc["levels"])
    scan = scan_parameter(family, sc["lo"], sc["hi"], sc["steps"],
                          sc["levels"],
                          crossing_tol=cfg["tolerances"]["crossing"])
    if len(scan.failures) == sc["steps"]:
        p, msg = scan.failures[0]
        raise ValueError(f"all {sc['steps']} sweep points failed, the first "
                         f"at param={fmt(p)}: {msg}")
    # the rows of the solved points, each param repeated once per level
    solved = np.isfinite(scan.energies).all(axis=1)
    energies = scan.energies[solved].ravel()
    table = [np.repeat(scan.params[solved], sc["levels"]),
             np.tile(np.arange(sc["levels"]), np.count_nonzero(solved)),
             energies.real, energies.imag]
    comments = [f"# crossing param={fmt(c.param)} "
                f"levels={c.pair[0]},{c.pair[1]} gap={fmt(c.gap)}"
                for c in scan.crossings]
    comments += [f"# failed param={fmt(p)}: {msg}"
                 for p, msg in scan.failures]
    extra = {"crossings": [{"param": fnum(c.param),
                            "levels": list(c.pair),
                            "gap": fnum(c.gap)} for c in scan.crossings],
             "failures": [{"param": fnum(p), "error": m}
                          for p, m in scan.failures]}
    return ["param", "index", "re_e", "im_e"], table, comments, extra, EXIT_OK


def cmd_wavefunction(cfg, model, g):
    idx = cfg["wavefunction"]["index"]
    qp = cfg["wavefunction"]["qparity"]
    wavefunction = (ptho_wavefunction if isinstance(model, PthoParams)
                    else angular_wavefunction)
    t = grid_points(g)
    # whole, and counted, before any row is written (module docstring)
    psi = np.empty(len(t), dtype=complex)
    bad = 0
    # an overflowing recurrence is reported once, below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(t), BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            psi[rows] = wavefunction(idx, qp, model, t[rows])
            bad += np.count_nonzero(~np.isfinite(psi[rows]))
    if bad:
        raise FloatingPointError(f"wavefunction is not finite at {bad} of "
                                 f"{len(t)} grid points")
    return ["t", "re_psi", "im_psi"], [t, psi.real, psi.imag], [], {}, EXIT_OK


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "scan": cmd_scan,
    "wavefunction": cmd_wavefunction,
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="ptspec",
        description="Solvable PT-symmetric models: analytic oracles vs "
                    "complex-contour numerics")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    return p


def _writable(path):
    """Whether `path` can be written as the output file: an existing file
    that is writable, or a new name in an existing, writable directory.
    A symbolic link is judged by its target."""
    path = os.path.realpath(path)
    if os.path.exists(path):
        return not os.path.isdir(path) and os.access(path, os.W_OK)
    parent = os.path.dirname(path)      # realpath is absolute
    return os.path.isdir(parent) and os.access(parent, os.W_OK)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.out and not _writable(args.out):
            raise ConfigError(f"--out {args.out!r} is a directory, a read-only"
                              " file, or in a missing or read-only directory")
        cfg = load_config(args.config)
        model, g = build(cfg)
        # spectrum solves each real form block as one dense array in
        # eig_dense, which makes them all at once (8 N^2 bytes for the
        # full grid, 4 N^2 for both half-grid blocks, the second solved in
        # an extra thread); verify and scan fall back to that solve when a
        # window is not certified.
        # wavefunction writes a row per grid point.
        cap = MAX_ROWS if args.command == "wavefunction" else MAX_POINTS
        if g.npoints > cap:
            raise ConfigError(f"contour.npoints {g.npoints} exceeds the "
                              f"{args.command} cap {cap}")
        columns, table, comments, extra, code = _COMMANDS[args.command](
            cfg, model, g)
    except (ConfigError, UnsupportedModel) as exc:
        print(f"ptspec: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergence, ValueError, ArithmeticError) as exc:
        print(f"ptspec: solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    payload = {"format_version": FORMAT_VERSION, "command": args.command,
               "config": cfg, **extra}
    _render(payload, columns, table, comments, args.out, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
