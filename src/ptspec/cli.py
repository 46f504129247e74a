"""Command-line front end.

    ptspec spectrum|verify|scan|wavefunction --config cfg.json
           [--out FILE] [--format csv|json]
           [--npoints N] [--alpha A] [--shift C] [--tol T]

Configuration is a single JSON document; command-line flags override the
file.  Every run is deterministic: fixed ordering, floats printed with
at most 12 significant digits, and the JSON rendering carries exactly
the same numeric payload as the CSV one.

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence,
4 verification FAIL.
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .contour import DEFAULT_HALFWIDTH, contour_for, grid_points
from .eigen import (DEFAULT_CROSSING_TOL, DEFAULT_REALITY_TOL,
                    DEFAULT_SPURIOUS_FACTOR, match_spectra,
                    ptho_numeric_family, scan_parameter, solve_spectrum)
from .exceptions import (InsufficientLevels, NonConvergence,
                         UnpairedComplexValue, UnsupportedModel)
from .models import (AngularParams, PthoParams, ptho_levels,
                     ptho_wavefunction, angular_wavefunction,
                     termination_levels)

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY_FAIL = 4


class ConfigError(ValueError):
    pass


def fmt(x):
    """Shortest float rendering capped at 12 significant digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    return f"{float(x):.12g}"


def fnum(x):
    """The numeric payload actually emitted: value after 12-digit capping."""
    if isinstance(x, (int, np.integer)):
        return int(x)
    return float(fmt(x))


_SCHEMA = {
    "model": {"kind", "alpha", "ell", "lambda", "shift"},
    "contour": {"npoints", "halfwidth"},
    "tolerances": {"reality", "spurious_factor", "crossing", "match"},
    "scan": {"lo", "hi", "steps", "levels"},
    "wavefunction": {"index", "qparity"},
    "verify": {"count"},
}

_DEFAULTS = {
    "model": {"kind": "ptho", "alpha": 1.5, "shift": 1.0},
    "contour": {"npoints": 2000, "halfwidth": DEFAULT_HALFWIDTH},
    "tolerances": {"reality": DEFAULT_REALITY_TOL,
                   "spurious_factor": DEFAULT_SPURIOUS_FACTOR,
                   "crossing": DEFAULT_CROSSING_TOL,
                   "match": 1e-3},
    "scan": {"lo": 0.5, "hi": 2.5, "steps": 41, "levels": 6},
    "wavefunction": {"index": 0, "qparity": 1},
    "verify": {"count": 8},
}

_INTEGER_FIELDS = [("contour", "npoints"), ("verify", "count"),
                   ("scan", "steps"), ("scan", "levels"),
                   ("wavefunction", "index"), ("wavefunction", "qparity")]


@dataclasses.dataclass
class RunConfig:
    model: dict
    contour: dict
    tolerances: dict
    scan: dict
    wavefunction: dict
    verify: dict

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        unknown = set(doc) - set(_SCHEMA)
        if unknown:
            raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
        sections = {}
        for name, allowed in _SCHEMA.items():
            merged = dict(_DEFAULTS[name])
            given = doc.get(name, {})
            if not isinstance(given, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            bad = set(given) - allowed
            if bad:
                raise ConfigError(f"unknown key(s) in {name!r}: {sorted(bad)}")
            merged.update(given)
            sections[name] = merged
        for name, key in _INTEGER_FIELDS:
            v = sections[name][key]
            if not (isinstance(v, (int, float)) and float(v).is_integer()):
                raise ConfigError(f"{name}.{key} must be an integer: {v!r}")
        if sections["verify"]["count"] < 1:
            raise ConfigError("verify.count must be at least 1")
        return cls(**sections)

    def to_dict(self):
        return {name: dict(getattr(self, name)) for name in _SCHEMA}

    def build_model(self):
        m = self.model
        kind = m.get("kind")
        if kind == "ptho":
            return PthoParams(alpha=float(m["alpha"]), c=float(m["shift"]))
        if kind == "angular":
            return AngularParams(ell=float(m.get("ell", 1.0)),
                                 eps=float(m["shift"]),
                                 lam=float(m.get("lambda", 0.0)))
        raise ConfigError(f"unknown model kind {kind!r}")

    def build_contour(self, model):
        return contour_for(model, npoints=int(self.contour["npoints"]),
                           halfwidth=float(self.contour["halfwidth"]))


def load_config(args):
    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
    cfg = RunConfig.from_dict(doc)
    if args.npoints is not None:
        cfg.contour["npoints"] = args.npoints
    if args.alpha is not None:
        cfg.model["alpha"] = args.alpha
        cfg.model["ell"] = args.alpha - 0.5
    if args.shift is not None:
        cfg.model["shift"] = args.shift
    if args.tol is not None:
        # --tol targets the tolerance the command acts on
        key = {"verify": "match", "scan": "crossing"}.get(args.command,
                                                          "reality")
        cfg.tolerances[key] = args.tol
    return cfg


def _render(payload, columns, rows, comments, out, outfmt):
    """Write one result table as CSV (with # comment trailer) or JSON."""
    if outfmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(fmt(x) if not isinstance(x, str) else x
                                  for x in row))
        lines.extend(comments)
        text = "\n".join(lines) + "\n"
    else:
        payload = dict(payload)
        payload["columns"] = columns
        payload["rows"] = [[fnum(x) if not isinstance(x, str) else x
                            for x in row] for row in rows]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _analytic_levels(model, count):
    """Enough closed-form levels to cover the lowest `count` energies."""
    depth = count + int(math.ceil(getattr(model, "alpha", 0.0))) + 2
    if isinstance(model, PthoParams):
        return ptho_levels(model, depth)
    return termination_levels(model, depth)


def cmd_spectrum(cfg, args):
    model = cfg.build_model()
    g = cfg.build_contour(model)
    result = solve_spectrum(model, g, want_vectors=True,
                            reality_tol=float(cfg.tolerances["reality"]),
                            spurious_factor=float(
                                cfg.tolerances["spurious_factor"]))
    rows = [[i, ev.real, ev.imag, result.classifications[i],
             result.pt_defects[i]]
            for i, ev in enumerate(result.eigenvalues)]
    payload = {"format_version": FORMAT_VERSION, "command": "spectrum",
               "config": cfg.to_dict()}
    _render(payload, ["index", "re_e", "im_e", "class", "pt_defect"],
            rows, [], args.out, args.format)
    return EXIT_OK


def cmd_verify(cfg, args):
    model = cfg.build_model()
    g = cfg.build_contour(model)
    count = int(cfg.verify["count"])
    levels = _analytic_levels(model, count)
    result = solve_spectrum(model, g,
                            reality_tol=float(cfg.tolerances["reality"]),
                            spurious_factor=float(
                                cfg.tolerances["spurious_factor"]))
    comments = []
    try:
        report = match_spectra(result, levels, count,
                               tol=float(cfg.tolerances["match"]))
        passed = report.passed
    except InsufficientLevels:
        # too few real levels survive on this grid: report what exists
        available = len(result.real_values())
        report = match_spectra(result, levels, available,
                               tol=float(cfg.tolerances["match"]))
        passed = False
        comments.append(f"# insufficient real levels ({available} < {count})")
    rows = [[i, e.numeric, e.analytic, e.abs_err, e.rel_err]
            for i, e in enumerate(report.entries)]
    verdict = "PASS" if passed else "FAIL"
    payload = {"format_version": FORMAT_VERSION, "command": "verify",
               "config": cfg.to_dict(), "passed": passed}
    comments.append(f"# {verdict}" + (
        f" worst_rel_err={fmt(report.worst_rel_err)}" if report.entries else ""))
    _render(payload, ["index", "numeric", "analytic", "abs_err", "rel_err"],
            rows, comments, args.out, args.format)
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


def cmd_scan(cfg, args):
    model = cfg.build_model()
    if not isinstance(model, PthoParams):
        raise ConfigError("scan sweeps the oscillator coupling; "
                          "model kind must be 'ptho'")
    family = ptho_numeric_family(
        c=model.c, npoints=int(cfg.contour["npoints"]),
        halfwidth=float(cfg.contour["halfwidth"]),
        spurious_factor=float(cfg.tolerances["spurious_factor"]))
    sc = cfg.scan
    scan = scan_parameter(family, float(sc["lo"]), float(sc["hi"]),
                          int(sc["steps"]), int(sc["levels"]),
                          crossing_tol=float(cfg.tolerances["crossing"]))
    rows = []
    for p, evs in zip(scan.params, scan.energies):
        if evs is None:
            continue
        for i, ev in enumerate(evs):
            rows.append([p, i, ev.real, ev.imag])
    comments = [f"# crossing param={fmt(c.param)} "
                f"levels={c.pair[0]},{c.pair[1]} gap={fmt(c.gap)}"
                for c in scan.crossings]
    comments += [f"# failed param={fmt(p)}: {msg}"
                 for p, msg in scan.failures]
    payload = {"format_version": FORMAT_VERSION, "command": "scan",
               "config": cfg.to_dict(),
               "crossings": [{"param": fnum(c.param),
                              "levels": list(c.pair),
                              "gap": fnum(c.gap)} for c in scan.crossings],
               "failures": [{"param": fnum(p), "error": m}
                            for p, m in scan.failures]}
    _render(payload, ["param", "index", "re_e", "im_e"], rows, comments,
            args.out, args.format)
    return EXIT_OK


def cmd_wavefunction(cfg, args):
    model = cfg.build_model()
    g = cfg.build_contour(model)
    idx = int(cfg.wavefunction["index"])
    qp = int(cfg.wavefunction["qparity"])
    t = grid_points(g)
    if isinstance(model, PthoParams):
        psi = ptho_wavefunction(idx, qp, model, t)
    else:
        psi = angular_wavefunction(idx, qp, model, t)
    rows = [[tj, pj.real, pj.imag] for tj, pj in zip(t, psi)]
    payload = {"format_version": FORMAT_VERSION, "command": "wavefunction",
               "config": cfg.to_dict()}
    _render(payload, ["t", "re_psi", "im_psi"], rows, [], args.out,
            args.format)
    return EXIT_OK


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
    p.add_argument("--npoints", type=int, help="override grid size")
    p.add_argument("--alpha", type=float,
                   help="override coupling (alpha; ell = alpha - 1/2)")
    p.add_argument("--shift", type=float, help="override contour shift")
    p.add_argument("--tol", type=float,
                   help="override the tolerance the command acts on")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, UnsupportedModel, ValueError) as exc:
        print(f"ptspec: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergence, UnpairedComplexValue) as exc:
        print(f"ptspec: solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
