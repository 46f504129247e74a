"""Command-line interface: determinism, format parity, exit codes,
configuration handling."""

import contextlib
import copy
import ctypes
import io
import json
import math
import os
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ptspec.cli
from ptspec.cli import (BLOCK_ROWS, DEFAULTS, EXIT_CONFIG, EXIT_OK,
                        EXIT_SOLVER, EXIT_VERIFY_FAIL, MAX_ROWS, MODEL_KEYS,
                        ConfigError, _json_float, _render, _write_rows,
                        build, build_parser, cmd_scan, cmd_wavefunction,
                        fmt, fnum, main, parse_config)
from ptspec.exceptions import DomainError
from ptspec.models import (AngularParams, PthoParams, angular_energy,
                           angular_wavefunction, ptho_energy, ptho_levels,
                           ptho_wavefunction, termination_levels)


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def deny_write(monkeypatch, path):
    """Make os.access report `path` as not writable, as its permission
    bits would for any user but root."""
    access = os.access

    def fake(p, mode, **kwargs):
        if os.path.realpath(p) == os.path.realpath(path) and mode & os.W_OK:
            return False
        return access(p, mode, **kwargs)
    monkeypatch.setattr(os, "access", fake)


SMALL_PTHO = {
    "model": {"kind": "ptho", "alpha": 0.5, "shift": 1.0},
    "contour": {"npoints": 200, "halfwidth": 10.0},
}
SMALL_ANGULAR = {
    "model": {"kind": "angular", "ell": 1.0, "lambda": 0.0, "shift": 0.1},
    "contour": {"npoints": 64},
}

# every numeric (section, key) of the schema, by the type of its default
FIELDS = {want: [(name, key) for name, body in DEFAULTS.items()
                 for key, default in body.items() if type(default) is want]
          for want in (int, float)}


def doc_with(section, key, value):
    """A small config of the model kind that takes `key`, with one value
    replaced."""
    base = SMALL_ANGULAR if key in ("ell", "lambda") else SMALL_PTHO
    doc = {name: dict(body) for name, body in base.items()}
    doc.setdefault(section, {})[key] = value
    return doc


class TestConfig:
    def test_round_trip_is_lossless(self):
        doc = {
            "model": {"kind": "angular", "ell": 1.0, "shift": 0.1,
                      "lambda": 0.0},
            "contour": {"npoints": 64},
            "tolerances": {"reality": 1e-6, "crossing": 1e-3, "match": 1e-3},
            "scan": {"lo": 0.5, "hi": 2.5, "steps": 11, "levels": 4},
            "wavefunction": {"index": 2, "qparity": -1},
            "verify": {"count": 5},
        }
        cfg = parse_config(doc)
        assert parse_config(cfg) == cfg
        assert cfg == doc

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            parse_config({"modle": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config({"model": {"kind": "ptho", "alfa": 2.0}})

    def test_defaults_fill_missing_sections(self):
        cfg = parse_config({})
        assert cfg["model"] == {"kind": "ptho", "alpha": 1.5, "shift": 1.0}
        assert cfg["contour"]["npoints"] == 2000
        angular = parse_config({"model": {"kind": "angular"}})
        assert angular["model"] == {"kind": "angular", "ell": 1.0,
                                    "lambda": 0.0, "shift": 1.0}
        assert angular["contour"] == {"npoints": 2000}

    def test_values_come_out_typed(self):
        cfg = parse_config({"contour": {"npoints": 64.0, "halfwidth": 8}})
        assert type(cfg["contour"]["npoints"]) is int
        assert type(cfg["contour"]["halfwidth"]) is float

    def test_fmt_caps_significant_digits(self):
        assert fmt(1.0) == "1"
        assert fmt(0.1 + 0.2) == "0.3"
        assert fnum(0.1 + 0.2) == 0.3
        assert fmt(3) == "3"


def valid_value(section, key, default):
    """Values parse_config accepts for one numeric field."""
    if type(default) is float:
        if key == "lo":                 # the lowest coupling of a scan
            return st.floats(0.0, 1e6, exclude_min=True)
        return st.floats(0.0 if section == "tolerances" else -1e6, 1e6)
    lo = {"count": 1, "steps": 2, "levels": 2, "index": 0}.get(key)
    ints = (st.sampled_from([1, -1]) if key == "qparity"
            else st.integers(min_value=lo, max_value=10 ** 6))
    return st.one_of(ints, ints.map(float))   # an integral float is an int


@st.composite
def valid_docs(draw):
    """A config document: any subset of sections and keys, for either
    model kind."""
    kind = draw(st.sampled_from(sorted(MODEL_KEYS)))
    doc = {}
    for name, defaults in DEFAULTS.items():
        keys = MODEL_KEYS[kind].get(name, list(defaults))
        body = {key: draw(valid_value(name, key, defaults[key]))
                for key in keys if key != "kind" and draw(st.booleans())}
        if name == "model" and (kind != "ptho" or draw(st.booleans())):
            body["kind"] = kind
        if body or draw(st.booleans()):
            doc[name] = body
    scan = doc.get("scan", {})
    lo, hi = scan.get("lo", 0.5), scan.get("hi", 2.5)
    if lo >= hi:
        scan["hi"] = lo + 1.0
    # the scan table holds steps * levels <= MAX_ROWS rows
    steps, levels = (scan.get(key, DEFAULTS["scan"][key])
                     for key in ("steps", "levels"))
    if steps * levels > MAX_ROWS:
        scan["levels"] = min(levels, MAX_ROWS // 2)
        scan["steps"] = MAX_ROWS // scan["levels"]
    # verify.count and scan.levels may not exceed contour.npoints, and
    # wavefunction.index lies below it
    need = max(doc.get(name, {}).get(key, DEFAULTS[name][key]) + above
               for name, key, above in (("verify", "count", 0),
                                        ("scan", "levels", 0),
                                        ("wavefunction", "index", 1)))
    contour = doc.get("contour", {})
    if contour.get("npoints", DEFAULTS["contour"]["npoints"]) < need:
        doc["contour"] = dict(contour, npoints=need)
    return doc


class TestConfigProperties:
    """parse_config over documents drawn from the schema; no solves."""

    @given(valid_docs())
    def test_valid_documents_round_trip(self, doc):
        cfg = parse_config(doc)
        assert parse_config(cfg) == cfg

    @given(valid_docs(), st.data())
    def test_one_bad_value_is_rejected(self, doc, data):
        kind = doc.get("model", {}).get("kind", "ptho")
        section = data.draw(st.sampled_from(sorted(DEFAULTS)))
        keys = MODEL_KEYS[kind].get(section, DEFAULTS[section])
        key = data.draw(st.sampled_from(sorted(keys)))
        bad = [math.nan, math.inf, -math.inf, "2.5", True, False]
        if type(DEFAULTS[section][key]) is int:
            bad.append(data.draw(st.floats(0.01, 0.99)) + 3)
        doc.setdefault(section, {})[key] = data.draw(st.sampled_from(bad))
        with pytest.raises(ConfigError):
            parse_config(doc)


class TestExitCodes:
    def test_malformed_config_exits_2_without_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out_file = tmp_path / "out.csv"
        code = main(["spectrum", "--config", str(bad),
                     "--out", str(out_file)])
        assert code == EXIT_CONFIG
        assert not out_file.exists()
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": {"kind": "ptho",
                                                "coupling": 2.0}})
        assert main(["spectrum", "--config", cfg]) == EXIT_CONFIG
        capsys.readouterr()

    def test_unknown_model_kind_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": {"kind": "radial"}})
        assert main(["spectrum", "--config", cfg]) == EXIT_CONFIG
        capsys.readouterr()

    def test_unsupported_angular_regime_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"kind": "angular", "ell": 1.0, "shift": 0.1,
                      "lambda": 0.5},
            "contour": {"npoints": 64},
        })
        assert main(["wavefunction", "--config", cfg]) == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize("model", [{"ell": 1.5},
                                       {"ell": 1.0, "lambda": 0.5}])
    def test_verify_without_closed_form_exits_2_before_numerics(
            self, tmp_path, capsys, monkeypatch, model):
        def never(*args, **kwargs):
            raise AssertionError("solve_lowest ran")
        monkeypatch.setattr(ptspec.cli, "solve_lowest", never)
        cfg = write_config(tmp_path, {
            "model": {"kind": "angular", "shift": 0.1, **model},
            "contour": {"npoints": 64}})
        code = main(["verify", "--config", cfg])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and captured.out == ""
        assert "closed forms require" in captured.err

    @pytest.mark.parametrize("section,key", FIELDS[int])
    def test_non_integer_field_exits_2(self, tmp_path, capsys, section, key):
        doc = doc_with(section, key, 100.7)
        code, out = run(["verify", "--config", write_config(tmp_path, doc)],
                        capsys)
        assert code == EXIT_CONFIG and out == ""

    @pytest.mark.parametrize("count", [0, -1])
    def test_vacuous_verify_exits_2(self, tmp_path, capsys, count):
        cfg = write_config(tmp_path, dict(SMALL_PTHO, verify={"count": count}))
        code, out = run(["verify", "--config", cfg], capsys)
        assert code == EXIT_CONFIG and out == ""

    @pytest.mark.parametrize("section,key", FIELDS[float])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("command",
                             ["spectrum", "wavefunction", "verify", "scan"])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, command, bad,
                                      section, key):
        doc = doc_with(section, key, bad)
        code, out = run([command, "--config", write_config(tmp_path, doc)],
                        capsys)
        assert code == EXIT_CONFIG and out == ""

    @pytest.mark.parametrize("section,key", FIELDS[int] + FIELDS[float])
    @pytest.mark.parametrize("bad", ["2.5", True])
    def test_non_number_exits_2(self, tmp_path, capsys, bad, section, key):
        doc = doc_with(section, key, bad)
        code, out = run(["verify", "--config", write_config(tmp_path, doc)],
                        capsys)
        assert code == EXIT_CONFIG and out == ""

    @pytest.mark.parametrize("command,doc", [
        ("scan", dict(SMALL_PTHO, scan={"lo": 2.0, "hi": 1.0})),
        ("scan", dict(SMALL_PTHO, scan={"lo": 1.0, "hi": 1.0})),
        ("scan", dict(SMALL_PTHO, scan={"levels": 0})),
        ("scan", dict(SMALL_PTHO, scan={"steps": 1})),
        ("scan", dict(SMALL_PTHO, scan={"steps": 10 ** 11})),
        ("scan", dict(SMALL_PTHO, scan={"lo": -1.0, "hi": 0.5, "steps": 3,
                                        "levels": 2})),
        ("scan", dict(SMALL_PTHO, scan={"lo": 0.0})),
        ("verify", dict(SMALL_PTHO, tolerances={"match": -1.0})),
        ("verify", dict(SMALL_PTHO, tolerances={"reality": -1e-9})),
        ("spectrum", dict(SMALL_PTHO, tolerances={"spurious_factor": 0.5})),
        ("wavefunction", dict(SMALL_PTHO, wavefunction={"index": -1})),
        ("wavefunction", dict(SMALL_PTHO, wavefunction={"qparity": 0})),
        ("wavefunction", {"model": {"kind": "ptho", "ell": 7.0},
                          "contour": {"npoints": 64}}),
        ("wavefunction", {"model": {"kind": "angular", "alpha": 7.0},
                          "contour": {"npoints": 64}}),
        ("wavefunction", {"model": {"kind": "angular"},
                          "contour": {"halfwidth": -3.0}}),
        ("spectrum", {"model": {"kind": 1}}),
        ("verify", {"model": {"alpha": 0.5, "shift": -1.0}}),
        ("scan", {"contour": {"npoints": 40}, "scan": {"levels": 60}}),
        ("verify", {"contour": {"npoints": 40}, "verify": {"count": 41}}),
        ("verify", {"model": {"kind": "angular"}, "contour": {"npoints": 16},
                    "verify": {"count": 17}}),
        ("wavefunction", {"contour": {"npoints": 64},
                          "wavefunction": {"index": 64}}),
    ], ids=["lo-above-hi", "lo-equals-hi", "levels-0", "steps-1",
            "steps-oversize", "lo-negative", "lo-zero",
            "match-negative", "reality-negative", "spurious-factor-unknown",
            "index-negative", "qparity-0", "ptho-with-ell",
            "angular-with-alpha", "angular-with-halfwidth",
            "kind-not-a-string", "shift-negative-at-half-alpha",
            "levels-above-npoints", "count-above-npoints",
            "count-above-npoints-angular", "index-at-npoints"])
    def test_out_of_range_exits_2(self, tmp_path, capsys, command, doc):
        code, out = run([command, "--config", write_config(tmp_path, doc)],
                        capsys)
        assert code == EXIT_CONFIG and out == ""

    def test_non_finite_flag_exits_2(self, tmp_path, capsys):
        # NaN is a JSON literal that json.load accepts
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"contour": {"npoints": 64},'
                       ' "tolerances": {"match": NaN}}')
        code, out = run(["verify", "--config", str(cfg)], capsys)
        assert code == EXIT_CONFIG and out == ""

    def test_oversize_grid_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(SMALL_PTHO,
                                          contour={"npoints": 5000}))
        for command in ("spectrum", "verify", "scan"):
            code, out = run([command, "--config", cfg], capsys)
            assert (command, code, out) == (command, EXIT_CONFIG, "")

    def test_oversize_wavefunction_grid_exits_2_before_allocation(
            self, tmp_path, capsys, monkeypatch):
        sizes = []

        def small_grid(g):
            sizes.append(g.npoints)
            return np.linspace(-1.0, 1.0, 5)
        monkeypatch.setattr(ptspec.cli, "grid_points", small_grid)
        for npoints, expected in [(MAX_ROWS + 1, EXIT_CONFIG),
                                  (MAX_ROWS, EXIT_OK)]:
            cfg = write_config(tmp_path, dict(SMALL_PTHO,
                                              contour={"npoints": npoints}))
            code, out = run(["wavefunction", "--config", cfg], capsys)
            assert code == expected and (out == "") == (code == EXIT_CONFIG)
        assert sizes == [MAX_ROWS]       # the rejected grid was never built

    def test_oversize_scan_table_exits_2_before_the_sweep(
            self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("scan_parameter ran")
        monkeypatch.setattr(ptspec.cli, "scan_parameter", never)
        cfg = write_config(tmp_path, dict(
            SMALL_PTHO, scan={"steps": MAX_ROWS // 2 + 1, "levels": 2}))
        code, out = run(["scan", "--config", cfg], capsys)
        assert code == EXIT_CONFIG and out == ""
        # a table of exactly MAX_ROWS rows is accepted
        parse_config({"scan": {"steps": MAX_ROWS // 4, "levels": 4}})

    @pytest.mark.parametrize("command,work", [("verify", "solve_lowest"),
                                              ("wavefunction", "grid_points")])
    @pytest.mark.parametrize("target", [
        "missing-directory", "directory", "read-only-file",
        "dangling-symlink",
        pytest.param("chmod-read-only-file", marks=pytest.mark.skipif(
            os.geteuid() == 0, reason="permission bits do not bind root"))])
    def test_unwritable_out_exits_2_before_numerics(
            self, tmp_path, capsys, monkeypatch, command, work, target):
        def never(*args, **kwargs):
            raise AssertionError(f"{work} ran")
        monkeypatch.setattr(ptspec.cli, work, never)
        cfg = write_config(tmp_path, SMALL_PTHO)
        out = {"missing-directory": tmp_path / "missing" / "x.csv",
               "directory": tmp_path}.get(target, tmp_path / "old.csv")
        if target == "read-only-file":
            out.write_text("old\n")
            deny_write(monkeypatch, out)
        elif target == "chmod-read-only-file":
            out.write_text("old\n")
            out.chmod(0o444)
        elif target == "dangling-symlink":
            out.symlink_to(tmp_path / "missing" / "x.csv")
        before = sorted(tmp_path.rglob("*"))
        code = main([command, "--config", cfg, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and captured.out == ""
        assert "configuration error" in captured.err
        assert sorted(tmp_path.rglob("*")) == before
        if target.endswith("read-only-file"):
            assert out.read_text() == "old\n"

    def test_writable_file_in_read_only_directory(self, tmp_path, capsys,
                                                  monkeypatch):
        # an existing file is rewritten in place: only its own permission
        # counts, not its directory's
        out = tmp_path / "wf.csv"
        out.write_text("old\n")
        deny_write(monkeypatch, tmp_path)
        cfg = write_config(tmp_path, SMALL_PTHO)
        code, text = run(["wavefunction", "--config", cfg, "--out", str(out)],
                         capsys)
        assert code == EXIT_OK and text == ""
        assert out.read_text().startswith("t,re_psi")

    def test_out_file_in_working_directory(self, tmp_path, capsys,
                                           monkeypatch):
        # a bare file name has the working directory as its parent
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, SMALL_PTHO)
        code, out = run(["wavefunction", "--config", cfg, "--out", "wf.csv"],
                        capsys)
        assert code == EXIT_OK and out == ""
        assert (tmp_path / "wf.csv").read_text().startswith("t,re_psi")

    # any ArithmeticError, not only numpy's FloatingPointError
    @pytest.mark.parametrize("error", [DomainError, OverflowError,
                                       ZeroDivisionError],
                             ids=lambda error: error.__name__)
    def test_solver_error_exits_3(self, tmp_path, capsys, monkeypatch,
                                  error):
        def fail(*args, **kwargs):
            raise error("outside the domain")
        monkeypatch.setattr(ptspec.cli, "solve_spectrum", fail)
        cfg = write_config(tmp_path, SMALL_PTHO)
        code = main(["spectrum", "--config", cfg])
        captured = capsys.readouterr()
        assert code == EXIT_SOLVER and captured.out == ""
        assert captured.err == "ptspec: solver failed: outside the domain\n"

    # each error line names what overflowed
    @pytest.mark.parametrize("command,doc,what", [
        # the grid step's square overflows, or underflows to 0
        ("verify", {"contour": {"halfwidth": 1e300, "npoints": 64}},
         "grid step"),
        ("spectrum", {"contour": {"halfwidth": 1e300, "npoints": 64}},
         "grid step"),
        ("verify", {"contour": {"halfwidth": 1e-300, "npoints": 64}},
         "grid step"),
        # the coupling's square, and the angular closed form
        ("verify", {"model": {"alpha": 1e300}, "contour": {"npoints": 64}},
         "potential"),
        ("verify", {"model": {"kind": "angular", "ell": 1e300},
                    "contour": {"npoints": 64}}, "closed-form level"),
        # a potential that is not finite: -inf + finite i, inf, nan
        ("verify", {"model": {"shift": 1e300}, "contour": {"npoints": 64}},
         "potential"),
        ("spectrum", {"model": {"shift": 1e300},
                      "contour": {"npoints": 64}}, "potential"),
        ("spectrum", {"model": {"kind": "angular", "ell": 1e300},
                      "contour": {"npoints": 64}}, "potential"),
        ("spectrum", {"model": {"kind": "angular", "shift": 1e300},
                      "contour": {"npoints": 64}}, "potential")],
        ids=["verify-halfwidth-1e300", "spectrum-halfwidth-1e300",
             "verify-halfwidth-1e-300", "verify-alpha-1e300",
             "verify-ell-1e300", "verify-shift-1e300",
             "spectrum-shift-1e300", "spectrum-ell-1e300",
             "spectrum-angular-shift-1e300"])
    def test_overflowing_config_exits_without_traceback(self, tmp_path,
                                                        capfd, command, doc,
                                                        what):
        # a numpy warning, which would print to stderr, fails the call;
        # LAPACK prints its argument errors with C stdio to file
        # descriptor 1, so capfd reads that once C's buffers are flushed
        cfg = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", cfg])
        ctypes.CDLL(None).fflush(None)
        captured = capfd.readouterr()
        assert code in (EXIT_CONFIG, EXIT_SOLVER), captured.err
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ptspec: "), lines
        assert what in lines[0], lines

    def test_config_file_is_the_only_input(self):
        options = {opt for action in build_parser()._actions
                   for opt in action.option_strings}
        assert options == {"-h", "--help", "--version", "--config", "--out",
                           "--format"}

    def test_coarse_verify_fails_with_exit_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"kind": "ptho", "alpha": 1.5, "shift": 1.0},
            "contour": {"npoints": 32, "halfwidth": 12.0},
            "verify": {"count": 8},
        })
        code, out = run(["verify", "--config", cfg], capsys)
        assert code == EXIT_VERIFY_FAIL
        assert "# FAIL" in out


class TestSpectrumCommand:
    def test_lowest_levels_and_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_PTHO)
        code1, out1 = run(["spectrum", "--config", cfg], capsys)
        code2, out2 = run(["spectrum", "--config", cfg], capsys)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2                       # byte-identical reruns
        rows = [line.split(",") for line in out1.strip().splitlines()[1:]
                if not line.startswith("#")]
        real = sorted(float(r[1]) for r in rows if r[3] == "real")
        assert real[0] == pytest.approx(1.0, abs=0.02)
        assert real[1] == pytest.approx(3.0, abs=0.02)
        assert real[2] == pytest.approx(5.0, abs=0.05)

    def test_csv_json_payload_parity(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_PTHO)
        _, csv_out = run(["spectrum", "--config", cfg], capsys)
        _, json_out = run(["spectrum", "--config", cfg, "--format", "json"],
                          capsys)
        doc = json.loads(json_out)
        csv_rows = [line.split(",") for line in csv_out.strip().splitlines()
                    if not line.startswith("#")][1:]
        assert len(csv_rows) == len(doc["rows"])
        for crow, jrow in zip(csv_rows, doc["rows"]):
            for cval, jval in zip(crow, jrow):
                if isinstance(jval, str):
                    assert cval == jval
                else:
                    assert float(cval) == jval    # identical 12-digit payload

    def test_out_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_PTHO)
        out_file = tmp_path / "levels.csv"
        code, out = run(["spectrum", "--config", cfg,
                         "--out", str(out_file)], capsys)
        assert code == EXIT_OK and out == ""
        assert out_file.read_text().startswith("index,re_e,im_e,class")


class TestVerifyCommand:
    def test_pass_exit_0(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"kind": "ptho", "alpha": 1.5, "shift": 1.0},
            "contour": {"npoints": 500, "halfwidth": 12.0},
            "tolerances": {"match": 0.05},
            "verify": {"count": 4},
        })
        code, out = run(["verify", "--config", cfg], capsys)
        assert code == EXIT_OK
        assert "# PASS" in out

    @pytest.mark.parametrize("doc,rows,code,short", [
        ({"contour": {"npoints": 500}, "verify": {"count": 4},
          "tolerances": {"match": 0.05}}, 4, EXIT_OK, False),
        ({"contour": {"npoints": 500}, "verify": {"count": 4},
          "tolerances": {"match": 1e-6}}, 4, EXIT_VERIFY_FAIL, False),
        ({"contour": {"npoints": 52}}, 5, EXIT_VERIFY_FAIL, True),
        ({"contour": {"npoints": 16}}, 0, EXIT_VERIFY_FAIL, True),
    ], ids=["pass", "fail", "partly-short", "empty"])
    def test_rows_follow_the_per_level_formulas(self, tmp_path, capsys, doc,
                                                rows, code, short):
        # default model: alpha = 3/2, closed form E = 4n + 2 -+ 3
        cfg = write_config(tmp_path, doc)
        count = doc.get("verify", {}).get("count", 8)
        got, out = run(["verify", "--config", cfg, "--format", "json"],
                       capsys)
        table = json.loads(out)
        assert got == code and table["passed"] == (code == EXIT_OK)
        assert len(table["rows"]) == rows
        closed = sorted(4 * n + 2 + s * 3.0 for n in range(count)
                        for s in (-1, 1))
        for i, (index, num, ana, abs_err, rel_err) in enumerate(
                table["rows"]):
            assert (index, ana) == (i, closed[i])
            # cells carry 12 significant digits
            assert abs_err == pytest.approx(abs(num - ana), abs=1e-9)
            assert rel_err == pytest.approx(abs_err / max(1.0, abs(ana)),
                                            rel=1e-10)
        got, out = run(["verify", "--config", cfg], capsys)
        comments = [line for line in out.splitlines()
                    if line.startswith("#")]
        verdict = "# PASS" if code == EXIT_OK else "# FAIL"
        if rows:
            worst = max(row[-1] for row in table["rows"])
            verdict += f" worst_rel_err={fmt(worst)}"
        expected = [f"# insufficient real levels ({rows} < {count})"] * short
        assert got == code and comments == expected + [verdict]

    @staticmethod
    def verify_levels(model, count):
        """The closed-form levels verify matches against."""
        return (ptho_levels if isinstance(model, PthoParams)
                else termination_levels)(model, count)

    @pytest.mark.parametrize("model", [
        PthoParams(0.35, 1.0), PthoParams(2.55, 1.0), PthoParams(7.5, 1.0),
        AngularParams(ell=0.0, eps=0.1), AngularParams(ell=1.0, eps=0.1),
        AngularParams(ell=2.0, eps=0.1), AngularParams(ell=5.0, eps=0.1),
        AngularParams(ell=12.0, eps=0.1)])
    @pytest.mark.parametrize("count", [0, 1, 3, 8])
    def test_analytic_levels_hold_the_lowest(self, model, count):
        # the lowest energies of both whole ladders, taken deep enough
        depth = count + int(model.alpha) + 2
        energy = (ptho_energy if isinstance(model, PthoParams)
                  else angular_energy)
        lowest = np.sort([energy(n, s, model) for n in range(depth + 1)
                          for s in (-1, +1)])[:count]
        got = self.verify_levels(model, count)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.shape == (count,)
        assert got.tolist() == lowest.tolist()

    @pytest.mark.parametrize("model,lowest", [
        (PthoParams(1e9, 1.0), [4.0 * n + 2.0 - 2e9 for n in range(8)]),
        (AngularParams(ell=1e9, eps=0.1), [0, 1, 1, 4, 4, 9, 9, 16])])
    def test_analytic_levels_do_not_grow_with_the_coupling(self, model,
                                                           lowest):
        # enumerating every index up to alpha would take hours at 1e9
        start = time.perf_counter()
        levels = self.verify_levels(model, 8)
        assert time.perf_counter() - start < 1.0
        assert levels.tolist() == lowest


class TestVerifyWindow:
    def test_default_config_passes_reproducibly(self, tmp_path, capsys):
        # the default run (oscillator, N=2000) is a certified window solve
        cfg = write_config(tmp_path, {})
        code1, out1 = run(["verify", "--config", cfg], capsys)
        code2, out2 = run(["verify", "--config", cfg], capsys)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2 and "# PASS" in out1

    @pytest.mark.parametrize("ell,reality,expected", [
        (1.0, 1e-4, EXIT_OK), (2.0, 1e-4, EXIT_OK),
        (1.0, 1e-7, EXIT_OK), (2.0, 1e-7, EXIT_VERIFY_FAIL)])
    def test_angular_exit_codes(self, tmp_path, capsys, ell, reality,
                                expected):
        # at the default reality tolerance the ell = 2 doublet at E = 1
        # is split into a narrow conjugate pair, as in the dense solve
        cfg = write_config(tmp_path, {
            "model": {"kind": "angular", "ell": ell, "shift": 0.1},
            "contour": {"npoints": 512},
            "tolerances": {"match": 5e-3, "reality": reality}})
        code, out = run(["verify", "--config", cfg], capsys)
        assert code == expected
        assert ("# PASS" in out) == (expected == EXIT_OK)


def text_rendering(payload, columns, table, comments, outfmt):
    """The whole output text, built row by row in memory and written at
    once: the byte oracle for the column-wise renderer."""
    rows = list(zip(*table))
    if outfmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(
                x if isinstance(x, str) else str(x)
                if isinstance(x, np.integer) else fmt(x) for x in row))
        lines.extend(comments)
        return "\n".join(lines) + "\n"
    payload["columns"] = columns
    payload["rows"] = [[x if isinstance(x, str) else int(x)
                        if isinstance(x, np.integer) else fnum(x)
                        for x in row] for row in rows]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def rendered(payload, columns, table, comments, outfmt, tmp_path):
    """What _render writes to stdout and to a file, as two strings."""
    out_file = tmp_path / f"table.{outfmt}"
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        _render(payload, columns, table, comments, None, outfmt)
    _render(payload, columns, table, comments, str(out_file), outfmt)
    return buffer.getvalue(), out_file.read_text()


PAYLOAD = {"format_version": 1, "command": "spectrum",
           "config": {"contour": {"npoints": 16}}, "passed": False}

# floats where the two renderings can go wrong: non-finite values, signed
# zeros, subnormals, integers where %g and repr switch to exponent notation
# at different magnitudes, values near %g's 1e-5 switch, and values at the
# bounds of the cells the JSON renderer re-spells
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                     -2.5e-320, 2.2250738585072014e-308, 1e-5,
                     9.99999999999e-6, 1e11, 1e12, 1e15, 1e16, 1e17,
                     123456789012.5, 0.99999999999995, 123456.00000000001,
                     99999999999.5, -1e11, 1e-98, 9.999999999995e-99]),
    st.integers(10 ** 11, 10 ** 17).map(float),
    st.floats(9e-6, 1.1e-5), st.floats(-1.1e-5, -9e-6))
# strings that need JSON escapes (quotes, backslashes, controls,
# non-ASCII), and strings with %, which a %-format template must not read
TEXT = st.text(st.sampled_from('ab"\\\n\t\x00\x1f\u00e9\u2028\U0001f600%s'),
               max_size=6)
COLUMN_KINDS = {
    "int": lambda n: st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                              min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.int64)),
    "float": lambda n: st.lists(FLOATS, min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=float)),
    # object dtype: a numpy string dtype drops trailing NULs
    "str": lambda n: st.lists(TEXT, min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=object)),
}


@st.composite
def tables(draw, block):
    """A table of 1-4 columns of mixed kinds whose row count is drawn
    around the block boundaries."""
    nrows = draw(st.sampled_from([0, 1, block - 1, block, block + 1,
                                  2 * block + 1]) | st.integers(0, 20))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1,
                          max_size=4))
    return [draw(COLUMN_KINDS[kind](nrows)) for kind in kinds]


# sweep points 0.55, 1.025, 1.5, 1.975, 2.45
SMALL_SCAN = {"model": {"kind": "ptho", "alpha": 1.5, "shift": 0.8},
              "contour": {"npoints": 100, "halfwidth": 8.0},
              "scan": {"lo": 0.55, "hi": 2.45, "steps": 5, "levels": 4}}

# the default wavefunction on a wide grid: psi decays through the
# subnormal range to zero towards the ends of the grid
WIDE_WAVEFUNCTION = {"contour": {"npoints": 4001, "halfwidth": 40.0}}

# no real level survives on 16 points: an empty table, exit 4
EMPTY_VERIFY = {"model": {"kind": "ptho", "alpha": 1.5, "shift": 1.0},
                "contour": {"npoints": 16, "halfwidth": 12.0}}

# one CLI run per command, a verify run whose table is empty, and a
# wavefunction with subnormal and zero cells
RENDER_CASES = [
    ("wavefunction", {"model": {"kind": "ptho", "alpha": 1.3, "shift": 1.0},
                      "contour": {"npoints": 2001, "halfwidth": 8.0},
                      "wavefunction": {"index": 2, "qparity": -1}}),
    ("scan", SMALL_SCAN),
    # a string column (class) beside int and float columns
    ("spectrum", SMALL_PTHO),
    ("verify", {"model": {"kind": "ptho", "alpha": 1.5, "shift": 1.0},
                "contour": {"npoints": 500, "halfwidth": 12.0},
                "tolerances": {"match": 0.05}, "verify": {"count": 4}}),
    ("verify", EMPTY_VERIFY),
    ("wavefunction", WIDE_WAVEFUNCTION),
]


class TestRendering:
    @pytest.mark.parametrize("command,doc", RENDER_CASES)
    @pytest.mark.parametrize("outfmt", ["csv", "json"])
    def test_streamed_output_matches_text_rendering(
            self, tmp_path, capsys, monkeypatch, command, doc, outfmt):
        expected = []
        streamed = ptspec.cli._render

        def render(payload, columns, table, comments, out, fmt_):
            expected.append(text_rendering(copy.deepcopy(payload), columns,
                                           table, comments, fmt_))
            streamed(payload, columns, table, comments, out, fmt_)
        monkeypatch.setattr(ptspec.cli, "_render", render)
        cfg = write_config(tmp_path, doc)
        out_file = tmp_path / "out.txt"
        code, out = run([command, "--config", cfg, "--format", outfmt],
                        capsys)
        assert code in (EXIT_OK, EXIT_VERIFY_FAIL)
        assert main([command, "--config", cfg, "--format", outfmt,
                     "--out", str(out_file)]) == code
        assert expected[0] == expected[1]
        assert out == expected[0]
        assert out_file.read_bytes() == expected[0].encode()

    def test_empty_verify_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EMPTY_VERIFY)
        code, out = run(["verify", "--config", cfg], capsys)
        assert code == EXIT_VERIFY_FAIL
        assert out == ("index,numeric,analytic,abs_err,rel_err\n"
                       "# insufficient real levels (0 < 8)\n# FAIL\n")
        code, out = run(["verify", "--config", cfg, "--format", "json"],
                        capsys)
        doc = json.loads(out)
        assert (code, doc["rows"], doc["passed"]) == (EXIT_VERIFY_FAIL, [],
                                                      False)

    @pytest.mark.parametrize("nrows", [0, 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    @pytest.mark.parametrize("outfmt", ["csv", "json"])
    def test_block_boundaries(self, tmp_path, nrows, outfmt):
        values = np.linspace(-3.0, 3.0, nrows) ** 7
        table = [np.arange(nrows), values,
                 np.array(["real", "pair"] * (nrows // 2)
                          + ["real"] * (nrows % 2), dtype=str)]
        expected = text_rendering(copy.deepcopy(PAYLOAD), ["i", "x", "c"],
                                  table, ["# done"], outfmt)
        assert rendered(PAYLOAD, ["i", "x", "c"], table, ["# done"], outfmt,
                        tmp_path) == (expected, expected)

    @pytest.mark.parametrize("block", [1, 2, 3, BLOCK_ROWS])
    @pytest.mark.parametrize("outfmt", ["csv", "json"])
    def test_percent_strings_and_respelled_cells(self, tmp_path, block,
                                                 outfmt):
        # string cells that read as format directives; a float column
        # whose every cell the JSON renderer re-spells (zeros, integers,
        # values outside [1e-98, 1e11)); rows with one, two and three
        # re-spelled cells
        table = [
            np.array(["%s", "%%", "100%", "%d%", "%(x)s", "%.12g"]),
            np.array([0.0, -0.0, 3.0, -7.0, 1e12, 5e-324]),
            np.array([1.0, 2.5, -0.0, 1e20, 0.125, math.nan]),
            np.array([-math.inf, 0.5, 4.0, 1e-5, 2.0, 0.0]),
            np.arange(6) - 3]
        columns = ["s", "all", "some", "more", "i"]
        expected = text_rendering(copy.deepcopy(PAYLOAD), columns, table,
                                  ["# 100%"], outfmt)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ptspec.cli, "BLOCK_ROWS", block)
            assert rendered(PAYLOAD, columns, table, ["# 100%"], outfmt,
                            tmp_path) == (expected, expected)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(block=st.integers(1, 4), data=st.data(),
           outfmt=st.sampled_from(["csv", "json"]),
           comments=st.lists(st.just("# note"), max_size=2))
    def test_matches_text_rendering(self, tmp_path, block, data, outfmt,
                                    comments):
        table = data.draw(tables(block))
        columns = [f"c{i}" for i in range(len(table))]
        expected = text_rendering(copy.deepcopy(PAYLOAD), columns, table,
                                  comments, outfmt)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ptspec.cli, "BLOCK_ROWS", block)
            assert rendered(PAYLOAD, columns, table, comments, outfmt,
                            tmp_path) == (expected, expected)


def json_spelling(x):
    """The JSON token of float x: the repr of the float its CSV cell reads
    as, or the JSON name of a non-finite value."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return repr(float("%.12g" % x))


def json_tokens(values):
    """The JSON tokens the renderer writes for a float column."""
    buffer = io.StringIO()
    _write_rows(buffer, [np.array(values, dtype=float)], "json", ",", ",")
    return buffer.getvalue().split(",")


# (value, JSON token) where a spelling shortcut can go wrong: subnormals,
# whose 12-digit cell is not their shortest repr; three- and two-digit
# negative exponents; %g's 1e-5 switch; integer-like cells, which need
# ".0"; the 1e12 to 1e16 range, where %g writes an exponent and repr does
# not; and the non-finite values
EDGE_TOKENS = [
    (5e-324, "5e-324"), (-2.5e-320, "-2.5e-320"), (1e-310, "1e-310"),
    (2.2250738585072014e-308, "2.22507385851e-308"), (1e-100, "1e-100"),
    (1e-99, "1e-99"), (9.99999999999e-6, "9.99999999999e-06"),
    (1e-5, "1e-05"), (0.0, "0.0"), (-0.0, "-0.0"), (1.0, "1.0"),
    (999999999999.5, "1000000000000.0"), (1e12, "1000000000000.0"),
    (1.5e15, "1500000000000000.0"), (9.9999999999995e15, "1e+16"),
    (1e16, "1e+16"), (1e300, "1e+300"), (math.nan, "NaN"),
    (math.inf, "Infinity"), (-math.inf, "-Infinity"),
    # the bounds of the re-spelled cells: within 1e-10 |x| of an integer,
    # |x| >= 1e11 and |x| < 1e-98
    (0.99999999999995, "1.0"), (123456.00000000001, "123456.0"),
    (99999999999.5, "99999999999.5"), (-1e11, "-100000000000.0"),
    (1e-98, "1e-98"), (9.999999999995e-99, "9.99999999999e-99")]


class TestJsonFloatTokens:
    @settings(max_examples=2000, deadline=None)
    @given(x=st.floats())
    def test_token_is_repr_of_the_csv_cell(self, x):
        assert _json_float("%.12g" % x) == json_spelling(x)
        assert json_tokens([x]) == [json_spelling(x)]

    @pytest.mark.parametrize("x,token", EDGE_TOKENS)
    def test_edge_values(self, x, token):
        assert json_spelling(x) == token
        assert _json_float("%.12g" % x) == token
        assert json_tokens([x]) == [token]

    def test_wide_wavefunction_has_subnormal_and_zero_cells(self, tmp_path,
                                                            capsys):
        cfg = write_config(tmp_path, WIDE_WAVEFUNCTION)
        code, out = run(["wavefunction", "--config", cfg], capsys)
        cells = [c for line in out.splitlines()[1:] for c in line.split(",")]
        assert code == EXIT_OK and len(cells) == 3 * 4001
        assert any(0 < abs(float(c)) < sys.float_info.min for c in cells)
        assert "0" in cells


class TestScanCommand:
    @pytest.mark.parametrize("exc,error", [
        (ZeroDivisionError(), "ZeroDivisionError"),
        (RuntimeError("boom"), "RuntimeError: boom")])
    def test_failed_point_names_exception_type(self, tmp_path, capsys,
                                               monkeypatch, exc, error):
        numeric_family = ptspec.cli.ptho_numeric_family

        def failing_family(*args):
            family = numeric_family(*args)

            def evaluate(alpha):
                if alpha == 1.5:
                    raise exc
                return family(alpha)
            return evaluate
        monkeypatch.setattr(ptspec.cli, "ptho_numeric_family",
                            failing_family)
        cfg = write_config(tmp_path, SMALL_SCAN)
        code, out = run(["scan", "--config", cfg], capsys)
        assert code == EXIT_OK
        assert f"# failed param=1.5: {error}" in out.splitlines()
        code, out = run(["scan", "--config", cfg, "--format", "json"], capsys)
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["failures"] == [{"param": 1.5, "error": error}]
        assert 1.5 not in {row[0] for row in doc["rows"]}

    def test_every_point_failing_exits_3_without_a_table(self, tmp_path,
                                                         capsys):
        # the potential is -inf + finite i at every sweep point
        cfg = write_config(tmp_path, {"model": {"shift": 1e300},
                                      "contour": {"npoints": 64},
                                      "scan": {"steps": 3}})
        out = tmp_path / "scan.csv"
        for args in ([], ["--out", str(out)]):
            code = main(["scan", "--config", cfg, *args])
            captured = capsys.readouterr()
            assert code == EXIT_SOLVER and captured.out == ""
            assert captured.err == (
                "ptspec: solver failed: all 3 sweep points failed, the first"
                " at param=0.5: ValueError: potential is not finite at 64 of"
                " 64 grid points\n")
        assert not out.exists()

    def test_some_points_failing_exit_0_with_a_table(self, tmp_path, capsys,
                                                     monkeypatch):
        numeric_family = ptspec.cli.ptho_numeric_family

        def failing_family(*args):
            family = numeric_family(*args)

            def evaluate(alpha):
                if alpha > 1.5:
                    raise RuntimeError("boom")
                return family(alpha)
            return evaluate
        monkeypatch.setattr(ptspec.cli, "ptho_numeric_family",
                            failing_family)
        cfg = write_config(tmp_path, SMALL_SCAN)
        code, out = run(["scan", "--config", cfg], capsys)
        lines = out.splitlines()
        assert code == EXIT_OK
        assert {line.split(",")[0] for line in lines[1:13]} == {
            "0.55", "1.025", "1.5"}
        assert lines[-2:] == ["# failed param=1.975: RuntimeError: boom",
                              "# failed param=2.45: RuntimeError: boom"]

    def test_table_is_the_solved_rows_flattened(self, monkeypatch):
        # the first point raises and the fourth returns a NaN level: the
        # table holds the other three rows, each param once per level
        params = np.linspace(0.55, 2.45, 5)

        def family(model, g, levels):
            def evaluate(alpha):
                if alpha == params[0]:
                    raise RuntimeError("boom")
                values = alpha + np.arange(levels + 1) * (1 + 0.25j)
                if alpha == params[3]:
                    values[1] = math.nan
                return values
            return evaluate
        monkeypatch.setattr(ptspec.cli, "ptho_numeric_family", family)
        cfg = parse_config(SMALL_SCAN)
        columns, table, comments, _, code = cmd_scan(cfg, *build(cfg))
        evaluate = family(None, None, 4)
        expected = [(p, i, e.real, e.imag) for p in params[[1, 2, 4]].tolist()
                    for i, e in enumerate(evaluate(p)[:4])]
        assert code == EXIT_OK
        assert columns == ["param", "index", "re_e", "im_e"]
        assert [column.dtype.kind for column in table] == ["f", "i", "f", "f"]
        assert list(zip(*(column.tolist() for column in table))) == expected
        assert comments == [
            "# failed param=0.55: RuntimeError: boom",
            "# failed param=1.975: FloatingPointError: 1 of 5 family values"
            " are not finite"]


class TestWavefunctionCommand:
    @pytest.mark.parametrize("doc", [
        {"model": {"kind": "ptho", "alpha": 1.3, "shift": 1.0},
         "wavefunction": {"index": 2, "qparity": 1}},
        {"model": {"kind": "ptho", "alpha": 1.3, "shift": 1.0},
         "wavefunction": {"index": 2, "qparity": -1}},
        {"model": {"kind": "angular", "ell": 2.0, "shift": 0.2},
         "wavefunction": {"index": 3, "qparity": 1}},
        # the renormalized-Gegenbauer branch
        {"model": {"kind": "angular", "ell": 0.0, "shift": 0.2},
         "wavefunction": {"index": 1, "qparity": -1}}],
        ids=["ptho-q+1", "ptho-q-1", "angular-ell2", "angular-degenerate"])
    def test_blocks_match_one_whole_grid_call(self, doc):
        # two whole blocks and a one-point tail
        cfg = parse_config({**doc, "contour": {"npoints": 2 * BLOCK_ROWS + 1}})
        model, g = build(cfg)
        _, (t, re, im), *_ = cmd_wavefunction(cfg, model, g)
        wavefunction = (ptho_wavefunction if isinstance(model, PthoParams)
                        else angular_wavefunction)
        whole = wavefunction(cfg["wavefunction"]["index"],
                             cfg["wavefunction"]["qparity"], model, t)
        assert re.tobytes() == whole.real.tobytes()
        assert im.tobytes() == whole.imag.tobytes()

    @pytest.mark.parametrize("doc", [
        {"wavefunction": {"index": 3, "qparity": -1}},
        {"model": {"kind": "angular", "ell": 2.0, "shift": 0.2},
         "wavefunction": {"index": 3}}], ids=["ptho", "angular"])
    def test_working_set_is_psi_grid_and_one_block(self, doc):
        # psi (16 N bytes), the grid (8 N) and one block's temporaries;
        # evaluated on the whole grid at once, the recurrences held 6.5 to
        # 7.5 complex N-arrays
        n = 2 ** 18
        cfg = parse_config({**doc, "contour": {"npoints": n}})
        model, g = build(cfg)
        tracemalloc.start()
        try:
            cmd_wavefunction(cfg, model, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 16 * n, peak / (16 * n)

    @pytest.mark.parametrize("doc", [
        # the Laguerre recurrence overflows at index 400 on a wide grid
        {"contour": {"npoints": 401, "halfwidth": 40.0},
         "wavefunction": {"index": 400}},
        # and the Gegenbauer one far up the ladder of a strongly shifted
        # circle
        {"model": {"kind": "angular", "ell": 1.0, "shift": 3.0},
         "contour": {"npoints": 1024}, "wavefunction": {"index": 1000}}])
    def test_non_finite_wavefunction_exits_3(self, tmp_path, capsys, doc):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "wf.csv"
        for args in ([], ["--out", str(out)]):
            code = main(["wavefunction", "--config", cfg, *args])
            captured = capsys.readouterr()
            assert code == EXIT_SOLVER and captured.out == ""
            assert captured.err.count("\n") == 1
            assert "wavefunction is not finite" in captured.err
        assert not out.exists()

    def test_index_beyond_the_grid_exits_2_before_any_numerics(
            self, tmp_path, capsys, monkeypatch):
        # the recurrences would run 10^5 steps per block before failing
        def never(*args):
            raise AssertionError("wavefunction evaluated")
        monkeypatch.setattr(ptspec.cli, "ptho_wavefunction", never)
        cfg = write_config(tmp_path, {"contour": {"npoints": 64},
                                      "wavefunction": {"index": 100000}})
        code = main(["wavefunction", "--config", cfg])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and captured.out == ""
        assert captured.err == (
            "ptspec: configuration error: wavefunction.index must be below"
            " contour.npoints (64): the grid has no more levels\n")

    def test_pt_symmetric_profile(self, tmp_path, capsys):
        # n = 1, quasi-odd branch, alpha = 3/2: Re even, Im odd in t
        cfg = write_config(tmp_path, {
            "model": {"kind": "ptho", "alpha": 1.5, "shift": 1.0},
            "contour": {"npoints": 101, "halfwidth": 6.0},
            "wavefunction": {"index": 1, "qparity": 1},
        })
        code, out = run(["wavefunction", "--config", cfg], capsys)
        assert code == EXIT_OK
        rows = [list(map(float, line.split(",")))
                for line in out.strip().splitlines()[1:]]
        assert len(rows) == 101
        for (t, re, im), (tr, rer, imr) in zip(rows, rows[::-1]):
            assert tr == -t
            assert rer == pytest.approx(re, abs=1e-9)
            assert imr == pytest.approx(-im, abs=1e-9)
