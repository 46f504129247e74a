"""Command-line interface: determinism, format parity, exit codes,
configuration handling."""

import json
import math

import pytest

from ptspec.cli import (EXIT_CONFIG, EXIT_OK, EXIT_VERIFY_FAIL, RunConfig,
                        fmt, fnum, main)


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


SMALL_PTHO = {
    "model": {"kind": "ptho", "alpha": 0.5, "shift": 1.0},
    "contour": {"npoints": 200, "halfwidth": 10.0},
}


class TestConfig:
    def test_round_trip_is_lossless(self):
        doc = {
            "model": {"kind": "angular", "ell": 1.0, "shift": 0.1,
                      "lambda": 0.0, "alpha": 1.5},
            "contour": {"npoints": 64, "halfwidth": 12.0},
            "tolerances": {"reality": 1e-6, "spurious_factor": 0.4,
                           "crossing": 1e-3, "match": 1e-3},
            "scan": {"lo": 0.5, "hi": 2.5, "steps": 11, "levels": 4},
            "wavefunction": {"index": 2, "qparity": -1},
            "verify": {"count": 5},
        }
        cfg = RunConfig.from_dict(doc)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        assert cfg.to_dict() == doc

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"modle": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"model": {"kind": "ptho", "alfa": 2.0}})

    def test_defaults_fill_missing_sections(self):
        cfg = RunConfig.from_dict({})
        assert cfg.model["kind"] == "ptho"
        assert cfg.contour["npoints"] == 2000

    def test_fmt_caps_significant_digits(self):
        assert fmt(1.0) == "1"
        assert fmt(0.1 + 0.2) == "0.3"
        assert fnum(0.1 + 0.2) == 0.3
        assert fmt(3) == "3"


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

    @pytest.mark.parametrize("section,key", [
        ("contour", "npoints"), ("verify", "count"), ("scan", "steps"),
        ("scan", "levels"), ("wavefunction", "index"),
        ("wavefunction", "qparity")])
    def test_non_integer_field_exits_2(self, tmp_path, capsys, section, key):
        doc = dict(SMALL_PTHO)
        doc[section] = dict(doc.get(section, {}), **{key: 100.7})
        code, out = run(["verify", "--config", write_config(tmp_path, doc)],
                        capsys)
        assert code == EXIT_CONFIG and out == ""

    @pytest.mark.parametrize("count", [0, -1])
    def test_vacuous_verify_exits_2(self, tmp_path, capsys, count):
        cfg = write_config(tmp_path, dict(SMALL_PTHO, verify={"count": count}))
        code, out = run(["verify", "--config", cfg], capsys)
        assert code == EXIT_CONFIG and out == ""

    @pytest.mark.parametrize("section,key", [
        ("model", "alpha"), ("model", "shift"), ("contour", "halfwidth")])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("command", ["spectrum", "wavefunction"])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, command, bad,
                                      section, key):
        doc = {name: dict(body) for name, body in SMALL_PTHO.items()}
        doc[section][key] = bad
        code, out = run([command, "--config", write_config(tmp_path, doc)],
                        capsys)
        assert code == EXIT_CONFIG and out == ""

    def test_non_finite_flag_exits_2(self, capsys):
        code, out = run(["spectrum", "--npoints", "64", "--shift", "nan"],
                        capsys)
        assert code == EXIT_CONFIG and out == ""

    def test_oversize_grid_exits_2(self, capsys):
        code, out = run(["spectrum", "--npoints", "5000"], capsys)
        assert code == EXIT_CONFIG and out == ""

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

    def test_tol_flag_overrides_match_tolerance(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"kind": "ptho", "alpha": 1.5, "shift": 1.0},
            "contour": {"npoints": 500, "halfwidth": 12.0},
            "verify": {"count": 4},
        })
        code, out = run(["verify", "--config", cfg, "--tol", "1e-12"],
                        capsys)
        assert code == EXIT_VERIFY_FAIL
        assert "# FAIL" in out


class TestWavefunctionCommand:
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

    def test_alpha_flag_overrides_model(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"kind": "ptho", "alpha": 1.5, "shift": 1.0},
            "contour": {"npoints": 32, "halfwidth": 6.0},
        })
        _, out = run(["wavefunction", "--config", cfg, "--format", "json",
                      "--alpha", "2.5", "--npoints", "48"], capsys)
        doc = json.loads(out)
        assert doc["config"]["model"]["alpha"] == 2.5
        assert doc["config"]["contour"]["npoints"] == 48
        assert len(doc["rows"]) == 48
