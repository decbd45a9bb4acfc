import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lgqpd.cli import main
from lgqpd.config import ConfigError, load_scan_config, parse_scan_config
from lgqpd.output import scan_csv_text, write_scan_outputs
from lgqpd.scan import ScanConfig, _cell_evaluator, minimize_over_t2, scan_plane
from lgqpd.states import n_th_from_temperature, thermal_m_cut

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


def strict_json(text: str):
    """``text`` parsed as standard JSON: NaN, Infinity and -Infinity, which
    JSON does not have, are refused."""
    def refused(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refused)

GOOD_CONFIG = """\
# displacement-plane scan
plane = x0p0
route = series
s1 = +1
s2 = -1
t1 = 0.0
r = 0.5          # squeeze magnitude
axis1_min = -1.0
axis1_max = 1.0
axis1_steps = 2
axis2_min = 0.5
axis2_max = 1.5
axis2_steps = 2
t2_coarse_steps = 60
t2_refine_iters = 10
n_max = 120
"""


class TestConfigParser:
    def test_good_file(self):
        cfg = parse_scan_config(GOOD_CONFIG)
        assert cfg.plane == "x0p0" and cfg.s1 == 1 and cfg.s2 == -1
        assert cfg.r == 0.5 and cfg.axis1_steps == 2

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_scan_config("plane = x0p0\nroute = series\nbogus = 1\ns1=1\ns2=1\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("line", ["x0 = 1.0", "p0 = -0.7", "projector = window"])
    def test_implied_keys_are_unknown(self, line):
        # the plane fixes the projector and its axes supply x0 and p0; these
        # keys used to be accepted and overwritten unread
        with pytest.raises(ConfigError, match="unknown key") as err:
            parse_scan_config(GOOD_CONFIG + "  " + line + "\n")
        assert err.value.line == GOOD_CONFIG.count("\n") + 1
        assert err.value.column == 3

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        # loading runs the dispatch at both grid corners and raises on a bad file
        load_scan_config(path)

    def test_bad_number_reports_position(self):
        with pytest.raises(ConfigError) as err:
            parse_scan_config("plane = x0p0\nroute = series\ns1 = 1\ns2 = 1\nt1 = abc\n")
        assert err.value.line == 5
        assert err.value.column > 0

    @pytest.mark.parametrize("line,message,column", [
        ("  theta0 0.3", "expected 'key = value'", 3),
        ("theta0 =   ", "empty value for 'theta0'", 9)])
    def test_malformed_line_reports_position(self, line, message, column):
        with pytest.raises(ConfigError, match=message) as err:
            parse_scan_config(GOOD_CONFIG + line + "\n")
        assert err.value.line == GOOD_CONFIG.count("\n") + 1
        assert err.value.column == column

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_scan_config("plane = x0p0\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_scan_config("plane = x0p0\nplane = rL\n")

    def test_semantic_error_surfaces(self):
        text = GOOD_CONFIG.replace("route = series", "route = integral") + "n_th = 0.5\n"
        with pytest.raises(ConfigError, match="pure states"):
            parse_scan_config(text)

    def test_thermal_occupation_cut_surfaces(self):
        text = GOOD_CONFIG.replace("n_max = 120", "n_max = 20") + "n_th = 1.5\n"
        with pytest.raises(ConfigError, match="occupation cut"):
            parse_scan_config(text)

    @pytest.mark.parametrize("route", ["series", "oracle"])
    def test_an_occupation_without_a_cut_surfaces(self, route):
        text = GOOD_CONFIG.replace("route = series", f"route = {route}") + "n_th = 1e12\n"
        with pytest.raises(ConfigError, match="no occupation cut"):
            parse_scan_config(text)

    def test_mapping_round_trip(self):
        # the manifest stores the config as a JSON object of its fields
        cfg = parse_scan_config(GOOD_CONFIG)
        assert ScanConfig(**json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg


@pytest.fixture(scope="module")
def small_result():
    return scan_plane(parse_scan_config(GOOD_CONFIG))


class TestOutputs:

    def test_csv_shape_and_format(self, small_result):
        text = scan_csv_text(small_result)
        lines = text.strip().split("\n")
        assert lines[0] == "axis1,axis2,q_min,t2_argmin"
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert first[0] == "-1"
        assert "." in first[2] and "e" not in first[0]

    def test_seventeen_digit_round_trip(self, small_result):
        text = scan_csv_text(small_result)
        val = float(text.strip().split("\n")[1].split(",")[2])
        assert val == small_result.q_min[0, 0]

    def test_writer_and_manifest(self, small_result, tmp_path):
        csv_path, json_path = write_scan_outputs(small_result, tmp_path, "scanx", 1.25)
        payload = json.loads(json_path.read_text())
        manifest = payload["manifest"]
        import hashlib

        assert manifest["checksums"]["csv_sha256"] == hashlib.sha256(
            csv_path.read_bytes()).hexdigest()
        assert manifest["config"]["plane"] == "x0p0"
        assert manifest["n_failed"] == 0
        # the manifest's config reproduces the scan byte-for-byte
        cfg2 = ScanConfig(**manifest["config"])
        assert scan_csv_text(scan_plane(cfg2)) == csv_path.read_text()

    def test_manifest_times_the_two_stages(self, small_result, tmp_path):
        # coarse curves and refinements are timed apart; the CSV carries no time
        assert small_result.coarse_s > 0 and small_result.refine_s > 0
        _, json_path = write_scan_outputs(small_result, tmp_path, "timed", 1.25)
        manifest = json.loads(json_path.read_text())["manifest"]
        assert manifest["coarse_s"] == small_result.coarse_s
        assert manifest["refine_s"] == small_result.refine_s
        assert manifest["cells_per_s"] == small_result.q_min.size / 1.25
        assert manifest["refine_evals"] == small_result.refine_evals > 0
        assert manifest["refine_capped"] == small_result.refine_capped
        assert manifest["reflected"] == small_result.reflected
        untimed = dataclasses.replace(small_result, coarse_s=0.0, refine_s=0.0,
                                      refine_evals=0, refine_capped=7)
        assert scan_csv_text(untimed) == scan_csv_text(small_result)

    def test_refine_evals_counts_every_cell_search(self, small_result):
        # the total of the refinement evaluations of each cell searched alone
        cfg = small_result.config
        evals = 0
        for a1 in cfg.axis1_values():
            for a2 in cfg.axis2_values():
                evaluator, curve = _cell_evaluator(cfg, float(a1), float(a2))
                points = []
                counted = lambda t: points.append(t) or evaluator(t)
                counted.slope = lambda t: points.append(t) or evaluator.slope(t)
                minimize_over_t2(counted, curve, cfg.t2_search())
                evals += len(points)
        assert small_result.refine_evals == evals


class TestCliEval:
    def test_same_time_half(self, capsys):
        code = main(["eval", "--route", "series", "--x0", "0", "--p0", "0",
                     "--r", "0", "--s1", "1", "--s2", "1", "--t1", "0", "--t2", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "q = 0.5" in out

    def test_json_output(self, capsys):
        code = main(["eval", "--route", "integral", "--x0", "0.55", "--p0", "1.925",
                     "--r", "1", "--theta0", "1.0471975511965976", "--s1", "1",
                     "--s2", "-1", "--t1", "0", "--t2", "2.0", "--out", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["route"] == "integral"
        assert payload["diagnostics"]["converged"] is True
        assert abs(payload["q"]) < 1.0

    @pytest.mark.parametrize("extra", [["--nmax", "1"], ["--temp-ratio", "1", "--nmax", "30"]])
    def test_json_output_is_strict(self, capsys, extra):
        # n_max // 2 is no truncation (0) or lies below the thermal occupation
        # cut: the tail bound is infinite, which used to print as Infinity
        assert main(["eval", "--route", "series", "--s1", "1", "--s2", "-1", "--t1", "0",
                     "--t2", "1.3", "--x0", "0.5", "--out", "json", *extra]) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["diagnostics"]["tail_bound"] is None
        assert math.isfinite(payload["q"])

    def test_thermal_diagnostics_only_for_thermal_states(self, capsys):
        common = ["eval", "--route", "series", "--s1", "1", "--s2", "-1",
                  "--t1", "0", "--t2", "1.3", "--out", "json"]
        assert main([*common, "--temp-ratio", "0.5"]) == 0
        assert "m_used" in json.loads(capsys.readouterr().out)["diagnostics"]
        assert main(common) == 0
        assert "m_used" not in json.loads(capsys.readouterr().out)["diagnostics"]

    def test_oracle_diagnostics(self, capsys):
        common = ["eval", "--route", "oracle", "--oracle-dim", "120", "--x0", "0.5",
                  "--temp-ratio", "0.5", "--s1", "1", "--s2", "-1", "--t1", "0",
                  "--t2", "1.3"]
        assert main([*common, "--out", "json"]) == 0
        diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diagnostics["dim"] == 120
        assert diagnostics["n_cols"] == thermal_m_cut(n_th_from_temperature(0.5))
        assert abs(diagnostics["trace_deficit"]) < 1e-8
        assert 0.0 <= diagnostics["tail_mass"] <= 1e-9
        assert main(common) == 0
        out = capsys.readouterr().out
        for key in ("dim = 120", "n_cols = ", "trace_deficit = ", "tail_mass = "):
            assert key in out

    def test_integral_matches_series_at_benchmark_point(self, capsys):
        common = ["--x0", "0.55", "--p0", "1.925", "--r", "1",
                  "--theta0", "1.0471975511965976", "--s1", "1", "--s2", "-1",
                  "--t1", "0", "--t2", "3.0", "--out", "json"]
        assert main(["eval", "--route", "integral", *common]) == 0
        q_int = json.loads(capsys.readouterr().out)["q"]
        assert main(["eval", "--route", "series", "--nmax", "500", *common]) == 0
        q_ser = json.loads(capsys.readouterr().out)["q"]
        assert abs(q_int - q_ser) < 1e-3

    def test_plus_one_alias(self, capsys):
        code = main(["eval", "--route", "series", "--s1", "+1", "--s2", "-1",
                     "--t1", "0.0", "--t2", "0.0"])
        assert code == 0
        assert "q = 0" in capsys.readouterr().out

    def test_usage_errors_exit_2(self, capsys):
        assert main(["eval", "--route", "integral", "--projector", "window",
                     "--L", "1.0", "--s1", "1", "--s2", "1", "--t1", "0",
                     "--t2", "1"]) == 2
        assert main(["eval", "--route", "series", "--offset-amp", "1.0",
                     "--s1", "1", "--s2", "1", "--t1", "0", "--t2", "1"]) == 2
        assert main(["eval", "--route", "integral", "--temp-ratio", "1.0",
                     "--s1", "1", "--s2", "1", "--t1", "0", "--t2", "1"]) == 2
        assert main(["eval", "--route", "oracle", "--projector", "window",
                     "--s1", "1", "--s2", "1", "--t1", "0", "--t2", "1"]) == 2

    @pytest.mark.parametrize("route", ["series", "integral", "oracle"])
    def test_half_width_with_sign_projector_exits_2(self, capsys, route):
        # --L used to be ignored under the sign projector, with exit 0
        assert main(["eval", "--route", route, "--projector", "sign", "--L", "5",
                     "--x0", "0.5", "--s1", "1", "--s2", "-1", "--t1", "0",
                     "--t2", "1.3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("lgqpd eval: error:") and err.count("\n") == 1
        assert "half-width" in err

    def test_evaluation_error_exits_2(self, capsys):
        # the oracle finds the state at the top of its basis only when it
        # evaluates
        assert main(["eval", "--route", "oracle", "--s1", "1", "--s2", "-1", "--t1", "0",
                     "--t2", "1.3", "--x0", "0.5", "--oracle-dim", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("lgqpd eval: error:") and err.count("\n") == 1
        assert "increase dim" in err

    def test_few_series_terms_report_no_tail_estimate(self, capsys):
        # the bound is the change from n_max // 2 orders, which needs one
        common = ["eval", "--route", "series", "--s1", "1", "--s2", "-1", "--t1", "0",
                  "--t2", "1.3", "--x0", "0.5"]
        assert main([*common, "--nmax", "5", "--out", "json"]) == 0
        diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diagnostics["n_used"] == 5 and math.isfinite(diagnostics["tail_bound"])
        assert main([*common, "--nmax", "1"]) == 0
        out = capsys.readouterr().out
        assert "n_used = 1\n" in out and "tail_bound = inf\n" in out

    @pytest.mark.parametrize("temp, route", [
        *((temp, route) for temp in ("2e4", "999999999000", "1e12", "1e16")
          for route in ("series", "oracle")), ("9000", "series")])
    def test_an_occupation_without_a_cut_exits_2(self, capsys, temp, route):
        # no occupation cut above n_th = 9999, where a cut could leave more
        # than 1e-8 of the state; at 1e16 the cut's ratio n_th / (1 + n_th)
        # rounds to 1.0; at n_th = 8999.5 the series has no cut within its
        # order cap, and no n_max reaches the cut
        assert main(["eval", "--route", route, "--s1", "1", "--s2", "1", "--t1", "0",
                     "--t2", "1", "--temp-ratio", temp]) == 2
        err = capsys.readouterr().err
        assert err.startswith("lgqpd eval: error: n_th=") and err.count("\n") == 1
        assert "no occupation cut" in err and "raise n_max" not in err

    @pytest.mark.parametrize("route", ["series", "oracle"])
    def test_low_temperature_is_the_pure_state(self, capsys, route):
        # exp(1/T) overflows below T = 1/709.78, where n_th underflows to 0
        common = ["eval", "--route", route, "--s1", "1", "--s2", "-1", "--t1", "0",
                  "--t2", "1.3", "--x0", "0.5", "--out", "json"]
        assert main([*common, "--temp-ratio", "0.001"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main([*common, "--temp-ratio", "0"]) == 0
        zero = json.loads(capsys.readouterr().out)
        assert cold["q"] == zero["q"] and cold["diagnostics"] == zero["diagnostics"]

    @pytest.mark.parametrize("route", ["series", "oracle"])
    @pytest.mark.parametrize("extra", [[], ["--L", "1.0", "--x0", "1"]])
    def test_window_usage_errors_exit_2(self, capsys, route, extra):
        assert main(["eval", "--route", route, "--projector", "window", *extra,
                     "--s1", "1", "--s2", "1", "--t1", "0", "--t2", "1"]) == 2
        assert "lgqpd eval: error: the window projector" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--route", "oracle", "--oracle-dim", "700"], ["--route", "oracle", "--oracle-dim", "1"],
        ["--route", "integral", "--quad-order", "4"], ["--route", "series", "--nmax", "200000"],
        ["--route", "integral", "--quad-order", "600"],
        ["--route", "series", "--temp-ratio", "1", "--nmax", "20"],
        # settings of a route that does not run used to exit 0 unread
        ["--route", "integral", "--oracle-dim", "2000"],
        ["--route", "series", "--quad-order", "4"],
        ["--route", "oracle", "--quad-order", "600"],
        ["--route", "integral", "--nmax", "200000"]])
    def test_out_of_range_settings_exit_2(self, capsys, extra):
        assert main(["eval", *extra, "--s1", "1", "--s2", "1", "--t1", "0", "--t2", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("lgqpd eval: error:") and err.count("\n") == 1

    @pytest.mark.parametrize("route", ["series", "integral", "oracle"])
    @pytest.mark.parametrize("times", [("0", "nan"), ("0", "-inf"), ("nan", "1"), ("inf", "1")])
    def test_non_finite_times_exit_2(self, capsys, route, times):
        # these used to print q = nan (series) or end in a traceback with exit 1
        assert main(["eval", "--route", route, "--x0", "0.5", "--s1", "1", "--s2", "-1",
                     f"--t1={times[0]}", f"--t2={times[1]}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("lgqpd eval: error: t") and "must be finite" in err

    def test_reports_wall_time(self, capsys):
        common = ["eval", "--route", "series", "--x0", "0.5", "--s1", "1", "--s2", "-1",
                  "--t1", "0", "--t2", "1.3"]
        assert main([*common, "--out", "json"]) == 0
        wall = json.loads(capsys.readouterr().out)["wall_s"]
        assert isinstance(wall, float) and 0.0 < wall < 60.0
        assert main(common) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("wall_s = ")
        assert float(lines[-1].split(" = ")[1]) > 0.0

    def test_bad_sign_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--route", "series", "--s1", "2", "--s2", "1",
                  "--t1", "0", "--t2", "1"])
        assert err.value.code == 2


class TestCliScan:
    def test_one_cell_scan_matches_eval(self, tmp_path, capsys):
        cfg_text = (
            "plane = x0p0\nroute = series\ns1 = 1\ns2 = -1\nt1 = 0.0\nr = 0.0\n"
            "axis1_min = 0.55\naxis1_steps = 1\naxis2_min = 1.93\naxis2_steps = 1\n"
            "t2_min = 1.0\nt2_max = 1.0000001\nt2_coarse_steps = 2\n"
            "t2_refine_iters = 0\nn_max = 200\n")
        cfg_file = tmp_path / "one.cfg"
        cfg_file.write_text(cfg_text)
        assert main(["scan", str(cfg_file), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = (tmp_path / "one.csv").read_text().strip().split("\n")
        assert len(rows) == 2
        q_scan = float(rows[1].split(",")[2])
        main(["eval", "--route", "series", "--x0", "0.55", "--p0", "1.93",
              "--s1", "1", "--s2", "-1", "--t1", "0", "--t2", "1.0",
              "--nmax", "200", "--out", "json"])
        q_eval = json.loads(capsys.readouterr().out)["q"]
        assert q_scan == pytest.approx(q_eval, abs=1e-12)

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg_file = tmp_path / "grid.cfg"
        cfg_file.write_text(GOOD_CONFIG)
        assert main(["scan", str(cfg_file), "--out-dir", str(tmp_path),
                     "--basename", "a"]) == 0
        assert main(["scan", str(cfg_file), "--out-dir", str(tmp_path),
                     "--basename", "b", "--threads", "2"]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        # refinement evaluations are summed over the rows of every worker
        manifests = [json.loads((tmp_path / f"{name}.json").read_text())["manifest"]
                     for name in "ab"]
        assert manifests[0]["refine_evals"] == manifests[1]["refine_evals"] > 0
        assert manifests[0]["refine_capped"] == manifests[1]["refine_capped"]

    def test_all_failed_scan_writes_strict_json(self, tmp_path, capsys):
        # displacements that overflow a 20-level basis fail every cell; the
        # manifest's global argmin used to hold NaN
        cfg_file = tmp_path / "failed.cfg"
        cfg_file.write_text("plane = x0p0\nroute = oracle\ns1 = 1\ns2 = 1\noracle_dim = 20\n"
                            "axis1_min = 4.0\naxis1_max = 5.0\naxis2_min = 4.0\n"
                            "axis2_max = 5.0\nt2_coarse_steps = 10\n")
        assert main(["scan", str(cfg_file), "--out-dir", str(tmp_path)]) == 0
        assert "4 cell(s) failed" in capsys.readouterr().out
        payload = strict_json((tmp_path / "failed.json").read_text())
        manifest = payload["manifest"]
        assert manifest["n_failed"] == 4 and manifest["global_min"] is None
        assert manifest["global_argmin"] == {"x0": None, "p0": None, "t2": None}
        assert all(row[2:] == [None, None] for row in payload["rows"])

    def test_config_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("plane = x0p0\nroute = series\ns1 = maybe\ns2 = 1\n")
        assert main(["scan", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err

    @pytest.mark.parametrize("t1", ["nan", "inf"])
    def test_non_finite_t1_exit_2(self, tmp_path, capsys, t1):
        # such a config used to exit 0 with every cell NaN
        bad = tmp_path / "bad.cfg"
        bad.write_text(GOOD_CONFIG.replace("t1 = 0.0", f"t1 = {t1}"))
        assert main(["scan", str(bad), "--out-dir", str(tmp_path)]) == 2
        assert "t1 must be finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("bad.csv"))

    def test_missing_file_exit_2(self, capsys):
        assert main(["scan", "/nonexistent/path.cfg"]) == 2


class TestCliVerify:
    def test_unknown_case_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "nonsense"])
        assert err.value.code == 2

    def test_reduction_case_passes(self, capsys):
        assert main(["verify", "reduction"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


def test_cli_import_leaves_scipy_optimize_and_linalg_unloaded():
    # Nelder-Mead and the oracle's tridiagonal eigensolver import them on use
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; import lgqpd.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src)
    assert out.stdout.strip() == "[]"
