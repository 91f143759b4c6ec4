import csv
import io
import json

import pytest

from waring import cli_reports as cli


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_json_contains_prescribed_u_and_bound(self, capsys, tmp_path):
        out = tmp_path / "b.json"
        code, _, _ = run_cli(["bounds", "--k", "10", "--theorem", "2",
                              "--format", "json", "--out", str(out)], capsys)
        assert code == 0
        payload = json.loads(out.read_text())
        gk = [r for r in payload["rows"] if r.get("record") == "gk"]
        assert len(gk) == 1
        row = gk[0]
        assert "u=31" in row["choice"]
        assert row["bound_paper"] == 83
        assert row["bound"] == 77  # default features the exact-iteration value
        assert row["provenance"] == "bound_engine.gk_bound"

    def test_paper_faithful_switches_featured_bound(self, capsys, tmp_path):
        out = tmp_path / "b.json"
        code, _, _ = run_cli(["bounds", "--k", "10", "--theorem", "2",
                              "--format", "json", "--paper-faithful",
                              "--out", str(out)], capsys)
        assert code == 0
        row = [r for r in json.loads(out.read_text())["rows"]
               if r.get("record") == "gk"][0]
        assert row["bound"] == 83

    def test_k_range_csv(self, capsys, tmp_path):
        out = tmp_path / "b.csv"
        code, _, _ = run_cli(["bounds", "--k-range", "10:11", "--theorem", "1",
                              "--s", "5", "--out", str(out)], capsys)
        assert code == 0
        text = out.read_text()
        assert text.startswith("# generated: ")
        rows = list(csv.DictReader(
            line for line in text.splitlines() if not line.startswith("#")))
        gk = [r for r in rows if r["record"] == "gk"]
        assert {r["k"] for r in gk} == {"10", "11"}
        assert all(r["provenance"] for r in rows)


class TestConfigHandling:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("k = 10\ntheorem = 2\nformat = json\n# comment\n")
        out = tmp_path / "o.json"
        code, _, _ = run_cli(["bounds", "--config", str(cfgfile),
                              "--out", str(out)], capsys)
        assert code == 0
        assert json.loads(out.read_text())["rows"]

    def test_cli_overrides_config(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("k = 10\ntheorem = 1\n")
        out = tmp_path / "o.json"
        code, _, _ = run_cli(["bounds", "--config", str(cfgfile), "--k", "12",
                              "--format", "json", "--out", str(out)], capsys)
        assert code == 0
        gk = [r for r in json.loads(out.read_text())["rows"]
              if r.get("record") == "gk"]
        assert {r["k"] for r in gk} == {12}

    def test_negative_budget_is_config_error(self, capsys, tmp_path):
        out = tmp_path / "never.csv"
        code, _, err = run_cli(["count", "--k", "3", "--P", "20",
                                "--budget-ops", "-5", "--out", str(out)],
                               capsys)
        assert code == 2
        assert not out.exists()  # no partial output
        assert json.loads(err)["error"] == "ConfigError"

    def test_unknown_config_key(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("frobnicate = 7\n")
        code, _, err = run_cli(["bounds", "--k", "10",
                                "--config", str(cfgfile)], capsys)
        assert code == 2
        assert "frobnicate" in json.loads(err)["message"]

    def test_malformed_config_line(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("k 10\n")
        code, _, _ = run_cli(["bounds", "--config", str(cfgfile)], capsys)
        assert code == 2

    def test_missing_k_is_config_error(self, capsys):
        code, _, err = run_cli(["bounds"], capsys)
        assert code == 2

    def test_k_range_without_colon_is_config_error(self, capsys):
        code, _, err = run_cli(["bounds", "--k-range", "10"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"

    def test_missing_set_file_is_config_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        code, _, err = run_cli(["count", "--k", "3", "--set", str(missing)],
                               capsys)
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert "missing.txt" in record["message"]

    def test_empty_set_file_without_p_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "empty.set"
        path.write_text("# waring-set k=3 mode=single P=10\n")
        code, _, err = run_cli(["count", "--k", "3", "--set", str(path)],
                               capsys)
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"

    def test_non_integer_config_value_is_config_error(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("k = abc\n")
        code, _, err = run_cli(["bounds", "--config", str(cfgfile)], capsys)
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert "abc" in record["message"]

    @pytest.mark.parametrize("flag,value", [("--k", "abc"),
                                            ("--format", "xml"),
                                            ("--theorem", "3")])
    def test_bad_flag_value_is_config_error(self, capsys, flag, value):
        args = ["bounds", "--k", "5"] if flag != "--k" else ["bounds"]
        code, _, err = run_cli(args + [flag, value], capsys)
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert value in record["message"]

    @pytest.mark.parametrize("args,text", [(["bounds", "--k", "5", "--bogus", "1"],
                                            "--bogus"),
                                           ([], "command")])
    def test_bad_command_line_is_config_error(self, capsys, args, text):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert text in record["message"]

    def test_help_still_prints_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds", "--help"])
        assert exc.value.code == 0
        assert "--k-range" in capsys.readouterr().out

    @pytest.mark.parametrize("body", [b"# waring-set k=3 mode=single P=10\n1\nx2\n",
                                      b"# waring-set k=3 P=10\n1\n2\n",
                                      b"\xff\xfe\x00binary"])
    def test_malformed_set_file_is_domain_error(self, capsys, tmp_path, body):
        path = tmp_path / "bad.set"
        path.write_bytes(body)
        code, _, err = run_cli(["count", "--k", "3", "--set", str(path)],
                               capsys)
        assert code == 1
        record = json.loads(err)
        assert record["error"] == "DomainError"
        assert "bad.set" in record["message"]


class TestBudgetExit:
    def test_budget_error_exit_code(self, capsys):
        code, _, err = run_cli(["count", "--k", "3", "--P", "4000", "--s", "4",
                                "--budget-ops", "1000"], capsys)
        assert code == 3
        assert json.loads(err)["error"] == "BudgetError"


class TestCount:
    def test_interface_columns(self, capsys, tmp_path):
        out = tmp_path / "c.csv"
        code, _, _ = run_cli(["count", "--k", "3", "--s", "2",
                              "--P", "20,40,80", "--out", str(out)], capsys)
        assert code == 0
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        for col in ("k", "s", "P", "|X|", "S", "diag_lb", "seconds",
                    "provenance"):
            assert col in header
        rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
        fits = [r for r in rows if r["provenance"] == "aux_count.exponent_fit"]
        assert len(fits) == 1
        assert 1.8 < float(fits[0]["slope"]) < 2.2

    def test_payload_deterministic_modulo_timings(self, capsys, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, _ = run_cli(["count", "--k", "3", "--s", "2",
                                  "--P", "20,40,80", "--seed", "7",
                                  "--out", str(out)], capsys)
            assert code == 0
            rows = [l for l in out.read_text().splitlines()
                    if not l.startswith("#")]
            reader = list(csv.DictReader(io.StringIO("\n".join(rows))))
            for r in reader:
                r.pop("seconds", None)
            outs.append(reader)
        assert outs[0] == outs[1]

    def test_tpq_row(self, capsys, tmp_path):
        out = tmp_path / "c.csv"
        code, _, _ = run_cli(["count", "--k", "2", "--s", "2", "--P", "8",
                              "--tpq", "2,5", "--out", str(out)], capsys)
        assert code == 0
        text = out.read_text()
        assert "aux_count.t_pq_count" in text

    def test_count_over_set_file(self, capsys, tmp_path):
        from waring import smooth_sets as sm
        from waring.bound_engine import theta_schedule
        final = sm.build_multilevel(
            sm.multilevel_spec(3, theta_schedule(3, 1.0)), 1e4)[-1]
        setfile = tmp_path / "set.txt"
        sm.write_set(setfile, final)
        out = tmp_path / "c.csv"
        code, _, _ = run_cli(["count", "--k", "3", "--s", "2",
                              "--set", str(setfile), "--out", str(out)],
                             capsys)
        assert code == 0
        rows = list(csv.DictReader(
            l for l in out.read_text().splitlines() if not l.startswith("#")))
        assert rows[0]["|X|"] == "9"


class TestSmoothAndDiff:
    def test_smooth_multilevel_report(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run_cli(["smooth", "--k", "3", "--P", "10000",
                              "--delta", "1.0", "--q", "5,7",
                              "--out", str(out)], capsys)
        assert code == 0
        rows = list(csv.DictReader(
            l for l in out.read_text().splitlines() if not l.startswith("#")))
        levels = [r for r in rows if r["record"] == "level"]
        assert [r["level"] for r in levels] == ["3", "2", "1", "0"]
        assert levels[-1]["size"] == "9"
        assert any(r["record"] == "residue" and r["q"] == "5" for r in rows)
        assert any(r["record"] == "size_estimate" for r in rows)

    def test_diff_report(self, capsys, tmp_path):
        out = tmp_path / "d.csv"
        code, _, _ = run_cli(["diff", "--k", "3", "--levels", "2",
                              "--delta", "1.0", "--s", "3",
                              "--out", str(out)], capsys)
        assert code == 0
        rows = list(csv.DictReader(
            l for l in out.read_text().splitlines() if not l.startswith("#")))
        psis = [r for r in rows if r["record"] == "psi"]
        assert psis[0]["coeffs"] == "64 24 3"
        balances = [r for r in rows if r["record"] == "balance"]
        assert len(balances) == 3
        assert all(float(r["residual"]) < 1e-9 for r in balances)


class TestArcs:
    def test_arc_dump_and_moments(self, capsys, tmp_path):
        out = tmp_path / "a.csv"
        code, _, _ = run_cli(["arcs", "--k", "3", "--P", "10",
                              "--out", str(out)], capsys)
        assert code == 0
        rows = list(csv.DictReader(
            l for l in out.read_text().splitlines() if not l.startswith("#")))
        arcs = [r for r in rows if r["record"] == "arc"]
        assert len(arcs) == 32  # sum of phi(q) for q <= 10
        assert {"q", "a", "center", "halfwidth"} <= set(arcs[0])
        moments = [r for r in rows if r["record"] == "moment"]
        ids = {r["moment_id"] for r in moments}
        assert {"abs_f4_full", "abs_f4_major", "abs_f4_minor"} <= ids
        full = float([r for r in moments if r["moment_id"] == "abs_f4_full"][0]["value"])
        split = sum(float(r["value"]) for r in moments
                    if r["moment_id"] in ("abs_f4_major", "abs_f4_minor"))
        assert abs(full - split) < 0.02 * full


class TestVerify:
    def test_verify_reports_known_red_criterion(self, capsys, tmp_path):
        out = tmp_path / "v.txt"
        code, stdout, _ = run_cli(["verify", "--quick", "--out", str(out)],
                                  capsys)
        # criterion 6 is a documented spec defect: the run reports it red
        assert code == 4
        assert "FAIL 06" in stdout
        assert "13/14 criteria passed" in stdout

    def test_verify_byte_identical_reports(self, capsys, tmp_path):
        bodies = []
        for name in ("v1.txt", "v2.txt"):
            out = tmp_path / name
            run_cli(["verify", "--quick", "--seed", "3", "--out", str(out)],
                    capsys)
            lines = out.read_text().splitlines()
            assert lines[0].startswith("# generated: ")
            bodies.append("\n".join(lines[1:]))
        assert bodies[0] == bodies[1]
