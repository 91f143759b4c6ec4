import argparse
import csv
import hashlib
import io
import json
import math
import os
import stat
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import write_set
from waring import bound_engine as be
from waring import cli_reports as cli
from waring.errors import DomainError, RootBracketError


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def traced_peak(argv):
    """The exit code of cli.main(argv) and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        return cli.main(argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def report_body(args, capsys, tmp_path):
    """The bytes of a report after its '# generated:' line."""
    out = tmp_path / "report"
    code, _, _ = run_cli(args + ["--out", str(out)], capsys)
    assert code == 0
    lines = out.read_bytes().splitlines(keepends=True)
    body = [line for line in lines
            if not line.lstrip().startswith((b"# generated:", b'"generated":'))]
    assert len(body) == len(lines) - 1
    return b"".join(body)


def body_digest(args, capsys, tmp_path):
    return hashlib.sha256(report_body(args, capsys, tmp_path)).hexdigest()


def out_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def rows_without_seconds(args, capsys, tmp_path):
    text = report_body(args, capsys, tmp_path).decode()
    rows = list(csv.DictReader(
        line for line in text.splitlines() if not line.startswith("#")))
    for row in rows:
        del row["seconds"]
    return rows


OFFERED = {"bounds": {"--k", "--k-range", "--theorem", "--s",
                      "--paper-faithful", "--format", "--out"},
           "count": {"--k", "--s", "--P", "--budget-ops", "--set", "--tpq",
                     "--format", "--out"},
           "smooth": {"--k", "--P", "--theta", "--levels", "--delta", "--q",
                      "--format", "--out"},
           "arcs": {"--k", "--P", "--points", "--seed", "--budget-grid",
                    "--format", "--out"},
           "diff": {"--k", "--P", "--s", "--levels", "--delta", "--h-max",
                    "--format", "--out"},
           "verify": {"--seed", "--quick", "--out"}}


def test_each_subcommand_offers_exactly_its_flags():
    sub, = [a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    offered = {name: {flag for a in p._actions for flag in a.option_strings}
               for name, p in sub.choices.items()}
    assert offered == {name: {"-h", "--help", "--config"} | flags
                       for name, flags in OFFERED.items()}
    assert sum(map(len, OFFERED.values())) == 41


def test_needed_options_are_offered():
    for name, (_, _, needed) in cli._HANDLERS.items():
        assert {"--" + key.replace("_", "-") for key in needed.split()} <= OFFERED[name]


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

    @pytest.mark.parametrize("fmt,digest", [
        ("csv", "59441e3527c3fee8107115c4a454a446e38f847dde556a3aa4e22d06afdc7710"),
        ("json", "ccdc3b02f5b0eba43d00f31515b3a24ceb698337332575b1996ef1251de03ece"),
    ])
    def test_report_body_bytes_pinned(self, capsys, tmp_path, fmt, digest):
        # every line but the timestamp; a faster gk_bound or _emit must
        # leave these bytes as they are
        assert body_digest(["bounds", "--k-range", "3:40", "--format", fmt],
                           capsys, tmp_path) == digest

    def test_benchmark_range_body_bytes_pinned(self, capsys, tmp_path):
        # the k range the bounds benchmark runs; the hash is that of the body
        # the scans wrote when they still walked up from their low caps
        assert body_digest(["bounds", "--k-range", "5:204"], capsys, tmp_path) == \
            "f1c789e6d71fbd2aa158f1feb4379e4f2879f0d1dcce248c4846789210bb827f"

    @pytest.mark.parametrize("args,digest", [
        (["--k-range", "10:11", "--theorem", "1", "--s", "5"],
         "4c101c4c28566b578494aa396e58f893c65f58f15626be6032b4fa7f90e275ec"),
        (["--k-range", "3:40", "--paper-faithful"],
         "152a2c0dbb8e747d69ae3b041d2f214cf2c196a862493be4785ade88f9b91378"),
    ])
    def test_more_body_bytes_pinned(self, capsys, tmp_path, args, digest):
        # hashes of the bodies written through csv.writer alone
        assert body_digest(["bounds"] + args, capsys, tmp_path) == digest

    def test_each_k_is_computed_once(self, capsys, tmp_path, monkeypatch):
        # the sigma row, both theorems' scans and the exponent rows read one
        # sigma_hat and one coupled Delta iteration per k; --theorem 1 runs
        # no scan, so its iteration goes exactly as far as its rows
        calls, solve, steps = Counter(), be.solve_sigma, be._coupled_steps

        def counted_solve(k):
            calls["solve_sigma"] += 1
            return solve(k)

        def counted_steps(k, full=False):
            calls["_coupled_steps"] += 1
            for step in steps(k, full):
                calls["steps"] += 1
                yield step
        monkeypatch.setattr(be, "solve_sigma", counted_solve)
        monkeypatch.setattr(be, "_coupled_steps", counted_steps)
        out = str(tmp_path / "b.csv")
        assert run_cli(["bounds", "--k-range", "5:14", "--out", out], capsys)[0] == 0
        assert (calls["solve_sigma"], calls["_coupled_steps"]) == (10, 10)
        calls.clear()
        assert run_cli(["bounds", "--k-range", "5:14", "--theorem", "1",
                        "--s", "30", "--out", out], capsys)[0] == 0
        assert calls == {"solve_sigma": 10, "_coupled_steps": 10, "steps": 10 * 29}

    @pytest.mark.parametrize("args,s_hi", [
        (["--k-range", "3:250"], lambda k: max(20, 2 * k)),
        (["--k", "7", "--s", "500"], lambda k: 500),       # past the T2 scan
        (["--k-range", "3:40", "--theorem", "1"], lambda k: max(20, 2 * k)),
    ])
    def test_exponent_rows_are_delta_iterate_bit_for_bit(self, monkeypatch, args,
                                                         s_hi):
        emitted = []
        monkeypatch.setattr(cli, "_emit", lambda cfg, meta, columns, blocks:
                            emitted.extend(dict(zip(keys, row))
                                           for keys, rows in blocks for row in rows))
        assert cli.main(["bounds"] + args) == 0
        by_k: dict = {}
        for row in emitted:
            if row["record"] == "exponent":
                by_k.setdefault(row["k"], []).append(row)
        ks = [int(k) for k in args[1].split(":")]   # --k k or --k-range a:b
        assert sorted(by_k) == list(range(ks[0], ks[-1] + 1))   # rows for every k
        for k, rows in by_k.items():
            assert [row["s"] for row in rows] == list(range(2, s_hi(k) + 1)), k
            table = be.delta_iterate(k, s_hi(k))
            for row, lam, delta, theta in zip(rows, table.lambdas, table.deltas,
                                              table.thetas_used):
                got = (row["lambda"], row["delta"], row["theta_used"],
                       row["delta_closed_bound"])
                want = (lam, delta, theta, be.delta_bound(k, row["s"]))
                assert list(map(float.hex, got)) == list(map(float.hex, want)), \
                    (k, row["s"])
        assert sorted(by_k) == sorted({row["k"] for row in emitted})

    def test_columns_are_the_keys_of_the_rows(self, monkeypatch):
        # the header is the union of the record key tuples; it must be the
        # keys of the blocks in the order they first appear
        emitted = []
        monkeypatch.setattr(cli, "_emit", lambda cfg, meta, columns, blocks:
                            emitted.append((columns, list(blocks))))
        assert cli.main(["bounds", "--k-range", "3:6"]) == 0
        (columns, blocks), = emitted
        assert columns == list(dict.fromkeys(c for keys, _ in blocks for c in keys))
        assert {keys for keys, _ in blocks} == {
            cli._SIGMA_KEYS, cli._GK_KEYS, cli._EXPONENT_KEYS}
        record = {cli._SIGMA_KEYS: "sigma", cli._GK_KEYS: "gk",
                  cli._EXPONENT_KEYS: "exponent"}
        assert all(rows for _, rows in blocks)
        assert all(len(row) == len(keys) and row[0] == record[keys]
                   for keys, rows in blocks for row in rows)
        assert [row[1] for keys, rows in blocks for row in rows
                if keys == cli._SIGMA_KEYS] == [3, 4, 5, 6]

    def test_memory_stays_flat_across_the_k_range(self, capsys, tmp_path):
        # rows are written as they are computed and each k's Delta list is
        # dropped before the next k; collecting the rows of 3:80 and writing
        # them at the end would peak near 5 MiB
        out = str(tmp_path / "b.csv")
        code, peak = traced_peak(["bounds", "--k-range", "3:80", "--out", out])
        assert code == 0
        assert peak < 2 * 2**20
        # four '#' lines and the header, then per k sigma, T1, T2, exponents
        assert out_lines(out) == 5 + sum(3 + max(20, 2 * k) - 1
                                         for k in range(3, 81))

    @pytest.mark.parametrize("args,mib", [
        (["--k-range", "3:80", "--format", "json"], 2),   # collected: 13.6 MiB
        (["--k", "20000"], 8),   # one block of the 40,000 exponent rows: 26 MiB
    ])
    def test_peak_memory(self, tmp_path, args, mib):
        # JSON rows are written as they are computed, as CSV rows are, and a
        # k's exponent rows go out in blocks of _BLOCK_ROWS
        code, peak = traced_peak(["bounds", *args, "--out", str(tmp_path / "b")])
        assert code == 0
        assert peak < mib * 2**20

    @pytest.mark.parametrize("args,message", [
        (["--k", "2"], "k must be >= 3, got 2"),
        (["--k-range", "2:40"], "k must be >= 3, got 2"),
        (["--k", "5", "--s", "1"], "s must be >= 2, got 1"),
        (["--k-range", "3:40", "--s", "1"], "s must be >= 2, got 1"),
    ])
    def test_refused_before_the_first_byte(self, capsys, tmp_path, args, message):
        out = tmp_path / "f"
        for dest in (["--out", str(out)], []):
            code, stdout, err = run_cli(["bounds"] + args + dest, capsys)
            assert code == 1
            assert json.loads(err) == {"error": "DomainError", "message": message}
            assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_failure_mid_report_keeps_the_old_file(self, capsys, tmp_path,
                                                   monkeypatch):
        # a JSON report, too, fails after its first rows are written
        real = be.KBounds

        def failing(k):
            if k == 7:
                raise DomainError("injected at the third k")
            return real(k)
        monkeypatch.setattr(cli.bound_engine, "KBounds", failing)
        out = tmp_path / "f"
        out.write_bytes(b"# an older report\r\n")
        for fmt in ("csv", "json"):
            code, stdout, err = run_cli(["bounds", "--k-range", "5:9", "--format", fmt,
                                         "--out", str(out)], capsys)
            assert code == 1
            assert json.loads(err)["error"] == "DomainError"
            assert stdout == ""
            assert out.read_bytes() == b"# an older report\r\n"
            assert [p.name for p in tmp_path.iterdir()] == ["f"]   # no temporary file

    def test_other_library_error_exits_1(self, capsys, tmp_path, monkeypatch):
        # a WaringError that is neither a ConfigError, a BudgetError nor a
        # DomainError keeps its own class name in the record
        def failing(k):
            raise RootBracketError(f"injected for k={k}")
        monkeypatch.setattr(cli.bound_engine, "KBounds", failing)
        out = tmp_path / "f"
        code, stdout, err = run_cli(["bounds", "--k", "5", "--out", str(out)], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "RootBracketError",
                                   "message": "injected for k=5"}
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []


_CELL_TEXT = st.text(st.sampled_from(list(',"\r\n{}%0 aNone\x00\u00e9')),
                     max_size=6)
_CELLS = st.one_of(
    st.none(), st.just(""), _CELL_TEXT, st.booleans(),
    st.integers(-2**70, 2**70), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16, 2**64 + 1]),
    st.tuples(st.integers(), _CELL_TEXT),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64))
_ROWS = st.lists(st.dictionaries(st.sampled_from(["k", "s", "P", "{}", "a,b"]),
                                 _CELLS, max_size=5), max_size=8)


_JSON_CELLS = st.recursive(
    _CELLS | st.text(max_size=4),   # any text: non-ASCII, quotes, newlines
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8)
_JSON_ROWS = st.lists(st.dictionaries(st.text(max_size=3), _JSON_CELLS,
                                      max_size=4), max_size=6)


def emitted(rows, grouped, fmt="csv"):
    """The report _emit writes for dict rows, and the rows in the order it
    writes them.  Ungrouped, each row is a block of its own, as _emit_rows
    passes it; grouped, the rows of each key tuple make one block, in the
    order the key tuples first appear."""
    blocks: dict = {}
    for i, row in enumerate(rows):
        blocks.setdefault(tuple(row) if grouped else i, []).append(row)
    blocks = [(tuple(block[0]), [tuple(row.values()) for row in block])
              for block in blocks.values()]
    with redirect_stdout(io.StringIO()) as out:
        cli._emit(cli.RunConfig(command="bounds", format=fmt), {"note": "\u00e9"},
                  list(dict.fromkeys(c for row in rows for c in row)), blocks)
    return out.getvalue(), [dict(zip(keys, row)) for keys, block in blocks
                            for row in block]


class TestCsvWriter:
    @settings(max_examples=200, deadline=None)
    @given(_ROWS)
    @example([{"k": ""}])
    @example([{"k": ""}, {"k": None}, {}])
    @example([{"k": 1, "s": 2.5}, {"s": "x", "k": None}, {"P": (1,)}])
    @example([])
    @example([{"k": 1, "s": 2}, {"s": 3, "k": 4}])      # keys out of column order
    @example([{"k": 1, "s": 2}, {"s": 2.5}])             # one key
    @example([{"k": 1, "s": 2}, {}])
    @example([{"P": (1, 2)}, {"k": 1, "P": (3,)}])       # tuple values
    @example([{"k": "5%", "s": "%s"}, {"s": "%(k)s %%"}])
    # one line inside a block that csv.writer writes otherwise
    @example([{"k": 1, "s": 2}, {"k": '"', "s": 3}, {"k": 4, "s": 5}])
    @example([{"k": 1}, {"k": ""}, {"k": 2}])            # an empty line
    @example([{"k": "a,b", "s": 1}, {"k": 2, "s": 3}])   # a comma
    @example([{"k": "\n", "s": 1}, {"k": 2, "s": 3}])    # a line break
    @example([{"k": 1, "s": 2}, {"k": "a\rb", "s": 3}])
    def test_body_is_what_csv_writer_writes(self, rows):
        # whatever the template route takes, the bytes are csv.writer's
        for grouped in (False, True):
            got, ordered = emitted(rows, grouped)
            generated, flags, note, body = got.split("\n", 3)
            assert generated.startswith("# generated: ")
            assert flags.startswith("# flags: ")
            assert note == "# note: \u00e9"
            cols = list(dict.fromkeys(c for row in rows for c in row))
            want = io.StringIO()
            writer = csv.writer(want)
            writer.writerow(cols)
            writer.writerows([row.get(c, "") for c in cols] for row in ordered)
            assert body == want.getvalue()

    def test_bounds_rows_take_the_template_route(self, capsys, tmp_path,
                                                 monkeypatch):
        # only the header goes through csv.writer; the sigma, gk and exponent
        # rows, with the small-k caveat and without, come from templates
        written, real = [], csv.writer

        class Recording:
            def __init__(self, buf):
                self._writer = real(buf)

            def writerow(self, row):
                written.append(row)
                return self._writer.writerow(row)
        monkeypatch.setattr(cli.csv, "writer", Recording)
        body = report_body(["bounds", "--k-range", "8:11"], capsys, tmp_path)
        rows = list(csv.DictReader(line for line in body.decode().splitlines()
                                   if not line.startswith("#")))
        assert Counter(row["record"] for row in rows) == {
            "sigma": 4, "gk": 8, "exponent": 3 * 19 + 21}
        assert {row["small_k_caveat"] for row in rows if row["record"] == "gk"} \
            == {"True", "False"}
        assert written == [list(rows[0])]


class TestJsonWriter:
    @settings(max_examples=100, deadline=None)
    @given(_JSON_ROWS)
    @example([])
    @example([{"k": 1}])
    @example([{}, {}])
    @example([{"k": [1, [2, {"a": (3, "\u00e9")}]], "s": math.nan},
              {"k": -math.inf, "\u00e9\n": 'a"\n\\', "s": {}}, {"k": math.inf}])
    def test_stream_is_json_dumps_of_the_payload(self, rows):
        for grouped in (False, True):
            got, ordered = emitted(rows, grouped, "json")
            payload = {"generated": json.loads(got)["generated"],
                       "meta": {"flags": "paper_faithful=False seed=0",
                                "note": "\u00e9"},
                       "rows": ordered}
            assert got == json.dumps(payload, indent=2, default=str) + "\n"


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

    @pytest.mark.parametrize("args,message,first_call", [
        (["count", "--P", "20"], "count needs --k", "aux_count.s_count"),
        (["smooth", "--P", "1000"], "smooth needs --k and --P",
         "smooth_sets.build_single_levels"),
        (["smooth", "--k", "3"], "smooth needs --k and --P",
         "smooth_sets.build_single_levels"),
        (["smooth"], "smooth needs --k and --P", "smooth_sets.build_single_levels"),
        (["arcs", "--P", "10"], "arcs needs --k and --P", "expsum_arcs.ArcDissection"),
        (["arcs", "--k", "3"], "arcs needs --k and --P", "expsum_arcs.ArcDissection"),
        (["arcs"], "arcs needs --k and --P", "expsum_arcs.ArcDissection"),
        (["diff", "--P", "10"], "diff needs --k", "differences.psi"),
        (["bounds"], "need --k or --k-range", "bound_engine._check_ks"),
    ])
    def test_missing_needed_option_is_refused_before_work(
            self, capsys, tmp_path, monkeypatch, args, message, first_call):
        def never(*args, **kwargs):
            raise AssertionError(f"{first_call} ran without a needed option")
        module, attr = first_call.split(".")
        monkeypatch.setattr(getattr(cli, module), attr, never)
        out = tmp_path / "report"
        code, stdout, err = run_cli(args + ["--out", str(out)], capsys)
        assert code == 2
        assert json.loads(err) == {"error": "ConfigError", "message": message}
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("args", [["count", "--k", "3", "--P", "nan"],
                                      ["smooth", "--k", "3", "--P", "nan"],
                                      ["count", "--k", "3", "--P", "inf"],
                                      ["diff", "--k", "3", "--h-max", "0"],
                                      ["count", "--k", "3", "--P", "10",
                                       "--tpq", "0,5"],
                                      # --s 0 used to mean the default s
                                      ["bounds", "--k", "10", "--s", "0"],
                                      ["bounds", "--k", "10", "--s", "-1"],
                                      ["count", "--k", "3", "--P", "20",
                                       "--s", "0"],
                                      ["diff", "--k", "3", "--delta", "1.0",
                                       "--s", "0"],
                                      ["diff", "--k", "3", "--delta", "1.0",
                                       "--s", "-1"],
                                      ["arcs", "--k", "3", "--P", "10",
                                       "--points", "0"],
                                      ["arcs", "--k", "3", "--P", "10",
                                       "--points", "-5"],
                                      ["smooth", "--k", "3", "--P", "1000",
                                       "--levels", "-2"],
                                      ["diff", "--k", "3", "--levels", "-1"],
                                      ["diff", "--k", "3", "--levels", "0"]])
    def test_out_of_range_value_is_config_error(self, capsys, args):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert args[-1] in record["message"]

    @pytest.mark.parametrize("text,bound", [("yes", 83), ("Off", 77)])
    def test_boolean_config_entry(self, capsys, tmp_path, text, bound):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"paper_faithful = {text}\n")
        out = tmp_path / "b.json"
        code, _, _ = run_cli(["bounds", "--k", "10", "--theorem", "2",
                              "--format", "json", "--config", str(cfgfile),
                              "--out", str(out)], capsys)
        assert code == 0
        row = [r for r in json.loads(out.read_text())["rows"]
               if r.get("record") == "gk"][0]
        assert row["bound"] == bound

    def test_unknown_boolean_word_is_config_error(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("paper_faithful = maybe\n")
        code, _, err = run_cli(["bounds", "--k", "10", "--config", str(cfgfile)],
                               capsys)
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert "maybe" in record["message"]

    @pytest.mark.parametrize("args", [["bounds", "--k", "5"],
                                      ["verify", "--quick"]])
    def test_unwritable_out_is_config_error(self, capsys, tmp_path,
                                            monkeypatch, args):
        # the report is written after the work, so skip verify's criteria
        monkeypatch.setattr(cli.acceptance, "run_all", lambda **kw: [])
        out = tmp_path / "missing" / "report.txt"
        code, _, err = run_cli(args + ["--out", str(out)], capsys)
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert str(out) in record["message"]

    @pytest.mark.parametrize("name", ["missing/x.csv", "a_dir"])
    def test_unusable_out_fails_before_work(self, capsys, tmp_path, monkeypatch,
                                            name):
        def never(*args, **kwargs):
            raise AssertionError("bound work ran before --out was checked")
        # KBounds is the per-k entry _cmd_bounds calls first; it solves sigma
        for attr in ("KBounds", "solve_sigma", "gk_bound"):
            monkeypatch.setattr(cli.bound_engine, attr, never)
        (tmp_path / "a_dir").mkdir()
        out = tmp_path / name
        code, _, err = run_cli(["bounds", "--k-range", "5:204", "--out", str(out)],
                               capsys)
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert str(out) in record["message"]
        assert [p.name for p in tmp_path.rglob("*")] == ["a_dir"]  # nothing written

    @pytest.mark.parametrize("args", [["bounds", "--k", "5"],
                                      ["bounds", "--k", "5", "--format", "json"],
                                      ["verify", "--quick"]])
    def test_out_has_the_mode_of_a_plain_open(self, capsys, tmp_path, monkeypatch,
                                              args):
        monkeypatch.setattr(cli.acceptance, "run_all", lambda **kw: [])
        plain = tmp_path / "plain"
        open(plain, "w").close()
        out = tmp_path / "report"
        assert run_cli(args + ["--out", str(out)], capsys)[0] == 0
        assert out.read_text().startswith(("# generated: ", '{\n  "generated": '))
        assert os.stat(out).st_mode == os.stat(plain).st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain", "report"]

    def test_existing_out_keeps_its_mode_and_symlink(self, capsys, tmp_path):
        # as open(path, "w") does: the target of a symlink is rewritten, and
        # an existing file keeps its permission bits
        real = tmp_path / "real.csv"
        real.write_text("old")
        os.chmod(real, 0o640)
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        assert run_cli(["bounds", "--k", "5", "--out", str(link)], capsys)[0] == 0
        assert link.is_symlink()
        assert real.read_text().startswith("# generated: ")
        assert os.stat(real).st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    @pytest.mark.parametrize("args", [["bounds", "--k", "5"],
                                      ["verify", "--quick"]])
    def test_out_that_is_no_regular_file_is_written_in_place(
            self, capsys, tmp_path, monkeypatch, args):
        # a FIFO, and a pipe named as /dev/fd/N, get the report and stay as
        # they were: no temporary file, no rename over the node
        monkeypatch.setattr(cli.acceptance, "run_all", lambda **kw: [])
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        read_end, write_end = os.pipe()
        try:
            for out, source in ((str(fifo), reader),
                                (f"/dev/fd/{write_end}", read_end)):
                assert run_cli(args + ["--out", out], capsys)[0] == 0
                assert os.read(source, 1 << 16).startswith(b"# generated: ")
        finally:
            for fd in (reader, read_end, write_end):
                os.close(fd)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["fifo"]

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write a 0444 file")
    def test_write_protected_out_is_refused_and_kept(self, capsys, tmp_path):
        out = tmp_path / "report"
        out.write_bytes(b"old")
        os.chmod(out, 0o444)
        code, stdout, err = run_cli(["bounds", "--k", "5", "--out", str(out)],
                                    capsys)
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(f"cannot write {out}: ")
        assert stdout == ""
        assert out.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["report"]

    def test_write_denied_out_is_refused_and_kept(self, capsys, tmp_path,
                                                  monkeypatch):
        # the refusal above, with os.access denying write, so that it runs
        # under root too
        def never(k):
            raise AssertionError("bound work ran before --out was checked")
        real_access = os.access

        def access(path, mode, **kwargs):
            if os.fspath(path) == str(out) and mode & os.W_OK:
                return False
            return real_access(path, mode, **kwargs)
        monkeypatch.setattr(cli.bound_engine, "KBounds", never)
        monkeypatch.setattr(cli.os, "access", access)
        out = tmp_path / "report"
        out.write_bytes(b"old")
        code, stdout, err = run_cli(["bounds", "--k", "5", "--out", str(out)],
                                    capsys)
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(f"cannot write {out}: ")
        assert stdout == ""
        assert out.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["report"]

    def test_planted_temporary_name_is_refused(self, capsys, tmp_path):
        # the temporary file is opened with "x": a file or symlink already
        # under its name is neither followed nor truncated nor removed
        out = tmp_path / "report"
        out.write_bytes(b"old")
        victim = tmp_path / "victim"
        victim.write_bytes(b"kept")
        (tmp_path / f".report.{os.getpid()}.tmp").symlink_to(victim)
        code, _, err = run_cli(["bounds", "--k", "5", "--out", str(out)], capsys)
        assert code == 2
        assert json.loads(err)["message"].startswith(f"cannot write {out}: ")
        assert out.read_bytes() == b"old"
        assert victim.read_bytes() == b"kept"
        assert (tmp_path / f".report.{os.getpid()}.tmp").is_symlink()

    @pytest.mark.parametrize("args", [["bounds", "--k", "5"],
                                      ["verify", "--quick"]])
    def test_failed_replace_is_config_error(self, capsys, tmp_path, monkeypatch,
                                            args):
        # every report file is written by one function, which maps OSError
        # to ConfigError and leaves neither a temporary file nor a new report
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", dst)
        monkeypatch.setattr(cli.acceptance, "run_all", lambda **kw: [])
        monkeypatch.setattr(cli.os, "replace", refuse)
        out = tmp_path / "report"
        out.write_bytes(b"old")
        code, _, err = run_cli(args + ["--out", str(out)], capsys)
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(f"cannot write {out}: ")
        assert out.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["report"]

    @pytest.mark.parametrize("args,text", [(["bounds", "--k", "5", "--bogus", "1"],
                                            "--bogus"),
                                           ([], "command"),
                                           (["diff", "--k", "3", "--x-range", "8"],
                                            "--x-range"),
                                           # flags the subcommand does not read
                                           (["verify", "--quick", "--format",
                                             "json"], "--format"),
                                           (["bounds", "--k", "5", "--seed", "1"],
                                            "--seed"),
                                           (["count", "--k", "3", "--P", "20",
                                             "--theta", "0.3"], "--theta"),
                                           (["arcs", "--k", "3", "--P", "10",
                                             "--W", "3"], "--W")])
    def test_bad_command_line_is_config_error(self, capsys, args, text):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert text in record["message"]

    @pytest.mark.parametrize("command,entry", [("bounds", "seed = 1"),
                                               ("count", "theta = 0.3"),
                                               ("arcs", "W = 3"),
                                               ("verify", "format = json")])
    def test_config_key_the_subcommand_does_not_read_is_config_error(
            self, capsys, tmp_path, command, entry):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(entry + "\n")
        code, out, err = run_cli([command, "--config", str(cfgfile)], capsys)
        assert code == 2
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert repr(entry.split()[0]) in record["message"]

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

    def test_long_grid_refused_before_the_arcs_are_listed(self, capsys,
                                                          monkeypatch):
        # M = 4 * 1000^3 + 1: the arc rows (about 304,000) and the Weyl
        # scan come after the moments, so neither is built
        def listed(*args, **kw):
            raise AssertionError("arcs listed before the budget check")
        monkeypatch.setattr(cli.expsum_arcs.ArcDissection, "raw_major_arcs", listed)
        monkeypatch.setattr(cli.expsum_arcs, "weyl_ratio", listed)
        code, _, err = run_cli(["arcs", "--k", "3", "--P", "1000"], capsys)
        assert code == 3
        assert json.loads(err)["message"] == (
            "exact_moment: grid of 4000000001 points: predicted cost "
            "4000000001 exceeds budget 67108864")

    def test_bluestein_grid_refused_before_any_transform(self, capsys,
                                                         monkeypatch):
        # M = 4 * 200^3 + 1 = 3 * 11 * 17 * 57041 is charged as three
        # transforms of 64,012,032 points, over the 2^26 default budget
        def no_fft(*args, **kw):
            raise AssertionError("transform ran")
        monkeypatch.setattr(np.fft, "ifft", no_fft)
        code, _, err = run_cli(["arcs", "--k", "3", "--P", "200"], capsys)
        assert code == 3
        record = json.loads(err)
        assert record["error"] == "BudgetError"
        assert "32000001 points" in record["message"]
        assert "192036096" in record["message"]


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
                                  "--P", "20,40,80", "--out", str(out)], capsys)
            assert code == 0
            rows = [l for l in out.read_text().splitlines()
                    if not l.startswith("#")]
            reader = list(csv.DictReader(io.StringIO("\n".join(rows))))
            for r in reader:
                r.pop("seconds", None)
            outs.append(reader)
        assert outs[0] == outs[1]

    def test_rows_pinned_without_seconds(self, capsys, tmp_path):
        rows = rows_without_seconds(["count", "--k", "3", "--s", "2",
                                     "--P", "20,40,80", "--tpq", "2,5"],
                                    capsys, tmp_path)
        empty = {"|X|": "", "diag_lb": "", "slope": "", "intercept": "",
                 "p": "", "q": ""}

        def row(P, S, provenance, **cells):
            return {**empty, "k": "3", "s": "2", "P": P, "S": S,
                    "provenance": provenance, **cells}
        assert rows == [
            row("20.0", "796", "aux_count.s_count", **{"|X|": "20"},
                diag_lb="400"),
            row("40.0", "3240", "aux_count.s_count", **{"|X|": "40"},
                diag_lb="1600"),
            row("80.0", "12968", "aux_count.s_count", **{"|X|": "80"},
                diag_lb="6400"),
            row("fit", "", "aux_count.exponent_fit", slope="2.013021877486946",
                intercept="0.6519275748053008"),
            row("20.0", "100", "aux_count.t_pq_count", **{"|X|": "10"},
                diag_lb="100", p="2", q="5"),
        ]
        assert list(rows[0]) == ["k", "s", "P", "|X|", "S", "diag_lb",
                                 "provenance", "slope", "intercept", "p", "q"]

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
        write_set(setfile, final)
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

    @pytest.mark.parametrize("args,same_as", [
        (["smooth", "--k", "3", "--P", "1000"], ["--levels", "0"]),
        (["diff", "--k", "3"], ["--levels", "3"]),
        (["diff", "--k", "4", "--delta", "1.0"], ["--levels", "3"])])
    def test_levels_default(self, capsys, tmp_path, args, same_as):
        # smooth: the bare interval; diff: min(3, k) levels
        assert report_body(args, capsys, tmp_path) == \
            report_body(args + same_as, capsys, tmp_path)

    def test_smooth_zero_levels_is_the_interval(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run_cli(["smooth", "--k", "3", "--P", "1000",
                              "--levels", "0", "--out", str(out)], capsys)
        assert code == 0
        rows = list(csv.DictReader(
            l for l in out.read_text().splitlines() if not l.startswith("#")))
        assert rows[0]["size"] == rows[0]["base_floor"] == "1000"

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_diff_k_below_one_is_domain_error(self, capsys, monkeypatch, k):
        # refused before any row: min(3, k) levels would check no chain
        monkeypatch.setattr(cli.differences, "psi", None)
        code, out, err = run_cli(["diff", "--k", k], capsys)
        assert code == 1
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "DomainError"
        assert f"got {k}" in record["message"]

    @pytest.mark.parametrize("args,digest", [
        # the window cells "[lo,hi]" hold a comma, so csv quotes them
        (["smooth", "--k", "3", "--P", "10000", "--delta", "1.0", "--q", "5,7"],
         "ab51b5a3b8df63d511d00c40fd7092718029053f05887684e6d317a88764b5c0"),
        (["smooth", "--k", "3", "--P", "10000,20000", "--levels", "2",
          "--q", "5"],
         "e8d831d75c7618ba5e175c25c956ca639c719d2fd04aa7de5e5593aa5e756273"),
        (["diff", "--k", "3", "--levels", "2", "--delta", "1.0", "--s", "3"],
         "f36525430d970ac36b3ac812f888ecbb02b7ee5b83497fec096ce9387309eeb9"),
        (["smooth", "--k", "3", "--P", "100000", "--theta", "0.4",
          "--levels", "3"],
         "cd410aad5fd829ece92845ff531307934078eced3ed3e9f1d0065709d53567e8"),
        (["smooth", "--k", "5", "--P", "1e7", "--delta", "2.0"],
         "06ccbe89855f3be9097328ed9650848cc47e02a7f79eb702a499c8ebb97da6d7"),
    ])
    def test_report_body_bytes_pinned(self, capsys, tmp_path, args, digest):
        # hashes of the bodies written through csv.writer alone
        assert body_digest(args, capsys, tmp_path) == digest


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

    def test_report_body_bytes_pinned(self, capsys, tmp_path):
        # every line but the timestamp and the per-moment seconds; the grid
        # and arc sums must give the bytes they gave under math.fsum
        digest = "3e8a8e70d5e233673629058f38ea4d7e5198e8f69265612a7b9633434a028e45"
        out = tmp_path / "a.json"
        code, _, _ = run_cli(["arcs", "--k", "3", "--P", "40", "--format", "json",
                              "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_bytes().splitlines(keepends=True)
        body = [line for line in lines
                if not line.lstrip().startswith((b'"generated":', b'"seconds":'))]
        assert len(body) == len(lines) - 5
        assert hashlib.sha256(b"".join(body)).hexdigest() == digest

    def test_csv_rows_pinned_without_seconds(self, capsys, tmp_path):
        rows = rows_without_seconds(["arcs", "--k", "3", "--P", "10"], capsys,
                                    tmp_path)
        assert len(rows) == 37
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
            "93cae0fd3a4b126b095567b743447ed92353fe7e2a04c882ea1d20e1f212968a"

    def test_even_power_rows_pinned_without_seconds(self, capsys, tmp_path):
        # at k = 4 the |f|^(k+2) = |f|^6 row is a conjugate pair
        rows = rows_without_seconds(["arcs", "--k", "4", "--P", "10"], capsys,
                                    tmp_path)
        assert rows[-1]["params"] == "|f|^6"
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
            "f967fca74c745eb43f79f30d1fcace93c2c7683711862718997708d077f75dff"


class TestVerify:
    def test_verify_reports_known_red_criterion(self, capsys, tmp_path):
        out = tmp_path / "v.txt"
        code, stdout, _ = run_cli(["verify", "--quick", "--out", str(out)],
                                  capsys)
        # criterion 6 is a documented spec defect: the run reports it red
        assert code == 4
        assert "FAIL 06" in stdout
        assert "13/14 criteria passed" in stdout

    # sha256 of the body after the '# generated:' line.  Criteria 2 and 12
    # print grid moments and their gaps, so a change in how the grid is
    # computed that moves one rounding shows here.
    @pytest.mark.parametrize("args,digest", [
        (["--quick", "--seed", "3"],
         "6e62c9d398df9aab8fb34a3b1e5dfb0b3e7af3053bd475c42b4e7b5222b60be6"),
        (["--seed", "0"],
         "fd5264b3eee426c6b901eef9691487990fdd3b804c3c718282ab3bdb88438912"),
    ], ids=["quick_seed3", "full_seed0"])
    def test_report_body_bytes_pinned(self, capsys, tmp_path, args, digest):
        out = tmp_path / "v.txt"
        code, _, _ = run_cli(["verify", *args, "--out", str(out)], capsys)
        assert code == 4                        # criterion 6 is red
        generated, body = out.read_bytes().split(b"\n", 1)
        assert generated.startswith(b"# generated: ")
        assert hashlib.sha256(body).hexdigest() == digest

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
