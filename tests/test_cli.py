"""Command-line interface tests."""

from __future__ import annotations

import pytest

from repro.cli import main

from test_wire_frames import HALO3_SRC


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "demo.hpf"
    path.write_text(
        """PROGRAM demo
  PARAM n = 32
  PROCESSORS p(4)
  REAL a(n)
  REAL b(n)
  DISTRIBUTE a(BLOCK) ONTO p
  DISTRIBUTE b(BLOCK) ONTO p
  DO t = 1, 5
    b(2:n-1) = a(1:n-2) + a(3:n)
    a(2:n-1) = b(2:n-1)
  END DO
END PROGRAM
"""
    )
    return str(path)


class TestCompile:
    def test_default_strategy(self, program_file, capsys):
        assert main(["compile", program_file]) == 0
        out = capsys.readouterr().out
        assert "strategy comb" in out
        assert "call sites" in out

    def test_all_strategies(self, program_file, capsys):
        assert main(["compile", program_file, "--all"]) == 0
        out = capsys.readouterr().out
        for name in ("orig", "nored", "comb"):
            assert f"strategy {name}" in out

    def test_report_flag(self, program_file, capsys):
        assert main(["compile", program_file, "--report"]) == 0
        assert "COMM" in capsys.readouterr().out

    def test_listing_flag(self, program_file, capsys):
        assert main(["compile", program_file, "--listing"]) == 0
        out = capsys.readouterr().out
        assert "PROGRAM demo" in out and "! COMM" in out

    def test_check_flag(self, program_file, capsys):
        assert main(["compile", program_file, "--check"]) == 0
        assert "schedule verified" in capsys.readouterr().out

    def test_param_override(self, program_file, capsys):
        assert main(["compile", program_file, "--param", "n=64"]) == 0

    def test_bad_param(self, program_file):
        with pytest.raises(SystemExit):
            main(["compile", program_file, "--param", "oops"])

    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent.hpf"]) == 2
        err = capsys.readouterr().err
        assert "no such file" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1  # one-line diagnostic

    def test_missing_file_simulate(self, capsys):
        assert main(["simulate", "/nonexistent.hpf"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_compile_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.hpf"
        bad.write_text("PROGRAM x\nq = undeclared_thing\nEND\n")
        assert main(["compile", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_multiple_syntax_errors_one_run(self, tmp_path, capsys):
        bad = tmp_path / "bad.hpf"
        bad.write_text(
            "PROGRAM x\nREAL a(4)\na(1) = = 1\na(2) = * 2\na(3) = 3\nEND\n"
        )
        assert main(["compile", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.count("E0200") == 2  # both errors in one run

    def test_max_errors_cap(self, tmp_path, capsys):
        bad = tmp_path / "bad.hpf"
        lines = [f"a({i}) = = {i}" for i in range(1, 8)]
        bad.write_text("PROGRAM x\nREAL a(9)\n" + "\n".join(lines) + "\nEND\n")
        assert main(["compile", str(bad), "--max-errors", "3"]) == 1
        assert capsys.readouterr().err.count("E0200") == 3

    def test_diagnostics_json_errors(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad.hpf"
        bad.write_text("PROGRAM x\nREAL a(4)\na(1) = = 1\nEND\n")
        assert main(["compile", str(bad), "--diagnostics-json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["file"] == str(bad)
        (diag,) = payload["diagnostics"]
        assert diag["code"] == "E0200"
        assert diag["severity"] == "error"
        assert diag["line"] == 3

    def test_diagnostics_json_clean(self, program_file, capsys):
        import json

        assert main(["compile", program_file, "--diagnostics-json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"] == []

    @pytest.mark.parametrize("machine", ["bogus", "sp2", ""])
    def test_unknown_machine_fails_before_compiling(
        self, program_file, capsys, machine
    ):
        assert main(["compile", program_file, "--machine", machine]) == 2
        captured = capsys.readouterr()
        assert "unknown machine" in captured.err
        assert "strategy" not in captured.out

    def test_strict_flag_accepted(self, program_file):
        assert main(["compile", program_file, "--strict"]) == 0


class TestPassFlags:
    def test_list_passes(self, capsys):
        assert main(["compile", "--list-passes"]) == 0
        out = capsys.readouterr().out
        for name in ("analyze", "subset", "redundancy", "greedy",
                     "latest-placement", "earliest-placement", "ilp"):
            assert name in out
        assert "§4.5" in out and "§6.1" in out

    def test_list_passes_reflects_disable(self, capsys):
        assert main(
            ["compile", "--list-passes", "--disable-pass", "greedy"]
        ) == 0
        greedy_row = next(
            ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("greedy")
        )
        assert " no " in greedy_row

    def test_no_file_without_list_passes(self, capsys):
        assert main(["compile"]) == 2
        assert "source file is required" in capsys.readouterr().err

    def test_trace_json(self, program_file, capsys):
        import json

        assert main(["compile", program_file, "--trace-json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["file"] == program_file
        (record,) = payload["strategies"]
        assert record["strategy"] == "comb"
        names = [t["pass"] for t in record["passes"]]
        assert names == ["analyze", "subset", "redundancy", "greedy"]
        for trace in record["passes"]:
            assert trace["wall_s"] >= 0
            assert trace["degraded"] is False

    def test_trace_json_all_strategies(self, program_file, capsys):
        import json

        assert main(
            ["compile", program_file, "--all", "--trace-json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["strategy"] for r in payload["strategies"]] == [
            "orig", "nored", "comb",
        ]

    def test_dump_after(self, program_file, capsys):
        assert main(
            ["compile", program_file, "--dump-after", "subset"]
        ) == 0
        err = capsys.readouterr().err
        assert "== dump after pass 'subset'" in err

    def test_dump_after_unknown_pass(self, program_file, capsys):
        assert main(
            ["compile", program_file, "--dump-after", "nope"]
        ) == 2
        assert "unknown pass 'nope'" in capsys.readouterr().err

    def test_disable_pass(self, program_file, capsys):
        assert main(
            ["compile", program_file, "--disable-pass", "greedy", "--check"]
        ) == 0
        assert "schedule verified" in capsys.readouterr().out

    def test_disable_unknown_pass(self, program_file, capsys):
        assert main(
            ["compile", program_file, "--disable-pass", "nope"]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown pass 'nope'" in err and "greedy" in err

    def test_disable_structural_pass_rejected(self, program_file, capsys):
        assert main(
            ["compile", program_file, "--disable-pass", "analyze"]
        ) == 2
        assert "structural" in capsys.readouterr().err

    def test_custom_pipeline(self, program_file, capsys):
        import json

        assert main(
            ["compile", program_file, "--pipeline", "subset,greedy",
             "--trace-json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        (record,) = payload["strategies"]
        assert [t["pass"] for t in record["passes"]] == [
            "analyze", "subset", "greedy",
        ]

    def test_bad_pipeline_name(self, program_file, capsys):
        assert main(
            ["compile", program_file, "--pipeline", "subset,nope"]
        ) == 2
        assert "unknown pass 'nope'" in capsys.readouterr().err

    def test_named_exact_pipeline(self, program_file, capsys):
        import json

        assert main(
            ["compile", program_file, "--pipeline", "exact",
             "--solver-budget-ms", "500", "--check", "--trace-json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        (record,) = payload["strategies"]
        assert [t["pass"] for t in record["passes"]] == ["analyze", "exact"]
        assert not any(t["degraded"] for t in record["passes"])

    def test_negative_solver_budget_rejected(self, program_file, capsys):
        assert main(
            ["compile", program_file, "--solver-budget-ms", "-5"]
        ) == 2
        assert "--solver-budget-ms" in capsys.readouterr().err

    def test_non_integer_solver_budget_rejected(self, program_file):
        with pytest.raises(SystemExit) as exc:
            main(["compile", program_file, "--solver-budget-ms", "soon"])
        assert exc.value.code == 2

    def test_list_passes_shows_exact(self, capsys):
        assert main(["compile", "--list-passes"]) == 0
        out = capsys.readouterr().out
        assert "exact" in out and "§4+§6.1" in out


class TestOtherCommands:
    def test_simulate(self, program_file, capsys):
        assert main(["simulate", program_file, "--machine", "NOW"]) == 0
        out = capsys.readouterr().out
        assert "msgs/proc" in out
        assert out.count("norm") == 3

    def test_table(self, capsys):
        assert main(["table"]) == 0
        out = capsys.readouterr().out
        assert "shallow" in out and "YES" in out

    def test_profile(self, capsys):
        assert main(["profile"]) == 0
        out = capsys.readouterr().out
        assert "SP2" in out and "NOW" in out and "knee" in out


class TestBatchNdjson:
    def test_every_line_parses_independently(self, program_file, capsys):
        import json

        assert main(["batch", program_file, "--ndjson"]) == 0
        lines = [
            ln for ln in capsys.readouterr().out.splitlines() if ln
        ]
        records = [json.loads(ln) for ln in lines]  # one object per line
        assert [r["kind"] for r in records] == ["result", "summary"]
        result, summary = records
        assert result["name"] == program_file
        assert result["ok"] is True and not result["error"]
        assert summary["jobs"] == 1 and summary["errors"] == 0
        assert "cache" in summary

    def test_ndjson_streams_cache_hits_and_suppresses_human_report(
        self, program_file, capsys
    ):
        import json

        assert main([
            "batch", program_file, "--ndjson", "--repeat", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "round" not in out  # pure NDJSON, no human report
        records = [json.loads(ln) for ln in out.splitlines() if ln]
        results = [r for r in records if r["kind"] == "result"]
        assert len(results) == 2
        assert results[0]["from_cache"] is False
        assert results[1]["from_cache"] is True

    def test_cache_dir_reuses_across_invocations(
        self, program_file, tmp_path, capsys
    ):
        import json

        cache_dir = str(tmp_path / "cache")
        assert main([
            "batch", program_file, "--ndjson", "--cache-dir", cache_dir,
        ]) == 0
        capsys.readouterr()
        assert main([
            "batch", program_file, "--ndjson", "--cache-dir", cache_dir,
        ]) == 0
        records = [
            json.loads(ln)
            for ln in capsys.readouterr().out.splitlines() if ln
        ]
        (result,) = [r for r in records if r["kind"] == "result"]
        (summary,) = [r for r in records if r["kind"] == "summary"]
        assert result["from_cache"] is True
        assert summary["cache"]["disk_hits"] == 1


class TestRun:
    def test_clean_threaded_run(self, program_file, capsys):
        import json

        assert main([
            "run", program_file, "--transport", "threaded",
            "--diagnostics-json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"] == []

    def test_chaos_on_threaded_heals(self, program_file, capsys):
        assert main([
            "run", program_file, "--transport", "threaded",
            "--chaos-spec", "seed=7,drop=0.1,corrupt=0.1",
        ]) == 0
        report = dict(
            line.split()[:2] for line in capsys.readouterr().out.splitlines()
            if line.startswith("   ")
        )
        assert int(report["faults_injected"]) > 0

    @pytest.mark.parametrize("transport", ["inline", "multiprocess"])
    def test_prints_what_it_sent_beside_what_it_charged(
        self, program_file, tmp_path, capsys, transport
    ):
        # Without reductions every charged message is one frame on the
        # wire and every charged byte a byte on it — nested halos (the
        # second program: a(1:n-2) inside a(2:n-1)) included.
        halo3 = tmp_path / "halo3.hpf"
        halo3.write_text(HALO3_SRC)
        for path in (program_file, str(halo3)):
            assert main(["run", path, "--transport", transport]) == 0
            report = {
                key: int(value) for key, value in (
                    line.split()[:2]
                    for line in capsys.readouterr().out.splitlines()
                    if line.startswith("   ")
                )
            }
            assert report["wire_frames"] == report["messages"] > 0
            assert report["wire_bytes"] == report["bytes_moved"] > 0
        assert (report["messages"], report["bytes_moved"]) == (15, 360)

    def test_bad_chaos_spec(self, program_file, capsys):
        assert main(["run", program_file, "--chaos-spec", "explode=1"]) == 2
        assert "bad chaos spec" in capsys.readouterr().err

    def test_direct_runs_without_a_transport(
        self, program_file, tmp_path, capsys
    ):
        """``direct`` is the path the run_compute benchmark measures: it
        charges what ``inline`` charges and prints no wire counts, since
        nothing went on a wire."""
        halo3 = tmp_path / "halo3.hpf"
        halo3.write_text(HALO3_SRC)
        for path in (program_file, str(halo3)):
            reports = {}
            for transport in ("direct", "inline"):
                assert main(["run", path, "--transport", transport]) == 0
                out = capsys.readouterr().out
                assert out.startswith(f"== executed on {transport} ")
                reports[transport] = dict(
                    line.split()[:2] for line in out.splitlines()
                    if line.startswith("   ")
                )
            direct, inline = reports["direct"], reports["inline"]
            assert "wire_frames" not in direct and "wire_bytes" not in direct
            for key in ("messages", "bytes_moved", "reductions"):
                assert direct[key] == inline[key], key
            assert int(direct["messages"]) > 0

    def test_chaos_on_direct_is_refused(self, program_file, capsys):
        assert main([
            "run", program_file, "--transport", "direct",
            "--chaos-spec", "seed=7,drop=0.5,corrupt=0.5,crash=1.0",
        ]) == 2
        assert "'direct' is the fault-free reference" in (
            capsys.readouterr().err
        )

    def test_chaos_on_inline_is_refused(self, program_file, capsys):
        assert main([
            "run", program_file, "--transport", "inline",
            "--chaos-spec", "seed=7,drop=0.1",
        ]) == 2
        assert "'threaded' or 'multiprocess'" in capsys.readouterr().err
