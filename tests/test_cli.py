from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from drfwl import oracle
from drfwl.cli import main
from drfwl.graph import gen_cycle, gen_disjoint_union, gen_petersen, parse_edge_list

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args: str, env_extra: dict | None = None, preexec_fn=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "drfwl", *args],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=preexec_fn,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def c6_file(tmp_path):
    p = tmp_path / "c6.el"
    p.write_text(gen_cycle(6).to_edge_list())
    return str(p)


@pytest.fixture
def petersen_file(tmp_path):
    p = tmp_path / "petersen.el"
    p.write_text(gen_petersen().to_edge_list())
    return str(p)


class TestCount:
    def test_json_schema_and_values(self, c6_file):
        code, out, _ = run_cli("count", "--motifs", "cycle3,cycle6", c6_file)
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 6
        assert report["substructures"]["cycle3"]["graph_level"] == 0
        assert report["substructures"]["cycle6"]["graph_level"] == 1
        assert report["substructures"]["cycle6"]["per_node"] == [1] * 6

    def test_cycle7_at_d2_is_capability_error(self, c6_file):
        code, _, err = run_cli("count", "--motifs", "cycle7", "--d", "2", c6_file)
        assert code == 3
        assert "cycle7" in err

    def test_clique4_closed_form_refused(self, c6_file):
        code, _, _ = run_cli("count", "--motifs", "clique4", c6_file)
        assert code == 3

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("0 zero\n")
        code, _, err = run_cli("count", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_missing_file_exit_2(self):
        code, _, _ = run_cli("count", "/nonexistent/x.el")
        assert code == 2

    def test_matches_oracle_subcommand(self, petersen_file):
        code1, out1, _ = run_cli("count", "--motifs", "cycle5", "--d", "2", petersen_file)
        code2, out2, _ = run_cli("oracle", "--motifs", "cycle5", petersen_file)
        assert code1 == code2 == 0
        a = json.loads(out1)["substructures"]["cycle5"]
        b = json.loads(out2)["substructures"]["cycle5"]
        assert a == b

    def test_text_format(self, c6_file):
        code, out, _ = run_cli("count", "--motifs", "cycle6", "--format", "text", c6_file)
        assert code == 0
        assert "cycle6" in out

    def test_threads_flag_stable_output(self, petersen_file):
        _, out1, _ = run_cli("count", "--threads", "1", petersen_file)
        _, out2, _ = run_cli("count", "--threads", "4", petersen_file)
        assert out1 == out2

    def test_threads_env_fallback(self, petersen_file):
        _, out1, _ = run_cli("count", petersen_file, env_extra={"DRFWL_THREADS": "3"})
        _, out2, _ = run_cli("count", "--threads", "1", petersen_file)
        assert out1 == out2



class TestSerialRuntime:
    """Runs are serial: no worker pool, and the thread knobs change nothing."""

    @staticmethod
    def _env(**extra: str) -> dict:
        env = dict(os.environ)
        env.pop("DRFWL_THREADS", None)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        env.update(extra)
        return env

    def test_default_count_starts_no_pool(self, petersen_file):
        script = (
            "import json, sys, threading\n"
            "from drfwl.cli import main\n"
            f"code = main(['count', {petersen_file!r}])\n"
            "json.dump({'code': code,"
            " 'futures': 'concurrent.futures' in sys.modules,"
            " 'threads': threading.active_count()}, sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=self._env()
        )
        assert proc.returncode == 0, proc.stderr
        state = json.loads(proc.stderr)
        assert state == {"code": 0, "futures": False, "threads": 1}

    def test_thread_knobs_accepted_and_ignored(self, petersen_file):
        def stdout(*args: str, **env: str) -> str:
            proc = subprocess.run(
                [sys.executable, "-m", "drfwl", "count", *args, petersen_file],
                capture_output=True,
                text=True,
                env=self._env(**env),
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        plain = stdout()
        assert json.loads(plain)["n"] == 10
        assert stdout("--threads", "0") == plain
        assert stdout("--threads", "7") == plain
        assert stdout(DRFWL_THREADS="abc") == plain

    def test_invariant_failure_is_not_malformed_input(self, petersen_file, monkeypatch, capsys):
        from drfwl import counting
        from drfwl.errors import InvariantError

        def broken(*args, **kwargs):
            raise InvariantError("aggregation routes disagree")

        monkeypatch.setattr(counting, "compute_node_counts", broken)
        assert main(["count", petersen_file]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert "aggregation routes disagree" in err[0] and "bug" in err[0]


class TestErrorMapping:
    """Exit 2 means malformed input; a bug anywhere else is never exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["distinguish", "--d", "0"],
            ["distinguish", "--mask", "3,0,0"],
            ["distinguish", "--d", "1", "--mask", "2,2,2"],
        ],
    )
    def test_distinguish_user_errors_exit_2(self, argv, c6_file, capsys):
        assert main([*argv, c6_file, c6_file]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "args",
        [
            ["cycle"],
            ["er", "30"],
            ["regular", "10"],
            ["cycle", "six"],
            ["er", "30", "dense"],
            ["regular", "10", "4.5"],
            ["cycle", "2"],
            ["regular", "5", "3"],
            ["separation", "--d", "0"],
        ],
    )
    def test_gen_user_errors_exit_2(self, args, tmp_path, capsys):
        assert main(["gen", *args, "--out", str(tmp_path / "g")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("method", ["wl1", "fwl2", "drfwl"])
    def test_distinguish_d_below_1_exit_2_for_every_method(self, method, c6_file, capsys):
        assert main(["distinguish", "--method", method, "--d", "0", c6_file, c6_file]) == 2
        assert "--d must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["wl1", "fwl2"])
    def test_distinguish_mask_without_drfwl_exit_2(self, method, c6_file, capsys):
        argv = ["distinguish", "--method", method, "--mask", "9,9,9", c6_file, c6_file]
        assert main(argv) == 2
        assert "--mask applies to --method drfwl only" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["cycle", "6", "7"],
            ["er", "30", "0.1", "5"],
            ["regular", "10", "4", "1"],
            ["separation", "3"],
        ],
    )
    def test_gen_surplus_arguments_exit_2(self, args, tmp_path, capsys):
        assert main(["gen", *args, "--out", str(tmp_path / "g")]) == 2
        assert "argument" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_gen_format_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "cycle", "3", "--format", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    def test_bench_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unwritable_output_exit_2(self, c6_file, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        assert main(["count", c6_file, "--output", str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err
        assert not target.parent.exists()

    def test_gen_separation_unwritable_prefix_exit_2(self, tmp_path, capsys):
        prefix = tmp_path / "missing" / "p"
        assert main(["gen", "separation", "--out", str(prefix)]) == 2
        assert "cannot write" in capsys.readouterr().err
        assert not prefix.parent.exists()

    @pytest.mark.parametrize("d", ["0", "1"])
    def test_count_below_d2_exit_2(self, d, c6_file, capsys):
        assert main(["count", "--d", d, c6_file]) == 2
        assert "--d 2" in capsys.readouterr().err

    def test_non_utf8_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_bytes(b"0 1\n\xff\xfe 2\n")
        assert main(["count", str(bad)]) == 2

    @pytest.mark.parametrize("error", [IndexError, ValueError, KeyError])
    def test_internal_error_propagates(self, error, petersen_file, monkeypatch):
        from drfwl import counting, refine

        def broken(*args, **kwargs):
            raise error("bug inside a pass")

        monkeypatch.setattr(counting, "pairwise_p2", broken)
        with pytest.raises(error):
            main(["count", petersen_file])
        monkeypatch.setattr(refine, "_drfwl_blocks", broken)
        with pytest.raises(error):
            main(["distinguish", petersen_file, petersen_file])


class TestOracle:
    def test_clique4_allowed(self, tmp_path):
        p = tmp_path / "k4.el"
        p.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        code, out, _ = run_cli("oracle", "--motifs", "clique4", str(p))
        assert code == 0
        assert json.loads(out)["substructures"]["clique4"]["graph_level"] == 1


class TestDistinguish:
    def test_wl1_indistinguishable(self, tmp_path):
        a = tmp_path / "a.el"
        b = tmp_path / "b.el"
        a.write_text(gen_disjoint_union([gen_cycle(3), gen_cycle(3)]).to_edge_list())
        b.write_text(gen_cycle(6).to_edge_list())
        code, out, _ = run_cli("distinguish", "--method", "wl1", "--format", "text", str(a), str(b))
        assert code == 0 and out.startswith("INDISTINGUISHABLE")
        code, out, _ = run_cli("distinguish", "--method", "drfwl", "--d", "1", "--format", "text", str(a), str(b))
        assert code == 0 and out.startswith("DISTINGUISHED")

    def test_json_verdict(self, tmp_path):
        a = tmp_path / "a.el"
        a.write_text(gen_cycle(8).to_edge_list())
        code, out, _ = run_cli("distinguish", str(a), str(a))
        payload = json.loads(out)
        assert code == 0
        assert payload["distinguished"] is False
        assert payload["iterations"] >= 1

    def test_d_far_beyond_the_diameter(self, c6_file):
        # C6 has diameter 3: a larger d adds nothing to the index, so
        # d = 100000 runs in a child limited to 100 MB of address space
        resource = pytest.importorskip("resource")

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20))

        reports = {}
        for d in (3, 100000):
            code, out, err = run_cli(
                "distinguish", "--method", "drfwl", "--d", str(d), c6_file, c6_file,
                preexec_fn=limit_memory,
            )
            assert code == 0, err
            reports[d] = json.loads(out)
            assert reports[d].pop("d") == d
        assert reports[3] == reports[100000]

    def test_fwl2_cap_exit_3(self, tmp_path):
        a = tmp_path / "a.el"
        a.write_text(gen_cycle(97).to_edge_list())
        code, _, _ = run_cli("distinguish", "--method", "fwl2", str(a), str(a))
        assert code == 3

    def test_mask_accepted(self, tmp_path):
        a = tmp_path / "a.el"
        a.write_text(gen_cycle(8).to_edge_list())
        code, out, _ = run_cli(
            "distinguish", "--method", "drfwl", "--d", "2", "--mask", "2,2,2", str(a), str(a)
        )
        assert code == 0 and not json.loads(out)["distinguished"]

    def test_bad_mask_exit_2(self, tmp_path):
        a = tmp_path / "a.el"
        a.write_text(gen_cycle(8).to_edge_list())
        code, _, _ = run_cli(
            "distinguish", "--method", "drfwl", "--mask", "0,0,2", str(a), str(a)
        )
        assert code == 2


@pytest.mark.parametrize("command", ["count", "distinguish"])
def test_huge_d_costs_what_the_diameter_does(c6_file, command):
    # the index stops at C6's last non-empty shell, so d = 10**6 runs as
    # fast as d = 3 and reports the same, less the requested d
    resource = pytest.importorskip("resource")
    inputs = [c6_file] * (2 if command == "distinguish" else 1)
    reports = {}
    for d in (3, 10**6):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        code, out, err = run_cli(command, "--d", str(d), *inputs)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert code == 0, err
        assert (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime) < 1.0
        reports[d] = json.loads(out)
        assert reports[d].pop("d", d) == d
    assert reports[3] == reports[10**6]


class TestGen:
    def test_cycle_file(self, tmp_path):
        out = tmp_path / "c6.el"
        code, _, _ = run_cli("gen", "cycle", "6", "--out", str(out))
        assert code == 0
        g = parse_edge_list(out.read_text())
        assert (g.n, g.m) == (6, 6)

    def test_er_deterministic(self, tmp_path):
        o1, o2 = tmp_path / "a.el", tmp_path / "b.el"
        run_cli("gen", "er", "30", "0.15", "--seed", "5", "--out", str(o1))
        run_cli("gen", "er", "30", "0.15", "--seed", "5", "--out", str(o2))
        assert o1.read_text() == o2.read_text()

    def test_separation_family(self, tmp_path):
        code, out, _ = run_cli(
            "gen", "separation", "--d", "2", "--out", str(tmp_path / "sep")
        )
        assert code == 0
        paths = [Path(line) for line in out.splitlines()]
        assert len(paths) == 2
        double = parse_edge_list(paths[0].read_text())
        single = parse_edge_list(paths[1].read_text())
        assert (double.n, double.m) == (14, 14)
        assert (single.n, single.m) == (14, 14)
        assert oracle.oracle_graph_count(double, "cycle7") == 2
        assert oracle.oracle_graph_count(single, "cycle7") == 0


class TestPathNames:
    """Files are opened and named as ``pathlib`` spells them."""

    def test_separation_file_names(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert main(["gen", "separation", "--d", "2", "--out", "./sub//sep"]) == 0
        assert capsys.readouterr().out == "sub/sep-two-c7.el\nsub/sep-c14.el\n"
        assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == ["sep-c14.el", "sep-two-c7.el"]

    def test_missing_file_message(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["count", "./missing.el"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot read ./missing.el: [Errno 2] No such file or directory: 'missing.el'\n"
        )
