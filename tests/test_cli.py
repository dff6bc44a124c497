from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from conftest import child_env, run_child
from graph_helpers import double_cycle, gen_petersen
from drfwl import oracle
from drfwl.cli import main
from drfwl.counting import check_motifs
from drfwl.errors import CapabilityError
from drfwl.graph import check_d, gen_cycle, gen_random_regular, parse_edge_list
from drfwl.refine import check_request


def run_cli(*args: str, preexec_fn=None):
    proc = run_child("-m", "drfwl", *args, exit_code=None, preexec_fn=preexec_fn)
    return proc.returncode, proc.stdout, proc.stderr


def at_missing_paths(argv: list[str], tmp_path: Path) -> list[str]:
    """``argv`` with the subcommand's files, right after its name, at paths
    that do not exist: a refusal that came after a read or a write would
    print "cannot read" or "cannot write" instead."""
    missing = str(tmp_path / "missing" / "x.el")
    files = {"distinguish": [missing, missing], "gen": ["--out", missing]}.get(argv[0], [missing])
    return [argv[0], *files, *argv[1:]]


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

    def test_full_d3_report_follows_the_catalog(self, petersen_file):
        code, out, _ = run_cli("count", "--d", "3", petersen_file)
        assert code == 0
        assert tuple(json.loads(out)["substructures"]) == check_motifs(3)

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

    def test_repeated_motif_is_reported_once(self, petersen_file, capsys):
        assert main(["count", "--motifs", "cycle5,path2", petersen_file]) == 0
        plain = capsys.readouterr().out
        assert main(["count", "--motifs", "cycle5,path2,cycle5", petersen_file]) == 0
        assert capsys.readouterr().out == plain

    def test_text_format(self, c6_file):
        code, out, _ = run_cli("count", "--motifs", "cycle6", "--format", "text", c6_file)
        assert code == 0
        assert "cycle6" in out


class TestSerialRuntime:
    """Runs are serial: no worker pool, and the thread knobs change nothing."""

    @staticmethod
    def _env(**extra: str) -> dict:
        env = child_env()
        env.pop("DRFWL_THREADS", None)
        return {**env, **extra}

    def test_default_count_starts_no_pool(self, petersen_file):
        script = (
            "import json, sys, threading\n"
            "from drfwl.cli import main\n"
            f"code = main(['count', {petersen_file!r}])\n"
            "json.dump({'code': code,"
            " 'futures': 'concurrent.futures' in sys.modules,"
            " 'threads': threading.active_count()}, sys.stderr)\n"
        )
        state = json.loads(run_child("-c", script, env=self._env()).stderr)
        assert state == {"code": 0, "futures": False, "threads": 1}

    def test_thread_knobs_accepted_and_ignored(self, petersen_file):
        def stdout(*args: str, **env: str) -> str:
            argv = ["-m", "drfwl", "count", *args, petersen_file]
            return run_child(*argv, env=self._env(**env)).stdout

        plain = stdout()
        assert json.loads(plain)["n"] == 10
        for threads in ("0", "1", "4", "7"):
            assert stdout("--threads", threads) == plain
        for threads in ("3", "abc"):
            assert stdout(DRFWL_THREADS=threads) == plain

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

    def test_odd_node_sum_names_its_motif(self, petersen_file, monkeypatch, capsys):
        # one 3-path too many at one edge tuple leaves a node's 4-cycle sum odd
        from drfwl import counting

        real = counting.compute_pair_stats

        def off_by_one(idx):
            stats = real(idx)
            stats.p3[idx.rows[0][idx.graph.adjacency[0][0]]] += 1
            return stats

        monkeypatch.setattr(counting, "compute_pair_stats", off_by_one)
        assert main(["count", petersen_file]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert "cycle4" in err[0] and "bug" in err[0]


class TestErrorMapping:
    """Exit 2 means malformed input; a bug anywhere else is never exit 2.

    Each refusal of a request is a row of one of three tables: the legs'
    rules, the CLI's own parse rules, and the parser's.  Every row runs at
    paths that do not exist (``at_missing_paths``) and checks the exit code
    and the exact stderr line."""

    @pytest.mark.parametrize(
        "argv, check, request_",
        [
            (["distinguish", "--d", "0"], check_request, ("drfwl", 0, None)),
            (["distinguish", "--method", "wl1", "--d", "0"], check_request, ("wl1", 0, None)),
            (["distinguish", "--method", "fwl2", "--d", "0"], check_request, ("fwl2", 0, None)),
            (["distinguish", "--method", "wl1", "--d", "-1"], check_request, ("wl1", -1, None)),
            (["distinguish", "--method", "wl1", "--mask", "1,1,1"], check_request, ("wl1", 2, [(1, 1, 1)])),
            (["distinguish", "--method", "fwl2", "--mask", "9,9,9"], check_request, ("fwl2", 2, [(9, 9, 9)])),
            (["distinguish", "--method", "wl1", "--mask", " "], check_request, ("wl1", 2, [])),
            (["distinguish", "--method", "wl1", "--mask", ";"], check_request, ("wl1", 2, [])),
            (["distinguish", "--method", "fwl2", "--mask", " "], check_request, ("fwl2", 2, [])),
            (["distinguish", "--method", "fwl2", "--mask", ";"], check_request, ("fwl2", 2, [])),
            (["distinguish", "--mask", "0,0,2"], check_request, ("drfwl", 2, [(0, 0, 2)])),
            (["distinguish", "--mask", "3,0,0"], check_request, ("drfwl", 2, [(3, 0, 0)])),
            (["distinguish", "--d", "1", "--mask", "2,2,2"], check_request, ("drfwl", 1, [(2, 2, 2)])),
            (["count", "--d", "0"], check_motifs, (0, None)),
            (["count", "--d", "1"], check_motifs, (1, None)),
            (["count", "--d", "1", "--motifs", "cycle3"], check_motifs, (1, ["cycle3"])),
            (["count", "--motifs", "cycle7"], check_motifs, (2, ["cycle7"])),
            (["count", "--motifs", "clique4"], check_motifs, (2, ["clique4"])),
            (["count", "--motifs", "cycle3,cycle9"], check_motifs, (2, ["cycle3", "cycle9"])),
            (["count", "--d", "1", "--motifs", "clique4"], check_motifs, (1, ["clique4"])),
            (["oracle", "--motifs", "cycle8"], oracle.check_motifs, (["cycle8"],)),
            (["oracle", "--motifs", "cycle3,tr9"], oracle.check_motifs, (["cycle3", "tr9"],)),
            (["oracle", "--motifs", "clique4,cycle99"], oracle.check_motifs, (["clique4", "cycle99"],)),
            (["gen", "separation", "--d", "0"], check_d, (0,)),
        ],
        ids=[
            "d0", "wl1-d0", "fwl2-d0", "wl1-d-1", "wl1-mask", "fwl2-mask",
            "wl1-mask-space", "wl1-mask-semicolon", "fwl2-mask-space", "fwl2-mask-semicolon",
            "bad-triple", "triple-past-d2", "triple-above-d",
            "count-d0", "count-d1", "count-d1-cycle3", "cycle7-d2", "clique4", "unknown", "clique4-d1",
            "oracle-cycle8", "oracle-tr9", "oracle-cycle99", "separation-d0",
        ],
    )
    def test_exit_code_is_the_legs_refusal(self, argv, check, request_, tmp_path, capsys):
        # the leg's ValueError exits 2 and its CapabilityError 3, with the
        # leg's message.  An empty mask (" " or ";") is still a mask, and
        # the method rule comes before the triple rule (9,9,9)
        with pytest.raises((ValueError, CapabilityError)) as refusal:
            check(*request_)
        want = 3 if isinstance(refusal.value, CapabilityError) else 2
        assert main(at_missing_paths(argv, tmp_path)) == want
        assert capsys.readouterr() == ("", f"error: {refusal.value}\n")

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["count", "--motifs", ","], "--motifs ',' names no motif"),
            (["count", "--motifs", ""], "--motifs '' names no motif"),
            (["oracle", "--motifs", ","], "--motifs ',' names no motif"),
            (["oracle", "--motifs", ""], "--motifs '' names no motif"),
            (["distinguish", "--mask", "1,1"], "mask triple '1,1' is not 'i,j,k'"),
            (["distinguish", "--mask", "1,x,2"], "mask triple '1,x,2' has non-integer parts"),
            (["gen", "cycle"], "gen cycle takes 1 argument(s), got 0"),
            (["gen", "er", "30"], "gen er takes 2 argument(s), got 1"),
            (["gen", "regular", "10"], "gen regular takes 2 argument(s), got 1"),
            (["gen", "cycle", "6", "7"], "gen cycle takes 1 argument(s), got 2"),
            (["gen", "er", "30", "0.1", "5"], "gen er takes 2 argument(s), got 3"),
            (["gen", "regular", "10", "4", "1"], "gen regular takes 2 argument(s), got 3"),
            (["gen", "separation", "3"], "gen separation takes no arguments, got 1"),
            (["gen", "cycle", "six"], "gen cycle: invalid literal for int() with base 10: 'six'"),
            (["gen", "er", "30", "dense"], "gen er: could not convert string to float: 'dense'"),
            (["gen", "regular", "10", "4.5"], "gen regular: invalid literal for int() with base 10: '4.5'"),
            (["gen", "cycle", "2"], "gen cycle: a cycle needs at least 3 nodes"),
            (["gen", "regular", "5", "3"], "gen regular: n*r must be even"),
        ],
        ids=[
            "count-comma", "count-empty", "oracle-comma", "oracle-empty", "mask-arity", "mask-parts",
            "cycle-0-args", "er-1-arg", "regular-1-arg", "cycle-2-args", "er-3-args",
            "regular-3-args", "separation-1-arg", "cycle-six", "er-dense", "regular-4.5",
            "cycle-2", "regular-odd",
        ],
    )
    def test_cli_parse_rule_exit_2(self, argv, line, tmp_path, capsys):
        # a --motifs list naming no motif is malformed, not the whole catalog
        assert main(at_missing_paths(argv, tmp_path)) == 2
        assert capsys.readouterr() == ("", f"error: {line}\n")

    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                ["gen", "cycle", "3", "--format", "json"],
                r"drfwl: error: unrecognized arguments: --format json",
            ),
            (
                ["gen", "grid", "3"],
                r"drfwl gen: error: argument kind: invalid choice: 'grid' "
                r"\(choose from '?cycle'?, '?er'?, '?regular'?, '?separation'?\)",
            ),
            (
                ["bench"],
                r"drfwl: error: argument command: invalid choice: 'bench' "
                r"\(choose from '?count'?, '?oracle'?, '?distinguish'?, '?gen'?\)",
            ),
            (
                ["distinguish", "--method", "foo"],
                r"drfwl distinguish: error: argument --method: invalid choice: 'foo' "
                r"\(choose from '?wl1'?, '?fwl2'?, '?drfwl'?\)",
            ),
            (["count", "--d", "two"], r"drfwl count: error: argument --d: invalid int value: 'two'"),
            (["oracle", "--threads", "1"], r"drfwl: error: unrecognized arguments: --threads 1"),
        ],
        ids=["gen-format", "gen-grid", "bench", "method-foo", "d-two", "oracle-threads"],
    )
    def test_parser_refusal_exit_2(self, argv, line, tmp_path, capsys):
        # gen's kinds come in GENERATORS' order, quoted or not as the Python
        # version prints them; count and distinguish still take --threads
        with pytest.raises(SystemExit) as exc:
            main(at_missing_paths(argv, tmp_path))
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert re.fullmatch(line, err.splitlines()[-1])

    @pytest.mark.parametrize(
        "argv, n, line",
        [
            (["distinguish", "--method", "fwl2"], 97, "fwl2 is dense O(n^3); n=97 exceeds the cap of 96"),
            (["oracle"], 513, "oracle supports at most 512 nodes, got 513"),
        ],
        ids=["fwl2", "oracle"],
    )
    def test_size_cap_exit_3(self, argv, n, line, tmp_path, capsys):
        # a size cap is judged on the input read, one node past the cap
        path = tmp_path / "big.el"
        path.write_text(gen_cycle(n).to_edge_list())
        inputs = [str(path)] * (2 if argv[0] == "distinguish" else 1)
        assert main([argv[0], *inputs, *argv[1:]]) == 3
        assert capsys.readouterr() == ("", f"error: {line}\n")

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

    @pytest.mark.parametrize("text", ["0 1_0\n", "n +3\n0 1\n"])
    def test_non_decimal_token_exit_2(self, text, tmp_path, capsys):
        bad = tmp_path / "bad.el"
        bad.write_text(text, encoding="utf-8")
        assert main(["count", "--d", "2", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_non_utf8_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_bytes(b"0 1\n\xff\xfe 2\n")
        assert main(["count", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["count", "oracle", "distinguish"])
    def test_leading_byte_order_mark_counts_as_the_plain_file(self, command, tmp_path, capsys):
        stdout = []
        for name, data in (("plain.el", b"0 1\n1 2\n"), ("marked.el", b"\xef\xbb\xbf0 1\n1 2\n")):
            (tmp_path / name).write_bytes(data)
            inputs = [str(tmp_path / name)] * (2 if command == "distinguish" else 1)
            assert main([command, *inputs]) == 0
            stdout.append(capsys.readouterr().out)
        assert stdout[0] == stdout[1]

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
        a.write_text(double_cycle(3).to_edge_list())
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

    def test_mask_accepted(self, tmp_path):
        a = tmp_path / "a.el"
        a.write_text(gen_cycle(8).to_edge_list())
        code, out, _ = run_cli(
            "distinguish", "--method", "drfwl", "--d", "2", "--mask", "2,2,2", str(a), str(a)
        )
        assert code == 0 and not json.loads(out)["distinguished"]


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


def test_count_with_huge_d_builds_only_the_depth_its_motifs_read(tmp_path):
    # n = 1000, 4-regular: an index as deep as the diameter takes about
    # 190 MB by d = 6 and does not fit in 128 MB of address space; the
    # depth-3 index the motifs read peaks near 28 MB and does
    resource = pytest.importorskip("resource")
    path = tmp_path / "regular.el"
    path.write_text(gen_random_regular(1000, 4, 1).to_edge_list())

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))

    code, out, err = run_cli("count", "--d", "1000000", str(path), preexec_fn=limit_memory)
    assert code == 0, err
    assert out == run_cli("count", "--d", "3", str(path))[1]


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
