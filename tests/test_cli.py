"""CLI surface: subcommands, report schema, determinism, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hellykit
from hellykit import cli, corpus, helly, quasiconvex
from hellykit.cli import main
from hellykit.gamma import GammaWindow, recommended_n
from hellykit.graph_io import graph_from_json, graph_to_json, load_graph
from hellykit.graphs import Graph
from hellykit.groups import CyclicFactor, FreeAbelianFactor, GroupSpec
from hellykit.reports import ReportError, dumps, render, validate_report
from oracles import EDGE_KINDS, build_parser, parent_window


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def c4_edge_list(tmp_path):
    return write(tmp_path / "c4.txt", "# a square\n0 1\n1 2\n2 3\n3 0\n")


def group_file(tmp_path, spec):
    return write(tmp_path / "group.json", json.dumps(spec.to_json()))


def cycle_with_chords(n, chords, seed):
    """C_n plus `chords` distinct seeded chords."""
    rng = random.Random(seed)
    edges = [(i, (i + 1) % n) for i in range(n)]
    extra = []
    while len(extra) < chords:
        u, v = sorted(rng.sample(range(n), 2))
        if v - u in (1, n - 1) or (u, v) in extra:
            continue
        extra.append((u, v))
    return Graph(n, edges + extra)


# the required arguments of each subcommand; with them, an unknown flag
# gets past the subparser to the top parser, which reports it under its
# own usage line
REQUIRED_ARGS = {"analyze": ["g.json"], "hellyfy": ["g.json"],
                 "group": ["ball", "--spec", "s.json", "--radius", "1"],
                 "gamma": ["build", "--group", "g.json", "--N", "1",
                           "--radius", "1"],
                 "derive": ["--group", "g.json", "--N", "1"],
                 "measure": ["--what", "nu", "--group", "g.json"],
                 "quasiconvex": ["--ambient", "a.json", "--orbit", "o.json",
                                 "--k", "1"],
                 "corpus": ["cycle"], "dot": ["g.json"]}
USAGE_CASES = {"no-args": [], "help": ["--help"], "unknown-command": ["frobnicate"]}
for _command in cli.SUBCOMMANDS:
    USAGE_CASES[f"{_command}-help"] = [_command, "--help"]
    USAGE_CASES[f"{_command}-missing-args"] = [_command]
    USAGE_CASES[f"{_command}-unknown-flag"] = [_command, *REQUIRED_ARGS[_command],
                                               "--no-such-flag"]


ORACLE = build_parser()


def parsed(parse, argv):
    """What `parse` makes of argv: ("ok", every dest and its value) or
    ("exit", the exit code); what it writes is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return "ok", vars(parse(list(argv)))
        except SystemExit as exc:
            return "exit", exc.code


def oracle_flags(command):
    """The option strings the oracle gives `command`."""
    sub = next(action for action in ORACLE._actions
               if isinstance(action, argparse._SubParsersAction))
    return set(sub.choices[command]._option_string_actions)


def groups(argv):
    """argv cut into flags with their value and single positionals."""
    cut, i = [], 0
    while i < len(argv):
        step = 2 if argv[i].startswith("--") else 1
        cut.append(argv[i:i + step])
        i += step
    return cut


@st.composite
def command_lines(draw, command, required, flags, values):
    """`command` with its required arguments, each mostly kept, in any order
    among up to four items drawn from pools: one of flags or a prefix of it,
    with a value from values(flag), with it after "=", or with none (half of
    the items are a flag with its value); an unknown flag, a stray
    positional, a negative number or help."""
    names = st.sampled_from(sorted({(f[:k], f) for f in flags
                                    for k in range(3, len(f) + 1)}))
    with_value = names.flatmap(lambda nf: st.tuples(
        st.just(nf[0]), st.sampled_from(values(nf[1]))))
    item = st.one_of(
        with_value.map(list), with_value.map(list),
        with_value.map(lambda pair: ["=".join(pair)]), names.map(lambda nf: [nf[0]]),
        st.sampled_from(["--no-such-flag", "-x", "stray", "-1", "-h", "--help"]
                        ).map(lambda token: [token]))
    kept = [g for g in groups(required) if draw(st.integers(0, 9))]
    order = draw(st.permutations(kept + draw(st.lists(item, max_size=4))))
    return [command] + [token for g in order for token in g]


# value pools: the sizes of the argv contract, and the text argparse reads
SMALL = ["-1", "0", "1", "2", "1/0", "x"]
ORACLE_VALUES = SMALL + [str(10 ** 30), "-x", "-2.5", "", "nu", "rel", "ball"]


class TestAnalyze:
    def test_c4(self, tmp_path, capsys):
        code = main(["analyze", c4_edge_list(tmp_path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        validate_report(report)
        assert report["result"]["is_helly"] is False
        assert report["result"]["xi"] == 1
        assert report["result"]["pseudo_modular"] is True
        assert report["result"]["witness"] == [[0, 1], [1, 1], [2, 1], [3, 1]]

    def test_helly_graph_above_the_bound(self, tmp_path, capsys):
        # the bound is on the enumeration, which a Helly graph does not need
        path = write(tmp_path / "king.json",
                     json.dumps(graph_to_json(corpus.king_grid(4, 4))))
        assert main(["analyze", path]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["is_helly"] is True
        assert result["xi"] == 0
        assert "witness" not in result

    def test_search_within_the_bound_is_silent(self, tmp_path):
        # C16 needs the search, and --max-vertices 16 admits it: the report
        # is written and stderr stays empty, warnings shown or not
        path = write(tmp_path / "c16.json",
                     json.dumps(graph_to_json(corpus.cycle(16))))
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-m", "hellykit.cli", "analyze",
             path, "--max-vertices", "16"],
            env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["result"]["xi"] == 4

    def test_search_past_the_recursion_limit(self, tmp_path, capsys):
        # C5 with 1,100 pendant leaves on vertex 0: the witness and xi
        # searches assign 1,105 vertices, past Python's recursion limit
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(0, v) for v in range(5, 1105)]
        path = write(tmp_path / "pendant.json",
                     json.dumps(graph_to_json(Graph(1105, edges))))
        assert main(["analyze", path, "--max-vertices", "2000"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        result = json.loads(captured.out)["result"]
        assert (result["xi"], result["beta"], result["pseudo_modular"]) == (1, 1, False)

    def test_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["analyze", c4_edge_list(tmp_path), "--out", str(out1)])
        main(["analyze", c4_edge_list(tmp_path), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    # sha256 of the analyze report on C14 (non-Helly, 1,094 extremal
    # functions) and the 3x3 king grid (Helly), and on C16 and C18 (3,281 and
    # 9,842 extremal functions, run with --max-vertices 18), all computed
    # when the witness and xi came from the full enumeration; the report
    # records the graph path, so the file is read by a fixed relative name
    @pytest.mark.parametrize("name, graph, digest", [
        ("c14", lambda: corpus.cycle(14),
         "1ae1df26d1c3f4eea808ee1875d1e23cf4ce82eeefe3bdf7fbe55f542b0f6699"),
        ("king3x3", lambda: corpus.king_grid(3, 3),
         "4b2a084694dc6201595a6098a5a0840463725a622fbb42720abdbf40c40ae8fa"),
        ("c16", lambda: corpus.cycle(16),
         "a9e79327bdf351c54641ac313b070d5edae59000b19623ab62b07026992fa2c1"),
        ("c18", lambda: corpus.cycle(18),
         "e4c89c9d98c4260b807db504285db95c82fa401fc1742b96e30851e660f3a6fa"),
    ], ids=["c14", "king3x3", "c16", "c18"])
    def test_pinned_report_digest(self, tmp_path, monkeypatch, name, graph, digest):
        monkeypatch.chdir(tmp_path)
        g = graph()
        write(tmp_path / f"{name}.json", json.dumps(graph_to_json(g)))
        argv = ["analyze", f"{name}.json", "--out", "a.json"]
        if g.n > helly.EXTREMAL_VERTEX_BOUND:
            argv += ["--max-vertices", "18"]
        assert main(argv) == 0
        assert hashlib.sha256((tmp_path / "a.json").read_bytes()).hexdigest() == digest


class TestHellyfy:
    def test_c4_wheel(self, tmp_path, capsys):
        out = tmp_path / "hf.json"
        code = main(["hellyfy", c4_edge_list(tmp_path), "--out", str(out)])
        assert code == 0
        assert "helly: true" in capsys.readouterr().err
        report = json.loads(out.read_text())
        g = graph_from_json(report["result"]["graph"])
        assert g.n == 5
        assert sorted(len(a) for a in g.adj) == [3, 3, 3, 3, 4]

    def test_corrupted_hull_exits_1(self, tmp_path, monkeypatch, capsys):
        # the C8 hull less the functions whose min is 1 leaves those of
        # min 2 cut off the image: the depth postcondition fails, and a
        # failed postcondition exits 1
        fs = helly.extremal_functions(corpus.cycle(8))
        monkeypatch.setattr(helly, "extremal_functions",
                            lambda g, max_vertices: [f for f in fs if min(f) != 1])
        path = write(tmp_path / "c8.json", json.dumps(graph_to_json(corpus.cycle(8))))
        assert main(["hellyfy", path]) == 1
        assert "deep from the image" in capsys.readouterr().err

    # sha256 of the hellyfy report on C8, C9, C10 (a 122-vertex hull), C12
    # (a 365-vertex hull) and a C10 with two seeded chords (43 extremal
    # functions), each computed when the hull edges came from a scan of every
    # pair and the postcondition checked one triangle at a time; the report
    # records the graph path, so the file is read by a fixed relative name
    @pytest.mark.parametrize("name, graph, digest", [
        ("c8", lambda: corpus.cycle(8),
         "f86b813a2806da70e86ceca78ee27a105c09701d4b439b4f898d4a776a9ff217"),
        ("c9", lambda: corpus.cycle(9),
         "9bb8743fc7a7b7bae48eba207cad277b63f62e74f92f7781267c642f2d32bf41"),
        ("c10", lambda: corpus.cycle(10),
         "cb2e1d780c0cb7b08816027894082d5daeb38721355a0761297193f2a0a64029"),
        ("c10k2", lambda: cycle_with_chords(10, 2, seed=9),
         "ce56c6b75430f59336cdfaf19554a992d86c8f820bf674c6d7e089d5e80d2877"),
        ("c12", lambda: corpus.cycle(12),
         "1ccfb5ffe74134e4b3d2e7571b6ef43888e32f1cb76ecc993bdcf178f3d4b149"),
    ], ids=["c8", "c9", "c10", "c10k2", "c12"])
    def test_pinned_report_digest(self, tmp_path, monkeypatch, capsys, name,
                                  graph, digest):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / f"{name}.json", json.dumps(graph_to_json(graph())))
        assert main(["hellyfy", f"{name}.json", "--out", "h.json"]) == 0
        assert hashlib.sha256((tmp_path / "h.json").read_bytes()).hexdigest() == digest


class TestUsage:
    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_required_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["gamma", "build"])
        assert info.value.code == 2


    @pytest.mark.parametrize("argv", USAGE_CASES.values(), ids=USAGE_CASES.keys())
    def test_one_subparser_matches_the_full_parser(self, capsys, argv):
        # main reads the named subcommand's row of the flag table alone: it
        # makes of argv what the full argparse parser made of it.  Help exits
        # 0; a usage error exits 2 with one stderr line in the form every
        # exit 2 uses
        assert parsed(cli.parse, argv) == parsed(ORACLE.parse_args, argv)
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        if "--help" in argv:
            assert info.value.code == 0 and captured.out.startswith("usage: hellykit")
        else:
            assert info.value.code == 2 and captured.out == ""
            assert re.fullmatch(r"hellykit( [a-z]+)?: UsageError: [^\n]+\n",
                                captured.err)

    def test_readme_examples_parse(self):
        # every command line the README shows must still parse, to the
        # values the oracle reads, so a removed or renamed flag cannot linger
        # in the docs
        readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        lines = [line.split("#", 1)[0]
                 for line in readme.read_text(encoding="utf-8").splitlines()
                 if line.startswith("hellykit ")]
        assert len(lines) >= 12
        for line in lines:
            argv = shlex.split(line)[1:]
            assert parsed(cli.parse, argv)[0] == "ok"
            assert parsed(cli.parse, argv) == parsed(ORACLE.parse_args, argv)

    def test_benchmark_ops_match_the_oracle(self, tmp_path):
        sys.path.insert(0, str(PERFBENCH))
        try:
            import workloads
        finally:
            sys.path.remove(str(PERFBENCH))
        for workload in workloads.WORKLOADS:
            for ops in workloads.write_inputs(workload, 1, str(tmp_path / workload)):
                for op in ops:
                    argv = op + ["--out", "r.json"]
                    assert parsed(cli.parse, argv)[0] == "ok"
                    assert parsed(cli.parse, argv) == parsed(ORACLE.parse_args, argv)

    @pytest.mark.parametrize("argv", [
        # argparse's readings, each of which the table must keep
        ["derive", "--group", "g", "--N", "1", "--samp", "3", "--seed=-1"],
        ["derive", "--group", "g", "--N", "1", "--seed", "-1\n"],
        ["measure", "--lambda", "-3", "--what=nu", "--group", "g", "--c", "-1.5"],
        ["measure", "--what", "nu", "--group", "g", "--lambda", "-1/2"],
        ["measure", "--what", "nu", "--group", "g", "--lambda", "-1 2"],
        ["group", "--radius", "1", "ball", "--spec", "s", "--guard", "2", "--guard", "3"],
        ["group", "ball", "--spec", "s", "--radius", "1", "--list", "--list-elements"],
        ["group", "ball", "--spec", "s", "--radius", "1", "--list-elements=x"],
        ["gamma", "build", "--group", "g", "--N", "1", "--radius", "1", "--g", "x"],
        ["gamma", "build", "--group", "g", "--N", "1", "--radius", "1", "build"],
        ["corpus", "cycle", "--param", "n=1", "--param=x", "--par", "y=2"],
        ["corpus", "cycle", "--param"],
        ["analyze", "-", "--max-vertices", "-h"],
        ["analyze", "g", "--max-vertices", "x", "--help"],
        ["analyze", "g", "--he", "--max-vertices", "x"],
        ["analyze", "g", "-hh"], ["analyze", "g", "-hx"], ["analyze", "g", "-h=h"],
        ["analyze", "g", "--help=x"], ["analyze", "--", "g"], ["analyze", "g", "stray"],
        ["--no-such", "analyze", "g"], ["--no-such", "analyze", "g", "-h"],
        ["--he"], ["-h", "frobnicate"], ["-1"], ["analyze", "-1"],
        ["quasiconvex", "--ambient", "a", "--orbit", "o", "--k", "1", "--c", "2",
         "--ca", "5", "--xi", "-4"],
    ], ids=lambda argv: " ".join(argv))
    def test_edge_readings_match_the_oracle(self, argv):
        assert parsed(cli.parse, argv) == parsed(ORACLE.parse_args, argv)

    def test_joined_double_dash_is_the_value(self, tmp_path, capsys):
        # argparse stripped a joined "--" and stored [], on which the run
        # failed with a traceback; the table reads "--" as the value
        with pytest.raises(SystemExit) as info:
            main(["analyze", c4_edge_list(tmp_path), "--max-vertices=--"])
        assert info.value.code == 2
        assert capsys.readouterr().err == ("hellykit analyze: UsageError: argument "
                                           "--max-vertices: invalid int value: '--'\n")
        assert cli.parse(["dot", "g.json", "--out=--"]).out == "--"

    @pytest.mark.parametrize("command", cli.SUBCOMMANDS)
    def test_help_names_every_option_string(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        named = set(re.split(r"[\s,]+", capsys.readouterr().out))
        assert oracle_flags(command) <= named

    @pytest.mark.parametrize("command", cli.SUBCOMMANDS)
    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_generated_argv_match_the_oracle(self, command, data):
        # either both accept, with equal values for every dest, or both
        # print help and exit 0, or both exit 2
        argv = data.draw(command_lines(command, REQUIRED_ARGS[command],
                                       oracle_flags(command) - {"-h"},
                                       lambda flag: ORACLE_VALUES))
        assert parsed(cli.parse, argv) == parsed(ORACLE.parse_args, argv)


# the required arguments of each subcommand on the tiny inputs of the argv
# contract, at sizes that keep every run short
CONTRACT_ARGS = {
    "analyze": ["g.json"], "hellyfy": ["g.json"], "dot": ["g.json"],
    "group": ["ball", "--spec", "group.json", "--radius", "1"],
    "gamma": ["build", "--group", "group.json", "--N", "1", "--radius", "1"],
    "derive": ["--group", "group.json", "--N", "1", "--radius", "2", "--samples", "2"],
    "measure": ["--what", "nu", "--group", "group.json", "--radius", "2",
                "--samples", "2"],
    "quasiconvex": ["--ambient", "g.json", "--orbit", "orbit.json", "--k", "1"],
    "corpus": ["cycle", "--param", "n=4"]}
# the flags whose value may be large without making a run do real work
LARGE_OK = {"--seed", "--xi", "--max-vertices", "--guard", "--cap", "--N"}


def contract_values(flag):
    """The values the argv contract draws for `flag`: small sizes, a large
    one where it costs nothing, junk, and paths to the tiny inputs, to a
    missing file or to an output."""
    paths = {"--spec": ["group.json", "g.json", "missing.json"],
             "--group": ["group.json", "orbit.json", "missing.json"],
             "--ambient": ["g.json", "group.json", "missing.json"],
             "--orbit": ["orbit.json", "g.json", "missing.json"],
             "--out": ["o.json", "1/0", ""], "--dot": ["o.dot", "1/0"],
             "--graph-out": ["o.json", "1/0"],
             "--param": ["n=4", "n=2", "n=-1", "n=x", "w=2", "h=2", "x",
                         "factors=cyclic:2,cyclic:3", "factors=cyclic"]}
    extra = {"--what": ["nu", "bcp", "delta"], "--metric": ["rel", "abs"],
             "--lambda": ["3/2"], "--c": ["1/2"]}
    return paths.get(flag) or (SMALL + extra.get(flag, [])
                               + [str(10 ** 12)] * (flag in LARGE_OK))


class TestArgvContract:
    """Generated command lines keep the exit-code contract, in process: the
    exit code is 0, 1 or 2; exit 2 writes one stderr line and no traceback;
    exit 0 writes what the subcommand writes, a parseable report for each
    report command."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("argv")
        write(path / "g.json", json.dumps(graph_to_json(corpus.cycle(4))))
        write(path / "group.json", json.dumps(corpus.group_z2_z3().to_json()))
        write(path / "orbit.json", "[0, 2]")
        return path

    @pytest.mark.parametrize("command", cli.SUBCOMMANDS)
    @settings(max_examples=60, derandomize=True, deadline=10_000)
    @given(data=st.data())
    def test_exit_code_contract(self, inputs, command, data):
        flags = [f for f in cli.SUBCOMMANDS[command][3] if f[0] == "-"] + ["--out"]
        argv = data.draw(command_lines(command, CONTRACT_ARGS[command], flags,
                                       contract_values))
        out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
        os.chdir(inputs)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 1, 2)
            if code == 2:
                assert len(err.getvalue().splitlines()) == 1
                assert "Traceback" not in err.getvalue()
            if code == 0 and not out.getvalue().startswith("usage: "):
                self.check_output(command, cli.parse(argv), out.getvalue(),
                                  err.getvalue())
        finally:
            os.chdir(cwd)

    @staticmethod
    def check_output(command, args, out, err):
        if command == "corpus":  # a graph or group file; its path on stderr
            json.loads(pathlib.Path(err.strip()).read_text(encoding="utf-8"))
            return
        text = pathlib.Path(args.out).read_text(encoding="utf-8") if args.out else out
        if command == "dot":
            assert text.startswith("graph")
        else:
            report = json.loads(text)
            validate_report(report)
            assert report["schema"] == "hellykit-report/1"


class TestGroupBall:
    def test_counts(self, tmp_path, capsys):
        path = group_file(tmp_path, corpus.group_z2_z2())
        code = main(["group", "ball", "--spec", path, "--radius", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["count"] == 5
        assert report["result"]["by_radius"] == [1, 2, 2]

    # sha256 of the group ball report with its elements listed, computed when
    # the ball was a BFS over letter products
    @pytest.mark.parametrize("group, flags, digest", [
        (corpus.group_z2_z3, ["--radius", "12"],
         "c546f0575ba0591dbb1f7b91c39357349da64211110b252539f64e2e5ef4186e"),
        (corpus.group_zsq_z2, ["--radius", "3"],
         "60daf55c499064bc6dc9e0dc353a3f0a5d28ad2dcd43646eb47fdf86b8adaaa9"),
        (corpus.group_zsq_z2, ["--radius", "4", "--metric", "abs"],
         "5b699d39ffe888d1a3abe873243e84463b31b5958d1b2b1c25b475d1a511560e"),
        (lambda: GroupSpec([CyclicFactor(2), FreeAbelianFactor(1)], 1),
         ["--radius", "4", "--parabolic-cap", "3"],
         "a213353f3be39d53035fd14ebf34e3823b8dab3dcc6a4b76a49a39d7530f8398"),
    ], ids=["z2_z3", "zsq_z2_rel", "zsq_z2_abs", "z2_z_f1"])
    def test_pinned_report_digest(self, tmp_path, group, flags, digest):
        out = tmp_path / "b.json"
        assert main(["group", "ball", "--spec", group_file(tmp_path, group()),
                     *flags, "--list-elements", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestGamma:
    def test_build_and_dot(self, tmp_path):
        path = group_file(tmp_path, corpus.group_z2_z3())
        out = tmp_path / "window.json"
        dot = tmp_path / "window.dot"
        code = main(["gamma", "build", "--group", path, "--N", "1",
                     "--radius", "3", "--out", str(out), "--dot", str(dot)])
        assert code == 0
        report = json.loads(out.read_text())
        validate_report(report)
        kinds = {v["kind"] for v in report["result"]["vertices"]}
        assert kinds == {"free", "medial", "internal"}
        assert report["result"]["sanity_problems"] == []
        assert report["result"]["recommended_n"] == 1
        assert report["result"]["assumption_clauses"]["quotient_radius"] is True
        assert dot.read_text().startswith("graph")

    def test_deep_ball(self, tmp_path, capsys):
        # Z/2 * Z/2 at N=1, R=2100: free vertices of up to 1,050 syllables,
        # more than Python's stack holds frames.  The report is about 300 MB,
        # so only its ends are read, and the file is removed
        group, out = group_file(tmp_path, corpus.group_z2_z2()), tmp_path / "w.json"
        assert main(["gamma", "build", "--group", group, "--N", "1",
                     "--radius", "2100", "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        with open(out, "rb") as fh:
            head = fh.read(64)
            fh.seek(-64, os.SEEK_END)
            tail = fh.read()
        out.unlink()
        assert head.startswith(b'{\n  "command": "gamma-build"') and tail.endswith(b"\n}\n")

    def test_determinism(self, tmp_path):
        path = group_file(tmp_path, corpus.group_z2_z3())
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["gamma", "build", "--group", path, "--N", "1",
                  "--radius", "3", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    # sha256 of the gamma build report and of its --graph-out projection;
    # any change to vertex order, adjacency or report encoding moves them.
    # with_copies is the digest from before the result dropped the five keys
    # that restate other facts: restoring them must give it back, so nothing
    # else in the report moved.  old_report is the digest from before the
    # override-flag echo and the quotient bound left the report: restoring
    # those three keys as well must give it back
    @pytest.mark.parametrize(
        "group, n_thick, radius, report, with_copies, old_report, graph", [
            (corpus.group_z2_z3, 1, 6,
             "7e24d4e5d93e95e15c72cf89f9e14cf7497af55b2cb263589e1ac3c9aac23a8f",
             "d3b8cc88680aa1c531584b3d7ea02071ab9822a22fc07b86586292cd7b2ccbbf",
             "fff7a36a47ee48dd8ff7f7b02999332492abdaaf1e35eaac43ee01b73caacdd0",
             "9740397de180dd4e9761eb672e7cf2e999a16e0048e74e1603c01f1e3b9a82cc"),
            (lambda: corpus.group_zsq_z2("king"), 2, 5,
             "353dcec8a1b208507477600ff72e090dceb5497e1e9ed555471b2c1423e1744d",
             "2c65ac8e467d9f861a40429d320b9b805b768bf468d4a5ae285c558c5a7dfb27",
             "07d89bc266f74bb063f355a61bc2202348e25506ccb56df2409b46a710b735e3",
             "e17bc3f436fc0250c3575e8a8dac809a24ca49ae624e29edb88567e07ec9dbb8"),
        ], ids=["z2_z3", "zsq_z2_king"])
    def test_pinned_report_digest(self, tmp_path, group, n_thick, radius,
                                  report, with_copies, old_report, graph):
        out, graph_out = tmp_path / "w.json", tmp_path / "g.json"
        code = main(["gamma", "build", "--group", group_file(tmp_path, group()),
                     "--N", str(n_thick), "--radius", str(radius),
                     "--out", str(out), "--graph-out", str(graph_out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == report
        assert hashlib.sha256(graph_out.read_bytes()).hexdigest() == graph
        restored = json.loads(out.read_bytes())
        config, result = restored["config"], restored["result"]
        tag = {"free": "free", "medial": "med", "internal": "int"}
        kinds = [tag[v["kind"]] for v in result["vertices"]]
        result["edge_kinds"] = [EDGE_KINDS[kinds[a], kinds[b]]
                                for a, b in result["edges"]]
        result["min_n_short_cycles"] = result["recommended_n"]
        result.update(radius=config["radius"], n_thick=config["N"],
                      group=config["group"])
        assert hashlib.sha256(dumps(restored).encode()).hexdigest() == with_copies
        restored["config"]["allow_small_n"] = False
        restored["result"]["allow_small_n"] = False
        restored["result"]["min_n_quotient"] = 1
        assert hashlib.sha256(dumps(restored).encode()).hexdigest() == old_report

    def test_pinned_dot_digest(self, tmp_path):
        # sha256 of the --dot file of the z2_z3 window at N=1, R=6, as it was
        # when to_dot returned the whole text; streaming its lines keeps it
        dot = tmp_path / "w.dot"
        code = main(["gamma", "build", "--group",
                     group_file(tmp_path, corpus.group_z2_z3()), "--N", "1",
                     "--radius", "6", "--out", str(tmp_path / "w.json"),
                     "--dot", str(dot)])
        assert code == 0
        assert hashlib.sha256(dot.read_bytes()).hexdigest() == (
            "feef3f610db1a155012b30decfb769073e26d74c61e920df03f663713e082be4")

    @pytest.mark.parametrize("command", [["gamma", "build"], ["derive"]])
    def test_removed_small_n_flag_exits_2(self, tmp_path, capsys, command):
        path = group_file(tmp_path, corpus.group_z2_z3())
        with pytest.raises(SystemExit) as info:
            main(command + ["--group", path, "--N", "1", "--radius", "3",
                            "--allow-small-N"])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDerive:
    def test_report_and_determinism(self, tmp_path):
        path = group_file(tmp_path, corpus.group_z2_z3())
        outs = []
        for name in ("d1.json", "d2.json"):
            out = tmp_path / name
            code = main(["derive", "--group", path, "--N", "1", "--radius", "6",
                         "--samples", "40", "--seed", "5", "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        report = json.loads(outs[0])
        assert report["result"]["violations"] == 0
        assert report["result"]["estimate"] is True


    # sha256 of the derive report at the least certifying N, R=8, seed 2024
    # and the default 200 samples; any change to the closed form or to the
    # sampling order that moves a seeded draw changes these bytes
    @pytest.mark.parametrize("group, digest", [
        (corpus.group_z2_z3,
         "f7684b6f0e6c3dc5ac4807a782b9f6c055a1a4b7f28824b4245f975f8acf085a"),
        (corpus.group_z2_z2,
         "622706ca2a7953d68ba9e0a7cf18c99100aa7d458d92d2055b0404649fb77fa4"),
        (corpus.group_zsq_z2,
         "3165a44fa89f18cc0ffe398aacd7798789b066c9017020ba31e290301c36d3cf"),
    ], ids=["group_z2_z3", "group_z2_z2", "group_zsq_z2"])
    def test_pinned_report_digest(self, tmp_path, group, digest):
        spec = group()
        out = tmp_path / "d.json"
        code = main(["derive", "--group", group_file(tmp_path, spec),
                     "--N", str(recommended_n(spec)), "--radius", "8",
                     "--seed", "2024", "--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_deep_ball(self, tmp_path, capsys):
        # Z/2 * Z/2 at N=1, R=2100: geodesics between free vertices of up to
        # 1,050 syllables, more than Python's stack holds frames
        assert main(["derive", "--group", group_file(tmp_path, corpus.group_z2_z2()),
                     "--N", "1", "--radius", "2100", "--samples", "2"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["result"]["violations"] == 0
        assert captured.err == ""

    def test_builds_no_window(self, tmp_path, monkeypatch):
        # derive reads Γ off the closed-form ball; a window would be refused
        def refuse(self, *args, **kwargs):
            raise AssertionError("derive built a GammaWindow")

        monkeypatch.setattr(GammaWindow, "__init__", refuse)
        spec = corpus.group_zsq_z2("king")
        out = tmp_path / "d.json"
        assert main(["derive", "--group", group_file(tmp_path, spec), "--N", "2",
                     "--radius", "8", "--samples", "50", "--out", str(out)]) == 0
        assert json.loads(out.read_bytes())["result"]["violations"] == 0

    def test_parabolic_shortening_exits_1(self, tmp_path, monkeypatch, capsys):
        # a sampled geodesic with a parabolic shortening is a theorem
        # failure, not a draw to skip: exit 1, one stderr line, no report
        from hellykit.gamma import GammaBall

        monkeypatch.setattr(GammaBall, "parabolic_shortenings",
                            lambda self, path: [(0, 2, 2, 1)])
        out = tmp_path / "d.json"
        assert main(["derive", "--group", group_file(tmp_path, corpus.group_z2_z3()),
                     "--N", "1", "--samples", "5", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == ("hellykit derive: AssertionError: sampled geodesic "
                                "has a parabolic shortening\n")

    def test_guard_bounds_the_free_vertices(self, tmp_path, capsys):
        path = group_file(tmp_path, corpus.group_zsq_z2("king"))
        argv = ["derive", "--group", path, "--N", "2", "--radius", "8"]
        assert main(argv + ["--guard", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("hellykit derive: WindowError: ball exceeds 10 "
                                "free vertices at R=8\n")
        # the default guard refuses R=16 (3,989,250 free vertices) as the
        # enumeration passes 200,000 of them
        assert main(argv[:-1] + ["16"]) == 2
        assert "ball exceeds 200000 free vertices at R=16" in capsys.readouterr().err

    def test_guard_refuses_a_large_lattice_at_once(self, tmp_path, capsys):
        # Z^3 king at N=8, R=40: each of the 609^3 - 1 elements of norm
        # <= N(R - 2) = 304 is a free vertex of the ball, so their count
        # refuses it before any of them is listed
        spec = GroupSpec([FreeAbelianFactor(3, "king")])
        start = time.perf_counter()
        assert main(["derive", "--group", group_file(tmp_path, spec), "--N", "8",
                     "--radius", "40"]) == 2
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().err == ("hellykit derive: WindowError: ball "
                                           "exceeds 200000 free vertices at R=40\n")

    def test_radius_past_the_window_guard(self, tmp_path):
        # a window of this radius exceeds 200,000 vertices; the ball lists
        # 110,210 free vertices and samples from them
        out = tmp_path / "d.json"
        assert main(["derive", "--group",
                     group_file(tmp_path, corpus.group_zsq_z2("king")),
                     "--N", "2", "--radius", "12", "--out", str(out)]) == 0
        result = json.loads(out.read_bytes())["result"]
        assert result["samples"] == 200 and result["violations"] == 0


class TestResultIsLibraryReturn:
    """Each harness returns the `result` object its report carries: the
    library value equals the parsed report's result, key for key."""

    @pytest.mark.parametrize("command", [
        "analyze", "derive", "measure-bcp", "measure-nu", "measure-mu",
        "measure-delta", "measure-zeta", "quasiconvex"])
    def test_result_equals_library_return(self, tmp_path, capsys, command):
        from fractions import Fraction

        from hellykit import relwords
        from hellykit.derived import verify_derivation_theorems
        from hellykit.gamma import GammaConfig
        from hellykit.helly import analyze
        from hellykit.quasiconvex import OrbitSpec, QGParams, verify_section5

        spec = corpus.group_z2_z3()
        if command == "analyze":
            g = corpus.cycle(6)
            argv = ["analyze", write(tmp_path / "g.json", json.dumps(graph_to_json(g)))]
            want = analyze(g)
        elif command == "derive":
            argv = ["derive", "--group", group_file(tmp_path, spec), "--N", "1",
                    "--radius", "6", "--samples", "30", "--seed", "5"]
            # the BFS oracle's window draws independently of the ball
            want = verify_derivation_theorems(parent_window(GammaConfig(spec, 1), 6),
                                              30, 5)
        elif command == "quasiconvex":
            g = corpus.king_grid(4, 3)
            path = write(tmp_path / "g.json", json.dumps(graph_to_json(g)))
            argv = ["quasiconvex", "--ambient", path, "--orbit",
                    write(tmp_path / "orbit.json", "[4, 5, 6, 7]"), "--k", "1",
                    "--lambda", "3/2", "--c", "1/2"]
            want = verify_section5(OrbitSpec(g, (4, 5, 6, 7), 1), instance=path,
                                   requested=QGParams(Fraction(3, 2), Fraction(1, 2)))
        else:
            what = command.split("-")[1]
            argv = ["measure", "--what", what, "--group", group_file(tmp_path, spec),
                    "--radius", "4", "--samples", "20", "--seed", "11"]
            common = dict(samples=20, seed=11, radius=4, parabolic_cap=2)
            lam, c = Fraction(2), Fraction(1)
            want = {"bcp": lambda: relwords.measure_bcp(spec, lam, c, 1, **common),
                    "nu": lambda: relwords.measure_triangles(spec, lam, c, **common),
                    "mu": lambda: relwords.measure_triangles(spec, lam, c, **common),
                    "delta": lambda: relwords.measure_delta(spec, **common),
                    "zeta": lambda: relwords.measure_zeta(spec, lam, c, **common),
                    }[what]()
        assert main(argv) == 0
        assert want == json.loads(capsys.readouterr().out)["result"]


class TestErrorBoundary:
    """Input, parse and OS errors and tripped guards exit 2 with one line on
    stderr and nothing on stdout; a failed check exits 1."""

    @pytest.mark.parametrize("case, error", [
        ("malformed", "ValueError"),
        ("three_tokens", "GraphError"),
        ("disconnected", "NotConnectedError"),
        ("missing", "FileNotFoundError"),
        ("guard", "WindowError"),
        ("nonassociative", "GroupError"),
        ("orbit_too_large", "GraphError"),
        ("orbit_negative", "GraphError"),
        ("orbit_nested", "GraphError"),
        ("orbit_float", "GraphError"),
        ("orbit_bool", "GraphError"),
        ("graph_no_n", "GraphError"),
        ("graph_labels_list", "GraphError"),
        ("graph_edge_float", "GraphError"),
        ("graph_edge_bool", "GraphError"),
        ("finite_generator_range", "GroupError"),
        ("cyclic_no_order", "GroupError"),
        ("factor_no_kind", "GroupError"),
        ("group_not_object", "GroupError"),
        ("factors_not_list", "GroupError"),
        ("free_rank_float", "GroupError"),
        ("graph_label_out_of_range", "GraphError"),
        ("graph_label_key_not_int", "GraphError"),
        ("graph_label_not_str", "GraphError"),
        ("ball_negative_radius", "GroupError"),
        ("corpus_no_n", "ValueError"),
        ("corpus_factor_no_order", "ValueError"),
        ("corpus_tree_n_zero", "GraphError"),
        ("corpus_king_negative", "GraphError"),
        ("size_bound", "SizeBoundExceeded"),
        ("measure_lambda_zero_denominator", "ValueError"),
        ("measure_c_zero_denominator", "ValueError"),
        ("measure_lambda_negative", "ValueError"),
        ("measure_lambda_below_one", "ValueError"),
        ("measure_c_negative", "ValueError"),
        ("quasiconvex_lambda_zero_denominator", "ValueError"),
        ("quasiconvex_c_zero_denominator", "ValueError"),
        ("quasiconvex_xi_below_computed", "GraphError"),
        ("measure_samples_negative", "ValueError"),
        ("measure_radius_negative", "ValueError"),
        ("measure_k_negative", "ValueError"),
        ("measure_parabolic_cap_zero", "ValueError"),
        ("derive_samples_negative", "ValueError"),
        ("derive_guard_zero", "ValueError"),
        ("gamma_guard_zero", "ValueError"),
        ("gamma_guard_negative", "ValueError"),
        ("ball_guard_zero", "ValueError"),
        ("quasiconvex_cap_zero", "ValueError"),
        ("quasiconvex_cap_negative", "ValueError"),
        ("analyze_max_vertices_zero", "ValueError"),
        ("hellyfy_max_vertices_negative", "ValueError"),
        ("ball_parabolic_cap_negative", "ValueError"),
        # a 1,500-vertex path whose Delta, spanned by the neighbourhoods of
        # its two ends, is disconnected: refused before the sweeps
        ("quasiconvex_deep_path", "NotConnectedError"),
        # files nested 1,000 deep, past the JSON parser's recursion: read by
        # each of the three loaders as its input error
        ("deep_graph", "GraphError"),
        ("deep_group", "GroupError"),
        ("deep_orbit", "GraphError"),
        # Z^2 * Z/2 at radius 10^6: its lattice is counted, not listed
        ("ball_lattice_rel", "BallExplosion"),
        ("ball_lattice_abs", "BallExplosion"),
    ])
    def test_exit_2(self, tmp_path, capsys, case, error):
        graphs = {"malformed": "0 1\n1 x\n", "three_tokens": "0 1 2\n",
                  "disconnected": "0 1\n2 3\n",
                  "graph_no_n": '{"edges": [[0, 1]]}',
                  "graph_labels_list": '{"n": 2, "edges": [[0, 1]], "labels": [1]}',
                  "graph_edge_float": '{"n": 2, "edges": [[0, 1.5]]}',
                  "graph_edge_bool": '{"n": 2, "edges": [[0, true]]}',
                  "graph_label_out_of_range":
                      '{"n": 2, "edges": [[0, 1]], "labels": {"5": "a"}}',
                  "graph_label_key_not_int":
                      '{"n": 2, "edges": [[0, 1]], "labels": {"x": "a"}}',
                  "graph_label_not_str":
                      '{"n": 2, "edges": [[0, 1]], "labels": {"0": 1}}',
                  # C16 is not Helly, so its enumeration meets the bound 14
                  "size_bound": "".join(f"{i} {(i + 1) % 16}\n"
                                        for i in range(16))}
        fractions = {"measure_lambda_zero_denominator": ("--lambda", "1/0"),
                     "measure_c_zero_denominator": ("--c", "1/0"),
                     "measure_lambda_negative": ("--lambda", "-3"),
                     "measure_lambda_below_one": ("--lambda", "1/2"),
                     "measure_c_negative": ("--c", "-1"),
                     "quasiconvex_lambda_zero_denominator": ("--lambda", "1/0"),
                     "quasiconvex_c_zero_denominator": ("--c", "1/0")}
        # C4's coarse Helly constant is 1
        claims = {"quasiconvex_xi_below_computed": ("--xi", "0")}
        # sizes below their floor; the stderr line names the flag
        sizes = {"measure_samples_negative": ("--samples", "-3"),
                 "measure_radius_negative": ("--radius", "-1"),
                 "measure_k_negative": ("--k", "-2"),
                 "measure_parabolic_cap_zero": ("--parabolic-cap", "0"),
                 "derive_samples_negative": ("--samples", "-3"),
                 "derive_guard_zero": ("--guard", "0"),
                 # the base vertex alone is a window: R=0 still needs 1
                 "gamma_guard_zero": ("--guard", "0"),
                 "gamma_guard_negative": ("--guard", "-3"),
                 "ball_guard_zero": ("--guard", "0"),
                 "quasiconvex_cap_zero": ("--cap", "0"),
                 "quasiconvex_cap_negative": ("--cap", "-3"),
                 "analyze_max_vertices_zero": ("--max-vertices", "0"),
                 "hellyfy_max_vertices_negative": ("--max-vertices", "-3"),
                 "ball_parabolic_cap_negative": ("--parabolic-cap", "-1")}
        orbits = {"orbit_too_large": "[0, 4]", "orbit_negative": "[0, -1]",
                  "orbit_nested": "[[1]]", "orbit_float": "[1.5, 2]",
                  "orbit_bool": "[true, 2]"}
        z3 = [[(a + b) % 3 for b in range(3)] for a in range(3)]
        groups = {"finite_generator_range": {"factors": [
                      {"kind": "finite", "table": z3, "generators": [1, 7]}]},
                  "cyclic_no_order": {"factors": [{"kind": "cyclic"}]},
                  "factor_no_kind": {"factors": [{"order": 2}]},
                  "group_not_object": [1, 2],
                  "factors_not_list": {"factors": "abc"},
                  "free_rank_float": {"factors": [{"kind": "cyclic", "order": 2}],
                                      "free_rank": 1.5}}
        corpora = {"corpus_no_n": ["cycle"],
                   "corpus_factor_no_order": ["group-freeproduct", "--param",
                                              "factors=cyclic"],
                   # a tree on 0 vertices; a king grid of (-1) x (-1) = 1 vertex
                   "corpus_tree_n_zero": ["tree-random", "--param", "n=0"],
                   "corpus_king_negative": ["king-grid", "--param=w=-1", "--param=h=-1"]}
        deep = "[" * 1000 + "]" * 1000
        if case in corpora:
            argv = ["corpus", *corpora[case], "--out", str(tmp_path / "c.json")]
        elif case == "deep_graph":
            argv = ["analyze", write(tmp_path / "g.json", f'{{"n": {deep}}}')]
        elif case == "deep_group":
            argv = ["derive", "--group", write(tmp_path / "group.json",
                                               f'{{"factors": {deep}}}'), "--N", "1"]
        elif case == "deep_orbit":
            argv = ["quasiconvex", "--ambient", c4_edge_list(tmp_path),
                    "--orbit", write(tmp_path / "orbit.json", deep), "--k", "1"]
        elif case.startswith("ball_lattice"):
            argv = ["group", "ball", "--spec", group_file(tmp_path, corpus.group_zsq_z2()),
                    "--radius", "1000000", "--metric", case[-3:]]
        elif case == "ball_negative_radius":
            argv = ["group", "ball", "--spec",
                    group_file(tmp_path, corpus.group_z2_z3()), "--radius", "-1"]
        elif case.startswith(("ball_guard", "ball_parabolic")):
            argv = ["group", "ball", "--spec",
                    group_file(tmp_path, corpus.group_z2_z3()), "--radius", "2",
                    *sizes[case]]
        elif case.startswith("gamma_guard"):
            argv = ["gamma", "build", "--group",
                    group_file(tmp_path, corpus.group_z2_z3()), "--N", "1",
                    "--radius", "0", *sizes[case]]
        elif case.startswith("measure_"):
            argv = ["measure", "--what", "bcp", "--group",
                    group_file(tmp_path, corpus.group_z2_z3()), "--radius", "2",
                    "--samples", "2", *fractions.get(case, sizes.get(case))]
        elif case.startswith("derive_"):
            argv = ["derive", "--group", group_file(tmp_path, corpus.group_z2_z3()),
                    "--N", "1", "--radius", "2", *sizes[case]]
        elif case.startswith(("analyze_", "hellyfy_")):
            argv = [case.partition("_")[0], c4_edge_list(tmp_path), *sizes[case]]
        elif case == "quasiconvex_deep_path":
            argv = ["quasiconvex", "--ambient",
                    write(tmp_path / "p.json", json.dumps(graph_to_json(corpus.path(1500)))),
                    "--orbit", write(tmp_path / "orbit.json", "[0, 1499]"), "--k", "1"]
        elif case.startswith("quasiconvex_"):
            argv = ["quasiconvex", "--ambient", c4_edge_list(tmp_path),
                    "--orbit", write(tmp_path / "orbit.json", "[0, 2]"),
                    "--k", "1", *{**fractions, **sizes, **claims}[case]]
        elif case in graphs:
            argv = ["analyze", write(tmp_path / "g.txt", graphs[case])]
        elif case in groups:
            argv = ["group", "ball", "--spec",
                    write(tmp_path / "group.json", json.dumps(groups[case])),
                    "--radius", "2"]
        elif case == "missing":
            argv = ["analyze", str(tmp_path / "absent.txt")]
        elif case in orbits:
            argv = ["quasiconvex", "--ambient", c4_edge_list(tmp_path),
                    "--orbit", write(tmp_path / "orbit.json", orbits[case]),
                    "--k", "1"]
        elif case == "nonassociative":
            # Z/66 with the entries [2][3] and [2][4] of its table swapped
            table = [[(a + b) % 66 for b in range(66)] for a in range(66)]
            table[2][3], table[2][4] = table[2][4], table[2][3]
            spec = {"factors": [{"kind": "finite", "table": table,
                                 "generators": [1, 65]}]}
            argv = ["group", "ball", "--spec",
                    write(tmp_path / "group.json", json.dumps(spec)),
                    "--radius", "2"]
        else:
            argv = ["gamma", "build", "--group",
                    group_file(tmp_path, corpus.group_z2_z3()), "--N", "1",
                    "--radius", "6", "--guard", "10"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"hellykit {argv[0]}: {error}: ")
        if case in sizes:
            assert f"{sizes[case][0]} must be >= " in lines[0]

    def test_disconnected_delta_is_refused_before_the_sweeps(
            self, tmp_path, capsys, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("swept before Delta was built")

        monkeypatch.setattr(quasiconvex, "quasiconvexity_k", sweep)
        argv = ["quasiconvex", "--ambient",
                write(tmp_path / "p5.json", json.dumps(graph_to_json(corpus.path(5)))),
                "--orbit", write(tmp_path / "orbit.json", "[0, 4]"), "--k", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hellykit quasiconvex: NotConnectedError: ")

    def test_failed_check_exits_1(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("postcondition failed")

        monkeypatch.setattr(cli, "analyze", broken)
        assert main(["analyze", c4_edge_list(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("hellykit analyze: AssertionError: "
                                "postcondition failed\n")

    def test_helly_deciders_disagree_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(helly, "decide_helly", lambda g: False)
        path = write(tmp_path / "king.json",
                     json.dumps(graph_to_json(corpus.king_grid(3, 3))))
        assert main(["analyze", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "hellykit analyze: AssertionError: Helly deciders disagree")

    def test_hellyfy_stdout_is_the_report(self, tmp_path, capsys):
        assert main(["hellyfy", c4_edge_list(tmp_path)]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        validate_report(report)
        assert report["result"]["helly"] is True
        assert captured.err == "helly: true\n"


class TestMeasure:
    @pytest.mark.parametrize("what", ["bcp", "nu", "mu", "delta", "zeta"])
    def test_variants_run(self, tmp_path, capsys, what):
        path = group_file(tmp_path, corpus.group_z2_z3())
        code = main(["measure", "--what", what, "--group", path, "--radius", "4",
                     "--samples", "20", "--seed", "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        validate_report(report)
        assert report["result"]["estimate"] is True

    def test_byte_identical(self, tmp_path):
        path = group_file(tmp_path, corpus.group_z2_z2())
        outs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            main(["measure", "--what", "bcp", "--group", path, "--radius", "5",
                  "--samples", "50", "--seed", "3", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    # sha256 of the measure report at radius 4, 20 samples and seed 11; any
    # change to the samplers, the phase vertices or the Hausdorff and
    # thin/slim constants that moves a value or a draw changes these bytes
    @pytest.mark.parametrize("group, what, digest", [
        (corpus.group_z2_z3, "bcp",
         "51c9f32e3758347ebfe500af3d8e1c4cee65151d4a82d81b6df25b62c44607fa"),
        (corpus.group_z2_z3, "nu",
         "e8ff21ac999a7b630db66991f21d9dc2669fd6af2c218fa142d51845aa2a91d3"),
        (corpus.group_z2_z3, "delta",
         "cdfe5c3aff2986c1a28c6b70affd3b643cd35e36478b60e20cea8ab29cb35f18"),
        (corpus.group_z2_z3, "zeta",
         "18984d5c39bd6804e4ed0205cc6e050d9fb856d0588a104eea2569475cf8d79b"),
        (corpus.group_zsq_z2, "bcp",
         "e274e514b3d78562bc18e5211eb495ef77e479bd8fedc98b0098361d6e86bc0c"),
        (corpus.group_zsq_z2, "nu",
         "2b911b7b17a402d7aaaa11565a4c3dfb315bae1321c6b0ca2588df44306bd835"),
        (corpus.group_zsq_z2, "delta",
         "576b43866fbb4f1f6d3478977a6507de83bf8f2c27a001a36fb0ea00a36d79fd"),
        (corpus.group_zsq_z2, "zeta",
         "2b516d8b7deb78568383bb32bbd5fff802f429d9245f21b4fb439f1564c8f428"),
    ])
    def test_pinned_report_digest(self, tmp_path, group, what, digest):
        out = tmp_path / "m.json"
        code = main(["measure", "--what", what, "--group",
                     group_file(tmp_path, group()), "--radius", "4",
                     "--samples", "20", "--seed", "11", "--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # sha256 of the measure report in the benchmark's shape (radius 6,
    # lambda 2, c 1) at 100 samples and seed 2024: longer words and more
    # detours than the pins above, over the same samplers and constants
    @pytest.mark.parametrize("group, what, digest", [
        (corpus.group_z2_z3, "bcp",
         "7115b88380993f6bd0da8ca9b28b99efadc4dbd911ecc202c02b8a9d24f53b70"),
        (corpus.group_z2_z3, "nu",
         "d15312ae5e48fb4892bde24510fdff17a659aa8bd4a86f3b7995f3bf5da82129"),
        (corpus.group_z2_z3, "delta",
         "7939b1531cd431649509ac4813a0324aaa77f15dbbb5ea9902c6c4c5b95a90cb"),
        (corpus.group_z2_z3, "zeta",
         "1828625ae3a2372ba2c82edede720f076f6f91b6ab79172062d967f832d0a5b3"),
        (corpus.group_zsq_z2, "bcp",
         "920c0b5383381ca0700d9134c4fde4b590b6fe161c6ca42e3bfe591778f00ac2"),
        (corpus.group_zsq_z2, "nu",
         "c13e8b3b2e896e67935f0df5bd1ae9456805804e972093c4bbdaf0cb331b395a"),
        (corpus.group_zsq_z2, "delta",
         "48410d5c74de7c2f224258e33b4e3eaa48d03f64eba7fee0f9ec986ff041e0bf"),
        (corpus.group_zsq_z2, "zeta",
         "8202ac8a2511884696b72a18f4bb71ab2f57a997afa975ac752a15922fa7e263"),
    ])
    def test_pinned_benchmark_shaped_digest(self, tmp_path, group, what, digest):
        out = tmp_path / "m.json"
        code = main(["measure", "--what", what, "--group",
                     group_file(tmp_path, group()), "--radius", "6",
                     "--samples", "100", "--lambda", "2", "--c", "1",
                     "--seed", "2024", "--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestQuasiconvexCommand:
    def test_window_projection_feeds_orbit_analysis(self, tmp_path, capsys):
        # end to end: build a window, project it to a plain graph, and run the
        # subgraph lemmas on a parabolic orbit (the Z/3 subgroup's vertices)
        from hellykit.gamma import GammaConfig, GammaWindow

        spec = corpus.group_z2_z3()
        gpath = group_file(tmp_path, spec)
        ambient = tmp_path / "window_graph.json"
        code = main(["gamma", "build", "--group", gpath, "--N", "1",
                     "--radius", "4", "--out", str(tmp_path / "w.json"),
                     "--graph-out", str(ambient)])
        assert code == 0
        window = GammaWindow(GammaConfig(spec, 1), 4)
        _, verts = window.to_graph()
        orbit = [i for i, v in enumerate(verts)
                 if v[0] == "free" and all(s[0] == "p" and s[1] == 1 for s in v[1])]
        assert len(orbit) == 3  # identity, a, a^2
        opath = write(tmp_path / "orbit.json", json.dumps(orbit))
        # the ambient (28 vertices) and Delta (24) are within quasiconvex's
        # bound; a warning would fail the suite
        code = main(["quasiconvex", "--ambient", str(ambient), "--orbit",
                     str(opath), "--k", "3", "--out", str(tmp_path / "q.json")])
        assert code == 0
        report = json.loads((tmp_path / "q.json").read_text())
        assert report["result"]["violations"] == 0

    def test_window_above_the_fixed_bound_exits_2(self, tmp_path, capsys):
        # the Z/2*Z/3 window at N=1, R=8 has 83 vertices and is not Helly,
        # so xi of the ambient graph needs a search past the fixed bound of
        # 64; no flag lifts that bound, and the message offers none
        ambient = tmp_path / "window_graph.json"
        assert main(["gamma", "build", "--group",
                     group_file(tmp_path, corpus.group_z2_z3()), "--N", "1",
                     "--radius", "8", "--out", str(tmp_path / "w.json"),
                     "--graph-out", str(ambient)]) == 0
        assert load_graph(str(ambient)).n == 83
        capsys.readouterr()
        assert main(["quasiconvex", "--ambient", str(ambient), "--orbit",
                     write(tmp_path / "orbit.json", "[0]"), "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "64" in captured.err and "83" in captured.err
        assert "override" not in captured.err

    @pytest.mark.parametrize("claim", [None, 5])
    def test_config_records_a_claimed_xi(self, tmp_path, capsys, claim):
        # a claimed xi replaces C6's computed 1 in the result and its bound
        # 3 + ceil(xi / k), so config records the claim; without one it has
        # no xi key
        gpath = write(tmp_path / "c6.json", json.dumps(graph_to_json(corpus.cycle(6))))
        opath = write(tmp_path / "orbit.json", "[0, 3]")
        flag = [] if claim is None else ["--xi", str(claim)]
        assert main(["quasiconvex", "--ambient", gpath, "--orbit", opath,
                     "--k", "1", *flag]) == 0
        report = json.loads(capsys.readouterr().out)
        xi = 1 if claim is None else claim
        assert report["result"]["xi_ambient"] == xi
        assert report["result"]["coarse_conclusion"]["bound"] == 3 + xi
        assert report["config"].get("xi") == claim
        assert ("xi" in report["config"]) == (claim is not None)

    def test_king_row(self, tmp_path, capsys):
        g = corpus.king_grid(3, 3)
        gpath = write(tmp_path / "king.json", json.dumps(graph_to_json(g)))
        opath = write(tmp_path / "orbit.json", "[3, 4, 5]")
        code = main(["quasiconvex", "--ambient", gpath, "--orbit", opath,
                     "--k", "2", "--lambda", "1", "--c", "0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["violations"] == 0
        assert "requested_qc" in report["result"]

    # sha256 of the quasiconvex report at k=1 with the middle row as orbit;
    # the last case sweeps a non-integer (lambda, c) on top of the lemma grid.
    # The requested sweep stops at the covering radius, after 2
    # quasigeodesics; old_report is the digest from when it ran
    # exhaustively: restoring that sweep's count, `exhaustive`, must give it
    # back, so nothing else in the report moved
    @pytest.mark.parametrize("name, graph, orbit, extra, digest, exhaustive, old_report", [
        ("king3x3", lambda: corpus.king_grid(3, 3), [3, 4, 5], [],
         "078bf3fe70528f0c5cc3312339fe66e269bc0567eb695546f7cded40ac42e96d", 13,
         "ea53692cfa04b9761b723a8429e34575486cefbc1f5357065f03db85553ed66c"),
        ("king4x3", lambda: corpus.king_grid(4, 3), [4, 5, 6, 7], [],
         "37b1539b2f7b7a4e1ed93553c52b9cdf991050ac36756ada310b39ad5af7528d", 36,
         "132ee817c5e1d4b2830a5fb3168ad917c174d452fab510df797f82375ab0827b"),
        ("king4x3", lambda: corpus.king_grid(4, 3), [4, 5, 6, 7],
         ["--lambda", "3/2", "--c", "1/2"],
         "41e02228786993aa0887ddc9314dba254113eb4030718c7e454ef9533620e643", 216,
         "66610578c60739ebae26b6cef2fcb454bbb3e4e2fd5ceff338f83fa342b6e2cb"),
    ], ids=["king3x3", "king4x3", "king4x3-lam3/2-c1/2"])
    def test_pinned_report_digest(self, tmp_path, monkeypatch, name, graph,
                                  orbit, extra, digest, exhaustive, old_report):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / f"{name}.json", json.dumps(graph_to_json(graph())))
        write(tmp_path / "orbit.json", json.dumps(orbit))
        assert main(["quasiconvex", "--ambient", f"{name}.json", "--orbit",
                     "orbit.json", "--k", "1", "--out", "q.json"] + extra) == 0
        assert hashlib.sha256((tmp_path / "q.json").read_bytes()).hexdigest() == digest
        restored = json.loads((tmp_path / "q.json").read_bytes())
        assert restored["result"]["requested_qc"]["enumerated"] == 2
        restored["result"]["requested_qc"]["enumerated"] = exhaustive
        assert hashlib.sha256(dumps(restored).encode()).hexdigest() == old_report


class TestCorpus:
    def test_king_grid_counts(self, tmp_path):
        out = tmp_path / "king.json"
        main(["corpus", "king-grid", "--param", "w=3", "--param", "h=3",
              "--out", str(out)])
        g = load_graph(str(out))
        assert g.n == 9 and g.edge_count() == 20
        assert json.loads(out.read_text())["meta"]["kind"] == "king-grid"

    def test_cycle(self, tmp_path):
        out = tmp_path / "c4.json"
        main(["corpus", "cycle", "--param", "n=4", "--out", str(out)])
        g = load_graph(str(out))
        assert g.n == 4 and g.edge_count() == 4

    def test_path_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "c4.json"
        assert main(["corpus", "cycle", "--param", "n=4", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{out}\n"

    def test_freeproduct_round_trip(self, tmp_path):
        from hellykit.groups import GroupSpec
        out = tmp_path / "group.json"
        main(["corpus", "group-freeproduct", "--param", "factors=cyclic:2,cyclic:3",
              "--out", str(out)])
        spec = GroupSpec.load(str(out))
        assert [f.kind for f in spec.factors] == ["cyclic", "cyclic"]
        assert spec.factors[1].order == 3

    # sha256 of corpus files; they are written by the report encoder
    @pytest.mark.parametrize("args, digest", [
        (["king-grid", "--param", "w=3", "--param", "h=3"],
         "1ff3fd47d89a9b7052b8f85903e5a43d5359143377e4755d1931d71d1328201f"),
        (["group-freeproduct", "--param", "factors=cyclic:2,cyclic:3"],
         "33a1631eb496b29218f1558886e37281b519c73fe8ac8d26a6ec490caf282bc9"),
    ], ids=["king3x3", "z2_z3"])
    def test_pinned_file_digest(self, tmp_path, args, digest):
        out = tmp_path / "c.json"
        assert main(["corpus"] + args + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestGraphIO:
    def test_edge_list_round_trip(self, tmp_path):
        g = load_graph(c4_edge_list(tmp_path))
        assert g.n == 4 and g.edge_count() == 4

    def test_json_round_trip(self):
        g = corpus.king_grid(3, 2)
        again = graph_from_json(json.loads(json.dumps(graph_to_json(g))))
        assert again == g

    def test_dot_export(self, tmp_path, capsys):
        gpath = write(tmp_path / "g.json",
                      json.dumps(graph_to_json(corpus.path(3))))
        assert main(["dot", gpath]) == 0
        text = capsys.readouterr().out
        assert "0 -- 1" in text and "1 -- 2" in text

    def test_labels_read_and_dot_escaped(self, tmp_path, capsys):
        record = {"n": 3, "edges": [[0, 1], [1, 2]],
                  "labels": {"0": 'a"b', "2": "c\\d"}}
        assert graph_from_json(record).labels == {0: 'a"b', 2: "c\\d"}
        assert main(["dot", write(tmp_path / "g.json", json.dumps(record))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert '  0 [label="a\\"b"];' in lines
        assert "  1;" in lines
        assert '  2 [label="c\\\\d"];' in lines

    def test_schema_rejects_malformed(self):
        with pytest.raises(ReportError):
            validate_report({"schema": "hellykit-report/1"})


def child_env():
    """The environment of a fresh interpreter that imports this hellykit."""
    src = str(pathlib.Path(hellykit.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


# run in a fresh interpreter: spawn `python argv`, print its exit code and
# its peak RSS
PEAK_RSS = """\
import os, sys
argv = [sys.executable, *sys.argv[1:]]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

# `python -c BUILD_WINDOW group.json`: import what the CLI imports, build the
# N=2, R=8 window of the group and exit
BUILD_WINDOW = """\
import sys
from hellykit import cli
cli.GammaWindow(cli.GammaConfig(cli.GroupSpec.load(sys.argv[1]), 2), 8)
"""


# the most a streamed `gamma build` of the N=2, R=8 king window may add to
# the peak of building that window alone (2.2-2.3 MiB measured, 3.1 MiB with
# report pieces of 1,024 items)
STREAMED_PEAK_BOUND = 3 * 2 ** 20


def peak_rss(argv):
    """Peak RSS in bytes of `python argv`.  A child's ru_maxrss is at least
    the peak RSS of the process it was spawned from, so the child is spawned
    from a small fresh interpreter, not from the test process."""
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv],
                          env=child_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    code, maxrss = map(int, proc.stdout.split())
    assert code == 0
    return maxrss * (1 if sys.platform == "darwin" else 1024)


class TestWriter:
    # each case's arguments but --out, given a tmp_path
    CASES = {
        "analyze": lambda p: ["analyze", c4_edge_list(p)],
        "group-ball": lambda p: ["group", "ball", "--spec",
                                 group_file(p, corpus.group_z2_z3()),
                                 "--radius", "3", "--list-elements"],
        "gamma-build": lambda p: ["gamma", "build", "--group",
                                  group_file(p, corpus.group_zsq_z2("king")),
                                  "--N", "2", "--radius", "4"],
        "derive": lambda p: ["derive", "--group",
                             group_file(p, corpus.group_z2_z3()), "--N", "1",
                             "--radius", "5", "--samples", "10"],
    }

    @pytest.mark.parametrize("args", CASES.values(), ids=CASES.keys())
    def test_out_bytes_equal_render(self, tmp_path, monkeypatch, args):
        # the CLI streams the report it validated; joined, the pieces are
        # the text render gives that report, tuples and all
        seen = []
        monkeypatch.setattr(cli, "validate_report",
                            lambda report: seen.append(report))
        out = tmp_path / "r.json"
        assert main(args(tmp_path) + ["--out", str(out)]) == 0
        # a window's Rows are re-read, so render writes them once more
        assert out.read_bytes() == render(seen[0]).encode()

    def test_invalid_report_opens_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "build_report",
                            lambda command, config, result: {"schema": None})
        out = tmp_path / "r.json"
        assert main(["analyze", c4_edge_list(tmp_path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_unencodable_result_leaves_no_partial_report(self, tmp_path, to_file):
        # a harness whose result holds a set: encoding fails after the
        # pieces before "z" were written, which the file must not keep
        out = tmp_path / "r.json"
        script = ("import sys; from hellykit import cli; "
                  "cli.analyze = lambda g, max_vertices: {'xi': 1, 'z': {1}}; "
                  "sys.exit(cli.main(sys.argv[1:]))")
        argv = ["analyze", c4_edge_list(tmp_path)]
        argv += ["--out", str(out)] if to_file else []
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              env=child_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 1
        assert "TypeError: Object of type set" in proc.stderr
        assert proc.stdout == ""
        if to_file:
            assert out.read_bytes() == b""

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_gamma_build_streams_its_report(self, tmp_path):
        # gamma build writes a 7.6 MiB report of the window it builds.
        # Holding its text and the encoded copy put the build's peak 41 MiB
        # above that of a child that builds the same window and exits.
        # Streamed, with the window's vertices and edges read lazily as they
        # are written, 256 items a piece, and each distinct element encoded
        # once, it is about 2.2 MiB
        group = group_file(tmp_path, corpus.group_zsq_z2("king"))
        out = tmp_path / "w.json"
        build = peak_rss(["-m", "hellykit.cli", "gamma", "build", "--group", group,
                          "--N", "2", "--radius", "8", "--out", str(out)])
        window = peak_rss(["-c", BUILD_WINDOW, group])
        assert build - window < STREAMED_PEAK_BOUND


# `python -c TRACED perfbench_dir trace.json argv...`: install the benchmark's
# tracing wrappers, as a traced op does, run the CLI and dump the spans
TRACED = """\
import sys
sys.path.insert(0, sys.argv[1])
import tracing
from hellykit import cli
tracer = tracing.Tracer(0)
tracing.install(tracer)
code = cli.main(sys.argv[3:])
tracer.dump(sys.argv[2])
sys.exit(code)
"""

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


class TestTracing:
    """perfbench/tracing.py wraps hellykit's layer functions by name; a
    renamed one fails its install, and a wrapper must not change a byte."""

    @pytest.mark.parametrize("argv, span", [
        (["gamma", "build", "--N", "1", "--radius", "4"], "gamma.window_build"),
        (["derive", "--N", "1", "--radius", "6", "--samples", "20"],
         "derived.verify")], ids=["gamma-build", "derive"])
    def test_traced_bytes_equal_untraced(self, tmp_path, argv, span):
        argv = argv + ["--group", group_file(tmp_path, corpus.group_z2_z3())]
        trace = tmp_path / "trace.json"

        def stdout(*pre):
            return subprocess.run([sys.executable, *pre, *argv], env=child_env(),
                                  capture_output=True, timeout=120, check=True).stdout

        plain = stdout("-m", "hellykit.cli")
        assert plain and stdout("-c", TRACED, str(PERFBENCH), str(trace)) == plain
        spans = {s[0] for s in json.loads(trace.read_text())["spans"]}
        assert span in spans


class TestHashSalt:
    """str hashes are salted per interpreter; no report byte may follow the
    salt, so dict and set order never decides what is written."""

    MEASURED = ("bcp", "nu", "mu", "delta", "zeta")

    @pytest.mark.parametrize("argv", [
        ["gamma", "build", "--group", "{group}", "--N", "1", "--radius", "6"],
        ["derive", "--group", "{group}", "--N", "1", "--samples", "50"],
        *(["measure", "--group", "{group}", "--what", what, "--samples", "50",
           "--seed", "7"] for what in MEASURED),
        ["analyze", "{king}"],
        ["hellyfy", "{king}"],
        ["quasiconvex", "--ambient", "{king}", "--orbit", "{diagonal}",
         "--k", "1"]],
        ids=["gamma-build", "derive", *(f"measure-{what}" for what in MEASURED),
             "analyze", "hellyfy", "quasiconvex"])
    def test_report_bytes_do_not_depend_on_the_salt(self, tmp_path, argv):
        files = {"group": group_file(tmp_path, corpus.group_z2_z3()),
                 "king": write(tmp_path / "king4x3.json",
                               json.dumps(graph_to_json(corpus.king_grid(4, 3)))),
                 "diagonal": write(tmp_path / "diagonal.json", "[0, 5, 10]")}
        argv = [arg.format(**files) for arg in argv]
        reports = [subprocess.run(
            [sys.executable, "-m", "hellykit.cli", *argv],
            env=dict(child_env(), PYTHONHASHSEED=salt), capture_output=True,
            timeout=120, check=True).stdout for salt in ("1", "2")]
        assert reports[0] and reports[0] == reports[1]
