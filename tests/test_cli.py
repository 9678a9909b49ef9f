"""CLI surface: subcommands, report schema, determinism, exit codes."""

import hashlib
import json
import os
import pathlib
import random
import shlex
import subprocess
import sys
import warnings
from types import GeneratorType

import pytest

import hellykit
from hellykit import cli, corpus, helly
from hellykit.cli import main
from hellykit.gamma import GammaConfig, GammaWindow, recommended_n
from hellykit.graph_io import graph_from_json, graph_to_json, load_graph
from hellykit.graphs import Graph
from hellykit.reports import ReportError, dumps, render, validate_report


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
            with pytest.warns(UserWarning, match="exceeds the default bound"):
                assert main(argv + ["--max-vertices", "18"]) == 0
        else:
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
        # main builds only the named subcommand's parser: its help text, its
        # usage errors and its exit code are those of the full parser
        def outcome(parse):
            with pytest.raises(SystemExit) as info:
                parse(argv)
            captured = capsys.readouterr()
            return info.value.code, captured.out, captured.err

        got = outcome(main)
        assert got == outcome(cli.build_parser().parse_args)
        assert got[0] == (0 if "--help" in argv else 2)

    def test_readme_examples_parse(self):
        # every command line the README shows must still parse, so a removed
        # or renamed flag cannot linger in the docs
        readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        lines = [line.split("#", 1)[0]
                 for line in readme.read_text(encoding="utf-8").splitlines()
                 if line.startswith("hellykit ")]
        assert len(lines) >= 12
        parser = cli.build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])


class TestGroupBall:
    def test_counts(self, tmp_path, capsys):
        path = group_file(tmp_path, corpus.group_z2_z2())
        code = main(["group", "ball", "--spec", path, "--radius", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["count"] == 5
        assert report["result"]["by_radius"] == [1, 2, 2]


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
    # old_report is the digest from before the override-flag echo and the
    # quotient bound left the report: restoring those three keys must give it
    # back, so nothing else in the report moved
    @pytest.mark.parametrize("group, n_thick, radius, report, old_report, graph", [
        (corpus.group_z2_z3, 1, 6,
         "d3b8cc88680aa1c531584b3d7ea02071ab9822a22fc07b86586292cd7b2ccbbf",
         "fff7a36a47ee48dd8ff7f7b02999332492abdaaf1e35eaac43ee01b73caacdd0",
         "9740397de180dd4e9761eb672e7cf2e999a16e0048e74e1603c01f1e3b9a82cc"),
        (lambda: corpus.group_zsq_z2("king"), 2, 5,
         "2c65ac8e467d9f861a40429d320b9b805b768bf468d4a5ae285c558c5a7dfb27",
         "07d89bc266f74bb063f355a61bc2202348e25506ccb56df2409b46a710b735e3",
         "e17bc3f436fc0250c3575e8a8dac809a24ca49ae624e29edb88567e07ec9dbb8"),
    ], ids=["z2_z3", "zsq_z2_king"])
    def test_pinned_report_digest(self, tmp_path, group, n_thick, radius,
                                  report, old_report, graph):
        out, graph_out = tmp_path / "w.json", tmp_path / "g.json"
        code = main(["gamma", "build", "--group", group_file(tmp_path, group()),
                     "--N", str(n_thick), "--radius", str(radius),
                     "--out", str(out), "--graph-out", str(graph_out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == report
        assert hashlib.sha256(graph_out.read_bytes()).hexdigest() == graph
        restored = json.loads(out.read_bytes())
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
    # and the default 200 samples; any change to window BFS, certification or
    # sampling order that moves a seeded draw changes these bytes
    @pytest.mark.parametrize("group, digest", [
        (corpus.group_z2_z3,
         "7f52971386a8983dc630f6149beec03a6d790e91d599291a2fbf37a529b4e055"),
        (corpus.group_z2_z2,
         "1a07dfe4f4caeabe83768323a644a6023d45936d34d96cdfb351844274cfbcae"),
        (corpus.group_zsq_z2,
         "74d0192891c146bb6d5ce424eb9977e773d40decb1597e5ac25006974c047194"),
    ])
    def test_pinned_report_digest(self, tmp_path, group, digest):
        spec = group()
        out = tmp_path / "d.json"
        code = main(["derive", "--group", group_file(tmp_path, spec),
                     "--N", str(recommended_n(spec)), "--radius", "8",
                     "--seed", "2024", "--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
        from hellykit.gamma import GammaConfig, GammaWindow
        from hellykit.graphs import QGParams
        from hellykit.helly import analyze
        from hellykit.quasiconvex import OrbitSpec, verify_section5

        spec = corpus.group_z2_z3()
        if command == "analyze":
            g = corpus.cycle(6)
            argv = ["analyze", write(tmp_path / "g.json", json.dumps(graph_to_json(g)))]
            want = analyze(g)
        elif command == "derive":
            argv = ["derive", "--group", group_file(tmp_path, spec), "--N", "1",
                    "--radius", "6", "--samples", "30", "--seed", "5"]
            want = verify_derivation_theorems(GammaWindow(GammaConfig(spec, 1), 6),
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
        if case in corpora:
            argv = ["corpus", *corpora[case], "--out", str(tmp_path / "c.json")]
        elif case == "ball_negative_radius":
            argv = ["group", "ball", "--spec",
                    group_file(tmp_path, corpus.group_z2_z3()), "--radius", "-1"]
        elif case.startswith("measure_"):
            argv = ["measure", "--what", "bcp", "--group",
                    group_file(tmp_path, corpus.group_z2_z3()), "--radius", "2",
                    "--samples", "2", *fractions[case]]
        elif case in fractions:
            argv = ["quasiconvex", "--ambient", c4_edge_list(tmp_path),
                    "--orbit", write(tmp_path / "orbit.json", "[0, 2]"),
                    "--k", "1", *fractions[case]]
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
        # the ambient (28 vertices) and Delta (24) are within quasiconvex's bound
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["quasiconvex", "--ambient", str(ambient), "--orbit",
                         str(opath), "--k", "3", "--out", str(tmp_path / "q.json")])
        assert code == 0 and caught == []
        report = json.loads((tmp_path / "q.json").read_text())
        assert report["result"]["violations"] == 0

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
    # the last case sweeps a non-integer (lambda, c) on top of the lemma grid
    @pytest.mark.parametrize("name, graph, orbit, extra, digest", [
        ("king3x3", lambda: corpus.king_grid(3, 3), [3, 4, 5], [],
         "ea53692cfa04b9761b723a8429e34575486cefbc1f5357065f03db85553ed66c"),
        ("king4x3", lambda: corpus.king_grid(4, 3), [4, 5, 6, 7], [],
         "132ee817c5e1d4b2830a5fb3168ad917c174d452fab510df797f82375ab0827b"),
        ("king4x3", lambda: corpus.king_grid(4, 3), [4, 5, 6, 7],
         ["--lambda", "3/2", "--c", "1/2"],
         "66610578c60739ebae26b6cef2fcb454bbb3e4e2fd5ceff338f83fa342b6e2cb"),
    ], ids=["king3x3", "king4x3", "king4x3-lam3/2-c1/2"])
    def test_pinned_report_digest(self, tmp_path, monkeypatch, name, graph,
                                  orbit, extra, digest):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / f"{name}.json", json.dumps(graph_to_json(graph())))
        write(tmp_path / "orbit.json", json.dumps(orbit))
        assert main(["quasiconvex", "--ambient", f"{name}.json", "--orbit",
                     "orbit.json", "--k", "1", "--out", "q.json"] + extra) == 0
        assert hashlib.sha256((tmp_path / "q.json").read_bytes()).hexdigest() == digest


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


# run in a fresh interpreter: spawn `hellykit argv`, print its exit code and
# its peak RSS
PEAK_RSS = """\
import os, sys
argv = [sys.executable, "-m", "hellykit.cli", *sys.argv[1:]]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss(argv):
    """Peak RSS in bytes of `hellykit argv`.  A child's ru_maxrss is at least
    the peak RSS of the process it was spawned from, so the CLI is spawned
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
        report = seen[0]
        if report["command"] == "gamma-build":
            # writing the report used up the window's one-shot generators; a
            # second window of the same configuration gives them again
            window = GammaWindow(GammaConfig(corpus.group_zsq_z2("king"), 2), 4)
            fresh = {k: v for k, v in window.to_json().items()
                     if isinstance(v, GeneratorType)}
            assert fresh.keys() == {"vertices", "edges", "edge_kinds"}
            report["result"].update(fresh)
        assert out.read_bytes() == render(report).encode()

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
        # gamma build and derive build the same window, and the build then
        # writes an 8.3 MiB report.  Holding its text and the encoded copy
        # put the build's peak 41 MiB above derive's.  Streamed, with the
        # window's vertices and edges read lazily as they are written, it is
        # about 6 MiB, the tuple memo most of it
        group = group_file(tmp_path, corpus.group_zsq_z2("king"))
        window = ["--group", group, "--N", "2", "--radius", "8"]
        out = tmp_path / "w.json"
        build = peak_rss(["gamma", "build", *window, "--out", str(out)])
        derive = peak_rss(["derive", *window, "--samples", "1",
                           "--out", str(tmp_path / "d.json")])
        assert build - derive < out.stat().st_size
