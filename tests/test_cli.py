"""CLI surface: subcommands, report schema, determinism, exit codes."""

import hashlib
import json

import pytest

from hellykit import cli, corpus
from hellykit.cli import main
from hellykit.gamma import recommended_n
from hellykit.graph_io import graph_from_json, graph_to_json, load_graph
from hellykit.reports import ReportError, validate_report


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def c4_edge_list(tmp_path):
    return write(tmp_path / "c4.txt", "# a square\n0 1\n1 2\n2 3\n3 0\n")


def group_file(tmp_path, spec):
    return write(tmp_path / "group.json", json.dumps(spec.to_json()))


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

    def test_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["analyze", c4_edge_list(tmp_path), "--out", str(out1)])
        main(["analyze", c4_edge_list(tmp_path), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    # sha256 of the analyze report on C14 (non-Helly, 1,094 extremal
    # functions) and the 3x3 king grid (Helly); the report records the graph
    # path, so the file is read by a fixed relative name
    @pytest.mark.parametrize("name, graph, digest", [
        ("c14", lambda: corpus.cycle(14),
         "1ae1df26d1c3f4eea808ee1875d1e23cf4ce82eeefe3bdf7fbe55f542b0f6699"),
        ("king3x3", lambda: corpus.king_grid(3, 3),
         "4b2a084694dc6201595a6098a5a0840463725a622fbb42720abdbf40c40ae8fa"),
    ], ids=["c14", "king3x3"])
    def test_pinned_report_digest(self, tmp_path, monkeypatch, name, graph, digest):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / f"{name}.json", json.dumps(graph_to_json(graph())))
        assert main(["analyze", f"{name}.json", "--out", "a.json"]) == 0
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


class TestUsage:
    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_required_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["gamma", "build"])
        assert info.value.code == 2


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
        assert report["result"]["min_n_quotient"] == 1
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


class TestErrorBoundary:
    """Input, parse and OS errors and tripped guards exit 2 with one line on
    stderr and nothing on stdout; a failed check exits 1."""

    @pytest.mark.parametrize("case, error", [
        ("malformed", "ValueError"),
        ("three_tokens", "GraphError"),
        ("disconnected", "NotConnectedError"),
        ("missing", "FileNotFoundError"),
        ("guard", "WindowError"),
    ])
    def test_exit_2(self, tmp_path, capsys, case, error):
        graphs = {"malformed": "0 1\n1 x\n", "three_tokens": "0 1 2\n",
                  "disconnected": "0 1\n2 3\n"}
        if case in graphs:
            argv = ["analyze", write(tmp_path / "g.txt", graphs[case])]
        elif case == "missing":
            argv = ["analyze", str(tmp_path / "absent.txt")]
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
        code = main(["quasiconvex", "--ambient", str(ambient), "--orbit",
                     str(opath), "--k", "3", "--out", str(tmp_path / "q.json")])
        assert code == 0
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

    def test_schema_rejects_malformed(self):
        with pytest.raises(ReportError):
            validate_report({"schema": "hellykit-report/1"})
