import dataclasses
import json
import os
import random
from pathlib import Path

import pytest

from subsym import cli, formats, symmetry
from subsym.cli import main
from subsym.formats import (
    FormatError,
    read_generators,
    read_graph,
    read_subdivision,
    write_generators,
    write_graph,
    write_subdivision,
)
from subsym.graphs import (
    Graph,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_hoffman_singleton,
    make_petersen,
    random_connected_graph,
)
from subsym.groups import dihedral_group, pgammal_2_8, symmetric_group
from subsym.theorems import CorpusConfig, run_corpus
from subsym.transforms import subdivide

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
GOLDEN_VERIFY = os.path.join(os.path.dirname(__file__), "golden_verify.jsonl")
# the corpus GOLDEN_VERIFY was written with: the default sections (1,641 records)
GOLDEN_CONFIG = "seed = 1729\n"
# every record of the rows section, the Hoffman-Singleton rows included
GOLDEN_ROWS = os.path.join(os.path.dirname(__file__), "golden_rows.jsonl")
GOLDEN_ROWS_CONFIG = "sections = rows, hoffman-singleton\n"


def _verify_matches_golden(tmp_path, config: str, golden: str) -> list[str]:
    """Run verify with config and compare its report with golden record by
    record; return golden's lines."""
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(config)
    out = tmp_path / "r.jsonl"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    want = Path(golden).read_text().splitlines()
    got = out.read_text().splitlines()
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        rec = json.loads(b)
        assert a == b, f"record {i}: {rec['name']} [{rec['instance']}]"
    return want


class TestGraphFiles:
    def test_round_trip(self, tmp_path):
        rng = random.Random(4)
        for _ in range(5):
            g = random_connected_graph(rng, rng.randint(3, 10))
            path = tmp_path / "g.txt"
            write_graph(str(path), g)
            assert read_graph(str(path)) == g

    def test_subdivision_tag_line(self, tmp_path):
        sg = subdivide(make_cycle(4))
        path = tmp_path / "sg.txt"
        write_subdivision(str(path), sg)
        text = path.read_text()
        assert "parts: V=0..3 E=4..7" in text
        assert read_graph(str(path)) == sg.graph

    def test_read_subdivision_round_trip(self, tmp_path):
        sg = subdivide(make_petersen())
        path = str(tmp_path / "sp.txt")
        write_subdivision(path, sg)
        back = read_subdivision(path)
        assert back.graph == sg.graph
        assert back.base == sg.base

    def test_read_subdivision_requires_parts(self, tmp_path):
        path = str(tmp_path / "plain.txt")
        write_graph(path, make_cycle(6))
        with pytest.raises(FormatError) as exc:
            read_subdivision(path)
        assert "parts" in str(exc.value)

    def test_read_subdivision_rejects_non_subdivision(self, tmp_path):
        path = tmp_path / "bad.txt"
        # claims vertices 2..3 are E-vertices, but vertex 2 has valency 1
        path.write_text("4 3\nparts: V=0..1 E=2..3\n0 2\n0 3\n1 3\n")
        with pytest.raises(FormatError):
            read_subdivision(str(path))

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\n2 1\n# another\n0 1\n")
        g = read_graph(str(path))
        assert (g.n, g.m) == (2, 1)

    @pytest.mark.parametrize(
        "content,fragment",
        [
            ("2\n0 1\n", ":1: expected header"),
            ("2 1\n0 x\n", ":2: non-integer"),
            ("2 1\n1 0\n", ":2: edge (1, 0) out of order/range"),
            ("3 2\n0 1\n", "promises 2 edges"),
            ("", "empty file"),
            # S(K_2), whose parts line must be V=0..1 E=2..2
            ("3 2\nparts: V=0..1 E=2..99\n0 2\n1 2\n", ":2: parts E range ends at 99, not at the last vertex 2"),
            ("3 2\nparts: V=0..1 E=2..1\n0 2\n1 2\n", ":2: parts E range ends at 1, not at the last vertex 2"),
            ("3 2\nparts: V=0..1 E=2..2\nparts: V=0..0 E=1..2\n0 2\n1 2\n", ":3: second parts line"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, tmp_path, content, fragment):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(FormatError) as exc:
            read_graph(str(path))
        assert fragment in str(exc.value)

    def test_parts_of_an_edgeless_base_graph(self, tmp_path):
        path = str(tmp_path / "s1.txt")
        write_subdivision(path, subdivide(Graph(1, [])))
        assert "parts: V=0..0 E=1..0" in Path(path).read_text()
        assert read_subdivision(path).graph == Graph(1, [])


class TestGeneratorFiles:
    def test_round_trip(self, tmp_path):
        G = dihedral_group(7)
        path = tmp_path / "g.gens"
        write_generators(str(path), G)
        H = read_generators(str(path))
        assert H.degree == 7 and H.order() == 14

    def test_comment_lines_ignored(self, tmp_path):
        path = tmp_path / "g.gens"
        path.write_text("# the dihedral group D_4\ndegree 4\n# rotation\n1 2 3 0\n\n  # reflection\n0 3 2 1\n")
        assert read_generators(str(path)).order() == 8

    def test_bad_image_count(self, tmp_path):
        path = tmp_path / "bad.gens"
        path.write_text("degree 3\n0 1\n")
        with pytest.raises(FormatError) as exc:
            read_generators(str(path))
        assert "expected 3 images" in str(exc.value)

    def test_negative_degree(self, tmp_path):
        path = tmp_path / "bad.gens"
        path.write_text("# comment\ndegree -3\n")
        with pytest.raises(FormatError) as exc:
            read_generators(str(path))
        assert "bad.gens:2: negative degree -3" in str(exc.value)

    def test_fixture_orders(self):
        expected = {
            "dihedral_10.gens": 10,
            "dihedral_12.gens": 12,
            "symmetric_5.gens": 120,
            "symmetric_6.gens": 720,
            "pgl_2_8.gens": 504,
            "pgammal_2_8.gens": 1512,
            "petersen_aut.gens": 120,
            "hoffman_singleton_aut.gens": 252000,
        }
        for name, order in expected.items():
            G = read_generators(os.path.join(FIXTURES, name))
            assert G.order() == order, name

    def test_fixture_pgammal_matches_construction(self):
        fixture = read_generators(os.path.join(FIXTURES, "pgammal_2_8.gens"))
        built = pgammal_2_8()
        assert all(p in built for p in fixture.generators)
        assert fixture.order() == built.order()

    def test_petersen_fixture_is_automorphism_group(self):
        from subsym.groups import is_graph_automorphism

        G = read_generators(os.path.join(FIXTURES, "petersen_aut.gens"))
        p = make_petersen()
        assert all(is_graph_automorphism(p, g) for g in G.generators)


def _degrees_built(chain_builds):
    """The degrees of the chains built for lifted groups and for the rest."""
    lifted = [G.degree for G, _ in chain_builds if G._lift is not None]
    return lifted, [G.degree for G, _ in chain_builds if G._lift is None]


class TestCli:
    def test_build_and_transform_round_trip(self, tmp_path, capsys):
        g_path = str(tmp_path / "p.g")
        assert main(["build", "petersen", "--out", g_path]) == 0
        sg_path = str(tmp_path / "sp.g")
        assert main(["transform", "subdivide", "--in", g_path, "--out", sg_path]) == 0
        back_path = str(tmp_path / "back.g")
        assert main(["transform", "reconstruct", "--in", sg_path, "--out", back_path]) == 0
        from subsym.autgrp import is_isomorphic

        assert is_isomorphic(read_graph(back_path), make_petersen())
        out = capsys.readouterr().out
        assert "# effective-config:" in out

    def test_build_hoffman_singleton(self, tmp_path):
        path = str(tmp_path / "h.g")
        assert main(["build", "hoffman-singleton", "--out", path]) == 0
        g = read_graph(path)
        assert (g.n, g.m) == (50, 175)

    def test_build_usage_error(self, tmp_path, capsys):
        assert main(["build", "complete", "0", "--out", str(tmp_path / "x.g")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args, usage", [
        (["complete", "x"], "build complete N"),
        (["complete", "4.5"], "build complete N"),
        (["complete-bipartite", "3"], "build complete-bipartite M N"),
        (["cycle"], "build cycle N"),
        (["petersen", "5"], "build petersen"),
        (["hoffman-singleton", "1", "2"], "build hoffman-singleton"),
    ])
    def test_build_bad_parameters(self, tmp_path, capsys, args, usage):
        # a non-integer parameter, or a parameter a fixed family does not take,
        # is a usage error, not a traceback or an ignored argument
        out = tmp_path / "x.g"
        assert main(["build", *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: usage: {usage}\n"
        assert not out.exists()

    def test_dist2_writes_components(self, tmp_path):
        g_path = str(tmp_path / "c6.g")
        main(["build", "cycle", "6", "--out", g_path])
        main(["transform", "dist2", "--in", g_path, "--out", str(tmp_path / "d.g")])
        assert (tmp_path / "d-c0.g").exists() and (tmp_path / "d-c1.g").exists()

    def test_analyze_with_fixture_group(self, tmp_path, capsys):
        g_path = str(tmp_path / "c5.g")
        main(["build", "cycle", "5", "--out", g_path])
        rc = main([
            "analyze", "--graph", g_path,
            "--group", os.path.join(FIXTURES, "dihedral_10.gens"),
            "--property", "arc", "--s", "1..3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "s=1: true" in out and "s=3: true" in out

    @pytest.mark.parametrize("make, s_max", [
        (make_petersen, 2),
        (lambda: subdivide(make_hoffman_singleton()).graph, 6),
    ], ids=["Petersen", "S(HoSi)"])
    def test_analyze_aut_reruns_alike_and_writes_only_its_report(self, tmp_path, capsys, chain_builds,
                                                                 make, s_max):
        # --group aut computes the group on every run (S(HoSi) takes it from
        # HoSi) and builds no chain: the search returns its own, and the
        # local-distance walk reads its stabilizers off that chain
        g_path, out = tmp_path / "g.g", tmp_path / "rep.jsonl"
        write_graph(str(g_path), make())
        args = ["analyze", "--graph", str(g_path), "--group", "aut", "--property", "local-distance",
                "--s", f"1..{s_max}", "--out", str(out)]
        runs = []
        for _ in range(2):
            chain_builds.clear()
            assert main(args) == 0
            stdout = capsys.readouterr().out
            assert stdout.count(": true\n") == s_max
            assert chain_builds == []
            runs.append((stdout, out.read_bytes()))
        assert runs[0] == runs[1]
        assert sorted(os.listdir(tmp_path)) == ["g.g", "rep.jsonl"]

    def test_no_flow_builds_a_chain_for_a_lifted_group(self, tmp_path, capsys, chain_builds):
        # a lifted group takes its order and stabilizers from its base group,
        # so analyze on S(Petersen) builds chains on Petersen's 10 points only
        base, g_path = str(tmp_path / "p.g"), str(tmp_path / "sp.g")
        main(["build", "petersen", "--out", base])
        main(["transform", "subdivide", "--in", base, "--out", g_path])
        fixture = os.path.join(FIXTURES, "petersen_aut.gens")
        capsys.readouterr()
        # every aut run takes the group from Petersen; the fixture's group is induced
        for group, note in (("aut", "# automorphism group from the base graph"),
                            (fixture, "# induced the degree-10 group")):
            for prop in sorted(cli.PROPERTIES):
                args = ["analyze", "--graph", g_path, "--group", group, "--property", prop, "--s", "1..3"]
                assert main(args) == 0
                assert note in capsys.readouterr().out
        lifted, plain = _degrees_built(chain_builds)
        assert lifted == [] and set(plain) == {10}
        run_corpus(CorpusConfig())
        lifted, plain = _degrees_built(chain_builds)
        assert lifted == [] and len(set(plain)) > 1

    @pytest.mark.parametrize("g, message", [
        (make_complete(2), "s range 1..3 exceeds diameter 1"),
        (Graph(4, [(0, 1), (2, 3)]), "diameter undefined for disconnected graph"),
    ], ids=["K_2", "disconnected"])
    def test_analyze_checks_s_before_the_aut_search(self, tmp_path, capsys, monkeypatch, g, message):
        g_path = str(tmp_path / "g.g")
        write_graph(g_path, g)

        def searched(g):
            pytest.fail("the aut search ran before the s range was checked")

        monkeypatch.setattr(cli, "automorphism_group", searched)
        monkeypatch.setattr(cli, "subdivision_automorphism_group", searched)
        rc = main(["analyze", "--graph", g_path, "--group", "aut", "--property", "local-distance",
                   "--s", "1..3"])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["g.g"]

    def test_analyze_aut_size_cap_names_the_graph(self, tmp_path, capsys):
        g_path = str(tmp_path / "g.g")
        write_graph(g_path, make_complete_bipartite(1, 401))
        rc = main(["analyze", "--graph", g_path, "--group", "aut", "--property", "local-distance",
                   "--s", "1..2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: automorphism search is budgeted for n <= 400; this graph has n = 402\n"

    @pytest.mark.parametrize("g,message", [
        (make_cycle(4), "C_4 is not the subdivision of a simple graph"),
        (make_complete_bipartite(2, 3), "ambient graph is not the subdivision of a graph"),
    ], ids=["C_4", "K_2,3"])
    def test_reconstruct_rejects_four_cycle(self, tmp_path, capsys, g, message):
        g_path = str(tmp_path / "g.g")
        write_graph(g_path, g)
        rc = main(["transform", "reconstruct", "--in", g_path, "--out", str(tmp_path / "back.g")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert "n >= 3" not in err
        assert not (tmp_path / "back.g").exists()

    def test_analyze_induces_base_group_on_subdivision(self, tmp_path, capsys):
        g_path = str(tmp_path / "k9.g")
        sg_path = str(tmp_path / "sk9.g")
        main(["build", "complete", "9", "--out", g_path])
        main(["transform", "subdivide", "--in", g_path, "--out", sg_path])
        capsys.readouterr()
        rc = main([
            "analyze", "--graph", sg_path,
            "--group", os.path.join(FIXTURES, "pgammal_2_8.gens"),
            "--property", "local-distance", "--s", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "induced the degree-9 group" in out
        assert "s=4: true" in out
        rc = main([
            "analyze", "--graph", sg_path,
            "--group", os.path.join(FIXTURES, "pgl_2_8.gens"),
            "--property", "local-distance", "--s", "4",
        ])
        assert rc == 0
        assert "s=4: false" in capsys.readouterr().out

    def test_analyze_aut_lifts_from_base_beyond_search_cap(self, tmp_path, capsys):
        # S(C_81 x K_2) has 405 vertices, above the search cap; its base has 162
        n = 81
        prism = Graph(2 * n, [(i, (i + 1) % n) for i in range(n)]
                      + [(n + i, n + (i + 1) % n) for i in range(n)]
                      + [(i, n + i) for i in range(n)])
        sg_path = str(tmp_path / "sprism.g")
        write_subdivision(sg_path, subdivide(prism))
        rc = main(["analyze", "--graph", sg_path, "--group", "aut", "--property", "local-arc", "--s", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# automorphism group from the base graph on 162 vertices, order 324\n" in out
        assert os.listdir(tmp_path) == ["sprism.g"]

    @pytest.mark.parametrize("base", [
        make_petersen(),
        make_complete(4),
        make_complete_bipartite(2, 3),
        Graph(4, [(0, 1), (1, 2), (2, 3)]),
    ], ids=["Petersen", "K_4", "K_2,3", "P_4"])
    def test_analyze_aut_shortcut_keeps_reports(self, tmp_path, capsys, monkeypatch, base):
        # a plain edge list, relabelled: recognised by its distance parity
        # classes and valencies, not by labels
        sub = subdivide(base).graph
        images = list(range(sub.n))
        random.Random(3).shuffle(images)
        g_path = tmp_path / "s.g"
        write_graph(str(g_path), Graph(sub.n, [(images[u], images[v]) for u, v in sub.edge_list]))
        args = ["analyze", "--graph", str(g_path), "--group", "aut", "--property", "local-distance",
                "--s", "1..4"]
        reports = []
        for shortcut in (True, False):
            if not shortcut:
                monkeypatch.setattr(cli, "subdivision_automorphism_group", lambda g: None)
            out = str(tmp_path / f"r-{shortcut}.jsonl")
            assert main(args + ["--out", out]) == 0
            stdout = capsys.readouterr().out
            assert ("from the base graph on" in stdout) == shortcut
            reports.append((Path(out).read_bytes(), [ln for ln in stdout.splitlines() if ln.startswith("s=")]))
        assert reports[0] == reports[1]

    def test_analyze_degree_mismatch_fails(self, tmp_path, capsys):
        g_path = str(tmp_path / "c6.g")
        main(["build", "cycle", "6", "--out", g_path])
        rc = main([
            "analyze", "--graph", g_path,
            "--group", os.path.join(FIXTURES, "dihedral_10.gens"),
            "--property", "arc", "--s", "1",
        ])
        assert rc == 2
        assert "group degree 5 matches neither the graph (6) nor its base (no parts line)" in capsys.readouterr().err

    @pytest.mark.parametrize("case,fragment", [
        ("parts", "sk4.g:2: parts E range ends at 999, not at the last vertex 9"),
        ("degree", "group degree 5 matches neither the graph (10) nor its base (no parts line)"),
        ("negative", "bad.gens:1: negative degree -3"),
    ])
    def test_analyze_bad_input_exits_2(self, tmp_path, capsys, case, fragment):
        gens = str(tmp_path / "bad.gens")
        if case == "parts":  # S(K_4) with a bad E range, and S_4 on K_4's vertices
            g_path = str(tmp_path / "sk4.g")
            write_subdivision(g_path, subdivide(make_complete(4)))
            Path(g_path).write_text(Path(g_path).read_text().replace("E=4..9", "E=4..999"))
            write_generators(gens, symmetric_group(4))
        else:
            g_path = str(tmp_path / "p.g")
            write_graph(g_path, make_petersen())
            if case == "degree":
                gens = os.path.join(FIXTURES, "symmetric_5.gens")
            else:
                Path(gens).write_text("degree -3\n")
        rc = main(["analyze", "--graph", g_path, "--group", gens, "--property", "local-distance",
                   "--s", "1..2"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1 and fragment in err

    @pytest.mark.parametrize("args", [
        ["analyze", "--graph", "BAD", "--group", "aut", "--property", "arc", "--s", "1"],
        ["analyze", "--graph", "GOOD", "--group", "BAD", "--property", "arc", "--s", "1"],
        ["transform", "subdivide", "--in", "BAD", "--out", "OUT"],
        ["verify", "--config", "BAD"],
    ], ids=["graph", "group", "transform", "config"])
    def test_non_utf8_file_exits_2(self, tmp_path, capsys, args):
        bad, good, out = (str(tmp_path / name) for name in ("bad.txt", "p.g", "out.g"))
        Path(bad).write_bytes(b"# caf\xe9\n3 2\n0 1\n1 2\n")  # a Latin-1 comment
        write_graph(good, make_petersen())
        rc = main([{"BAD": bad, "GOOD": good, "OUT": out}.get(a, a) for a in args])
        err = capsys.readouterr().err
        assert rc == 2 and err == f"error: {bad}: not UTF-8 text (invalid continuation byte)\n"
        assert not os.path.exists(out)

    def test_verify_report_reproducible(self, tmp_path):
        cfg = tmp_path / "corpus.cfg"
        cfg.write_text("seed = 5\nsections = structural, random\n")
        rep1 = str(tmp_path / "r1.jsonl")
        rep2 = str(tmp_path / "r2.jsonl")
        assert main(["verify", "--config", str(cfg), "--out", rep1]) == 0
        assert main(["verify", "--config", str(cfg), "--out", rep2]) == 0
        assert Path(rep1).read_bytes() == Path(rep2).read_bytes()

    def test_verify_report_matches_golden(self, tmp_path):
        # the committed report pins verdicts, witnesses and details across
        # refactors; regenerate it only for an intended change of the report
        want = _verify_matches_golden(tmp_path, GOLDEN_CONFIG, GOLDEN_VERIFY)
        assert len(want) == 1641
        assert len({json.loads(line)["name"] for line in want}) == 12

    def test_verify_rows_match_golden(self, tmp_path):
        # both HoSi rows are outside the default sections; this pins every
        # row the default and the heavy corpus run
        want = _verify_matches_golden(tmp_path, GOLDEN_ROWS_CONFIG, GOLDEN_ROWS)
        assert len(want) == 27

    def test_verify_effective_config_names_every_key(self, tmp_path, capsys):
        cfg = tmp_path / "corpus.cfg"
        for budget_line, budget in (("", None), ("budget_seconds = 60\n", 60.0)):
            cfg.write_text(f"sections = structural\n{budget_line}")
            assert main(["verify", "--config", str(cfg), "--seed", "7"]) == 0
            line = capsys.readouterr().out.splitlines()[0]
            assert line.startswith("# effective-config: command=verify ")
            items = dict(part.split("=", 1) for part in line.split()[3:])
            assert list(items) == [f.name for f in dataclasses.fields(CorpusConfig)]
            assert items["sections"] == "structural" and items["budget_seconds"] == str(budget)
            # the line, read back as a config file, gives the same configuration
            again = tmp_path / "again.cfg"
            again.write_text("".join(f"{k} = {v}\n" for k, v in items.items() if v != "None"))
            assert CorpusConfig.from_file(str(again)) == CorpusConfig(
                seed=7, sections=("structural",), budget_seconds=budget
            )

    @pytest.mark.parametrize("config", ["", "sections = rows, hoffman-singleton\n"], ids=["default", "listed"])
    def test_verify_heavy_adds_the_hoffman_singleton_section_once(self, tmp_path, capsys, config):
        cfg, out = tmp_path / "corpus.cfg", tmp_path / "r.jsonl"
        cfg.write_text(config)
        assert main(["verify", "--config", str(cfg), "--heavy", "--out", str(out)]) == 0
        sections = capsys.readouterr().out.split(" sections=", 1)[1].split()[0].split(",")
        assert sections.count("hoffman-singleton") == 1
        instances = [json.loads(line)["instance"] for line in out.read_text().splitlines()]
        assert [i for i in instances if "HoSi" in i] == ["row=HoSi |G|=252000", "row=HoSi |G|=126000"]

    def test_verify_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense without equals\n")
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("seed = abc", "bad value 'abc' for seed"),
        ("seed = 1.5", "bad value '1.5' for seed"),
        ("budget_seconds = soon", "bad value 'soon' for budget_seconds"),
        ("colour = blue", "unknown key 'colour'"),
        ("heavy = on", "unknown key 'heavy'"),
        ("kn_range = 4..5", "unknown key 'kn_range'"),
        ("random_graphs = 3", "unknown key 'random_graphs'"),
        ("random_n_min = 3", "unknown key 'random_n_min'"),
        ("random_n_max = 7", "unknown key 'random_n_max'"),
        ("subgroup_samples = 8", "unknown key 'subgroup_samples'"),
        ("s_max = 5", "unknown key 's_max'"),
        ("knn_range = 2..4", "unknown key 'knn_range'"),
        ("cycle_large_ns = 16,17,18,19", "unknown key 'cycle_large_ns'"),
        ("sections = nowhere", "unknown section 'nowhere'"),
        ("budget_seconds = -1", "budget_seconds must be >= 0, got -1.0"),
        ("budget_seconds = nan", "budget_seconds must be >= 0, got nan"),
    ])
    def test_verify_bad_config_value(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# comment\n{line}\n")
        assert main(["verify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: {message}\n"

    @pytest.mark.parametrize("budget", ["-1", "nan"])
    def test_verify_bad_budget_flag(self, capsys, budget):
        # the flag obeys the config key's rule: -1 would skip every check, nan none
        assert main(["verify", "--budget", budget]) == 2
        out = capsys.readouterr()
        assert out.err == f"error: --budget: budget_seconds must be >= 0, got {float(budget)}\n"
        assert out.out == ""

    def test_verify_bad_config_names_the_later_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sections = rows\nseed = 3\nsections = rows, nowhere\nseed = 4\n")
        assert main(["verify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:3: unknown section 'nowhere'\n"

    @pytest.mark.parametrize("s", ["x", "3..1", "0", "1..y", "..2"])
    def test_analyze_bad_s_range(self, tmp_path, capsys, s):
        g_path = str(tmp_path / "p.g")
        main(["build", "petersen", "--out", g_path])
        capsys.readouterr()
        rc = main(["analyze", "--graph", g_path, "--group", "aut", "--property", "distance", "--s", s])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --s") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["p.g"]  # rejected before any aut search

    @pytest.mark.parametrize("prop", sorted(cli.PROPERTIES))
    def test_analyze_graph_without_vertices(self, tmp_path, capsys, prop):
        g_path = tmp_path / "empty.g"
        g_path.write_text("0 0\n")
        rc = main(["analyze", "--graph", str(g_path), "--group", "aut", "--property", prop, "--s", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: empty graph has no diameter\n"
        assert os.listdir(tmp_path) == ["empty.g"]  # rejected before any aut search

    @pytest.mark.parametrize("prop", sorted(cli.PROPERTIES))
    def test_analyze_disconnected_graph(self, tmp_path, capsys, prop):
        g_path = tmp_path / "dis.g"
        g_path.write_text("4 2\n0 1\n2 3\n")
        rc = main(["analyze", "--graph", str(g_path), "--group", "aut", "--property", prop, "--s", "1..2"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: diameter undefined for disconnected graph\n"
        assert os.listdir(tmp_path) == ["dis.g"]  # rejected before any aut search

    def test_analyze_range_builds_one_profile(self, tmp_path, capsys, monkeypatch):
        sg_path = str(tmp_path / "sp.g")
        write_subdivision(sg_path, subdivide(make_petersen()))
        calls = []
        stabilizer_point = symmetry.stabilizer_point

        def counting(G, v):
            calls.append(v)
            return stabilizer_point(G, v)

        monkeypatch.setattr(symmetry, "stabilizer_point", counting)
        rc = main([
            "analyze", "--graph", sg_path,
            "--group", os.path.join(FIXTURES, "petersen_aut.gens"),
            "--property", "local-distance", "--s", "1..4",
        ])
        assert rc == 0
        assert capsys.readouterr().out.count(": true\n") == 4
        assert calls == [0, 10]  # one stabilizer per vertex orbit, not one per s

    def test_analyze_parses_a_subdivision_file_once(self, tmp_path, capsys, monkeypatch):
        # a base-graph group on a subdivision file: the graph and its parts
        # line come from one parse
        sg_path = str(tmp_path / "sp.g")
        write_subdivision(sg_path, subdivide(make_petersen()))
        calls = []
        parse = formats.read_graph_with_parts

        def counting(path):
            calls.append(path)
            return parse(path)

        monkeypatch.setattr(formats, "read_graph_with_parts", counting)
        monkeypatch.setattr(cli, "read_graph_with_parts", counting)
        rc = main([
            "analyze", "--graph", sg_path,
            "--group", os.path.join(FIXTURES, "petersen_aut.gens"),
            "--property", "arc", "--s", "1..2",
        ])
        assert rc == 0
        assert "induced the degree-10 group" in capsys.readouterr().out
        assert calls == [sg_path]
