"""Tests for serialization (graphs.io) and the CLI."""

import json

import pytest

from repro.exceptions import GraphError
from repro.graphs import generators
from repro.graphs.base import Graph
from repro.graphs.io import (
    edgelist_string,
    labeling_from_json,
    labeling_to_json,
    preserver_from_json,
    preserver_to_json,
    read_edgelist,
    write_edgelist,
)


class TestEdgelist:
    def test_round_trip(self, tmp_path):
        g = generators.connected_erdos_renyi(15, 0.2, seed=2)
        path = tmp_path / "g.edges"
        write_edgelist(g, path)
        assert read_edgelist(path) == g

    def test_isolated_vertices_preserved(self, tmp_path):
        g = Graph(5, [(0, 1)])
        path = tmp_path / "g.edges"
        write_edgelist(g, path)
        back = read_edgelist(path)
        assert back.n == 5 and back.m == 1

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# a comment\n3\n\n0 1\n# another\n1 2\n")
        g = read_edgelist(path)
        assert g.n == 3 and g.m == 2

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("3\n0 1 9\n")
        with pytest.raises(GraphError):
            read_edgelist(path)
        path.write_text("")
        with pytest.raises(GraphError):
            read_edgelist(path)
        path.write_text("zebra\n0 1\n")
        with pytest.raises(GraphError):
            read_edgelist(path)

    def test_string_form(self):
        g = Graph(3, [(0, 1)])
        assert edgelist_string(g) == "3\n0 1"


class TestPreserverJson:
    def test_round_trip(self):
        from repro.preservers import ft_ss_preserver

        g = generators.connected_erdos_renyi(14, 0.2, seed=5)
        p = ft_ss_preserver(g, [0, 7], faults_tolerated=1, seed=1)
        payload = preserver_to_json(p)
        back = preserver_from_json(payload, g)
        assert back.edges == p.edges
        assert back.sources == p.sources
        assert back.faults_tolerated == p.faults_tolerated

    def test_wrong_graph_rejected(self):
        from repro.preservers import ft_ss_preserver

        g = generators.cycle(6)
        p = ft_ss_preserver(g, [0, 3], faults_tolerated=1, seed=1)
        payload = preserver_to_json(p)
        with pytest.raises(GraphError):
            preserver_from_json(payload, generators.cycle(8))

    def test_wrong_kind_rejected(self):
        with pytest.raises(GraphError):
            preserver_from_json(
                json.dumps({"kind": "other"}), generators.cycle(4)
            )


class TestLabelingJson:
    def test_round_trip_preserves_answers_and_sizes(self):
        from repro.labeling import DistanceLabeling
        from repro.spt.bfs import bfs_distances

        g = generators.connected_erdos_renyi(12, 0.3, seed=7)
        lab = DistanceLabeling.build(g, f=0, seed=2)
        back = labeling_from_json(labeling_to_json(lab))
        assert back.faults_tolerated == lab.faults_tolerated
        assert back.max_label_bits() == lab.max_label_bits()
        e = next(iter(g.edges()))
        dist = bfs_distances(g.without([e]), 0)
        for t in range(1, g.n):
            assert back.distance(0, t, [e]) == dist[t]

    def test_wrong_kind_rejected(self):
        with pytest.raises(GraphError):
            labeling_from_json(json.dumps({"kind": "preserver"}))


class TestCli:
    def test_demo(self, capsys):
        from repro.cli import main

        assert main(["demo", "--family", "grid", "--size", "3"]) == 0
        out = capsys.readouterr().out
        assert "restored via midpoint" in out

    def test_verify(self, capsys):
        from repro.cli import main

        assert main(["verify", "--family", "torus", "--size", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 4

    def test_preserver_with_check_and_output(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "p.json"
        code = main([
            "preserver", "--family", "er", "--size", "14",
            "--sources", "0,5,9", "--check", "--output", str(out_file),
        ])
        assert code == 0
        assert "verification: OK" in capsys.readouterr().out
        data = json.loads(out_file.read_text())
        assert data["sources"] == [0, 5, 9]

    def test_labels(self, capsys):
        from repro.cli import main

        assert main(["labels", "--family", "cycle", "--size", "8"]) == 0
        assert "bits" in capsys.readouterr().out

    def test_input_file(self, tmp_path, capsys):
        from repro.cli import main

        g = generators.cycle(6)
        path = tmp_path / "c6.edges"
        write_edgelist(g, path)
        assert main(["demo", "--input", str(path)]) == 0
        assert "n=6" in capsys.readouterr().out

    def test_demo_disconnected_exit_code(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "disc.edges"
        path.write_text("3\n0 1\n")
        assert main(["demo", "--input", str(path)]) == 1

    def test_query(self, capsys):
        from repro.cli import main

        code = main(["query", "--family", "grid", "--size", "4",
                     "--pairs", "5", "--scenarios", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "query stream:" in out
        assert "batched waves" in out
        assert "Session(" in out

    def test_query_and_stats_connect_to_a_server(self, capsys):
        # repro query --connect streams through a live server, and
        # repro stats --connect reads its LRU rows, vector-cache and
        # delta counters back over the service protocol.
        from repro.cli import _cache_line, main
        from repro.query import Session
        from repro.service import BackgroundServer

        backend = Session(generators.grid(4, 4))
        with BackgroundServer(backend) as server:
            host, port = server.address
            address = f"{host}:{port}"
            assert main(["query", "--family", "grid", "--size", "4",
                         "--pairs", "5", "--scenarios", "4",
                         "--connect", address]) == 0
            out = capsys.readouterr().out
            assert "service: connected to" in out
            assert "engine LRU: " in out and " rows, vector cache " in out
            assert main(["stats", "--connect", address]) == 0
            out = capsys.readouterr().out
            info = backend.cache_info()
        assert info.size > 0
        assert f"backend LRU: {_cache_line(info)}" in out
        assert "counters: " in out

    def test_family_choices_cover_by_name(self):
        from repro.cli import FAMILIES

        for family in FAMILIES:
            g = generators.by_name(family, 4, seed=0)
            assert g.n > 0

    def test_unknown_family_exits_2(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["demo", "--family", "zebra"])
        assert exc.value.code == 2
        assert "zebra" in capsys.readouterr().err

    def test_graph_error_exits_2_with_message(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.edges"
        bad.write_text("zebra\n0 1\n")
        assert main(["demo", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
