"""End-to-end command-line behavior: exit codes, JSON reports, determinism."""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fancross import cli
from fancross.cli import main
from fancross.errors import CapExceeded, Infeasible, InvariantBroken
from fancross.fixtures import fig1a, fig1a_certificate, fig3
from fancross.geometry import drawing_from_segments, pt
from fancross.graphs import Graph, add_universal_vertex, complete, cycle, grid2d
from fancross.jsonio import (
    certificate_to_json,
    drawing_to_json,
    graph_to_json,
    model_to_json,
    transduction_to_json,
)
from fancross.minors import MinorModel
from fancross.transduce import transduce_clustered, transduce_kplanar


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture()
def fig1a_files(tmp_path, capsys):
    dpath = tmp_path / "fig1a.json"
    cpath = tmp_path / "fig1a.cert.json"
    assert main(["gen", "fig1a", "--out", str(dpath)]) == 0
    assert main(["gen", "fig1a-cert", "--out", str(cpath)]) == 0
    capsys.readouterr()
    return str(dpath), str(cpath)


@pytest.fixture()
def fig3_file(tmp_path, capsys):
    path = tmp_path / "fig3.json"
    assert main(["gen", "fig3", "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


# ===== validate =====


def test_validate_accepts_fixture(fig1a_files, capsys):
    dpath, _ = fig1a_files
    code, obj = run_json(capsys, "validate", dpath)
    assert code == 0 and obj == {"ok": True, "errors": []}


def test_validate_reports_broken_drawing(tmp_path, fig1a_files, capsys):
    dpath, _ = fig1a_files
    doc = json.loads(open(dpath).read())
    doc["outer"] = 999
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, obj = run_json(capsys, "validate", str(bad))
    assert code == 1 and obj["ok"] is False and obj["errors"]


def two_triangles_doc():
    g = Graph.make(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    pos = {0: pt(0, 0), 1: pt(2, 0), 2: pt(1, 2), 3: pt(10, 0), 4: pt(12, 0), 5: pt(11, 2)}
    return drawing_to_json(drawing_from_segments(g, pos))


@pytest.mark.parametrize(
    "outers,code,error",
    [
        (None, 0, None),
        ([True], 3, "bad drawing document: outers entry True is not an integer"),
        ([1.5], 3, "bad drawing document: outers entry 1.5 is not an integer"),
        ([99], 1, "outer faces: entry 99 out of range"),
        ([0, 1, 2, 3], 1, "outer faces: entry 0 shares plan component 0 with the outer face"),
    ],
)
def test_validate_checks_the_outer_faces(tmp_path, capsys, outers, code, error):
    doc = two_triangles_doc()
    assert len(doc["outers"]) == 1
    if outers is not None:
        doc["outers"] = outers
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    got, out, err = run(capsys, "validate", str(path))
    assert got == code and "Traceback" not in err
    if code == 3:
        assert err == f"error: {error}\n"
    else:
        obj = json.loads(out)
        assert obj["ok"] == (error is None)
        assert error is None or error in obj["errors"]


def test_validate_reports_out_of_range_trace(tmp_path, fig3_file, capsys):
    doc = json.loads(open(fig3_file).read())
    doc["trace"]["0"] = [999]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    obj = json.loads(out)
    assert code == 1 and obj["ok"] is False
    assert "trace path: edge 0: unknown plan edge 999" in obj["errors"]
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", ["real:--0", "real:\u00b2", "real:\u0663"])
def test_validate_reports_malformed_real_kind(tmp_path, fig3_file, capsys, bad):
    doc = json.loads(open(fig3_file).read())
    doc["kind"]["0"] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    obj = json.loads(out)
    assert code == 1 and obj["ok"] is False
    assert obj["errors"][0] == f"kind value: vertex 0 has {bad!r}"
    assert "Traceback" not in err


@pytest.mark.parametrize("field, key", [("rotation", "0"), ("trace", "1")])
def test_validate_rejects_non_integer_ids(tmp_path, fig3_file, capsys, field, key):
    doc = json.loads(open(fig3_file).read())
    doc[field][key][0] = float(doc[field][key][0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 3 and out == ""
    assert f"bad drawing document: {field} entry" in err and "Traceback" not in err


def test_unreadable_file_is_a_parse_error(capsys):
    code, out, err = run(capsys, "validate", "/nonexistent.json")
    assert code == 3 and "cannot read" in err


def test_malformed_json_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 3 and "bad json" in err


# ===== crossgraph / kplanar =====


def test_crossgraph_components_with_certificate(fig1a_files, capsys):
    dpath, cpath = fig1a_files
    code, obj = run_json(capsys, "crossgraph", dpath, "--cert", cpath)
    assert code == 0
    assert len(obj["components"]) == 3


def test_crossgraph_refuses_a_certificate_with_too_many_cuts(tmp_path, fig1a_files, capsys):
    """fig1a's certificate at k = 1 has cuts that k allows none of.  The
    certificate refuses it when it is read, so ``crossgraph`` exits 3 like
    ``cluster-check``, where it once drew the cut graph and exited 0."""
    dpath, cpath = fig1a_files
    cert = json.loads(open(cpath).read())
    cert["k"] = 1
    bad = tmp_path / "k1.cert.json"
    bad.write_text(json.dumps(cert))
    for command in ("crossgraph", "cluster-check"):
        code, out, err = run(capsys, command, dpath, "--cert", str(bad))
        assert code == 3 and out == "" and "too many cuts" in err, command


def test_kplanar_exit_codes(fig3_file, capsys):
    code, obj = run_json(capsys, "kplanar", fig3_file, "--k", "2")
    assert code == 0 and obj["kplanar"] is True
    code, obj = run_json(capsys, "kplanar", fig3_file, "--k", "1")
    assert code == 1 and obj["kplanar"] is False
    assert obj["maxCrossingsPerEdge"] == 2


# ===== cluster commands =====


def test_repeated_cut_is_a_parse_error(tmp_path, fig1a_files, capsys):
    dpath, cpath = fig1a_files
    cert = json.loads(open(cpath).read())
    cert["k"] = 3
    cert["cuts"]["7"] = [2, 2]
    cert["assignment"].append({"edge": 7, "piece": 2, "center": 6})
    bad = tmp_path / "repeated.cert.json"
    bad.write_text(json.dumps(cert))
    for argv in (
        ["cluster-check", dpath, "--cert", str(bad)],
        ["cluster-check", dpath, "--cert", str(bad), "--strong"],
        ["transduce", dpath, "--mode", "clustered", "--k", "3", "--cert", str(bad)],
        ["roundtrip", dpath, "--mode", "clustered", "--k", "3", "--cert", str(bad)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "repeated cut" in err, argv


def test_cluster_check_fixture_certificate(fig1a_files, capsys):
    dpath, cpath = fig1a_files
    code, obj = run_json(capsys, "cluster-check", dpath, "--cert", cpath)
    assert code == 0 and obj["verdict"] is True
    assert obj["stats"]["components"] == 3


def test_cluster_search_found_and_not_found(tmp_path, capsys):
    path = tmp_path / "fig1b.json"
    assert main(["gen", "fig1b", "--m", "4", "--out", str(path)]) == 0
    capsys.readouterr()
    code, obj = run_json(capsys, "cluster-search", str(path), "--k", "1", "--ell", "1")
    assert code == 1 and obj == {"found": False, "k": 1, "ell": 1, "strong": False}
    code, obj = run_json(capsys, "cluster-search", str(path), "--k", "1", "--ell", "2")
    assert code == 0 and obj["found"] is True and obj["ell"] <= 2


def test_cluster_min_ell(tmp_path, capsys):
    path = tmp_path / "fig1b.json"
    assert main(["gen", "fig1b", "--m", "4", "--out", str(path)]) == 0
    capsys.readouterr()
    code, obj = run_json(capsys, "cluster-min-ell", str(path), "--k", "1")
    assert code == 0 and obj == {"k": 1, "minEll": 2}


def test_search_cap_exceeded_is_usage_error(fig3_file, capsys):
    code, _, err = run(
        capsys, "cluster-search", fig3_file, "--k", "1", "--ell", "1", "--cap", "2"
    )
    assert code == 2 and "cap exceeded" in err


# ===== model commands =====


def write_model_files(tmp_path):
    host = grid2d(2, 2)
    hpath = tmp_path / "host.json"
    ppath = tmp_path / "pattern.json"
    hpath.write_text(json.dumps(graph_to_json(host)))
    ppath.write_text(json.dumps(graph_to_json(cycle(4))))
    return str(hpath), str(ppath)


def test_model_find_and_verify(tmp_path, capsys):
    hpath, ppath = write_model_files(tmp_path)
    mpath = tmp_path / "model.json"
    code, obj = run_json(
        capsys, "model-find", "--host", hpath, "--pattern", ppath,
        "--c", "1", "--d", "1", "--out", str(mpath),
    )
    assert code == 0 and obj["found"] is True
    code, obj = run_json(capsys, "model-verify", str(mpath))
    assert code == 0 and obj == {"ok": True, "violations": []}


def test_model_verify_reports_violations(tmp_path, capsys):
    m = MinorModel(grid2d(2, 2), cycle(3), {0: (0,), 1: (1,), 2: (3,)}, 1, 1)
    mpath = tmp_path / "bad_model.json"
    mpath.write_text(json.dumps(model_to_json(m)))
    code, obj = run_json(capsys, "model-verify", str(mpath))
    assert code == 1 and obj["ok"] is False and obj["violations"]


def test_model_find_not_found(tmp_path, capsys):
    host = grid2d(1, 3)
    hpath = tmp_path / "host.json"
    ppath = tmp_path / "pattern.json"
    hpath.write_text(json.dumps(graph_to_json(host)))
    ppath.write_text(json.dumps(graph_to_json(cycle(3))))
    code, obj = run_json(
        capsys, "model-find", "--host", str(hpath), "--pattern", str(ppath),
        "--c", "1", "--d", "1",
    )
    assert code == 1 and obj == {"found": False}


# ===== synth / pipeline =====


def grid_files(tmp_path):
    g = grid2d(2, 2)
    pos = {i * 2 + j: pt(j, i) for i in range(2) for j in range(2)}
    d = drawing_from_segments(g, pos)
    dpath = tmp_path / "host_drawing.json"
    dpath.write_text(json.dumps(drawing_to_json(d)))
    return g, str(dpath)


def test_synth_emits_verified_result(tmp_path, capsys):
    g, dpath = grid_files(tmp_path)
    m = MinorModel(g, cycle(4), {0: (0,), 1: (1,), 2: (3,), 3: (2,)}, 1, 1)
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(model_to_json(m)))
    code, obj = run_json(capsys, "synth", dpath, "--model", str(mpath))
    assert code == 0
    assert set(obj) == {"drawing", "cert", "kPrime", "tags", "routes"}
    assert obj["kPrime"] == 1


def pipeline_argv(tmp_path):
    """A ``pipeline`` command line: the wheel on five vertices in the 2 x 2
    grid plus a universal apex, whose hub is the apex, at k = 1."""
    g, dpath = grid_files(tmp_path)
    gplus, apex = add_universal_vertex(g)
    hpath = tmp_path / "host_plus.json"
    hpath.write_text(json.dumps(graph_to_json(gplus)))
    m = MinorModel(
        gplus,
        Graph.make(range(5), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)]),
        {0: (0,), 1: (1,), 2: (3,), 3: (2,), 4: (apex,)},
        1,
        1,
    )
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(model_to_json(m)))
    return [
        "pipeline", dpath, "--host-plus", str(hpath), "--apex", str(apex),
        "--model", str(mpath), "--k", "1",
    ]


def test_pipeline_drops_apex_branches(tmp_path, capsys):
    code, obj = run_json(capsys, *pipeline_argv(tmp_path))
    assert code == 0
    assert obj["dropped"] == [4]
    assert obj["result"]["kPrime"] == 1


def test_pipeline_reports_a_broken_invariant(tmp_path, monkeypatch, capsys):
    argv = pipeline_argv(tmp_path)
    error = "more than k pattern vertices use the apex"
    monkeypatch.setattr(cli, "pipeline_theorem2", raising(InvariantBroken(error)))
    code, obj = run_json(capsys, *argv)
    assert code == 1 and obj == {"ok": False, "error": error}


def raising(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def test_synth_exit_code_follows_the_error_type(tmp_path, monkeypatch, capsys):
    g, dpath = grid_files(tmp_path)
    m = MinorModel(g, cycle(4), {0: (0,), 1: (1,), 2: (3,), 3: (2,)}, 1, 1)
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(model_to_json(m)))
    monkeypatch.setattr(cli, "synthesize", raising(InvariantBroken("construction invariant broken")))
    code, obj = run_json(capsys, "synth", dpath, "--model", str(mpath))
    assert code == 1 and obj == {"ok": False, "error": "construction invariant broken"}
    monkeypatch.setattr(cli, "synthesize", raising(ValueError("construction invariant broken")))
    code, out, _ = run(capsys, "synth", dpath, "--model", str(mpath))
    assert code == 3 and out == ""


def test_cap_exit_code_follows_the_error_type(fig3_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "search_certificate", raising(ValueError("search cap exceeded")))
    code, _, _ = run(capsys, "cluster-search", fig3_file, "--k", "1", "--ell", "1")
    assert code == 3
    monkeypatch.setattr(cli, "search_certificate", raising(CapExceeded("search cap exceeded")))
    code, _, _ = run(capsys, "cluster-search", fig3_file, "--k", "1", "--ell", "1")
    assert code == 2


# ===== transduce / eval / roundtrip =====


def test_transduce_eval_recovers_k5(tmp_path, fig3_file, capsys):
    tpath = tmp_path / "out.json"
    code, obj = run_json(
        capsys, "transduce", fig3_file, "--mode", "kplanar", "--k", "2",
        "--out", str(tpath),
    )
    assert code == 0
    b0 = [v for v, labels in obj["colors"].items() if "b0" in labels]
    assert len(b0) == 5
    code, obj = run_json(capsys, "eval", str(tpath))
    assert code == 0
    assert sorted(map(tuple, obj["edges"])) == [
        (u, v) for u in range(5) for v in range(u + 1, 5)
    ]


def test_eval_rejects_malformed_embed(tmp_path, fig3_file, capsys):
    tpath = tmp_path / "out.json"
    assert main(["transduce", fig3_file, "--mode", "kplanar", "--k", "2", "--out", str(tpath)]) == 0
    capsys.readouterr()
    doc = json.loads(tpath.read_text())
    for embed, message in (
        ({**doc["embed"], "0": 9999}, "not a vertex of the colored graph"),
        ({**doc["embed"], "1": doc["embed"]["0"]}, "embed is not injective"),
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, "embed": embed}))
        code, out, err = run(capsys, "eval", str(bad))
        assert code == 3 and out == "" and message in err


def test_transduce_rejects_underbudget_k(fig3_file, capsys):
    code, obj = run_json(capsys, "transduce", fig3_file, "--mode", "kplanar", "--k", "1")
    assert code == 1 and obj == {"ok": False, "error": "not k-planar"}


@pytest.mark.parametrize(
    "command, name, key",
    [("transduce", "transduce_kplanar", "ok"), ("roundtrip", "roundtrip", "roundtrip")],
)
def test_transduce_exit_code_follows_the_error_type(
    fig3_file, monkeypatch, capsys, command, name, key
):
    argv = (command, fig3_file, "--mode", "kplanar", "--k", "2")
    for exc in (Infeasible("not k-planar"), InvariantBroken("construction invariant broken")):
        monkeypatch.setattr(cli, name, raising(exc))
        code, obj = run_json(capsys, *argv)
        assert code == 1 and obj == {key: False, "error": str(exc)}
    monkeypatch.setattr(cli, name, raising(ValueError("not k-planar")))
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and "Traceback" not in err


def test_roundtrip_clustered_fixture(fig1a_files, capsys):
    dpath, cpath = fig1a_files
    code, obj = run_json(
        capsys, "roundtrip", dpath, "--mode", "clustered", "--k", "2", "--cert", cpath
    )
    assert code == 0 and obj == {"roundtrip": True}


def test_roundtrip_with_deleted_apex(tmp_path, capsys):
    g = cycle(4)
    d = drawing_from_segments(
        g, {0: pt(0, 0), 1: pt(1, 0), 2: pt(1, 1), 3: pt(0, 1)}
    )
    dpath = tmp_path / "c4.json"
    dpath.write_text(json.dumps(drawing_to_json(d)))
    gplus, apex = add_universal_vertex(g)
    hpath = tmp_path / "wheel.json"
    hpath.write_text(json.dumps(graph_to_json(gplus)))
    code, obj = run_json(
        capsys, "roundtrip", str(dpath), "--mode", "kplanar", "--k", "1",
        "--graph", str(hpath), "--x", str(apex),
    )
    assert code == 0 and obj == {"roundtrip": True}


def test_x_without_graph_is_usage_error(tmp_path, fig3_file, capsys):
    code, _, err = run(
        capsys, "transduce", fig3_file, "--mode", "kplanar", "--k", "2", "--x", "9"
    )
    assert code == 2 and "--graph" in err


@pytest.mark.parametrize("command", ["transduce", "roundtrip"])
def test_x_must_name_a_vertex_of_the_graph(tmp_path, fig3_file, capsys, command):
    """Both commands read ``--x`` the same way: without ``--graph`` it is a
    usage error, and a vertex missing from ``--graph`` is an input error
    with one ``error:`` line."""
    gplus, apex = add_universal_vertex(fig3().base)
    hpath = tmp_path / "g3.json"
    hpath.write_text(json.dumps(graph_to_json(gplus)))
    argv = (command, fig3_file, "--mode", "kplanar", "--k", "2")
    code, _, err = run(capsys, *argv, "--x", str(apex))
    assert code == 2 and "--graph" in err and "Traceback" not in err
    code, out, err = run(capsys, *argv, "--graph", str(hpath), "--x", str(apex))
    assert code == 0 and err == ""
    assert apex == 5 and 99 not in gplus.vertices
    code, out, err = run(capsys, *argv, "--graph", str(hpath), "--x", "99")
    assert code == 3 and out == ""
    assert err.splitlines() == [f"error: --x vertex 99 is not a vertex of {hpath}"]


def test_clustered_without_cert_is_usage_error(fig1a_files, capsys):
    dpath, _ = fig1a_files
    code, _, err = run(capsys, "transduce", dpath, "--mode", "clustered", "--k", "2")
    assert code == 2 and "--cert" in err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_loaders_refuse_non_integers(tmp_path, fig1a_files, fig3_file, capsys):
    dpath, cpath = fig1a_files
    cert = json.loads(open(cpath).read())
    tpath = tmp_path / "t.json"
    assert main(["transduce", fig3_file, "--mode", "kplanar", "--k", "2", "--out", str(tpath)]) == 0
    capsys.readouterr()
    trans = json.loads(tpath.read_text())
    branch = {0: (0,), 1: (1,), 2: (3,), 3: (2,)}
    model = model_to_json(MinorModel(grid2d(2, 2), cycle(4), branch, 1, 1))
    pattern = write_json(tmp_path, "p.json", graph_to_json(cycle(4)))
    check = ["cluster-check", dpath, "--cert"]
    cases = [
        (check, "c.json", {**cert, "cuts": {"7": [1.5]}}, "certificate"),
        (check, "c.json", {**cert, "k": 2.9}, "certificate"),
        (["eval"], "t.json", {**trans, "formula": {"k": 2.9, "mode": "kplanar"}}, "transduction"),
        (["eval"], "t.json", {**trans, "X": [2.7]}, "transduction"),
        (["model-verify"], "m.json", {**model, "c": 1.5}, "model"),
        (["model-verify"], "m.json", {**model, "branch": {"0": [0.0]}}, "model"),
        (["model-find", "--pattern", pattern, "--c", "1", "--d", "1", "--host"], "g.json",
         {"vertices": [0, 1.9], "edges": [[0, 1.2]]}, "graph"),
    ]
    for argv, name, doc, kind in cases:
        code, out, err = run(capsys, *argv, write_json(tmp_path, name, doc))
        assert code == 3 and out == "", (argv, doc)
        assert f"bad {kind} document" in err and "Traceback" not in err


# ===== gen / export =====


def test_gen_is_byte_identical(capsys):
    code1, out1, _ = run(capsys, "gen", "fig1a")
    code2, out2, _ = run(capsys, "gen", "fig1a")
    assert code1 == code2 == 0 and out1 == out2
    code1, out1, _ = run(capsys, "gen", "fig1a-cert")
    code2, out2, _ = run(capsys, "gen", "fig1a-cert")
    assert code1 == code2 == 0 and out1 == out2


# sha256 of the ``gen`` output, recorded before the integer geometry kernel
# and incremental chord insertion replaced the rational arithmetic.
GEN_DIGESTS = {
    ("fig1a",): "8265ce4912b46fe31fd311d0817ae2db69827da169c2bb46019aeb492ec00da3",
    ("fig1a-cert",): "11851c1d8f3cb2bbd540ba0c294c4e734c195a6ffd2785ad2de4dc4894d51c74",
    ("fig1b", "--m", "6"): "76898f1a23383927a5b86c99a39cb67f1dc4719c3f5bc51c00bb2b74ce5bc523",
    ("fig3",): "28dd3a2bee094fb4f0f70286cbda8337020c543360ecbb46780a991359ea019f",
    ("random-kplanar", "--n", "12", "--k", "2", "--seed", "7"):
        "dc49bc3b7ed3a474ed57a7ec3f89298b39ce63cb88a9b5980e889850af6b8025",
}


@pytest.mark.parametrize("argv", sorted(GEN_DIGESTS))
def test_gen_matches_golden_digest(argv, capsys):
    code, out, _ = run(capsys, "gen", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_DIGESTS[argv]


def test_gen_random_kplanar_is_seeded(capsys):
    code1, out1, _ = run(capsys, "gen", "random-kplanar", "--n", "8", "--k", "2", "--seed", "7")
    code2, out2, _ = run(capsys, "gen", "random-kplanar", "--n", "8", "--k", "2", "--seed", "7")
    assert code1 == code2 == 0 and out1 == out2
    obj = json.loads(out1)
    assert len(obj["base"]["vertices"]) == 8


def test_gen_unknown_name_is_usage_error(capsys):
    code, _, err = run(capsys, "gen", "fig99")
    assert code == 2 and "unknown fixture" in err


def test_export_dot(fig1a_files, capsys):
    dpath, _ = fig1a_files
    code, out, _ = run(capsys, "export-dot", dpath)
    assert code == 0
    assert out.startswith("graph plan {")
    assert 'kind="crossing"' in out and "base=" in out


def test_export_dot_writes_its_out_file(fig1a_files, tmp_path, capsys):
    dpath, _ = fig1a_files
    path = tmp_path / "plan.dot"
    code, out, _ = run(capsys, "export-dot", dpath, "--out", str(path))
    assert code == 0
    assert out.startswith("graph plan {")
    assert path.read_text(encoding="utf-8") == out


def test_export_format_json_round_trips(fig1a_files, capsys):
    dpath, _ = fig1a_files
    code, obj = run_json(capsys, "export-dot", dpath, "--format", "json")
    assert code == 0
    assert obj == json.loads(open(dpath).read())


# ===== usage =====


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def test_bad_vertex_list_is_usage_error(fig3_file, capsys):
    code, _, err = run(
        capsys, "transduce", fig3_file, "--mode", "kplanar", "--k", "2",
        "--x", "1,zap", "--graph", fig3_file,
    )
    assert code == 2 and "bad vertex list" in err


# ===== Fuzzing: mutated documents never crash the CLI =====

JUNK = st.one_of(
    st.integers(-3, 60),
    st.sampled_from([0.0, 1.5, True, False, None, "x", "0", [], {}]),
)
LABEL_TEXT = st.sampled_from(["b0", "b1", "b2", "bP0", "bP1", "c1", "cP1", "c3", "zz", "", "b-1"])


@lru_cache(maxsize=1)
def fuzz_transductions() -> tuple[dict, ...]:
    apex = transduce_kplanar(
        drawing_from_segments(complete(4), {0: pt(0, 0), 1: pt(4, 0), 2: pt(4, 4), 3: pt(0, 4)}),
        {4: (0, 1, 2, 3)},
        2,
    )
    return (
        transduction_to_json(transduce_kplanar(fig3(), {}, 2)),
        transduction_to_json(apex),
        transduction_to_json(transduce_clustered(fig1a(), fig1a_certificate(), {}, 2)),
    )


@st.composite
def mutated_transduction(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(fuzz_transductions()))))
    for _ in range(draw(st.integers(1, 3))):
        field = draw(st.sampled_from(["embed", "colors", "k", "mode", "X"]))
        if field == "embed":
            doc["embed"][draw(st.sampled_from(sorted(doc["embed"]) + ["99"]))] = draw(JUNK)
        elif field == "colors":
            key = str(draw(st.sampled_from(doc["vertices"])))
            doc["colors"][key] = draw(st.one_of(JUNK, st.lists(LABEL_TEXT, max_size=3)))
        elif field == "k":
            doc["formula"]["k"] = draw(st.one_of(JUNK, st.just(10**9)))
        elif field == "mode":
            doc["formula"]["mode"] = draw(st.sampled_from(["kplanar", "clustered", "fan", None, 3]))
        else:
            doc["X"] = draw(st.one_of(JUNK, st.lists(JUNK, max_size=3)))
    return doc


@st.composite
def mutated_drawing(draw):
    d = draw(st.sampled_from([fig3, fig1a]))()
    doc = drawing_to_json(d)
    for _ in range(draw(st.integers(1, 3))):
        field = draw(st.sampled_from(["rotation", "trace"]))
        key = draw(st.sampled_from(sorted(doc[field])))
        entries = doc[field][key]
        how = draw(st.sampled_from(["replace", "append", "whole"]))
        if how == "whole" or not isinstance(entries, list):
            doc[field][key] = draw(JUNK)
        elif how == "append" or not entries:
            entries.append(draw(JUNK))
        else:
            entries[draw(st.integers(0, len(entries) - 1))] = draw(JUNK)
    return doc


def run_quiet(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def run_on_document(command: str, doc: dict) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return run_quiet([command, path])


@given(mutated_transduction())
def test_fuzz_eval_exit_codes(doc):
    code, err = run_on_document("eval", doc)
    assert code in (0, 1, 2, 3) and "Traceback" not in err


@given(mutated_drawing())
def test_fuzz_validate_exit_codes(doc):
    code, err = run_on_document("validate", doc)
    assert code in (0, 1, 2, 3) and "Traceback" not in err


@lru_cache(maxsize=1)
def fig1a_documents() -> str:
    d = fig1a()
    return json.dumps([drawing_to_json(d), certificate_to_json(fig1a_certificate(), d.base)])


@st.composite
def mutated_cluster_input(draw):
    drawing, cert = json.loads(fig1a_documents())
    for _ in range(draw(st.integers(1, 3))):
        field = draw(
            st.sampled_from(["cuts", "k", "ell", "center", "fan edge", "assignment", "trace"])
        )
        if field == "cuts":
            key = draw(st.sampled_from(sorted(cert["cuts"]) + ["0", "17", "18", "-1", "x"]))
            cert["cuts"][key] = draw(st.one_of(JUNK, st.lists(JUNK, max_size=3)))
        elif field in ("k", "ell"):
            cert[field] = draw(JUNK)
        elif field in ("center", "fan edge"):
            fans = cert["covers"][draw(st.sampled_from(sorted(cert["covers"])))]
            fan = fans[draw(st.integers(0, len(fans) - 1))]
            if field == "center":
                fan["center"] = draw(JUNK)
            else:
                fan["edges"][draw(st.integers(0, len(fan["edges"]) - 1))] = draw(JUNK)
        elif field == "assignment":
            entry = cert["assignment"][draw(st.integers(0, len(cert["assignment"]) - 1))]
            entry[draw(st.sampled_from(["edge", "piece", "center"]))] = draw(JUNK)
        else:
            key = draw(st.sampled_from(sorted(drawing["trace"])))
            drawing["trace"][key] = draw(st.lists(JUNK, min_size=1, max_size=3))
    return drawing, cert, draw(st.integers(-1, 3)), draw(st.integers(-1, 3)), draw(st.booleans())


@settings(max_examples=25)
@given(mutated_cluster_input())
def test_fuzz_cluster_commands_exit_codes(case):
    drawing, cert, k, ell, strong = case
    with tempfile.TemporaryDirectory() as tmp:
        dpath, cpath = os.path.join(tmp, "d.json"), os.path.join(tmp, "c.json")
        for path, doc in ((dpath, drawing), (cpath, cert)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        strong_flag = ["--strong"] if strong else []
        search = ["--k", str(k), "--ell", str(ell), "--cap", "32", *strong_flag]
        for argv in (
            ["cluster-check", dpath, "--cert", cpath, *strong_flag],
            ["cluster-search", dpath, *search],
            ["cluster-min-ell", dpath, "--k", str(k), "--cap", "32"],
            ["transduce", dpath, "--mode", "clustered", "--k", str(k), "--cert", cpath],
        ):
            code, err = run_quiet(argv)
            assert code in (0, 1, 2, 3) and "Traceback" not in err, argv


def containers(doc) -> list:
    """Every list and object in ``doc``, itself first, in a fixed order."""
    found, stack = [], [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list)):
            found.append(node)
            stack.extend(node.values() if isinstance(node, dict) else node)
    return found


@st.composite
def mutated_documents(draw, source):
    """The documents in the JSON text ``source()``, a list or an object of
    them, with one to three entries replaced, added or dropped anywhere
    inside them."""
    docs = json.loads(source())
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(containers(docs)[1:]))
        how = draw(st.sampled_from(["replace", "add", "drop"]))
        if isinstance(node, dict):
            key = draw(st.sampled_from(sorted(node) + ["7", "x"]))
            if how == "drop":
                node.pop(key, None)
            else:
                node[key] = draw(JUNK)
        elif how == "drop" and node:
            node.pop(draw(st.integers(0, len(node) - 1)))
        elif how == "add" or not node:
            node.append(draw(JUNK))
        else:
            node[draw(st.integers(0, len(node) - 1))] = draw(JUNK)
    return docs


def write_documents(tmp: str, docs: dict) -> dict:
    paths = {}
    for name, doc in docs.items():
        paths[name] = os.path.join(tmp, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return paths


@given(mutated_documents(fig1a_documents), st.integers(-1, 3))
def test_fuzz_drawing_commands_exit_codes(docs, k):
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_documents(tmp, dict(zip(("drawing", "cert"), docs)))
        for argv in (
            ["crossgraph", paths["drawing"]],
            ["crossgraph", paths["drawing"], "--cert", paths["cert"]],
            ["kplanar", paths["drawing"], "--k", str(k)],
        ):
            code, err = run_quiet(argv)
            assert code in (0, 1, 2, 3) and "Traceback" not in err, argv


@lru_cache(maxsize=1)
def model_documents() -> str:
    """A 2x2 grid host with its drawing and a C4 model, plus the host with a
    universal apex and a wheel model on it."""
    g = grid2d(2, 2)
    d = drawing_from_segments(g, {i * 2 + j: pt(j, i) for i in range(2) for j in range(2)})
    gplus, apex = add_universal_vertex(g)
    wheel = Graph.make(range(5), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)])
    branch = {0: (0,), 1: (1,), 2: (3,), 3: (2,)}
    return json.dumps(
        {
            "drawing": drawing_to_json(d),
            "host": graph_to_json(g),
            "pattern": graph_to_json(cycle(4)),
            "model": model_to_json(MinorModel(g, cycle(4), branch, 1, 1)),
            "hostPlus": graph_to_json(gplus),
            "wheel": model_to_json(MinorModel(gplus, wheel, {**branch, 4: (apex,)}, 1, 1)),
        }
    )


@given(mutated_documents(model_documents), st.integers(-1, 2), st.integers(-1, 5))
def test_fuzz_model_commands_exit_codes(docs, c, apex):
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_documents(tmp, docs)
        for argv in (
            ["model-verify", paths["model"]],
            ["model-verify", paths["wheel"]],
            ["model-find", "--host", paths["host"], "--pattern", paths["pattern"],
             "--c", str(c), "--d", str(c), "--cap", "6"],
            ["synth", paths["drawing"], "--model", paths["model"]],
            ["pipeline", paths["drawing"], "--host-plus", paths["hostPlus"],
             "--apex", str(apex), "--model", paths["wheel"], "--k", str(c)],
        ):
            code, err = run_quiet(argv)
            assert code in (0, 1, 2, 3) and "Traceback" not in err, argv
