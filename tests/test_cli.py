"""Command-line interface: envelopes, exit codes, batch mode, determinism."""

import json

from newton_mu.cli import main, run
from newton_mu.parsing import support_to_json
from newton_mu.polyhedra import support

SCHEMA = "newton-mu/1"


def test_diagram_payload():
    code, out = run(["diagram", "--poly", "x^3 + x*y + y^2"])
    assert code == 0
    assert out["schema"] == SCHEMA
    assert out["convenient"] is True
    assert sorted(out["vertices"]) == [[0, 2], [1, 1], [3, 0]]
    normals = {tuple(f["inner_normal"]) for f in out["facets"]}
    assert normals == {(1, 1), (1, 2)}


def test_nn_payload_and_oracles():
    code, out = run(["nn", "--poly", "x^3 + y^2", "--with-oracles"])
    assert code == 0
    assert out["nu"] == "2"
    oracles = out["oracles"]
    assert oracles["shuffled_agree"] is True
    assert oracles["ehrhart_agrees"] is True


def test_nn_from_support_file(tmp_path):
    path = tmp_path / "supp.json"
    path.write_text(json.dumps(support_to_json(support([(3, 0), (0, 2)]))))
    code, out = run(["nn", "--support", str(path)])
    assert code == 0
    assert out["nu"] == "2"


def test_rnn_payload():
    code, out = run(["rnn", "--poly", "x^2 + y^2", "--d", "1,1"])
    assert code == 0
    assert out["r"] == 2
    assert out["nu_r"] == "3"
    assert out["epsilon"] == 1


def test_bound_verdict_true():
    code, out = run(["bound", "--poly", "x^3 + y^2", "--a", "3,2", "--with-oracles"])
    assert code == 0
    cert = out["certificate"]
    assert cert["verdict"] is True
    assert cert["bound"] == "2"
    assert cert["nu"] == "2"
    assert out["oracles"]["mu"] == 2
    statuses = [link["status"] for link in cert["chain"]]
    assert any(s.startswith("verified:") for s in statuses)


def test_bound_rational_intercepts():
    code, out = run(["bound", "--poly", "x^2*y + y^4", "--a", "8/3,4"])
    assert code == 0
    cert = out["certificate"]
    assert cert["bound"] == "5"
    assert cert["nu"] == "5"
    assert cert["modification_m"] is not None
    assert cert["verdict"] is True


def test_sciv_bound_payload():
    code, out = run(["sciv-bound", "--poly", "x^3 + y^2", "--d", "1", "--a", "3,2"])
    assert code == 0
    cert = out["certificate"]
    assert cert["r"] == 1
    assert cert["d"] == [1]
    assert cert["verdict"] is True


def test_vanish_payload():
    code, out = run(["vanish", "--poly", "x + y^2"])
    assert code == 0
    assert out["nu"] == "0"
    assert 1 in out["unit_axes"]
    assert out["necessary_consistent"] is True


def test_decompose_payload():
    code, out = run(
        ["decompose", "--poly", "x^3 + y^2", "--inner-poly", "x + y"]
    )
    assert code == 0
    assert out["nu_outer"] == "2"
    assert out["nu_inner"] == "0"
    assert len(out["pieces"]) == 2
    total = sum(int(p["nu"]) for p in out["pieces"])
    assert total == 2


def test_family_check_payload():
    code, out = run(
        [
            "family-check",
            "--poly", "x^3 + y^3 + z^5 + x*w^5 + y^2*z*w + w^8",
            "--vertex", "0,2,1,1",
        ]
    )
    assert code == 0
    assert out["case"] == "i"
    assert out["witness"] == [1, 0, 0, 5]
    assert out["equal"] is True
    assert out["nu_f0"] == out["nu_f1"] == "104"


def test_usage_errors_exit_one():
    code, out = run(["nn"])
    assert code == 1
    assert out["error"]["type"] == "usage"
    code, out = run(["bound", "--poly", "x^2+y^2", "--a", "2,q"])
    assert code == 1
    code, out = run([])
    assert code == 1


def test_domain_errors_exit_two():
    # intercepts outside the region: a domain failure, not a usage failure
    code, out = run(["bound", "--poly", "x^3 + y^2", "--a", "9,2"])
    assert code == 2
    assert "error" in out
    # non-convenient support without stabilization path: diagram is fine,
    # but the region under it is not defined
    code, out = run(["nn", "--poly", "x^2*y + y^4"])
    assert code == 2


def test_batch_aggregation(tmp_path):
    batch = tmp_path / "cmds.txt"
    batch.write_text(
        "\n".join(
            [
                "# comment lines and blanks are skipped",
                "",
                "nn --poly x^3+y^2",
                "bound --poly x^3+y^2 --a 9,2",
                "nn",
            ]
        )
    )
    code, out = run(["--batch", str(batch)])
    assert code == 2  # any domain failure dominates
    results = out["results"]
    assert [r["exit"] for r in results] == [0, 2, 1]


def test_batch_all_green(tmp_path):
    batch = tmp_path / "cmds.txt"
    batch.write_text("nn --poly x^3+y^2\ndiagram --poly x^2+y^2\n")
    code, out = run(["--batch", str(batch)])
    assert code == 0
    assert all(r["exit"] == 0 for r in out["results"])


def test_batch_survives_a_stray_numbered_variable(tmp_path):
    # a name like z0 fails its own line as a parse error, not the batch
    batch = tmp_path / "cmds.txt"
    batch.write_text("nn --poly z0^2+z1^2\nnn --poly z1^2+z01^3\nnn --poly z1^3+z2^2\n")
    code, out = run(["--batch", str(batch)])
    assert code == 1
    results = out["results"]
    assert [r["exit"] for r in results] == [1, 1, 0]
    assert [r["output"]["error"]["type"] for r in results[:2]] == ["parse", "parse"]
    assert results[2]["output"]["nu"] == "2"


def test_batch_reports_unsplittable_line(tmp_path):
    batch = tmp_path / "cmds.txt"
    batch.write_text('nn --poly "x^2\nnn --poly x^3+y^2\nnn --batch other.txt\n')
    code, out = run(["--batch", str(batch)])
    assert code == 1
    results = out["results"]
    assert [r["exit"] for r in results] == [1, 0, 1]
    assert results[0]["command"] == 'nn --poly "x^2'
    assert results[0]["output"] == {
        "schema": SCHEMA,
        "error": {"type": "usage", "message": "cannot split the line: No closing quotation"},
    }
    assert results[1]["output"]["nu"] == "2"
    assert results[2]["output"]["error"] == {"type": "usage", "message": "batch files cannot nest"}


def test_output_is_deterministic():
    a = run(["nn", "--poly", "x^3 + x*y + y^2", "--with-oracles"])
    b = run(["nn", "--poly", "x^3 + x*y + y^2", "--with-oracles"])
    assert json.dumps(a[1]) == json.dumps(b[1])


def test_main_prints_json(capsys):
    code = main(["nn", "--poly", "x^3 + y^2"])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["nu"] == "2"


def test_parser_is_built_once_and_keeps_no_state(monkeypatch, tmp_path):
    from newton_mu import cli

    builds = []
    build = cli.build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    try:
        code, out = run(["nn", "--poly", "x^3 + y^2", "--with-oracles"])
        assert code == 0 and "oracles" in out
        code, out = run(["nn", "--poly", "x^3 + y^2"])
        assert code == 0 and "oracles" not in out
        batch = tmp_path / "lines.txt"
        batch.write_text('nn --poly "x^2 + y^3" --with-oracles\nnn --poly "x^2 + y^3"\n')
        code, out = run(["--batch", str(batch)])
        assert code == 0
        assert ["oracles" in r["output"] for r in out["results"]] == [True, False]
        assert run(["nn"])[0] == 1
        assert builds == [1]
    finally:
        cli._parser.cache_clear()


def test_requests_build_each_support_diagram_once(monkeypatch):
    import sys

    from newton_mu import polyhedra

    calls, builds = [], []
    real, real_diagram = polyhedra.newton_diagram, polyhedra.NewtonDiagram
    # wrap every binding a call can reach, as the benchmark tracer does
    for name, module in list(sys.modules.items()):
        if name.startswith("newton_mu") and getattr(module, "newton_diagram", None) is real:
            monkeypatch.setattr(
                module, "newton_diagram", lambda s: calls.append(s) or real(s)
            )
    monkeypatch.setattr(
        polyhedra, "NewtonDiagram", lambda *args: builds.append(args[1]) or real_diagram(*args)
    )
    cases = [
        (["nn", "--poly", "x^3 + y^2", "--with-oracles"], 3, 1),
        (
            [
                "family-check", "--poly", "x^3 + y^3 + z^5 + x*w^5 + y^2*z*w + w^8",
                "--vertex", "0,2,1,1",
            ],
            4,
            2,  # f1 and FamilyStep.f0, which is built once per step
        ),
        # outer, inner and the one intermediate removal shell
        (["decompose", "--poly", "x^3 + y^2", "--inner-poly", "x + y"], 5, 3),
    ]
    for argv, want_calls, want_builds in cases:
        calls.clear()
        builds.clear()
        assert run(argv)[0] == 0
        assert (len(calls), len(builds)) == (want_calls, want_builds), argv
        assert len(set(map(id, builds))) == len(builds)
