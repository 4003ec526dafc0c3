import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdom import cli
from gdom.cli import RunLog, main
from gdom.search import PairGenerator, generate_pair, hunt
from gdom.multigraph import complete_graph, cycle_graph, parse_graph, serialize_graph, star_graph, path_graph, single_edge
from gdom.spectral import EigensolverError

from conftest import cubic_graph, relabelled_petersen

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def graphs(tmp_path):
    paths = {}
    for name, g in (
        ("k4", complete_graph(4)),
        ("k3", complete_graph(3)),
        ("p3", path_graph(3)),
        ("star4", star_graph(4)),
        ("edge", single_edge()),
    ):
        p = tmp_path / f"{name}.txt"
        p.write_text(serialize_graph(g))
        paths[name] = str(p)
    paths["log"] = str(tmp_path / "logs")
    return paths


def test_analyze(graphs, capsys):
    rc = main(["analyze", graphs["k4"], "--log-dir", graphs["log"]])
    out = capsys.readouterr().out
    assert rc == 0
    assert "spanning_trees: 16" in out
    assert "transitive: True" in out


def test_a_connected_graph_has_an_exact_zero_eigenvalue(graphs, capsys):
    assert main(["analyze", graphs["k4"], "--log-dir", graphs["log"]]) == 0
    assert "spectrum: [0.0, " in capsys.readouterr().out
    # (1/4) sum 1/(lambda + p) is about 2.5e159; the zero is exact, so the
    # budget's Lipschitz bound is taken from about 3 up, not 1/p^2 = inf
    argv = ["check", "spectral_decreasing_convex", graphs["k4"], graphs["k3"], "--hinge", "shifted_inverse(1e-160)"]
    assert main([*argv, "--log-dir", graphs["log"]]) == 0
    out = capsys.readouterr().out
    assert "holds [proven]" in out and "lhs = 2.5e+159" in out


def test_isomorphic_graphs_hold_with_equality(tmp_path, capsys):
    files = []
    for name, g in zip("pq", relabelled_petersen()):
        files.append(str(tmp_path / f"{name}.txt"))
        Path(files[-1]).write_text(serialize_graph(g))
    for ineq in ("heat_trace_frac", "spectral_decreasing_convex"):
        assert main(["check", ineq, *files, "--log-dir", str(tmp_path / "logs")]) == 0
        assert f"{ineq}: holds_with_equality [proven]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, sizes, rc",
    [
        (["analyze"], (30,), 0),
        (["check", "heat_trace_frac"], (20, 20), 0),
        # G = H: isomorphic, so equal at every f
        (["check", "spectral_decreasing_convex"], (26, 26), 0),
    ],
)
def test_no_stall_on_cubic_graphs(argv, sizes, rc, tmp_path):
    # in a child process, so that a stalled search fails by timeout
    files = []
    for n in sizes:
        files.append(tmp_path / f"c{n}.txt")
        files[-1].write_text(serialize_graph(cubic_graph(n)))
    done = subprocess.run(
        [sys.executable, "-m", "gdom.cli", *argv, *map(str, files), "--log-dir", str(tmp_path / "logs")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert done.returncode == rc, done.stderr


def test_analyze_json(graphs, capsys):
    rc = main(["analyze", graphs["k4"], "--json", "--log-dir", graphs["log"]])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0 and payload["spanning_trees"] == "16"


def test_analyze_bad_file(graphs, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("4; 0 1; 2 3")  # disconnected
    rc = main(["analyze", str(bad), "--log-dir", graphs["log"]])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_analyze_refuses_a_billion_isolated_vertices_at_once(graphs, tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.write_text("1000000000")
    assert main(["analyze", str(big), "--log-dir", graphs["log"]]) == 3
    assert capsys.readouterr().err.strip() == "error: graph is not connected"


def test_relate(graphs, capsys):
    rc = main(["relate", graphs["k4"], graphs["k3"], "--json", "--log-dir", graphs["log"]])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["fractional_tiling"]["holds"] is True
    assert payload["domination"]["holds"] is True
    assert payload["tiling"]["holds"] is False


def test_relate_local_stats(graphs, capsys):
    rc = main(
        ["relate", graphs["k4"], graphs["k3"], "--local-stats", "1", "--json", "--log-dir", graphs["log"]]
    )
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    tv = payload["local_statistics_tv"]
    assert "half-L1" in tv["convention"]
    assert tv["by_radius"]["0"] == "0/1"  # radius-0 balls all look alike
    assert tv["by_radius"]["1"] == "1/1"  # K4 and K3 have disjoint 1-ball classes


def test_relate_local_stats_as_text(graphs, capsys):
    assert main(["relate", graphs["k4"], graphs["k3"], "--local-stats", "1", "--log-dir", graphs["log"]]) == 0
    assert capsys.readouterr().out == (
        "tiling: no\n"
        "fractional_tiling: yes\n"
        "fractional_edge_tiling: yes\n"
        "domination: yes\n"
        "ball-distribution distance (half-L1 total variation of rooted-ball distributions, in [0,1]):\n"
        "  radius 0: 0/1\n"
        "  radius 1: 1/1\n"
    )


def test_relate_negative_local_stats_radius_is_a_usage_error(graphs, capsys):
    for radius in ("-1", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["relate", graphs["edge"], graphs["edge"], "--local-stats", radius, "--json", "--log-dir", graphs["log"]])
        assert exc.value.code == 3
        assert "radius must be a nonnegative integer" in capsys.readouterr().err


def test_relate_h_larger(graphs, capsys):
    rc = main(["relate", graphs["k3"], graphs["k4"], "--json", "--log-dir", graphs["log"]])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert not any(payload[k]["holds"] for k in payload)


def test_check_exit_codes(graphs, capsys):
    assert main(["check", "spanning_tree", graphs["k4"], graphs["k3"], "--log-dir", graphs["log"]]) == 0
    assert (
        main(
            [
                "check",
                "vertex_counting:independent_sets",
                graphs["star4"],
                graphs["edge"],
                "--hypothesis",
                "domination",
                "--log-dir",
                graphs["log"],
            ]
        )
        == 1
    )
    assert main(["check", "frac_tiling_tree", graphs["p3"], graphs["edge"], "--log-dir", graphs["log"]]) == 2
    assert main(["check", "bogus_id", graphs["k4"], graphs["k3"], "--log-dir", graphs["log"]]) == 3


def test_check_status_reads_h_whether_or_not_the_hypothesis_holds(graphs, tmp_path, capsys):
    for name, g in (("p4", path_graph(4)), ("p70", path_graph(70)), ("c65", cycle_graph(65))):
        graphs[name] = str(tmp_path / f"{name}.txt")
        Path(graphs[name]).write_text(serialize_graph(g))
    argv = ["--hypothesis", "domination", "--hinge", "4", "--log-dir", graphs["log"]]
    assert main(["check", "spectral_decreasing_convex", graphs["p4"], graphs["k3"], *argv]) == 2
    assert capsys.readouterr().out == "spectral_decreasing_convex: hypothesis_failed [conjectured]\n"
    assert main(["check", "spectral_decreasing_convex", graphs["k4"], graphs["k3"], *argv]) == 0
    assert capsys.readouterr().out.startswith("spectral_decreasing_convex: holds [conjectured]\n")
    # whether C65 is vertex-transitive is past the automorphism search's bound
    assert main(["check", "spectral_decreasing_convex", graphs["p70"], graphs["c65"], *argv]) == 3
    assert capsys.readouterr() == ("", "error: 65 vertices exceed the automorphism search bound 64\n")


def test_check_hypothesis_it_cannot_honour_is_an_error(graphs, tmp_path, capsys):
    ab = ["--a", "0,1", "--b", "1,2"]
    for i, argv in enumerate(
        (
            ["char_poly", graphs["k4"], graphs["k3"], "--hypothesis", "bogus"],
            ["char_poly", graphs["k4"], graphs["k3"], "--hypothesis", "params"],
            ["koteljanskii_step", graphs["k4"], "--hypothesis", "tiling", *ab],
            ["koteljanskii_step", graphs["k4"], "--hypothesis", "bogus", *ab],
        )
    ):
        log = str(tmp_path / f"log{i}")
        assert main(["check", *argv, "--log-dir", log]) == 3, argv
        assert "expected one of" in capsys.readouterr().err
        (record,) = RunLog(log).records()
        assert record["summary"].startswith("check error: ") and record["reports"] == []


def test_check_empty_grid_is_an_error(graphs, tmp_path, capsys):
    # no grid point is no verdict: exit 3 with an error record, not a traceback ending in exit 1
    for i, argv in enumerate(
        (
            ["heat_trace_frac", graphs["k4"], graphs["k3"], "--t-grid", ","],
            ["char_poly", graphs["k4"], graphs["k3"], "--t-grid", ","],
            ["tutte_pointwise", graphs["k4"], graphs["k3"], "--grid", ";"],
        )
    ):
        log = str(tmp_path / f"log{i}")
        assert main(["check", *argv, "--log-dir", log]) == 3, argv
        assert "needs a nonempty grid" in capsys.readouterr().err
        (record,) = RunLog(log).records()
        assert record["summary"].startswith("check error: ") and record["reports"] == []


def test_zero_denominator_is_an_error(graphs, tmp_path, capsys):
    # Fraction raises ZeroDivisionError, which is bad input: exit 3 with an error record
    for i, argv in enumerate(
        (
            ["char_poly", graphs["k4"], graphs["k3"], "--t-grid", "1/0"],
            ["tutte_pointwise", graphs["k4"], graphs["k3"], "--grid", "1/0,1"],
            ["spectral_decreasing_convex", graphs["k4"], graphs["k3"], "--hinge", "1/0"],
        )
    ):
        log = str(tmp_path / f"log{i}")
        assert main(["check", *argv, "--log-dir", log]) == 3, argv
        assert "zero denominator in '1/0'" in capsys.readouterr().err
        (record,) = RunLog(log).records()
        assert record["summary"].startswith("check error: ") and record["reports"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "heat_trace_frac", "k4", "k3", "--t-grid", "1e400"],
        ["analyze", "k4", "--t-grid", "1e400"],
        ["check", "spectral_decreasing_convex", "k4", "k3", "--hinge", "1e400"],
        ["check", "spectral_decreasing_convex", "k4", "k3", "--hinge", "exp_decay(1e400)"],
        ["hunt", "spectral_decreasing_convex", "--hinge", "1e400", "--trials", "2"],
    ],
)
def test_a_parameter_beyond_the_float_range_is_an_error(graphs, tmp_path, capsys, argv):
    # float() of 10^400 overflows: exit 3 with an error record, not a traceback ending in exit 1
    argv = [graphs.get(arg, arg) for arg in argv]
    log = str(tmp_path / "log")
    assert main([*argv, "--log-dir", log]) == 3
    assert "beyond the float range" in capsys.readouterr().err
    (record,) = RunLog(log).records()
    assert record["summary"].startswith(f"{argv[0]} error: ") and record["reports"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "heavy"],
        ["check", "heat_trace_frac", "k4", "heavy"],
        ["check", "spectral_decreasing_convex", "k4", "heavy", "--hypothesis", "subgraph"],
    ],
)
def test_a_weight_beyond_the_float_range_is_an_error(graphs, tmp_path, capsys, argv):
    # the float Laplacian overflows: analyze marks its float fields as errors
    # and keeps the exact ones, a check exits 3 with an error record
    heavy = tmp_path / "heavy.txt"
    heavy.write_text("2; 0 1 1 1e400")
    argv = [{**graphs, "heavy": str(heavy)}.get(arg, arg) for arg in argv]
    log = str(tmp_path / "log")
    rc = main([*argv, "--json", "--log-dir", log])
    out, err = capsys.readouterr()
    (record,) = RunLog(log).records()
    message = f"beyond the float range: edge weight {10**400}"
    if argv[0] == "analyze":
        payload = json.loads(out)
        assert rc == 0 and payload["spanning_trees"] == str(10**400)
        assert payload["spectrum"] == payload["heat_trace"] == f"error: Laplacian {message}"
        assert record["reports"] == [payload]
    else:
        assert rc == 3 and message in err
        assert record["summary"].startswith("check error: ") and record["reports"] == []


@pytest.mark.parametrize("param", ["1e-200", "1e-400"])
def test_a_shifted_inverse_parameter_too_small_for_a_float_is_an_error(graphs, tmp_path, capsys, param):
    # 1/(s + p) at s = 0, or its Lipschitz bound 1/p^2, would divide by zero
    log = str(tmp_path / "log")
    argv = ["check", "spectral_decreasing_convex", graphs["k4"], graphs["k3"], "--hinge", f"shifted_inverse({param})"]
    assert main([*argv, "--log-dir", log]) == 3
    assert "too small: its float square is 0" in capsys.readouterr().err
    (record,) = RunLog(log).records()
    assert record["summary"].startswith("check error: ") and record["reports"] == []


def test_a_float_tie_is_inconclusive_not_an_equality(graphs, tmp_path, capsys):
    # both sides round to 1.0, but exactly they are about 1 - 3t and 1 - 2t
    argv = ["check", "spectral_decreasing_convex", graphs["k4"], graphs["k3"], "--hinge", "exp_decay(1e-20)", "--json"]
    assert main([*argv, "--log-dir", str(tmp_path / "log")]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "inconclusive" and payload["lhs"] == payload["rhs"] == 1.0


def test_heat_trace_at_t_zero_is_an_error_for_isomorphic_graphs_too(graphs, tmp_path, capsys):
    # exp_decay(0) is no decreasing function; isomorphic graphs take no shortcut past that
    for i, (g, h) in enumerate((("k3", "k3"), ("k4", "k3"))):
        log = str(tmp_path / f"log{i}")
        assert main(["check", "heat_trace_frac", graphs[g], graphs[h], "--t-grid", "0", "--log-dir", log]) == 3
        assert "exp_decay needs a positive parameter" in capsys.readouterr().err
        (record,) = RunLog(log).records()
        assert record["summary"].startswith("check error: ")


def test_unread_and_malformed_params_are_errors(graphs, tmp_path, capsys):
    # a flag the id does not read, or a value its key cannot read, is never silent
    k4, k3 = graphs["k4"], graphs["k3"]
    for i, (argv, message) in enumerate(
        (
            (["check", "op_monotone", k4, k3, "--hinge", "4"], "op_monotone reads no parameter 'functional'"),
            (["check", "spanning_tree", k4, k3, "--a", "0,1"], "spanning_tree reads no parameter 'a'"),
            (["check", "tutte_pointwise", k4, k3, "--grid", "1,2,3"], "xy_grid (--grid): '1,2,3' is not one x,y pair"),
            (["check", "tutte_pointwise", k4, k3, "--grid", "1"], "xy_grid (--grid): '1' is not one x,y pair"),
            (["check", "vertex_counting:proper_colorings", k4, k3, "--q", "x"], "q (--q): invalid literal"),
            (["check", "spanning_tree:forests", k4, k3], "spanning_tree reads no parameter 'family'"),
            (["hunt", "koteljanskii_step", "--a", "0,1", "--trials", "5"], "koteljanskii_step draws 'a' itself"),
            (["hunt", "char_poly", "--hinge", "4", "--trials", "5"], "char_poly reads no parameter 'functional'"),
        )
    ):
        log = str(tmp_path / f"log{i}")
        assert main([*argv, "--log-dir", log]) == 3, argv
        assert message in capsys.readouterr().err, argv
        (record,) = RunLog(log).records()
        assert record["summary"].startswith(f"{argv[0]} error: ") and message in record["summary"]
        assert record["reports"] == []


def test_usage_error_exits_3(graphs, tmp_path, capsys):
    # argparse's own exit code, 2, would read as "hypothesis failed"; no record is
    # written, since the log directory is one of the arguments that failed to parse
    log = str(tmp_path / "log")
    for argv in (
        ["check", "spanning_tree", graphs["k4"], graphs["k3"], "--bogus"],
        ["check", "vertex_counting", graphs["k4"], graphs["k3"], "--family", "forests"],
        ["hunt", "spanning_tree", "--trials", "many"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--log-dir", log])
        assert exc.value.code == 3, argv
        assert "error:" in capsys.readouterr().err
    assert not os.path.exists(log)


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2, "edges": [["0", 1]]}',
        '{"n": "2", "edges": [[0, 1]]}',
        '{"n": true, "edges": [[0, 1]]}',
        '{"n": 2, "edges": [[0, 1, 1.5]]}',
        '{"n": 2, "edges": [[0, 1, true]]}',
        '{"n": 2, "edges": [[0, 1, 1, "1/0"]]}',
        '{"n": 2, "edges": [[0, 1, 1, Infinity]]}',
        '{"n": 2, "edges": [[0, 1, 1, [1]]]}',
        '{"n": 2, "edges": 5}',
    ],
)
def test_json_graph_fields_of_the_wrong_type_are_an_error(graphs, tmp_path, capsys, text):
    # each used to end in a traceback (exit 1, "violated") or to be read as another graph
    g = tmp_path / "g.json"
    g.write_text(text)
    log = str(tmp_path / "log")
    assert main(["check", "spanning_tree", str(g), graphs["edge"], "--log-dir", log]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    (record,) = RunLog(log).records()
    assert record["summary"].startswith("check error: ") and record["reports"] == []


def test_check_colorings_of_a_long_path_under_a_low_recursion_limit(tmp_path, capsys):
    # colourings are counted by elimination, which takes no recursion per edge
    p = tmp_path / "p150.txt"
    p.write_text(serialize_graph(path_graph(150)))
    e = tmp_path / "k2.txt"
    e.write_text(serialize_graph(single_edge()))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        rc = main(["check", "vertex_counting:proper_colorings", str(p), str(e), "--json", "--log-dir", str(tmp_path / "l")])
    finally:
        sys.setrecursionlimit(limit)
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["lhs"] == str(3 * 2**149)


def test_check_op_monotone_is_exact(graphs, capsys):
    rc = main(["check", "op_monotone", graphs["k4"], graphs["k3"], "--json", "--log-dir", graphs["log"]])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0 and payload["exact"] is True and payload["error_bound"] == 0
    assert payload["points"][0]["at"] == "t=1/64"


def test_check_resource_bound_is_an_error(tmp_path, capsys):
    # K8 has 28 edge units, over the Tutte bound of 24
    k8 = tmp_path / "k8.txt"
    k8.write_text(serialize_graph(complete_graph(8)))
    k3 = tmp_path / "k3.txt"
    k3.write_text(serialize_graph(complete_graph(3)))
    rc = main(["check", "tutte_pointwise", str(k8), str(k3), "--log-dir", str(tmp_path / "l")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: 28 edge units exceed the Tutte bound 24")
    (record,) = RunLog(str(tmp_path / "l")).records()
    assert record["summary"].startswith("check error: 28 edge units exceed the Tutte bound 24")
    assert record["reports"] == [] and set(record["input_digests"]) == {"g", "h"}


def test_colorings_past_the_table_bound_are_an_error(tmp_path, capsys):
    # K8 at q = 8 needs an elimination table of 8^8 entries, over the bound of 2^20
    k8 = tmp_path / "k8.txt"
    k8.write_text(serialize_graph(complete_graph(8)))
    k3 = tmp_path / "k3.txt"
    k3.write_text(serialize_graph(complete_graph(3)))
    log = str(tmp_path / "check")
    rc = main(["check", "vertex_counting:proper_colorings", str(k8), str(k3), "--q", "8", "--log-dir", log])
    assert rc == 3
    message = "8^8 entries exceed the table bound 1048576"
    assert capsys.readouterr().err == f"error: {message}\n"
    (record,) = RunLog(log).records()
    assert record["summary"] == f"check error: {message}" and record["reports"] == []
    # a hunt whose catalog holds K8 skips that trial and goes on
    log = str(tmp_path / "hunt")
    argv = ["vertex_counting:proper_colorings", "--strategy", "transitive_catalog", "--relation", "fractional_tiling"]
    argv += ["--max-n", "8", "--max-h", "4", "--q", "8", "--seed", "4", "--trials", "20", "--log-dir", log]
    assert main(["hunt", *argv]) == 0
    (record,) = RunLog(log).records()
    (result,) = record["reports"]
    assert (result["resource_skips"], result["checked"]) == (1, 19)
    gen = PairGenerator("transitive_catalog", seed=4, relation="fractional_tiling", max_g=8, max_h=4)
    assert generate_pair(gen, 14).g == complete_graph(8)


def test_hunt_skips_a_trial_past_the_automorphism_size_bound(tmp_path, capsys):
    # the catalog up to 70 vertices holds graphs past the 64-vertex bound of
    # symmetry.automorphisms; trials 3 and 4 draw one, and the hunt goes on
    log = str(tmp_path / "log")
    argv = ["hunt", "transitive_G", "--strategy", "transitive_catalog", "--max-n", "70", "--trials", "5", "--seed", "1"]
    assert main([*argv, "--log-dir", log]) == 0
    summary = "hunt transitive_G: 0 violation(s) in 3/5 checked trials (0 generation failures, 2 resource skips, failed trials [])"
    assert capsys.readouterr().out.startswith(summary + ", ")
    (record,) = RunLog(log).records()
    assert record["summary"] == summary and record["reports"][0]["resource_skips"] == 2


def test_hunt_refuses_a_negative_trial_count(tmp_path, capsys):
    log = str(tmp_path / "log")
    argv = ["hunt", "spectral_decreasing_convex", "--log-dir", log]
    assert main([*argv, "--trials", "-3"]) == 3
    assert capsys.readouterr() == ("", "error: trials must be >= 0, not -3\n")
    (record,) = RunLog(log).records()
    assert record["summary"] == "hunt error: trials must be >= 0, not -3" and record["reports"] == []
    assert main([*argv, "--trials", "0"]) == 0
    assert capsys.readouterr().out.startswith("hunt spectral_decreasing_convex: 0 violation(s) in 0/0 checked trials")


def test_check_internal_failure_is_an_error(graphs, tmp_path, capsys, monkeypatch):
    # exit 1 means "violated", so an internal failure must not end that way
    for i, exc in enumerate((RecursionError("maximum recursion depth exceeded"), EigensolverError("no convergence"))):
        monkeypatch.setattr("gdom.cli.check", mock.Mock(side_effect=exc))
        log = str(tmp_path / f"log{i}")
        rc = main(["check", "spanning_tree", graphs["k4"], graphs["k3"], "--log-dir", log])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")
        (record,) = RunLog(log).records()
        assert record["summary"] == f"check error: {exc}" and record["reports"] == []
    # an unreadable input is left out of the record's digests
    log = str(tmp_path / "missing")
    assert main(["check", "spanning_tree", graphs["k4"], str(tmp_path / "nope.txt"), "--log-dir", log]) == 3
    (record,) = RunLog(log).records()
    assert set(record["input_digests"]) == {"g"}
    # a log dir that cannot be created is an error too, not a traceback
    log = os.path.join(graphs["k4"], "logs")
    assert main(["check", "spanning_tree", graphs["k4"], graphs["k3"], "--log-dir", log]) == 3


def test_check_koteljanskii_flags(graphs, capsys):
    rc = main(
        [
            "check",
            "koteljanskii_step",
            graphs["p3"],
            "--a",
            "0,1",
            "--b",
            "1,2",
            "--json",
            "--log-dir",
            graphs["log"],
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert payload["lhs"] == "1" and payload["rhs"] == "2"


def test_hunt_writes_counterexample_bundles(graphs, capsys, tmp_path):
    log = str(tmp_path / "huntlogs")
    rc = main(
        [
            "hunt",
            "spectral_decreasing_convex",
            "--strategy",
            "overlay_copies",
            "--trials",
            "800",
            "--seed",
            "2024",
            "--max-n",
            "10",
            "--hinge",
            "4",
            "--hypothesis",
            "domination",
            "--log-dir",
            log,
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0 and "violation(s)" in out
    bundles = [f for f in os.listdir(log) if f.startswith("counterexample-")]
    assert bundles
    with open(os.path.join(log, bundles[0])) as fh:
        bundle = json.load(fh)
    assert bundle["report"]["verdict"] == "violated"
    assert bundle["g"] and bundle["h"]


def test_hunt_with_a_failed_trial_exits_3(tmp_path, capsys, monkeypatch):
    """A trial lost to an eigensolver failure makes the hunt exit 3; the
    summary line and the run-log record report it as before."""
    from gdom import search

    argv = ["hunt", "spanning_tree", "--seed", "1", "--trials", "10", "--max-n", "6", "--max-h", "3"]
    assert main([*argv, "--log-dir", str(tmp_path / "clean")]) == 0
    capsys.readouterr()
    calls = [0]
    real_check = search.check

    def flaky(ineq, g, h, params):
        calls[0] += 1
        if calls[0] == 4:
            raise EigensolverError("injected")
        return real_check(ineq, g, h, params)

    monkeypatch.setattr(search, "check", flaky)
    log = str(tmp_path / "failed")
    assert main([*argv, "--log-dir", log]) == 3
    (line,) = capsys.readouterr().out.splitlines()
    (record,) = RunLog(log).records()
    assert line.startswith(record["summary"] + ", ")
    assert record["summary"].endswith("failed trials [3], 1 EigensolverError)")
    (result,) = record["reports"]
    assert result["failed_trials"] == [3] and result["errors"] == {"EigensolverError": 1} and result["checked"] == 9


def test_hunt_records_keep_their_params_as_json(tmp_path, capsys):
    for i, (argv, params) in enumerate(
        (
            (["heat_trace_frac", "--t-grid", "1/2"], {"t_grid": ["1/2"]}),
            (["tutte_pointwise", "--grid", "1,1;2,2"], {"xy_grid": [["1", "1"], ["2", "2"]]}),
            (["spectral_decreasing_convex", "--hinge", "4", "--json"], {"functional": ["hinge(4)"]}),
        )
    ):
        log = str(tmp_path / f"log{i}")
        assert main(["hunt", *argv, "--trials", "3", "--log-dir", log]) == 0, argv
        capsys.readouterr()
        (record,) = RunLog(log).records()
        (result,) = record["reports"]
        assert result["params"] == params and result["checked"] + result["generation_failures"] == 3
        # the record alone replays the hunt (the CLI's size bounds are the generator's defaults)
        gen = PairGenerator(result["strategy"], seed=result["seed"], relation=result["relation"])
        replay = hunt(result["inequality"], gen, result["trials"], result["params"])
        assert replay.summary() == record["summary"], argv


def test_hunt_record_alone_replays_a_hunt_of_non_default_size(tmp_path, capsys):
    log = str(tmp_path / "log")
    argv = ["vertex_counting", "--strategy", "random_connected_pair", "--seed", "3", "--trials", "30"]
    assert main(["hunt", *argv, "--max-n", "6", "--max-h", "3", "--log-dir", log]) == 0
    capsys.readouterr()
    (record,) = RunLog(log).records()
    (result,) = record["reports"]
    assert (result["max_g"], result["max_h"], result["max_attempts"]) == (6, 3, 200)
    gen = PairGenerator(**{f.name: result[f.name] for f in dataclasses.fields(PairGenerator)})
    replay = hunt(result["inequality"], gen, result["trials"], result["params"])
    assert replay.summary() == record["summary"]
    # the sizes matter: the same hunt at the generator's default sizes finds violations
    default = hunt(result["inequality"], dataclasses.replace(gen, max_g=10, max_h=5), result["trials"])
    assert default.summary() != record["summary"]


def test_run_log_digests_are_those_of_the_bytes_parsed(graphs, tmp_path, capsys, monkeypatch):
    """Each graph file is opened once, and the record holds the sha256 of
    its bytes, also for a check whose H file does not parse."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"4; 0 1;\r\n 2 3\r\n")  # disconnected
    opened = []

    def counted_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    for i, (argv, g, h, code) in enumerate(
        (
            (["relate", "--certificates", "--json"], graphs["k4"], graphs["k3"], 0),
            (["check", "spanning_tree"], graphs["k4"], str(bad), 3),
        )
    ):
        log = str(tmp_path / f"log{i}")
        opened.clear()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "open", counted_open, raising=False)
            assert main([*argv, g, h, "--log-dir", log]) == code
        capsys.readouterr()
        assert sorted(opened) == sorted([g, h, os.path.join(log, "runs.jsonl")])
        (record,) = RunLog(log).records()
        with open(g, "rb") as fg, open(h, "rb") as fh:
            digests = {"g": hashlib.sha256(fg.read()).hexdigest(), "h": hashlib.sha256(fh.read()).hexdigest()}
        assert record["input_digests"] == digests


def _load_graph_through_text_io(args, name):
    """How ``_load_graph`` decoded a graph file before: a ``TextIOWrapper``."""
    if isinstance(args._inputs[name], OSError):
        raise args._inputs[name]
    text = io.TextIOWrapper(io.BytesIO(args._inputs[name]), encoding="utf-8").read()
    return parse_graph(text.strip(), cli._detect_format(getattr(args, name), args.format))


@pytest.mark.parametrize(
    "data",
    [
        b"4;\r\n0 1;\r\n1 2;\r\n2 3\r\n",
        b"4;\r\n0 1;\r\n1 2;\r\n2 3\r\nx\r\n",  # the error quotes its clause and counts its position
        b"4;\r0 1;\r1 2;\r2 3\rx\r",
        b"\xef\xbb\xbf4; 0 1; 1 2; 2 3\n",
        b"4; 0 1; 1 2; 2 \xff3\n",
    ],
    ids=["crlf", "crlf-bad-clause", "lone-cr", "bom", "not-utf8"],
)
def test_graph_files_decode_as_a_text_wrapper_decodes_them(graphs, tmp_path, capsys, monkeypatch, data):
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    args = argparse.Namespace(g=str(path), format=None, _inputs={"g": data})
    try:
        expected = _load_graph_through_text_io(args, "g")
    except ValueError as exc:
        expected = repr(exc)
    try:
        got = cli._load_graph(args, "g")
    except ValueError as exc:
        got = repr(exc)
    assert got == expected
    outcomes = []
    for load in (cli._load_graph, _load_graph_through_text_io):
        log = str(tmp_path / f"log-{load.__name__}")
        monkeypatch.setattr(cli, "_load_graph", load)
        rc = main(["check", "spanning_tree", str(path), graphs["edge"], "--log-dir", log])
        (record,) = RunLog(log).records()
        del record["timestamp"]
        record["command"][-1] = "LOG"
        outcomes.append((rc, capsys.readouterr(), record))
    assert outcomes[0] == outcomes[1]


def test_run_log_lines_are_the_sorted_json_of_their_records(graphs, tmp_path, capsys):
    log = str(tmp_path / "logs")
    g, h = graphs["k4"], graphs["k3"]
    runs = [
        (["analyze", h], 0),
        (["relate", g, h, "--certificates", "--json"], 0),
        (["check", "spanning_tree", g, h, "--json"], 0),
        (["hunt", "spanning_tree", "--trials", "2", "--seed", "3", "--max-n", "6", "--json"], 0),
        (["check", "spanning_tree", g, str(tmp_path / "nope.txt")], 3),
    ]
    outs = []
    for argv, code in runs:
        assert main([*argv, "--log-dir", log]) == code
        outs.append(capsys.readouterr().out)
    with open(os.path.join(log, "runs.jsonl"), encoding="utf-8") as fh:
        lines = fh.readlines()
    assert len(lines) == len(runs)
    for (argv, _), out, line in zip(runs, outs, lines):
        record = json.loads(line)
        assert line == json.dumps(record, sort_keys=True) + "\n"
        if "--json" in argv:
            assert out.splitlines()[-1] == json.dumps(record["reports"][0], sort_keys=True)
    assert json.loads(lines[-1])["reports"] == []


def test_report_on_a_missing_log_dir_creates_nothing(tmp_path, capsys):
    log = tmp_path / "never"
    assert main(["report", "--log-dir", str(log)]) == 0
    assert capsys.readouterr().out == "no runs logged\n"
    assert not log.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "g", "--t-grid", "1,2", "--format", "graph6", "--json", "--log-dir", "L"],
        ["relate", "g", "h", "--certificates", "--local-stats", "2", "--json", "--log-dir", "L"],
        ["check", "vertex_counting:forests", "g", "h", "--hypothesis", "domination", "--t-grid", "1", "--grid", "1,1",
         "--hinge", "4", "--q", "3", "--a", "0", "--b", "1", "--format", "json", "--json", "--log-dir", "L"],
        ["check", "spanning_tree", "g"],
        ["hunt", "spanning_tree", "--strategy", "s", "--relation", "r", "--trials", "2", "--seed", "5",
         "--max-n", "6", "--max-h", "3", "--hinge", "4", "--json", "--log-dir", "L"],
        ["report", "--log-dir", "L"],
        ["report"],
        ["relate", "--", "g", "h"],
        ["relate", "g", "h", "--cert"],
        ["hunt", "spanning_tree", "--max", "3"],
        ["relate", "g", "h", "--bogus"],
        ["relate", "g", "h", "extra"],
        ["report", "extra"],
        ["relate", "g"],
        ["relate", "g", "h", "--local-stats", "-1"],
        ["hunt", "spanning_tree", "--trials", "many"],
        ["relate", "-h"],
        ["-h"],
        [],
        ["frobnicate", "g"],
        ["--", "relate", "g", "h"],
    ],
)
def test_subcommand_parsing_agrees_with_the_top_parser(argv):
    assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(argparse.ArgumentParser.parse_args, argv)


def _parse_outcome(parse, argv: list[str]) -> tuple:
    """What ``parse(build_parser(), argv)`` gives: its namespace, or its exit
    code, with what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(cli.build_parser(), argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


# values that argparse takes, types, refuses or reads as a flag; "3" fits every type
_values = st.one_of(st.just("3"), st.sampled_from(["g", "-1", "", "1/2", "0,1", "json", "yaml", "x y"]))


_COMMANDS = cli.build_parser().commands  # subcommand name -> its parser


@st.composite
def _argvs(draw) -> list[str]:
    """A subcommand of the parser, its positionals and flags of its own
    parser, each in its exact, ``--flag=value`` or abbreviated form; then
    maybe a positional after them, a value missing at the end, or a token
    that no plain argv holds."""
    name = draw(st.sampled_from([*_COMMANDS, "frobnicate"]))
    actions = _COMMANDS[name]._actions if name in _COMMANDS else []
    positionals = [action for action in actions if not action.option_strings]
    count = draw(st.one_of(st.just(len(positionals)), st.integers(0, len(positionals) + 1)))
    argv = [name, *(draw(_values) for _ in range(count))]
    flags = [(flag, action.nargs) for action in actions if action.dest != "help" for flag in action.option_strings]
    for flag, nargs in draw(st.lists(st.sampled_from(flags), max_size=4)) if flags else []:
        value = draw(_values)
        form = draw(st.sampled_from(["exact"] * 4 + ["equals", "abbreviated"]))
        if form == "equals":
            argv.append(f"{flag}={value}")
        elif form == "abbreviated":
            argv += [flag[: draw(st.integers(2, max(2, len(flag) - 1)))], value]
        else:
            argv += [flag] if nargs == 0 else [flag, value]
    tweak = draw(st.sampled_from(["none"] * 3 + ["positional", "truncate", "token"]))
    if tweak == "positional":
        argv.append("g")
    elif tweak == "truncate":
        argv.pop()
    elif tweak == "token":
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--", "-h", "--help", "--he", "--bogus"])))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_argvs())
def test_plain_reading_agrees_with_the_top_parser_on_drawn_argvs(argv):
    assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(argparse.ArgumentParser.parse_args, argv)


@pytest.mark.parametrize(
    "argv",
    [
        # the two argv shapes of the cli_pairs benchmark, then the README's examples
        ["relate", "g.txt", "h.txt", "--certificates", "--json", "--log-dir", "L"],
        ["check", "frac_tiling_tree", "g.txt", "h.txt", "--json", "--log-dir", "L"],
        ["relate", "k4.txt", "k3.txt"],
        ["check", "spanning_tree", "k4.txt", "k3.txt"],
        ["hunt", "spectral_decreasing_convex", "--hinge", "4", "--relation", "domination",
         "--seed", "2024", "--max-n", "10", "--max-h", "5", "--trials", "5000"],
        ["analyze", "g.txt", "--t-grid", "1/4,1,4", "--format", "graph6", "--json"],
        ["relate", "g.txt", "h.txt", "--local-stats", "2"],
        ["check", "vertex_counting:forests", "g.txt", "--q", "3", "--hypothesis", "domination"],
        ["hunt", "spanning_tree", "--trials", "0"],
        ["report", "--log-dir", "L"],
        ["report"],
    ],
)
def test_plain_argvs_never_reach_argparse(argv, monkeypatch):
    expected = vars(cli.build_parser().parse_args(argv))

    def refused(*args, **kwargs):
        raise AssertionError("argparse parsed a plain argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refused)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refused)
    assert vars(cli._parse_args(cli.build_parser(), argv)) == expected


def test_run_log_reproducibility(graphs, capsys):
    argv = [
        "hunt",
        "spanning_tree",
        "--strategy",
        "overlay_copies",
        "--trials",
        "20",
        "--seed",
        "5",
        "--max-n",
        "8",
        "--log-dir",
        graphs["log"],
    ]
    assert main(argv) == 0
    assert main(argv) == 0
    capsys.readouterr()
    with open(os.path.join(graphs["log"], "runs.jsonl")) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    runs = [r for r in records if r["summary"].startswith("hunt")]
    assert len(runs) == 2
    a, b = runs[-2], runs[-1]
    a.pop("timestamp")
    b.pop("timestamp")
    # byte-identical payloads modulo elapsed-time fields
    for rec in (a, b):
        rec["reports"][0].pop("elapsed")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_log_hunt_records_hold_no_wall_time(graphs, capsys, monkeypatch):
    # each clock reading lies one second further on than the last step did,
    # so the two hunts take 1 s and 3 s of wall time
    steps = iter(range(1000))
    clock = [0.0]

    def perf_counter():
        clock[0] += next(steps)
        return clock[0]

    monkeypatch.setattr("gdom.search.time.perf_counter", perf_counter)
    argv = ["hunt", "spanning_tree", "--trials", "5", "--seed", "5", "--max-n", "6", "--log-dir", graphs["log"]]
    assert main(argv) == 0 and main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith(", 1.0s") and out[1].endswith(", 3.0s")  # stdout keeps the wall time
    a, b = RunLog(graphs["log"]).records()
    assert [a["reports"][0]["elapsed"], b["reports"][0]["elapsed"]] == [1.0, 3.0]
    for rec in (a, b):
        rec.pop("timestamp")
        rec["reports"][0].pop("elapsed")
    assert a == b


def test_reused_parser_leaks_no_state(graphs, capsys, monkeypatch, tmp_path):
    """One parser serves every main() call of a process, and each call acts
    as if its parser were new."""
    from gdom import cli

    g, h = graphs["k4"], graphs["k3"]
    calls = [
        ["relate", g, h, "--certificates"],
        ["relate", g, h],
        ["check", "spectral_decreasing_convex", g, h, "--hinge", "4", "--hypothesis", "domination"],
        ["check", "spectral_decreasing_convex", g, h],
        ["check", "spanning_tree", g, h, "--q", "not-a-number"],
        ["hunt", "spanning_tree", "--seed", "3", "--trials", "10", "--max-n", "6"],
    ]
    builds = []
    build_parser = cli.build_parser

    def counted_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted_build_parser)
    monkeypatch.setattr("gdom.search.time.perf_counter", iter(range(1000)).__next__)

    def run(fresh: bool) -> list:
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.chdir(tmp_path / ("fresh" if fresh else "reused"))
        outcomes = []
        for argv in calls:
            if fresh:
                cli._parser = None
            before = len(RunLog("logs").records())
            try:
                rc = main([*argv, "--log-dir", "logs"])
            except SystemExit as exc:
                rc = exc.code
            out, err = capsys.readouterr()
            outcomes.append((rc, out, err, RunLog("logs").records()[before:]))
        for _, _, _, records in outcomes:
            for rec in records:
                rec.pop("timestamp")
        return outcomes

    (tmp_path / "fresh").mkdir()
    (tmp_path / "reused").mkdir()
    expected = run(fresh=True)
    assert len(builds) == len(calls)
    builds.clear()
    assert run(fresh=False) == expected
    assert len(builds) <= 1
    assert [rc for rc, *_ in expected] == [0, 0, 0, 0, 3, 0]


def test_every_run_appends_one_record(graphs, capsys):
    log = graphs["log"]
    before = 0
    if os.path.exists(os.path.join(log, "runs.jsonl")):
        with open(os.path.join(log, "runs.jsonl")) as fh:
            before = sum(1 for _ in fh)
    main(["analyze", graphs["k3"], "--log-dir", log])
    main(["relate", graphs["k4"], graphs["k3"], "--log-dir", log])
    capsys.readouterr()
    with open(os.path.join(log, "runs.jsonl")) as fh:
        after = sum(1 for _ in fh)
    assert after == before + 2


def test_report_command(graphs, capsys):
    main(["analyze", graphs["k3"], "--log-dir", graphs["log"]])
    capsys.readouterr()
    rc = main(["report", "--log-dir", graphs["log"]])
    out = capsys.readouterr().out
    assert rc == 0 and "schema=1" in out


@pytest.mark.parametrize(
    "record, error",
    [
        (b"{}", "KeyError"),
        (b"[1]", "TypeError"),
        (b'{"timestamp": "x", "schema": 1, "version": "0", "summary": "s"}', "TypeError"),
        (b'{"timestamp": 1e300, "schema": 1, "version": "0", "summary": "s"}', "OverflowError"),
        (b'{"timestamp": 2, "sch', "JSONDecodeError"),
        (b'{"summary": "\xff"}', "UnicodeDecodeError"),
    ],
)
def test_report_names_the_line_of_a_malformed_record(tmp_path, capsys, record, error):
    """A line that is no run record is an error (exit 3) that names its
    line, blank lines uncounted, not a traceback that exits 1; the
    well-formed line before it does not print either."""
    good = b'{"timestamp": 0, "schema": 1, "version": "0", "summary": "ok"}'
    (tmp_path / "runs.jsonl").write_bytes(b"\n".join([good, b"  ", record, b""]))
    assert main(["report", "--log-dir", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: run log line 2: malformed record: {error}(")


def test_graph6_format_flag(tmp_path, capsys):
    p = tmp_path / "k4.g6"
    p.write_text("C~")
    rc = main(["analyze", str(p), "--log-dir", str(tmp_path / "l")])
    out = capsys.readouterr().out
    assert rc == 0 and "vertices: 4" in out


def test_format_flag_overrides_the_file_suffix(tmp_path, capsys):
    p = tmp_path / "k4.txt"
    p.write_text("C~")
    log = str(tmp_path / "l")
    assert main(["analyze", str(p), "--format", "graph6", "--log-dir", log]) == 0
    assert "vertices: 4" in capsys.readouterr().out
    # read by its suffix, graph6 text is no edge list
    assert main(["analyze", str(p), "--log-dir", log]) == 3
    assert capsys.readouterr().err == "error: bad vertex count 'C~' (at 0)\n"


def test_analyze_degrades_per_field_on_large_input(tmp_path, capsys):
    # a 70-vertex cycle: transitivity and Tutte exceed their bounds but
    # spanning trees, spectrum, and heat traces still print
    n = 70
    clauses = [str(n)] + [f"{i} {(i + 1) % n}" for i in range(n)]
    p = tmp_path / "big.txt"
    p.write_text("; ".join(clauses))
    rc = main(["analyze", str(p), "--json", "--log-dir", str(tmp_path / "l")])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["spanning_trees"] == "70"
    assert payload["transitive"].startswith("error:")
    assert payload["tutte"].startswith("error:")
    assert payload["matchings"].startswith("error:")
    assert len(payload["spectrum"]) == 70
