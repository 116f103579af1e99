import json
import subprocess
import sys

import pytest

from guesslab import cli
from guesslab.cli import main
from guesslab.serialize import emit_dot, emit_json, parse
from guesslab.unicast import butterfly_instance

from conftest import complete_graph, undirected_cycle


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_guess_from_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["guess", "-", "-q", "2"], stdin=emit_dot(complete_graph(3)), monkeypatch=monkeypatch
    )
    assert code == 0
    assert "max |Fix| = 4" in out
    assert "2" in out


def test_guess_json_report(capsys, monkeypatch, tmp_path):
    path = tmp_path / "k3.dot"
    path.write_text(emit_dot(complete_graph(3)))
    code, out, _ = run_cli(capsys, ["guess", str(path), "-q", "2", "--json"])
    data = json.loads(out)
    assert code == 0 and data["max_fix"] == 4 and data["value"] == pytest.approx(2.0)
    assert data["method"] == "conflict-graph-state-0-fixed"


def test_guess_missing_file(capsys):
    code, _, err = run_cli(capsys, ["guess", "missing.dot", "-q", "2"])
    assert code == 2
    assert "missing.dot" in err


def test_construct_pipes_into_solvable(capsys, monkeypatch, tmp_path):
    code, out, _ = run_cli(capsys, ["construct", "gk", "3"])
    assert code == 0
    graph_text = out
    code, out, _ = run_cli(
        capsys, ["solvable", "-", "--prove-nonlinear"], stdin=graph_text, monkeypatch=monkeypatch
    )
    assert code == 1
    assert "not-linearly-solvable" in out


def test_solvable_positive(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["solvable", "-", "-q", "2"], stdin=emit_dot(complete_graph(3)), monkeypatch=monkeypatch
    )
    assert code == 0 and "True" in out


def test_solvable_routing_negative(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["solvable", "-", "--routing"], stdin=emit_dot(complete_graph(3)), monkeypatch=monkeypatch
    )
    assert code == 1 and "False" in out


def test_solvable_needs_a_mode(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, ["solvable", "-"], stdin=emit_dot(complete_graph(3)), monkeypatch=monkeypatch
    )
    assert code == 2


def test_hloops(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["hloops", "-", "-q", "2"], stdin=emit_dot(complete_graph(3)), monkeypatch=monkeypatch
    )
    assert code == 0 and "max |Fix| = 7" in out


def test_linear_report(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["linear", "-", "-q", "2"], stdin=emit_dot(complete_graph(3)), monkeypatch=monkeypatch
    )
    assert code == 0 and "max |Fix| = 4" in out


def test_compat_exit_codes(capsys, monkeypatch):
    from guesslab.constructions import fig6_graph

    fig6 = emit_dot(fig6_graph())
    code, out, _ = run_cli(
        capsys, ["compat", "-", "--set", "0,1", "--mode", "strong"], stdin=fig6, monkeypatch=monkeypatch
    )
    assert code == 0 and "True" in out
    code, out, _ = run_cli(
        capsys, ["compat", "-", "--set", "0,4", "--mode", "strong"], stdin=fig6, monkeypatch=monkeypatch
    )
    assert code == 1


def test_reduce_graph(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys,
        ["reduce", "-", "--vertices", "3"],
        stdin=emit_dot(parse('{"n":4,"arcs":[[0,1],[1,0],[2,0],[3,0],[3,1],[1,2],[2,3]]}')),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    reduced = parse(out)
    assert sorted(reduced.arcs) == [(0, 1), (1, 0), (1, 2), (2, 0), (2, 1)]
    assert "relabel" in err


def test_reduce_function(capsys, monkeypatch):
    fn = '{"n": 2, "q": 2, "support": [[1], []], "tables": [[0, 1], [1]]}'
    code, out, _ = run_cli(
        capsys, ["reduce", "-", "--vertices", "1", "--json"], stdin=fn, monkeypatch=monkeypatch
    )
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 1 and data["tables"] == [[1]]


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2, "arcs": [[0, 1]]}',
        '{"n": 2, "q": 2, "support": [[1], []], "tables": [[0, 1], [1]]}',
    ],
)
def test_reduce_unknown_vertex_exits_2(capsys, monkeypatch, text):
    code, _, err = run_cli(capsys, ["reduce", "-", "--vertices", "9"], stdin=text, monkeypatch=monkeypatch)
    assert code == 2
    assert "vertex 9 outside 0..1" in err


def test_fix_command(capsys, monkeypatch):
    fn = '{"n": 1, "q": 2, "support": [[0]], "tables": [[0, 1]]}'
    code, out, _ = run_cli(capsys, ["fix", "-", "--json"], stdin=fn, monkeypatch=monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2 and data["fixed_points"] == [[0], [1]]


def test_convert(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["convert", "-"], stdin=emit_json(butterfly_instance()), monkeypatch=monkeypatch
    )
    assert code == 0
    assert parse(out) == complete_graph(3)


def test_construct_families(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["construct", "cycle", "5", "--undirected"])
    assert code == 0
    assert parse(out) == undirected_cycle(5)
    code, out, _ = run_cli(capsys, ["construct", "grotzsch", "--json"])
    assert code == 0
    assert json.loads(out)["n"] == 11
    code, _, _ = run_cli(capsys, ["construct", "gk", "4", "--minimal"])
    assert code == 0


def test_resource_bound_exit(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys,
        ["guess", "-", "-q", "2"],
        stdin=emit_dot(parse('{"n": 13, "arcs": []}')),
        monkeypatch=monkeypatch,
    )
    assert code == 3
    # one line naming the quantity, what it needs, the cap and the knob
    assert err.count("\n") == 1 and "states" in err and "8192" in err and "4096" in err
    assert "guesslab.guessing.STATE_CAP" in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "guesslab.cli", "construct", "clique", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "digraph" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "clique", "x"],
        ["construct", "K"],
        ["construct", "gk"],
        ["construct", "clique", "-1"],
        ["guess", "FILE", "-q", "1"],
        ["linear", "FILE", "-q", "1"],
        ["hloops", "FILE", "-q", "1"],
        ["construct", "K", "2", "-1"],
        ["solvable", "HUGE_DOT", "--routing"],
        ["solvable", "HUGE_JSON", "--routing"],
        ["construct", "biclique", "3"],
        ["construct", "clique", "2", "3"],
        ["guess", "FLOAT_ARC", "-q", "2"],
        ["guess", "STRING_N", "-q", "2"],
        ["guess", "BOOL_N", "-q", "2"],
        ["fix", "FLOAT_Q"],
        ["fix", "FLOAT_TABLE"],
        ["fix", "FLOAT_SUPPORT"],
        ["convert", "FLOAT_PAIR"],
        ["convert", "FLOAT_INTERMEDIATE"],
        ["guess", "NOT_UTF8", "-q", "2"],
        ["guess", "ARABIC_DIGITS", "-q", "2"],
        ["guess", "FULLWIDTH_DIGIT", "-q", "2"],
    ],
)
def test_input_errors_exit_2_with_one_line(capsys, tmp_path, argv):
    files = {
        "FILE": emit_dot(undirected_cycle(3)),
        # one vertex id would otherwise allocate 3e9-entry adjacency lists
        "HUGE_DOT": "digraph { 3000000000; }\n",
        "HUGE_JSON": '{"n": 3000000000, "arcs": []}',
        # JSON numbers that are not integers are refused, never truncated
        "FLOAT_ARC": '{"n": 2, "arcs": [[0, 1.9], [1, 0]]}',
        "STRING_N": '{"n": "2", "arcs": []}',
        "BOOL_N": '{"n": true, "arcs": []}',
        "FLOAT_Q": '{"n": 1, "q": 2.7, "support": [[0]], "tables": [[0, 1]]}',
        "FLOAT_TABLE": '{"n": 1, "q": 2, "support": [[0]], "tables": [[0.5, 1]]}',
        "FLOAT_SUPPORT": '{"n": 1, "q": 2, "support": [[0.0]], "tables": [[0, 1]]}',
        "FLOAT_PAIR": '{"pairs": [[0, 1.0]], "intermediates": [], "arcs": [[0, 1]]}',
        "FLOAT_INTERMEDIATE": '{"pairs": [[0, 1]], "intermediates": [2.0], "arcs": []}',
        "NOT_UTF8": b"digraph { 0 -> 1; }\xff\n",
        # DOT vertex ids are ASCII digits; int() would read these as 3 and 1
        "ARABIC_DIGITS": "digraph { \u0663 -> \u0661; }\n",
        "FULLWIDTH_DIGIT": "digraph { \uff13 -> 1; }\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    code, out, err = run_cli(capsys, [str(tmp_path / a) if a in files else a for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    k3 = emit_dot(complete_graph(3))
    code, out, _ = run_cli(
        capsys, ["guess", "-", "-q", "2", "--strict", "--json"], stdin=k3, monkeypatch=monkeypatch
    )
    assert code == 0 and json.loads(out)["kind"] == "h"
    # flags of the previous call do not leak: a plain human report of kind g
    code, out, _ = run_cli(capsys, ["guess", "-", "-q", "2"], stdin=k3, monkeypatch=monkeypatch)
    assert code == 0 and "kind = g" in out and not out.startswith("{")
    # a usage error after a successful call still exits 2 through argparse
    with pytest.raises(SystemExit) as exc:
        main(["guess", "-"])
    assert exc.value.code == 2 and "-q" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, ["solvable", "-", "-q", "2"], stdin=k3, monkeypatch=monkeypatch)
    assert code == 0 and "True" in out
    assert len(built) == 1
