import os

import pytest

from foliagraph import builtin, builtin_example, harmonize, parse, serialize_graph, serialize_surface, to_dot
from foliagraph.cli import main

from graphgen import DEAD_END_V6, HUGE_WINDING, is_theta
from test_reduction import MULTISTEP_FIXTURE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_calabi_true_false(capsys):
    code, out, _ = run(capsys, "calabi", "builtin:theta")
    assert code == 0 and "calabi: yes" in out
    code, out, _ = run(capsys, "calabi", "builtin:dumbbell")
    assert code == 1
    assert "no positive path from m to s" in out


def test_calabi_machine_output(capsys):
    code, out, _ = run(capsys, "calabi", "builtin:dumbbell", "--machine")
    assert code == 1
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["calabi"] == "false"
    assert lines["obstruction_from"] == "m"
    assert lines["obstruction_to"] == "s"
    assert lines["outset"] == "m"


def test_complexity(capsys):
    code, out, _ = run(capsys, "complexity", "builtin:dumbbell", "--machine")
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["complexity"] == "2" and lines["witness"] == "0"
    assert lines["genus"] == "2"


def test_harmonize_trace_and_output(capsys, tmp_path):
    out_file = tmp_path / "result.graph"
    code, out, err = run(
        capsys, "harmonize", "builtin:dumbbell", "--trace", "-o", str(out_file), "--machine"
    )
    assert code == 0
    assert "step 1: cut@0 complexity 2->1 rewrites 1" in err
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["steps"] == "1" and lines["calabi"] == "true"
    result = parse(out_file.read_text())
    assert is_theta(result)


def test_harmonize_stdout_graph(capsys):
    code, out, _ = run(capsys, "harmonize", "builtin:theta")
    assert code == 0
    assert parse(out) == builtin("theta")


def test_harmonize_dot_dir(capsys, tmp_path):
    dot_dir = tmp_path / "dots"
    code, _, _ = run(capsys, "harmonize", "builtin:dumbbell", "--dot-dir", str(dot_dir), "--machine")
    assert code == 0
    assert sorted(os.listdir(dot_dir)) == ["step1_after.dot", "step1_before.dot"]
    assert "digraph" in (dot_dir / "step1_before.dot").read_text()

    # A multi-step reduction: the files are the DOT of the traced graphs,
    # and each step starts from the graph the previous one produced.
    g = parse(MULTISTEP_FIXTURE)
    _, trace = harmonize(g)
    assert len(trace.steps) == 3
    path = tmp_path / "g.graph"
    path.write_text(MULTISTEP_FIXTURE)
    dot_dir = tmp_path / "multi"
    code, _, _ = run(capsys, "harmonize", str(path), "--dot-dir", str(dot_dir), "--machine")
    assert code == 0
    assert len(os.listdir(dot_dir)) == 2 * len(trace.steps)
    assert trace.steps[0].graph_before == g
    for k, step in enumerate(trace.steps, start=1):
        if k > 1:
            assert step.graph_before == trace.steps[k - 2].graph_after
        assert (dot_dir / f"step{k}_before.dot").read_text() == to_dot(step.graph_before)
        assert (dot_dir / f"step{k}_after.dot").read_text() == to_dot(step.graph_after)


def test_harmonize_stuck_exits_1(capsys):
    # No level of this graph sorts: its first step meets a bubble.
    code, out, err = run(capsys, "harmonize", DEAD_END_V6)
    assert code == 1 and out == ""
    assert err.startswith("stuck: reduction of x stuck: bubble SPLIT(")


def test_harmonize_too_large_a_level_exits_2(capsys):
    code, out, err = run(capsys, "harmonize", HUGE_WINDING)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "holds 100000000000000000001 strands" in err


def test_validate_graph_file(capsys, tmp_path):
    path = tmp_path / "g.graph"
    path.write_text(serialize_graph(builtin("theta")))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0 and "ok" in out

    bad = serialize_graph(builtin("theta")).replace("1/4", "3/4")
    path.write_text(bad)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert "distinct" in out
    code, out, _ = run(capsys, "validate", str(path), "--machine")
    assert code == 2
    assert out == "valid=false\nviolation=vertex angles not pairwise distinct (critical values must differ)\n"


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.graph"
    path.write_text("graph g\n  vertex ???\nend\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "broken.graph:2" in err


def test_empty_surface_diagnosed_at_end(capsys, tmp_path):
    path = tmp_path / "empty.surf"
    path.write_text("surface x\nend\n")
    for cmd in ("surface-check", "surface-classify"):
        code, _, err = run(capsys, cmd, str(path))
        assert code == 2
        assert err.startswith(f"{path}:2:1: ")
        assert "summand" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "calabi", "no/such/file.graph")
    assert code == 2


@pytest.mark.parametrize(
    "command, source, number",
    [
        ("validate", "builtin:free-circle(x)", "x"),
        # int() takes each of these; the file grammar takes ASCII digits only.
        ("validate", "builtin:free-circle(\u0663)", "\u0663"),
        ("validate", "builtin:free-circle(1_0)", "1_0"),
        ("validate", "builtin:free-circle( 3)", " 3"),
        ("surface-check", "example:\u0663", "\u0663"),
        ("surface-check", "example:3 ", "3 "),
        ("surface-check", "example:", ""),
    ],
)
def test_builtin_numbers_are_ascii_naturals(capsys, command, source, number):
    code, out, err = run(capsys, command, source)
    assert code == 2 and out == ""
    assert err == f"{source}:1:9: expected a natural number, got {number!r}\n"


def test_builtin_diagnostics_name_the_source(capsys):
    code, _, err = run(capsys, "validate", "builtin:free-circle(0)")
    assert code == 2 and err == "builtin:free-circle(0):1:9: free circle winding must be >= 1\n"
    code, _, err = run(capsys, "surface-check", "example:5")
    assert code == 2 and err == "example:5:1:9: examples are numbered 1 to 4\n"
    code, _, err = run(capsys, "validate", "builtin:free-circle(" + "7" * 5000 + ")")
    assert code == 2 and err.startswith("builtin:free-circle(7777") and ":1:9: Exceeds the limit" in err
    with pytest.raises(SystemExit) as exc:
        main(["example", "\u0663"])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err


def test_surface_check_examples(capsys):
    for n in ("1", "2", "3", "4"):
        code, out, _ = run(capsys, "surface-check", f"example:{n}", "--machine")
        assert code == 0
        assert "result=pass" in out


def test_surface_classify_machine(capsys):
    code, out, _ = run(capsys, "surface-classify", "example:3", "--machine")
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["rank"] == "4"
    assert lines["completely_irrational"] == "true"
    assert lines["calabi"] == "false"
    assert lines["has_compact_regular_leaf"] == "true"
    assert lines["cup_vanisher"] == "absent"


def test_surface_classify_from_file(capsys, tmp_path):
    path = tmp_path / "ex2.surface"
    path.write_text(serialize_surface(builtin_example(2)))
    code, out, _ = run(capsys, "surface-classify", str(path))
    assert code == 0
    assert "rank 2" in out


def test_example_subcommand_roundtrips(capsys):
    code, out, _ = run(capsys, "example", "2")
    assert code == 0
    model = parse(out)
    assert model.name == "example2"


def test_dot_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, "dot", "builtin:theta")
    assert code == 0 and out.startswith('digraph "theta"')
    target = tmp_path / "t.dot"
    code, out, _ = run(capsys, "dot", "builtin:theta", "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith('digraph "theta"')


def test_graph_source_for_surface_command(capsys):
    code, _, err = run(capsys, "surface-check", "builtin:theta")
    assert code == 2
    assert "surface" in err


def test_surface_file_for_graph_command(capsys, tmp_path):
    path = tmp_path / "ex1.surface"
    path.write_text(serialize_surface(builtin_example(1)))
    code, _, err = run(capsys, "calabi", str(path))
    assert code == 2
    assert err == f"{path}:1:1: expected a graph, found a surface model\n"


def test_invalid_graph_file_for_complexity(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text(serialize_graph(builtin("theta")).replace("1/4", "3/4"))
    code, out, err = run(capsys, "complexity", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"{path}:1:1: ") and "distinct" in err
