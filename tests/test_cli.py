"""Command-line front end: exact parsing, exit codes, frozen artifacts.

The files under ``golden/`` were produced by the exact command lines
named in each test and are pinned byte-for-byte: identical
configurations and seeds must keep producing identical artifacts, on
any platform.  Semantic correctness of the numbers inside is covered by
the per-module suites; these tests exercise the plumbing — tree and
grid parsing, parameter vectors, exit statuses, artifact shape.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction

import pytest

import treerep
from treerep import chain_model, signed_measure, thresholds
from treerep.chain_model import as_fraction
from treerep.cli import (
    RunConfig,
    config_digest,
    main,
    parse_grid,
    parse_index_range,
    parse_tree,
    run,
)
from treerep.tree_core import DomainError, tree_to_json

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_to_file(args, tmp_path):
    out = tmp_path / "artifact"
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes()


# ---------------------------------------------------------------------------
# golden artifacts


def test_thresholds_golden(tmp_path):
    code, blob = run_to_file(["thresholds", "--n", "3..8"], tmp_path)
    assert code == 0
    assert blob == (GOLDEN / "thresholds.csv").read_bytes()

    lines = blob.decode().splitlines()
    assert lines[0] == "n,bell_c,r_star,r0,r1"
    assert lines[-1].startswith("# treerep 0.1.0 config ")
    assert lines[-2].startswith("# r0 undefined at n=3")
    row3 = lines[1].split(",")
    assert row3[0] == "3" and row3[3] == "undefined"
    # six data rows, one note, one metadata line
    assert len(lines) == 1 + 6 + 1 + 1


def test_analyze_golden_and_expect_exits(tmp_path):
    args = ["analyze", "--tree", "octopus:3x2", "--r", "9/20", "--p", "19/20"]
    code, blob = run_to_file(args, tmp_path)
    assert code == 0
    assert blob == (GOLDEN / "analyze.json").read_bytes()

    payload = json.loads(blob)
    assert payload["representable"] is False
    assert payload["witness"] == [0, 1, 3, 5]
    assert payload["r"][0] == "9/20"

    assert main(args + ["--expect", "not-representable", "--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--expect", "representable", "--out", str(tmp_path / "b")]) == 1
    # the artifact is still written on an --expect mismatch; only the
    # config digest differs from the assertion-free run
    mismatch = json.loads((tmp_path / "b").read_text())
    assert mismatch.pop("config") != payload.pop("config")
    assert mismatch == payload


def test_scan_golden_and_thread_independence(tmp_path):
    args = [
        "scan",
        "--tree",
        "octopus:3x2",
        "--r-grid",
        "9/20:11/20:1/10",
        "--p-grid",
        "19/20",
    ]
    code, blob = run_to_file(args, tmp_path)
    assert code == 0
    assert blob == (GOLDEN / "scan.csv").read_bytes()

    lines = blob.decode().splitlines()
    assert lines[0] == "r,p,representable,witness"
    assert lines[1] == "9/20,19/20,false,0;1;3;5"
    assert lines[2] == "11/20,19/20,true,"

    # --threads is accepted and ignored: neither the rows nor the digest change
    code, threaded = run_to_file(args + ["--threads", "3"], tmp_path)
    assert code == 0
    assert threaded == blob


def test_deriv_check_golden(tmp_path):
    code, blob = run_to_file(
        [
            "deriv-check",
            "--tree",
            "octopus:3x2",
            "--set",
            "0,1,3,5",
            "--at",
            "r1",
            "--p",
            "1/3,2/5,1/4,3/7,2/7,1/2",
            "--multiset",
            "0",
        ],
        tmp_path,
    )
    assert code == 0
    assert blob == (GOLDEN / "deriv_check.json").read_bytes()
    payload = json.loads(blob)
    assert payload["derivative"] == "-3/98"
    assert payload["closed_form"] == "-3/98"
    assert payload["matches"] is True


def test_verify_golden(tmp_path):
    code, blob = run_to_file(
        ["verify", "--tree", "path:4", "--r", "1/2", "--p", "1/2", "--draws", "20000"],
        tmp_path,
    )
    assert code == 0
    assert blob == (GOLDEN / "verify.json").read_bytes()
    payload = json.loads(blob)
    assert payload["passed"] is True
    assert payload["percolation_vs_recursive"]["passed"] is True
    assert payload["poisson_vs_recursive"]["passed"] is True
    assert payload["poisson_closure"]["max_sigmas"] < 4


def test_verify_golden_keeps_its_percolation_block():
    # percolation draws at the seed and the recursive sampler at seed + 1;
    # a seed layout that moves either sample changes these numbers
    payload = json.loads((GOLDEN / "verify.json").read_bytes())
    assert payload["seed"] == 0
    assert payload["percolation_vs_recursive"] == {
        "statistic": 14.984512953442563,
        "dof": 15,
        "p_value": 0.45253335234658043,
        "cells": 16,
        "passed": True,
    }


def test_scaling_check_golden(tmp_path):
    code, blob = run_to_file(
        ["scaling-check", "--tree", "path:3", "--r", "1/2", "--p", "1/3", "--k", "2"],
        tmp_path,
    )
    assert code == 0
    assert blob == (GOLDEN / "scaling_check.json").read_bytes()
    payload = json.loads(blob)
    assert payload["passed"] is True
    assert payload["aggregated_p"] == "5/9"


def test_stdout_matches_file_artifact(tmp_path, capsys):
    assert main(["thresholds", "--n", "3..8"]) == 0
    streamed = capsys.readouterr().out.encode()
    assert streamed == (GOLDEN / "thresholds.csv").read_bytes()


# ---------------------------------------------------------------------------
# exact parsing


def test_command_line_rationals_are_exact():
    assert as_fraction("0.45") == Fraction(9, 20)
    assert as_fraction("9/20") == Fraction(9, 20)
    assert as_fraction(" 1 ") == 1
    with pytest.raises(DomainError):
        as_fraction("almost 1/2")
    with pytest.raises(DomainError):
        as_fraction("1/0")


def test_parse_grid_exact_stepping():
    # the stop value is hit exactly and included
    assert list(parse_grid("0.1:0.9:0.2")) == [
        Fraction(1, 10),
        Fraction(3, 10),
        Fraction(1, 2),
        Fraction(7, 10),
        Fraction(9, 10),
    ]
    # stepping that never lands on the stop simply stops short of it
    assert list(parse_grid("1/10:1/2:3/10")) == [Fraction(1, 10), Fraction(2, 5)]
    assert list(parse_grid("1/4,3/4")) == [Fraction(1, 4), Fraction(3, 4)]
    assert list(parse_grid("1/2")) == [Fraction(1, 2)]
    with pytest.raises(DomainError):
        parse_grid("1:2")
    with pytest.raises(DomainError):
        parse_grid("0:1:0")
    with pytest.raises(DomainError):
        parse_grid("3/4:1/4:1/4")


def test_parse_index_range():
    assert list(parse_index_range("3..8")) == [3, 4, 5, 6, 7, 8]
    assert parse_index_range("4,6,3") == [4, 6, 3]
    assert parse_index_range("5") == [5]
    with pytest.raises(DomainError):
        parse_index_range("8..3")
    with pytest.raises(DomainError):
        parse_index_range("three")


def test_parse_tree_generators_and_files(tmp_path):
    assert parse_tree("path:5").n == 5
    assert parse_tree("star:4").n == 5
    assert parse_tree("spider:3x2").n == 7
    assert parse_tree("octopus:4x2").n == 9

    stored = tmp_path / "tree.json"
    stored.write_text(tree_to_json(parse_tree("spider:3x2")))
    assert parse_tree(str(stored)).edges == parse_tree("spider:3x2").edges

    with pytest.raises(DomainError):
        parse_tree("spider:3")  # missing leg length
    with pytest.raises(DomainError):
        parse_tree("path:many")
    with pytest.raises(DomainError):
        parse_tree(str(tmp_path / "missing.json"))
    broken = tmp_path / "broken.json"
    broken.write_text('{"edges": [[0, 0]]}')
    assert main(["analyze", "--tree", str(broken), "--r", "1/2", "--p", "1/2"]) == 2


def test_parameter_vectors_and_params_file(tmp_path):
    args = ["analyze", "--tree", "path:3", "--out", str(tmp_path / "a")]
    assert main(args + ["--r", "1/2,1/3,1/4", "--p", "1/5,2/5"]) == 0
    payload = json.loads((tmp_path / "a").read_text())
    assert payload["r"] == ["1/2", "1/3", "1/4"]
    assert payload["p"] == ["1/5", "2/5"]

    # wrong vector lengths are usage errors
    assert main(["analyze", "--tree", "path:3", "--r", "1/2,1/3", "--p", "1/5"]) == 2
    assert main(["analyze", "--tree", "path:3", "--r", "1/2", "--p", "1/5,2/5,3/5"]) == 2

    params = tmp_path / "params.json"
    params.write_text('{"r": "0.5", "p": {"0-1": "1/5", "1-2": "2/5"}}')
    assert (
        main(
            ["analyze", "--tree", "path:3", "--params", str(params), "--out", str(tmp_path / "b")]
        )
        == 0
    )
    assert json.loads((tmp_path / "b").read_text())["p"] == ["1/5", "2/5"]


# ---------------------------------------------------------------------------
# exit statuses


def test_usage_errors_exit_2(capsys):
    # missing parameters
    assert main(["analyze", "--tree", "path:3"]) == 2
    # out-of-range parameter
    assert main(["analyze", "--tree", "path:3", "--r", "1/2", "--p", "3/2"]) == 2
    # verdict size cap
    assert main(["analyze", "--tree", "path:21", "--r", "1/2", "--p", "1/2"]) == 2
    # jet cap
    assert (
        main(
            [
                "deriv-check",
                "--tree",
                "path:3",
                "--set",
                "0,1",
                "--at",
                "p0",
                "--r",
                "1/2",
                "--multiset",
                "0-1,0-1,0-1,0-1,0-1,0-1,0-1",
            ]
        )
        == 2
    )
    # verify cannot sample a non-representable chain
    assert main(["verify", "--tree", "octopus:3x2", "--r", "9/20", "--p", "19/20"]) == 2
    # scaling-check size cap, refused before the subdivided tree is built
    argv = ["scaling-check", "--tree", "path:3", "--r", "1/2", "--p", "1/3", "--k", "300000"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "treerep:" in err


_NO_FILE = "[Errno 2] No such file or directory: 'missing.json'"
_SCAN = ["scan", "--tree", "path:3", "--p-grid", "1/2", "--r-grid"]
_VERIFY = ["verify", "--tree", "path:2", "--r", "1/2", "--p", "1/2"]

TEXT_REFUSALS = [
    (["analyze", "--tree", "path:3", "--r", "x", "--p", "1/2"], "not an exact rational: 'x'"),
    (["analyze", "--tree", "path:3", "--r", "1/2", "--p", "1/0"], "not an exact rational: '1/0'"),
    (_SCAN + ["nan"], "not an exact rational: 'nan'"),
    (_SCAN + ["1:2"], "grid syntax is start:stop:step, got '1:2'"),
    (_SCAN + ["0:1:0"], "grid step must be positive"),
    (_SCAN + ["3/4:1/4:1/4"], "grid stop lies before start"),
    (["thresholds", "--n", "8..3"], "empty range '8..3'"),
    (["thresholds", "--n", "three"], "not an integer range: 'three'"),
    (["analyze", "--tree", "spider:3", "--r", "1/2", "--p", "1/2"],
     "tree 'spider:3' needs 2 integer size(s), e.g. spider:3x2"),
    (["analyze", "--tree", "missing.json", "--r", "1/2", "--p", "1/2"],
     "cannot read tree file 'missing.json': " + _NO_FILE),
    (["analyze", "--tree", "path:2", "--params", "missing.json"],
     "cannot read params file 'missing.json': " + _NO_FILE),
    (["analyze", "--tree", "path:3", "--r", "1/2,1/3", "--p", "1/2"],
     "--r takes one value or 3 comma-separated values, got 2"),
    (["analyze", "--tree", "path:3", "--r", "1/2"], "give --params FILE, or both --r and --p"),
    (_VERIFY + ["--draws", "0"], "--draws must be positive"),
    (_VERIFY + ["--seed", "-1"],
     "--seed must lie in [0, 2^64 - 3]: the samplers use seeds seed to seed + 2"),
    (_VERIFY + ["--alpha", "1_0/"], "not an exact rational: '1_0/'"),
    # the range is never listed, so a huge bound reaches the index refusal
    (["thresholds", "--n", "3..1000000000000000"], "complementary Bell index must be in 0..64"),
    (_VERIFY + ["--alpha", "1e400"], "alpha must lie in (0, 1)"),
    (_VERIFY + ["--tolerance", "1e400"], "tolerance must be >= 0 and fit in a float, got 1e400"),
    (_VERIFY + ["--seed", str(2**64 - 2)],
     "--seed must lie in [0, 2^64 - 3]: the samplers use seeds seed to seed + 2"),
    (["deriv-check", "--tree", "path:3", "--set", "0,1", "--at", "p0", "--multiset", "1-2"],
     "--at p0 needs --r (vertex laws)"),
    (["deriv-check", "--tree", "path:3", "--set", "0,1", "--at", "r1", "--multiset", "0"],
     "--at r1 needs --p (edge parameters)"),
    # k = 1 subdivides nothing, yet checks its tree and laws as any k does
    (["scaling-check", "--tree", "path:3", "--r", "2", "--p", "1/3", "--k", "1"],
     "r values must lie in [0, 1]"),
    (["scaling-check", "--tree", "path:3", "--r", "0", "--p", "1/3", "--k", "1"],
     "fresh-draw probabilities must be > 0: zero-probability events have no finite log"),
    (["scaling-check", "--tree", "path:3", "--r", "1/2", "--p", "3/2", "--k", "1"],
     "p values must lie in [0, 1]"),
    (["scaling-check", "--tree", "path:20", "--r", "1/2", "--p", "1/3", "--k", "1"],
     "full measures are capped at 16 vertices"),
]


@pytest.mark.parametrize("argv, message", TEXT_REFUSALS)
def test_text_refusals_exit_2_with_one_stderr_line(monkeypatch, tmp_path, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "artifact"]) == 2
    assert capsys.readouterr() == ("", "treerep: %s\n" % message)
    assert not (tmp_path / "artifact").exists()


def test_thresholds_refuses_a_bad_index_before_building_any_row(monkeypatch, tmp_path, capsys):
    real = thresholds.complementary_bell
    calls = []

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(thresholds, "complementary_bell", counted)
    for spec in ["3..1000000000000000", "3,4,70"]:
        assert main(["thresholds", "--n", spec, "--out", str(tmp_path / "table.csv")]) == 2
        assert capsys.readouterr().err == "treerep: complementary Bell index must be in 0..64\n"
        assert calls == [], spec
    assert main(["thresholds", "--n", "3..4", "--out", str(tmp_path / "table.csv")]) == 0
    assert calls  # the counter sees the rows that are built


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--r", "1", "--draws", "200000"],
         "every draw of both samples is the pattern with ones on VertexSet({}): "
         "a chi-square comparison needs two observed patterns"),
        (["--r", "1/2", "--draws", "2000", "--tolerance", "-1"], "tolerance must be >= 0, got -1.0"),
    ],
)
def test_verify_checks_that_cannot_pass_exit_2(tmp_path, capsys, extra, message):
    out = tmp_path / "verify.json"
    argv = ["verify", "--tree", "path:3", "--p", "1/2", "--out", str(out)]
    assert main(argv + extra) == 2
    assert capsys.readouterr().err == "treerep: %s\n" % message
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--alpha", "0"], "alpha must lie in (0, 1)"),
        (["--alpha", "1"], "alpha must lie in (0, 1)"),
        (["--tolerance", "-1"], "tolerance must be >= 0, got -1.0"),
        # inside (0, 1) exactly, but 0.0 and 1.0 as the float the chi-square reads
        (["--alpha", "1e-400"], "alpha must lie in (0, 1)"),
        (["--alpha", "0.99999999999999999999"], "alpha must lie in (0, 1)"),
    ],
)
def test_verify_refuses_its_alpha_and_tolerance_before_any_work(
    monkeypatch, tmp_path, capsys, extra, message
):
    import treerep.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("verify did work before checking its arguments")

    for name in ("field_from_chain", "sample_percolation_many", "sample_recursive_many",
                 "sample_poisson_field_many"):
        monkeypatch.setattr(cli, name, never)
    out = tmp_path / "verify.json"
    argv = ["verify", "--tree", "path:3", "--r", "1/2", "--p", "1/2", "--out", str(out)]
    assert main(argv + extra) == 2
    assert capsys.readouterr().err == "treerep: %s\n" % message
    assert not out.exists()


def test_broken_kernel_invariant_escapes_instead_of_exit_2(monkeypatch, tmp_path):
    import treerep.signed_measure as signed_measure

    events = signed_measure.connected_log_events
    monkeypatch.setattr(
        signed_measure,
        "connected_log_events",
        lambda tree, subset: events(tree, subset) + [(1, 0)],
    )
    args = ["analyze", "--tree", "octopus:3x2", "--r", "9/20", "--p", "19/20"]
    with pytest.raises(AssertionError, match="split evenly"):
        main(args + ["--out", str(tmp_path / "analyze.json")])


def test_plain_value_error_in_the_sweep_escapes(monkeypatch):
    import treerep.representability as representability

    def broken(tree, weights, masks):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(representability, "prob_all_zero_many", broken)
    with pytest.raises(ValueError, match="broadcast"):
        main(["analyze", "--tree", "octopus:3x2", "--r", "9/20", "--p", "19/20"])


@pytest.mark.parametrize(
    "attr, argv",
    [
        ("field_from_chain", ["verify", "--tree", "path:3", "--r", "1/2", "--p", "1/2"]),
        ("threshold_table", ["thresholds", "--n", "3..5"]),
    ],
)
def test_plain_value_error_in_verify_or_thresholds_escapes(monkeypatch, attr, argv):
    import treerep.cli as cli

    def broken(*args):
        raise ValueError("an internal bug")

    monkeypatch.setattr(cli, attr, broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(argv)


@pytest.mark.parametrize(
    "r_spec",
    [{"0": "1/2", "1": "1/2", "9": "1/2"}, {"0": "1/2", "-1": "1/3"}],
)
def test_params_file_with_a_vertex_key_outside_the_tree_exits_2(tmp_path, capsys, r_spec):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"r": r_spec, "p": "1/2"}))
    assert main(["analyze", "--tree", "path:2", "--params", str(params)]) == 2
    assert "no vertex" in capsys.readouterr().err


def test_plain_value_error_from_a_tree_builder_escapes(monkeypatch):
    import treerep.cli as cli

    def broken(n):
        raise ValueError("an internal bug")

    monkeypatch.setitem(cli._GENERATORS, "path", (broken, 1, "path:5"))
    with pytest.raises(ValueError, match="internal bug"):
        main(["analyze", "--tree", "path:3", "--r", "1/2", "--p", "1/2"])


def test_plain_value_error_from_make_params_escapes(monkeypatch):
    import treerep.cli as cli

    def broken(tree, r_spec, p_spec):
        raise ValueError("an internal bug")

    monkeypatch.setattr(cli, "make_params", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["analyze", "--tree", "path:3", "--r", "1/2", "--p", "1/2"])


MALFORMED_TREES = [
    "not json",
    "[[0, 1]]",
    "{}",
    '{"edges": [[0, 1, 2]]}',
    '{"edges": [["a", "b"]]}',
    '{"edges": [[0, 1]], "n": "x"}',
    '{"edges": [[0, 1]], "root": "x"}',
]


@pytest.mark.parametrize("text", MALFORMED_TREES)
def test_malformed_tree_file_exits_2(tmp_path, capsys, text):
    tree = tmp_path / "tree.json"
    tree.write_text(text)
    assert main(["analyze", "--tree", str(tree), "--r", "1/2", "--p", "1/2"]) == 2
    assert "treerep: tree JSON" in capsys.readouterr().err


def test_input_files_that_are_not_utf8_exit_2(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    assert main(["analyze", "--tree", str(binary), "--r", "1/2", "--p", "1/2"]) == 2
    assert main(["analyze", "--tree", "path:2", "--params", str(binary)]) == 2
    err = capsys.readouterr().err
    assert "cannot read tree file" in err and "cannot read params file" in err


MALFORMED_PARAMS = [
    ("not json", "params JSON"),
    ('"1/2"', "params JSON"),
    ('{"r": "1/2"}', "params JSON"),
    ('{"p": "1/2"}', "params JSON"),
    ('{"r": "x", "p": "1/2"}', "not an exact rational"),
    ('{"r": "1/0", "p": "1/2"}', "not an exact rational"),
    ('{"r": true, "p": {"0-1": false}}', "not an exact rational: True"),
    ('{"r": {"0": "1/2", "1": true}, "p": "1/2"}', "not an exact rational: True"),
    ('{"r": {"1": "1/2", "01": "1/3", "0": "1/2"}, "p": "1/2"}', "vertex 1 is named twice"),
    ('{"r": "1/2", "p": {"0-1": "1/3", "1-0": "1/5"}}', "edge 0-1 is named twice"),
]


@pytest.mark.parametrize("text, message", MALFORMED_PARAMS)
def test_malformed_params_file_exits_2(tmp_path, capsys, text, message):
    params = tmp_path / "params.json"
    params.write_text(text)
    assert main(["analyze", "--tree", "path:2", "--params", str(params)]) == 2
    assert "treerep: " + message in capsys.readouterr().err


def test_key_error_under_the_params_file_parser_escapes(monkeypatch, tmp_path):
    import treerep.chain_model as chain_model

    def broken(tree, r_spec, p_spec):
        raise KeyError("an internal bug")

    monkeypatch.setattr(chain_model, "make_params", broken)
    params = tmp_path / "params.json"
    params.write_text('{"r": "1/2", "p": "1/2"}')
    with pytest.raises(KeyError, match="internal bug"):
        main(["analyze", "--tree", "path:2", "--params", str(params)])


def test_key_error_under_the_tree_file_parser_escapes(monkeypatch, tmp_path):
    import treerep.tree_core as tree_core

    def broken(edges, root=0):
        raise KeyError("an internal bug")

    monkeypatch.setattr(tree_core, "build_tree", broken)
    tree = tmp_path / "tree.json"
    tree.write_text('{"edges": [[0, 1]]}')
    with pytest.raises(KeyError, match="internal bug"):
        main(["analyze", "--tree", str(tree), "--r", "1/2", "--p", "1/2"])


def test_multiset_naming_a_non_edge_exits_2(capsys):
    argv = ["deriv-check", "--tree", "path:3", "--set", "0,1", "--at", "p0", "--r", "1/2"]
    assert main(argv + ["--multiset", "0-2"]) == 2
    assert "no edge 0-2" in capsys.readouterr().err
    for text in ("a-b", "0-1-2", "0-"):
        assert main(argv + ["--multiset", text]) == 2
        assert "treerep: not an edge u-v: %r" % text in capsys.readouterr().err
    r1 = ["deriv-check", "--tree", "path:3", "--set", "0,1", "--at", "r1", "--p", "1/2"]
    for text, message in (("x", "not a vertex list"), ("7", "vertex 7 outside the tree")):
        assert main(r1 + ["--multiset", text]) == 2
        assert "treerep: " + message in capsys.readouterr().err


def test_value_error_under_the_multiset_parser_escapes(monkeypatch):
    from treerep.param_calculus import EdgeMultiset

    def broken(cls, text):
        raise ValueError("an internal bug")

    monkeypatch.setattr(EdgeMultiset, "from_string", classmethod(broken))
    argv = ["deriv-check", "--tree", "path:3", "--set", "0,1", "--at", "p0", "--r", "1/2"]
    with pytest.raises(ValueError, match="internal bug"):
        main(argv + ["--multiset", "0-1"])


def test_verify_is_bounded_by_the_lattice_cap(monkeypatch, capsys, tmp_path):
    import treerep.cli as cli

    def never(*args):
        raise AssertionError("a sampler, table or set enumeration ran above the lattice cap")

    with monkeypatch.context() as patch:
        for name in ("sample_percolation_many", "sample_recursive_many",
                     "sample_poisson_field_many"):
            patch.setattr(cli, name, never)
        patch.setattr(signed_measure, "prob_all_zero_table", never)
        patch.setattr(signed_measure, "connected_subsets", never)
        assert main(["verify", "--tree", "path:17", "--r", "1/2", "--p", "1/2"]) == 2
    assert capsys.readouterr() == ("", "treerep: full measures are capped at 16 vertices\n")
    argv = ["verify", "--tree", "path:13", "--r", "1/2", "--p", "1/2", "--draws", "20000"]
    code, blob = run_to_file(argv, tmp_path)
    assert code == 0 and json.loads(blob)["passed"] is True


def test_verify_seed_range(monkeypatch, capsys, tmp_path):
    import treerep.cli as cli

    # the samplers use seeds seed to seed + 2, so 2^64 - 3 is the largest that runs
    argv = ["verify", "--tree", "path:2", "--r", "1/2", "--p", "1/2", "--draws", "2000"]
    code, blob = run_to_file(argv + ["--seed", str(2**64 - 3)], tmp_path)
    assert code == 0 and json.loads(blob)["seed"] == 2**64 - 3

    def no_work(*args):
        raise AssertionError("the seed must be checked before the field and any sampling")

    monkeypatch.setattr(cli, "field_from_chain", no_work)
    monkeypatch.setattr(cli, "sample_percolation_many", no_work)
    for seed in (-1, -(2**64), 2**64 - 2, 18446744073709551614, 2**64, 2**70):
        assert main(argv + ["--seed", str(seed)]) == 2
        assert "--seed must lie in [0, 2^64 - 3]" in capsys.readouterr().err


def test_verify_builds_the_lattice_once(monkeypatch, tmp_path):
    import treerep.cli as cli
    import treerep.mc_verify as mc_verify

    calls = []
    real = mc_verify.nu_full

    def counted(tree, params):
        calls.append(tree.n)
        return real(tree, params)

    monkeypatch.setattr(mc_verify, "nu_full", counted)
    # each sampler runs once per op, at its own seed
    seeds = {}
    for name in ("sample_percolation_many", "sample_recursive_many", "sample_poisson_field_many"):
        def sampler(*args, name=name, real=getattr(cli, name)):
            seeds.setdefault(name, []).append(args[-1])
            return real(*args)

        monkeypatch.setattr(cli, name, sampler)
    code, blob = run_to_file(
        ["verify", "--tree", "path:4", "--r", "1/2", "--p", "1/2", "--draws", "20000"],
        tmp_path,
    )
    assert code == 0
    assert blob == (GOLDEN / "verify.json").read_bytes()
    assert calls == [4]
    assert seeds == {
        "sample_percolation_many": [0],
        "sample_recursive_many": [1],
        "sample_poisson_field_many": [2],
    }


def test_treerep_runs_without_scipy(tmp_path):
    out = tmp_path / "verify.json"
    script = textwrap.dedent(
        """
        import sys

        from treerep import cli

        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded
        sys.modules["scipy"] = None  # any later scipy import fails
        sys.exit(cli.main(["verify", "--tree", "path:4", "--r", "1/2", "--p", "1/2",
                           "--draws", "20000", "--out", sys.argv[1]]))
        """
    )
    src = str(pathlib.Path(treerep.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(out.read_bytes())["passed"] is True
    assert out.read_bytes() == (GOLDEN / "verify.json").read_bytes()


def test_unknown_flags_and_commands_are_rejected():
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--tree", "path:3", "--r", "1/2", "--p", "1/2", "--frobnicate"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["summon"])
    assert info.value.code == 2
    assert run(RunConfig(command="summon")) == 2


_SCAN_FULL = ["scan", "--tree", "path:3", "--r-grid", "1/2", "--p-grid", "1/2"]
_DERIV = ["deriv-check", "--tree", "path:3", "--set", "0,1", "--at", "p0", "--r", "1/2",
          "--multiset", "0-1"]
_SCALING = ["scaling-check", "--tree", "path:3", "--r", "1/2", "--p", "1/3", "--k", "2"]


def _without(argv, flag):
    """``argv`` with ``flag`` and its value left out."""
    i = argv.index(flag)
    return argv[:i] + argv[i + 2 :]


REQUIRED_FLAGS = [
    _without(_SCAN_FULL, "--r-grid"),
    _without(_SCAN_FULL, "--p-grid"),
    ["thresholds"],
    _without(_DERIV, "--set"),
    _without(_DERIV, "--multiset"),
    _without(_DERIV, "--at"),
    _without(_DERIV, "--at") + ["--at", "p2"],
    _without(_SCALING, "--r"),
    _without(_SCALING, "--p"),
    _without(_SCALING, "--k"),
]


@pytest.mark.parametrize("argv", REQUIRED_FLAGS)
def test_argparse_refuses_a_missing_required_flag(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "treerep" in capsys.readouterr().err


def test_deriv_check_refuses_ids_outside_the_tree_before_building_the_set(capsys):
    argv = _without(_DERIV, "--set") + ["--set", "0,1000000000"]
    tracemalloc.start()
    try:
        status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 2
    assert capsys.readouterr() == ("", "treerep: subset contains ids outside the tree\n")
    assert peak < 4 << 20  # 1 << 10^9 alone would take 125 MB


def test_scan_refuses_a_stepped_grid_at_its_first_value(capsys):
    argv = ["scan", "--tree", "path:2", "--r-grid", "0:1:1/1000000", "--p-grid", "1/2"]
    tracemalloc.start()
    try:
        status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 2
    assert capsys.readouterr() == ("", "treerep: scan grids must lie strictly inside (0, 1)\n")
    assert peak < 1 << 20  # the listed grid of 10^6 + 1 Fractions alone took over 100 MB


def test_scan_refuses_a_bad_p_grid_before_reading_a_long_r_grid(capsys):
    argv = ["scan", "--tree", "path:2", "--r-grid", "1/1000000:1/2:1/1000000", "--p-grid", "0"]
    tracemalloc.start()
    try:
        status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 2
    assert capsys.readouterr() == ("", "treerep: scan grids must lie strictly inside (0, 1)\n")
    assert peak < 1 << 20  # the r grid's 500,000 Fractions, read first, took over 100 MB


@pytest.mark.parametrize(
    "tree, k", [("star:7", "2"), ("star:5", "3"), ("path:2", "15"), ("spider:5x3", "1")]
)
def test_scaling_check_runs_up_to_the_lattice_cap(tmp_path, tree, k):
    argv = ["scaling-check", "--tree", tree, "--r", "1/2", "--p", "1/3", "--k", k]
    code, blob = run_to_file(argv, tmp_path)  # 15, 16, 16 and 16 vertices after splitting
    assert code == 0
    assert json.loads(blob)["passed"] is True


@pytest.mark.parametrize("k", ["8", "11"])  # 17 and 23 vertices after splitting
def test_scaling_check_above_the_lattice_cap_builds_no_table(monkeypatch, capsys, k):
    def no_table(tree, weights):
        raise AssertionError("a lattice table was built")

    def no_sets(tree):
        raise AssertionError("connected sets were enumerated")

    monkeypatch.setattr(chain_model, "prob_all_zero_table", no_table)
    monkeypatch.setattr(signed_measure, "prob_all_zero_table", no_table)
    monkeypatch.setattr(signed_measure, "connected_subsets", no_sets)
    assert main(_without(_SCALING, "--k") + ["--k", k]) == 2
    assert capsys.readouterr() == ("", "treerep: full measures are capped at 16 vertices\n")


_NO_LOG = "fresh-draw probabilities must be > 0: zero-probability events have no finite log"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--tree", "path:3", "--r", "0", "--p", "1/2"],
        _without(_DERIV, "--r") + ["--r", "0"],
    ],
)
def test_a_vertex_law_of_zero_exits_2_with_the_one_refusal(tmp_path, capsys, argv):
    out = tmp_path / "artifact"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "treerep: %s\n" % _NO_LOG)
    assert not out.exists()


def test_main_builds_one_parser_and_keeps_no_state_between_calls(monkeypatch, tmp_path):
    import treerep.cli as cli

    builds = []
    real = cli.build_parser

    def counted():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    analyze = ["analyze", "--tree", "octopus:3x2", "--r", "9/20", "--p", "19/20"]
    scan = ["scan", "--tree", "octopus:3x2", "--r-grid", "9/20:11/20:1/10", "--p-grid", "19/20"]
    scan += ["--threads", "2"]  # accepted and ignored, as in the benchmark's scan deck
    assert run_to_file(analyze, tmp_path) == (0, (GOLDEN / "analyze.json").read_bytes())
    assert run_to_file(scan, tmp_path) == (0, (GOLDEN / "scan.csv").read_bytes())
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--r", "9/20", "--p", "19/20"])  # no --tree
    assert info.value.code == 2
    thresholds = ["thresholds", "--n", "3..8"]
    assert run_to_file(thresholds, tmp_path) == (0, (GOLDEN / "thresholds.csv").read_bytes())
    # a value left over from an earlier call would change the config digest
    assert run_to_file(analyze, tmp_path) == (0, (GOLDEN / "analyze.json").read_bytes())
    assert len(builds) == 1


def test_verify_defaults_come_from_run_config(tmp_path):
    code, blob = run_to_file(["verify", "--tree", "path:2", "--r", "1/2", "--p", "1/2"], tmp_path)
    out = tmp_path / "direct"
    config = RunConfig(command="verify", tree="path:2", r="1/2", p="1/2", out=str(out))
    assert code == run(config) == 0
    assert blob == out.read_bytes()
    payload = json.loads(blob)
    assert (payload["draws"], payload["seed"]) == (RunConfig.draws, RunConfig.seed)


def test_build_parser_returns_a_fresh_parser():
    from treerep.cli import build_parser

    assert build_parser() is not build_parser()


def test_deriv_check_closed_form_wiring(tmp_path):
    code, blob = run_to_file(
        [
            "deriv-check",
            "--tree",
            "spider:3x2",
            "--set",
            "0,1,3,5",
            "--at",
            "p0",
            "--r",
            "1/2",
            "--multiset",
            "1-2,3-4,5-6",
        ],
        tmp_path,
    )
    assert code == 0
    payload = json.loads(blob)
    assert payload["derivative"] == "1/8"
    assert payload["closed_form"] == "1/8"
    assert payload["matches"] is True

    code, blob = run_to_file(
        [
            "deriv-check",
            "--tree",
            "spider:3x2",
            "--set",
            "0,1,3,5",
            "--at",
            "p1",
            "--r",
            "1/3",
            "--multiset",
            "0-1,0-3,0-5",
        ],
        tmp_path,
    )
    assert code == 0
    payload = json.loads(blob)
    assert payload["derivative"] == "2"
    assert payload["closed_form"] == "2"
    assert payload["matches"] is True

    # a non-distinguished multiset reports the plain jet value, no form
    code, blob = run_to_file(
        [
            "deriv-check",
            "--tree",
            "spider:3x2",
            "--set",
            "0,1,3,5",
            "--at",
            "p0",
            "--r",
            "1/2",
            "--multiset",
            "0-1,0-3,0-5",
        ],
        tmp_path,
    )
    assert code == 0
    payload = json.loads(blob)
    assert payload["derivative"] == "0"
    assert payload["closed_form"] is None
    assert payload["matches"] is None


def test_deriv_check_closed_form_reads_the_tree_not_its_spelling(tmp_path):
    # octopus(3, 2) six ways: the r1 closed form follows the tree itself
    tree_file = tmp_path / "octopus.json"
    tree_file.write_text(tree_to_json(treerep.octopus(3, 2)))
    specs = ["octopus:3x2", "octopus:3x02", "octopus:+3x2", "octopus:3x2 ", "spider:3x2",
             str(tree_file)]
    for spec in specs:
        code, blob = run_to_file(
            ["deriv-check", "--tree", spec, "--set", "0,1,3,5", "--at", "r1", "--p", "1/2",
             "--multiset", "0"],
            tmp_path,
        )
        payload = json.loads(blob)
        assert code == 0, spec
        assert (payload["derivative"], payload["closed_form"]) == ("-1/64", "-1/64"), spec
        assert payload["matches"] is True, spec


@pytest.mark.parametrize(
    "at, multiset",
    [("p0", "1-2,3-4,5-6"), ("p1", "0-1,0-3,0-5")],
)
def test_deriv_check_at_r_one_reports_no_closed_form(tmp_path, at, multiset):
    # the closed forms hold for 0 < r < 1; at r = 1 the partial is still reported
    argv = ["deriv-check", "--tree", "spider:3x2", "--set", "0,1,3,5", "--at", at, "--r", "1",
            "--multiset", multiset]
    code, blob = run_to_file(argv, tmp_path)
    payload = json.loads(blob)
    assert code == 0
    assert (payload["derivative"], payload["closed_form"], payload["matches"]) == ("0", None, None)


def test_config_digest_scope():
    base = RunConfig(command="scan", tree="path:3", r_grid="1/4", p_grid="1/2")
    assert config_digest(base) == config_digest(
        RunConfig(command="scan", tree="path:3", r_grid="1/4", p_grid="1/2", out="x")
    )
    assert config_digest(base) != config_digest(
        RunConfig(command="scan", tree="path:3", r_grid="1/4", p_grid="3/4")
    )
    assert config_digest(base) != config_digest(
        RunConfig(command="scan", tree="path:4", r_grid="1/4", p_grid="1/2")
    )


def test_pyproject_version_is_the_package_version():
    import re

    import treerep

    text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert match.group(1) == treerep.__version__
