"""Command-line surface: every documented example, byte-for-byte."""

import argparse
import json

import pytest

from genpi import codim
from genpi.cli import cmd_codim, main
from genpi.errors import InternalError

# (argv, expected stdout, expected exit code): the documented examples
GOLDEN = [
    (["codim", "compute", "ut2full", "-n", "3"], "22\n", 0),
    (
        ["multiplier", "compute", "zero_mult:2"],
        "dim M(A): 8\n"
        "canonical map injective: False\n"
        "canonical map surjective: False\n"
        "permutability: False (witness basis pair (4, 1))\n"
        "inner ideal: True\n",
        0,
    ),
    (
        ["codim", "contains", "ut2F", "ut2D", "-n", "3"],
        "identities of ut2F hold in ut2D up to degree 3: False\n"
        "a multilinear identity of the first action fails in the second\n",
        1,
    ),
    (
        ["codim", "contains", "ut2full", "ut2D", "-n", "3"],
        "identities of ut2full hold in ut2D up to degree 3: True\n",
        0,
    ),
    (
        ["structure", "wm", "block_ut:1,2"],
        "radical dimension: 2\n"
        "semisimple complement dimension: 5\n"
        "block dimensions: [1, 4]\n",
        0,
    ),
    (["structure", "exponent", "ut:3"], "exponent: 3\n", 0),
    (["structure", "radical", "ut:2"], "radical dimension: 1\n", 0),
    (
        ["action", "ss-part", "ut2C"],
        "image dimension: 2 -> 1\n"
        "image radical inside inner radical pairs: True\n",
        0,
    ),
    (
        ["action", "validate", "ut2D"],
        "valid action: coefficient dim 2 on algebra dim 3\n"
        "kernel tail: True\n",
        0,
    ),
    (
        ["action", "semidirect", "ut2D"],
        "semidirect product dimension: 5\n"
        "unital: True\n"
        "labels: W.1 W.e22 A.e11 A.e22 A.e12\n",
        0,
    ),
    (
        ["codim", "kernel", "ut2D", "-n", "1", "--print-identities"],
        "kernel dimension: 1\n"
        "e22*x1 - e22*x1*e22\n",
        0,
    ),
    (["codim", "grassmann", "-k", "2", "-n", "1"], "7\n", 0),
    (["codim", "grassmann", "-k", "0", "-n", "4"], "8\n", 0),
    (["poly", "check", "ut2D", "[x1,x2]-[x1,x2,w1]"], "identity: True\n", 0),
    (
        ["poly", "check", "ut2full", "[x1,x2]"],
        "identity: False\nwitness: x1 = e11, x2 = e12\n",
        1,
    ),
    (
        ["poly", "check", "grassmann_full(4)", "[x1,x2]*[x3,x4]"],
        "identity: False\nwitness: x1 = e1, x2 = e2, x3 = e3, x4 = e4\n",
        1,
    ),
    (
        ["codim", "growth", "ut2F", "--to", "4"],
        "degree codimension root\n"
        "1 1 1.0000\n"
        "2 2 1.4142\n"
        "3 6 1.8171\n"
        "4 18 2.0598\n"
        "block-linking exponent: 2\n",
        0,
    ),
    (
        ["codim", "verify-gens", "ut2D", "preset", "-n", "3"],
        "generates all identities at degree 3: True\n",
        0,
    ),
    (
        ["algebra", "info", "ut:2"],
        "dim: 3\n"
        "labels: e11 e22 e12\n"
        "unital: True\n"
        "nonzero structure constants: 4\n"
        "non_degenerate: True\n"
        "idempotent: True\n",
        0,
    ),
    (["algebra", "validate", "grassmann_unital:3"],
     "valid: dim 8, associativity and unit axioms hold\n", 0),
    (
        ["multiplier", "compute", "ut:2", "--verbose"],
        "dim M(A): 3\n"
        "canonical map injective: True\n"
        "canonical map surjective: True\n"
        "permutability: True\n"
        "inner ideal: True\n"
        "pair 0: R=[['1', '0', '0'], ['0', '0', '0'], ['0', '0', '0']] L=[['1', '0', '0'], ['0', '0', '0'], ['0', '0', '1']]\n"
        "pair 1: R=[['0', '0', '0'], ['0', '1', '0'], ['0', '0', '1']] L=[['0', '0', '0'], ['0', '1', '0'], ['0', '0', '0']]\n"
        "pair 2: R=[['0', '0', '0'], ['0', '0', '0'], ['1', '0', '0']] L=[['0', '0', '0'], ['0', '0', '0'], ['0', '1', '0']]\n",
        0,
    ),
    (
        ["--json", "multiplier", "compute", "zero_mult:2"],
        '{"algebra": "zero_mult:2", "dim": 8, "injective": false, "surjective": false, "permutability": false, '
        '"permutability_witness": [4, 1], "inner_ideal": true, "pairs": ['
        '{"R": [["1", "0"], ["0", "0"]], "L": [["0", "0"], ["0", "0"]]}, '
        '{"R": [["0", "1"], ["0", "0"]], "L": [["0", "0"], ["0", "0"]]}, '
        '{"R": [["0", "0"], ["1", "0"]], "L": [["0", "0"], ["0", "0"]]}, '
        '{"R": [["0", "0"], ["0", "1"]], "L": [["0", "0"], ["0", "0"]]}, '
        '{"R": [["0", "0"], ["0", "0"]], "L": [["1", "0"], ["0", "0"]]}, '
        '{"R": [["0", "0"], ["0", "0"]], "L": [["0", "1"], ["0", "0"]]}, '
        '{"R": [["0", "0"], ["0", "0"]], "L": [["0", "0"], ["1", "0"]]}, '
        '{"R": [["0", "0"], ["0", "0"]], "L": [["0", "0"], ["0", "1"]]}], "ok": true}\n',
        0,
    ),
    (
        ["structure", "wm", "block_ut:1,2", "--verbose"],
        "radical dimension: 2\n"
        "semisimple complement dimension: 5\n"
        "block dimensions: [1, 4]\n"
        "block 0:\n  e22\n  e33\n  e23\n  e32\n"
        "block 1:\n  e11\n",
        0,
    ),
    (
        ["action", "semidirect", "ut2full"],
        "semidirect product dimension: 6\n"
        "unital: True\n"
        "labels: W.1 W.e22 W.e12 A.e11 A.e22 A.e12\n",
        0,
    ),
]


@pytest.mark.parametrize("argv,expected,code", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_documented_examples(capsys, argv, expected, code):
    rc = main(argv)
    out = capsys.readouterr().out
    assert out == expected
    assert rc == code


def test_usage_error_exit_code(capsys):
    rc = main(["algebra", "info", "frobnicate"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["algebra", "info", "ut(2,3)"], ["algebra", "info", "ut(x)"], ["algebra", "info", "grassmann"],
    ["codim", "compute", "grassmann_Ek(1)", "-n", "1"],
])
def test_malformed_name_exit_code(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_generator_of_two_components_exit_code(tmp_path, capsys):
    p = tmp_path / "gens.txt"
    p.write_text("[x1,x2]*[x3,x4] + [x1,x2]*[x1,x2]\n")
    assert main(["codim", "verify-gens", "ut2F", str(p), "-n", "4"]) == 2
    assert "multilinear components" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["compute", "ut2D", "-n"], ["kernel", "ut2D", "-n"], ["verify-gens", "ut2D", "preset", "-n"],
    ["contains", "ut2F", "ut2D", "-n"], ["grassmann", "-k", "1", "-n"], ["growth", "ut2D", "--to"],
])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_degree_below_one_exit_code(capsys, argv, n):
    assert main(["codim", *argv, n]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_negative_generator_count_exit_code(capsys):
    assert main(["codim", "grassmann", "-k", "-1", "-n", "2"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_structure_constant_outside_the_basis_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"dim": 2, "labels": ["a", "b"], "unit": None, "sc": [[0, 0, 5, "1"]]}))
    assert main(["algebra", "validate", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("row, message", [
    ([0, 0, 0, "abc"], "not an exact rational: 'abc'"),
    ([0, 0, 0], "a structure constant is [i, j, k, value], not [0, 0, 0]"),
])
def test_malformed_structure_constant_exit_code(tmp_path, capsys, row, message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"dim": 1, "labels": ["a"], "sc": [row]}))
    assert main(["algebra", "validate", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["poly", "check", "ut2F", "-1*x2"], ["poly", "check", "ut2F", "--", "-1*x2"]])
def test_poly_text_may_start_with_a_minus(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().out == "identity: False\nwitness: x2 = e11\n"
    assert main(["--json", *argv]) == 1
    assert json.loads(capsys.readouterr().out)["poly"] == "-1*x2"


def test_missing_poly_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit:
        main(["poly", "check", "ut2F"])
    assert exit.value.code == 2
    assert "the following arguments are required: poly" in capsys.readouterr().err


def test_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("GENPI_MAX_ROWS", "10")
    rc = main(["codim", "compute", "ut2D", "-n", "3"])
    assert rc == 3
    assert "budget" in capsys.readouterr().err


def test_byte_cap_exit_names_the_bytes(capsys):
    # the class table of (1, 8), 8! orders x 2,304 classes x 24 bytes, is
    # over STREAM_BYTES: a byte refusal, not a row budget, and exit 3
    assert main(["codim", "grassmann", "-k", "1", "-n", "8"]) == 3
    err = capsys.readouterr().err
    assert err == (f"budget exceeded: 40320 x 2304 x 24 bytes = {40320 * 2304 * 24} bytes "
                   f"exceeds the byte cap STREAM_BYTES = {codim.STREAM_BYTES}\n")


def test_json_round_trip(capsys):
    rc = main(["--json", "codim", "compute", "ut2D", "-n", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"action": "ut2D", "n": 2, "codimension": 6, "ok": True}
    assert rc == 0
    rc = main(["--json", "structure", "wm", "ut:2"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["block_dims"] == [1, 1] and payload["radical_dim"] == 1


def test_json_growth_schema(capsys):
    main(["--json", "codim", "growth", "ut2F", "--to", "3"])
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) >= {"degrees", "codimensions", "ratios", "roots", "exponent"}
    assert payload["codimensions"] == [1, 2, 6]


def test_action_file_round_trip(tmp_path, capsys):
    from genpi.actions import preset_action

    p = tmp_path / "d.json"
    preset_action("ut2D").save(p)
    rc = main(["action", "validate", str(p)])
    out = capsys.readouterr().out
    assert rc == 0 and "valid action" in out


def test_polyfile_verify(tmp_path, capsys):
    p = tmp_path / "gens.txt"
    p.write_text("# generators\nw2*x1\nx1*w2\n[x1,x2]-[x1,x2,w1]\n")
    rc = main(["codim", "verify-gens", "ut2D", str(p), "-n", "2"])
    assert rc == 0
    assert "True" in capsys.readouterr().out


def test_json_grassmann_marks_the_proved_level(capsys):
    rc = main(["--json", "codim", "grassmann", "-k", "2", "-n", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0 and payload["codimension"] == 7
    assert payload["stop"] == {
        "rule": "parity classes: the rank is constant from level k + n on",
        "level": 3,
        "proved": True,
    }
    main(["codim", "grassmann", "-k", "2", "-n", "1"])
    assert capsys.readouterr().out == "7\n"


def test_poly_check_with_a_nonunital_coefficient_algebra(tmp_path, capsys):
    # W = zero_mult(1), without a unit, acts on ut(2) through the inner pair
    # of e12: x -> x e12 and x -> e12 x, columns the images of e11, e22, e12
    p = tmp_path / "nonunital.json"
    p.write_text(json.dumps({
        "algebra": "ut(2)", "W": "zero_mult(1)", "mode": "pairs",
        "pairs": [{"R": [[0, 0, 0], [0, 0, 0], [1, 0, 0]], "L": [[0, 0, 0], [0, 0, 0], [0, 1, 0]]}],
    }))
    assert main(["poly", "check", str(p), "x1*x2"]) == 1
    assert capsys.readouterr().out == "identity: False\nwitness: x1 = e11, x2 = e11\n"
    assert main(["poly", "check", str(p), "w0*w0*x1 + x1*w0*x2*w0"]) == 0
    assert capsys.readouterr().out == "identity: True\n"


def test_poly_check_budget_exit_code(capsys, monkeypatch):
    # one master row of ut2full at degree 2 is 3^3 int64 entries
    monkeypatch.setattr(codim, "STREAM_BYTES", 8 * 3 ** 3 - 1)
    assert main(["poly", "check", "ut2full", "[x1,x2]"]) == 3
    assert "budget" in capsys.readouterr().err


def test_unknown_codim_verb_is_an_internal_error():
    with pytest.raises(InternalError):
        cmd_codim(argparse.Namespace(verb="frobnicate"))
