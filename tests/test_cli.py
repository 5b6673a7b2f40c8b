import io
import json

import pytest

from osimplex import cli
from osimplex.cli import main
from osimplex.zdelta import parse_zmorphism

from conftest import random_oriental


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_member(capsys):
    code, out, _ = run(capsys, "check", "(0,1) - (1,1) + (1,2)", "--n", "2")
    assert code == 0
    assert out.strip() == "member of O(1,2)"


def test_check_identity(capsys):
    code, out, _ = run(capsys, "check", "(0,1,2,3)", "--n", "3")
    assert code == 0


def test_check_non_member_witness(capsys):
    code, out, _ = run(capsys, "check", "2*(0,1) - (1,1)", "--n", "2")
    assert code == 1
    assert "not a member" in out
    assert "witness f=(0):1" in out
    assert "(1):2" in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "2*(0,1) - (1,1)", "--n", "2", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["member"] is False
    assert data["witness"] == {"f": [0], "term": [1], "coefficient": -1}


def test_check_parse_error(capsys):
    code, _, err = run(capsys, "check", "(0,1", "--n", "2")
    assert code == 2
    assert "position" in err


def test_check_json_input(capsys):
    blob = json.dumps(
        {"m": 1, "n": 2, "terms": [{"map": [0, 1], "coef": 1}]}
    )
    code, out, _ = run(capsys, "check", blob)
    assert code == 0 and "member of O(1,2)" in out


def test_compose(capsys):
    code, out, _ = run(capsys, "compose", "(0,1) - (1,1) + (1,2)", "(0)", "--n", "2")
    assert code == 0
    assert out.strip() == "(0)"


def test_compose_arity_error(capsys):
    # JSON input carries its own shape, so a codomain mismatch is an arity
    # failure rather than a parse failure
    inner = json.dumps({"m": 2, "n": 2, "terms": [{"map": [0, 1, 2], "coef": 1}]})
    code, _, err = run(capsys, "compose", "(0,1)", inner, "--n", "2")
    assert code == 3
    # unparseable text in the inner slot is a parse error
    code, _, err = run(capsys, "compose", "(0,1)", "(0,1,2)", "--n", "2")
    assert code == 2


def test_factor_and_verify(capsys):
    code, out, _ = run(capsys, "factor", "(0,1) - (1,1) + (1,2)", "--n", "2", "--verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "P_0((0,1),(1,2))"
    assert "verified" in lines[1]


def test_factor_verify_exits_3_when_the_tree_misses_its_input(capsys, monkeypatch):
    # factorize does not evaluate its output; --verify does.  Flip the side
    # of the root's pasting, whose value is the input.
    from osimplex import oriental

    original = oriental._side
    x = parse_zmorphism("(0,1,2,3)", 3)

    def wrong(value, left, right):
        side = original(value, left, right)
        return (0 if side == 1 else 1) if value == x._terms else side

    monkeypatch.setattr(oriental, "_side", wrong)
    code, out, _ = run(capsys, "factor", "(0,1,2,3)", "--n", "3")
    assert code == 0 and out
    code, out, err = run(capsys, "factor", "(0,1,2,3)", "--n", "3", "--verify")
    assert code == 3
    assert out == ""
    assert err == "error: AssertionError: factorization failed to reproduce its input\n"


def test_factor_non_member(capsys):
    code, _, err = run(capsys, "factor", "2*(0,1) - (1,1)", "--n", "2")
    assert code == 3
    assert "precondition" in err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "F_0((0,1),(1,2))", "--n", "2")
    assert code == 0
    assert out.strip() == "(0,1,1) - (1,1,1) + (1,1,2)"


def test_eval_composite_map(capsys):
    # The printed form of eliminate_pastings(factorize(x)) reads back.
    code, out, _ = run(capsys, "eval", "C(F_0((0,1),(1,3)),(0,2))", "--n", "3")
    assert code == 0
    assert out.strip() == "(0,1) - (1,1) + (1,3)"


def test_eval_bad_expression(capsys):
    code, _, err = run(capsys, "eval", "P_0((0,1),(0,1))", "--n", "2")
    assert code == 3


def test_eval_json_input(capsys):
    blob = json.dumps(
        {
            "n": 2,
            "expr": {
                "op": "filler",
                "index": 0,
                "left": {"op": "map", "values": [0, 1]},
                "right": {"op": "map", "values": [1, 2]},
            },
        }
    )
    code, out, _ = run(capsys, "eval", blob)
    assert code == 0
    assert out.strip() == "(0,1,1) - (1,1,1) + (1,1,2)"


def test_factor_eval_pipeline(capsys, rng):
    for _ in range(20):
        x = random_oriental(rng, rng.randint(0, 2), rng.randint(0, 3), steps=4)
        code, out, _ = run(capsys, "factor", str(x), "--n", str(x.codomain))
        assert code == 0
        tree_text = out.strip().splitlines()[0]
        code, out, _ = run(capsys, "eval", tree_text, "--n", str(x.codomain))
        assert code == 0
        assert parse_zmorphism(out.strip(), x.codomain, x.domain) == x


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "3 cells"
    assert len(lines) == 4


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 8
    assert len(data["cells"]) == 8


def test_enumerate_resource_bound(capsys):
    code, _, err = run(capsys, "enumerate", "4")
    assert code == 4
    assert "bound" in err
    # explicit resource flag lifts the default cap
    code, out, _ = run(capsys, "enumerate", "4", "--max-cells", "200")
    assert code == 0
    # but still guards the output volume
    code, _, err = run(capsys, "enumerate", "4", "--max-cells", "10")
    assert code == 4


def test_atoms(capsys):
    code, out, _ = run(capsys, "atoms", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "<[0]> = ([0],[0])"
    assert lines[2] == "<[0,1]> = ([0],[1] | [0,1],[0,1])"


def test_verify_basis(capsys):
    code, out, _ = run(capsys, "verify-basis", "4")
    assert code == 0
    assert out.strip() == "unital: yes; strongly loop-free: yes"


def test_verify_basis_json(capsys):
    code, out, _ = run(capsys, "verify-basis", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"n": 3, "strongly_loop_free": True, "unital": True}


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("(0,1) - (1,1) + (1,2)"))
    code, out, _ = run(capsys, "check", "-", "--n", "2")
    assert code == 0


def test_file_input(capsys, tmp_path):
    path = tmp_path / "morphism.txt"
    path.write_text("(0,1,1) - (1,1,1) + (1,1,2)")
    code, out, _ = run(capsys, "check", f"@{path}", "--n", "2")
    assert code == 0
    assert "O(2,2)" in out


def test_emitted_morphisms_reparse(capsys, rng):
    for _ in range(20):
        x = random_oriental(rng, rng.randint(0, 3), rng.randint(0, 3), steps=4)
        code, out, _ = run(capsys, "compose", str(x), "(" + ",".join(str(i) for i in range(x.domain + 1)) + ")", "--n", str(x.codomain))
        assert code == 0
        assert parse_zmorphism(out.strip(), x.codomain, x.domain) == x


def _combination_json(coef=1, m=1, n=2, values=(0, 1)):
    return json.dumps({"m": m, "n": n, "terms": [{"map": list(values), "coef": coef}]})


def test_check_rejects_non_integer_json_fields(capsys):
    code, _, _ = run(capsys, "check", _combination_json())
    assert code == 0
    for blob in (
        _combination_json(coef=1.5),
        _combination_json(coef=True),
        _combination_json(coef="1"),
        _combination_json(m=1.0),
        _combination_json(n="2"),
        _combination_json(values=(0, True)),
    ):
        code, out, err = run(capsys, "check", blob)
        assert code == 2, blob
        assert out == ""
        assert "must be an integer" in err


def test_eval_rejects_non_integer_json_fields(capsys):
    def expr_blob(index=0, values=(0, 1), n=2):
        return json.dumps(
            {
                "n": n,
                "expr": {
                    "op": "pasting",
                    "index": index,
                    "left": {"op": "map", "values": list(values)},
                    "right": {"op": "map", "values": [1, 2]},
                },
            }
        )

    code, _, _ = run(capsys, "eval", expr_blob())
    assert code == 0
    for blob in (
        expr_blob(index=0.0),
        expr_blob(index=False),
        expr_blob(index="0"),
        expr_blob(values=(0, 1.0)),
        expr_blob(n=2.0),
    ):
        code, out, err = run(capsys, "eval", blob)
        assert code == 2, blob
        assert out == ""
        assert "must be an integer" in err


def _assert_resource_exit(code, out, err):
    assert code == 4
    assert out == ""
    assert "Traceback" not in err
    assert err.strip().count("\n") == 0
    assert err.startswith("resource bound:")


def test_eval_deep_text_expression_exits_cleanly(capsys):
    # Text expressions are parsed and evaluated without recursion, so depth
    # alone is no resource bound; deep JSON is one (json.loads recurses).
    depth = 3000
    text = "P_0(" * depth + "(0,1)" + ",(1,1))" * depth
    code, out, err = run(capsys, "eval", text, "--n", "2")
    assert (code, out, err) == (0, "(0,1)\n", "")


def test_eval_deep_json_expression_exits_cleanly(capsys):
    # json.dumps itself recurses, so the text is built by hand
    text = '{"n": 2, "expr": ' + _nested_pasting_json(3000) + "}"
    _assert_resource_exit(*run(capsys, "eval", text))


def _nested_pasting_json(depth):
    head = '{"op": "pasting", "index": 0, "left": '
    tail = ', "right": {"op": "map", "values": [1, 1]}}'
    return head * depth + '{"op": "map", "values": [0, 1]}' + tail * depth


def test_check_deep_json_exits_cleanly(capsys):
    text = '{"m": 1, "n": 2, "terms": ' + "[" * 5000 + "]" * 5000 + "}"
    _assert_resource_exit(*run(capsys, "check", text))


def _assert_parse_exit(code, out, err):
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.strip().count("\n") == 0
    assert err.startswith("parse error:")


def test_enumerate_negative_size_exits_2(capsys):
    _assert_parse_exit(*run(capsys, "enumerate", "-1"))
    _assert_parse_exit(*run(capsys, "enumerate", "-1", "--max-cells", "5"))


def test_enumerate_negative_max_cells_exits_2(capsys):
    code, out, err = run(capsys, "enumerate", "0", "--max-cells", "-1")
    _assert_parse_exit(code, out, err)
    assert err == "parse error: --max-cells must be a nonnegative integer, got -1\n"


def test_atoms_negative_size_exits_2(capsys):
    _assert_parse_exit(*run(capsys, "atoms", "-1"))


def test_verify_basis_negative_size_exits_2(capsys):
    _assert_parse_exit(*run(capsys, "verify-basis", "-1"))


def test_check_negative_domain_exits_2(capsys):
    _assert_parse_exit(*run(capsys, "check", '{"m":-1,"n":1,"terms":[]}'))


def test_atoms_basis_bound(capsys):
    # atoms 40 would walk 2^41 - 1 basis elements; the default bound stops at n=12
    _assert_resource_exit(*run(capsys, "atoms", "40"))
    _assert_resource_exit(*run(capsys, "atoms", "13"))
    _assert_resource_exit(*run(capsys, "atoms", "2", "--max-basis", "6"))
    code, out, _ = run(capsys, "atoms", "2", "--max-basis", "7")
    assert code == 0
    assert len(out.strip().splitlines()) == 7
    _assert_parse_exit(*run(capsys, "atoms", "2", "--max-basis", "-1"))


def test_verify_basis_basis_bound(capsys):
    _assert_resource_exit(*run(capsys, "verify-basis", "40"))
    _assert_resource_exit(*run(capsys, "verify-basis", "13"))
    code, out, _ = run(capsys, "verify-basis", "13", "--max-basis", str(2**14 - 1))
    assert code == 0
    assert out.strip() == "unital: yes; strongly loop-free: yes"
    _assert_parse_exit(*run(capsys, "verify-basis", "1", "--max-basis", "-1"))


def test_check_binary_file_exits_2(capsys, tmp_path):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe(0,1)\x80")
    _assert_parse_exit(*run(capsys, "check", f"@{path}", "--n", "2"))


def test_check_binary_stdin_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"(0,\xff1)"), encoding="utf-8"))
    _assert_parse_exit(*run(capsys, "check", "-", "--n", "2"))


def test_unexpected_error_exits_3_with_one_line(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_check", broken)
    code, out, err = run(capsys, "check", "(0,1)", "--n", "1")
    assert code == 3
    assert out == ""
    assert err == "error: RuntimeError: boom\n"


def test_interrupts_are_not_caught(monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_check", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["check", "(0,1)", "--n", "1"])
