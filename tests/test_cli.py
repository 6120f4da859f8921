import importlib
import json

import pytest

from hamiso import cli
from hamiso.cli import main


CODE_WEIGHTED = {
    "field": {"p": 2},
    "space": {"labels": ["a", "b", "c"], "measures": ["1/2", 1, 2]},
    "rows": [[1, 0, 1], [0, 1, 0]],
}

CODE_F3 = {
    "field": {"p": 3},
    "space": {"labels": ["x0", "x1", "x2"]},
    "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_weight(tmp_path, capsys):
    path = write_json(tmp_path, "code.json", CODE_WEIGHTED)
    code, report = run(capsys, ["weight", "--code", path, "--coeffs", "1,0"])
    assert code == 0
    assert report["weight"] == "5/2"
    assert report["schema_version"] == "1"
    assert report["command"] == "weight"
    assert report["config"]["max_enum"] == 2**20


def test_distance(tmp_path, capsys):
    path = write_json(tmp_path, "code.json", CODE_WEIGHTED)
    code, report = run(capsys, ["distance", "--code", path, "--coeffs1", "1,0", "--coeffs2", "0,0"])
    assert code == 0 and report["distance"] == "5/2"


def test_distance_rejects_unequal_lengths(tmp_path, capsys):
    path = write_json(tmp_path, "f3.json", CODE_F3)
    code, report = run(capsys, ["distance", "--code", path, "--coeffs1", "1", "--coeffs2", "1,1"])
    assert code == 1 and report["error"]["type"] == "LengthMismatch"


def test_weight_rejects_non_field_coefficient(tmp_path, capsys):
    code_obj = {"field": {"p": 3}, "space": {"labels": ["a", "b"]}, "rows": [[1, 0], [0, 1]]}
    path = write_json(tmp_path, "f3.json", code_obj)
    for coeffs in ("7,0", "-1,0"):
        code, report = run(capsys, ["weight", "--code", path, f"--coeffs={coeffs}"])
        assert code == 1 and report["error"]["type"] == "FieldMismatch"


def test_weight_rejects_short_coefficient_vector(tmp_path, capsys):
    path = write_json(tmp_path, "code.json", CODE_WEIGHTED)
    code, report = run(capsys, ["weight", "--code", path, "--coeffs", "1"])
    assert code == 1 and report["error"]["type"] == "LengthMismatch"


def test_quotient_and_ring(tmp_path, capsys):
    obj = {
        "field": {"p": 2},
        "space": {"labels": ["a", "b", "c"]},
        "rows": [[1, 1, 0], [0, 0, 1]],
    }
    path = write_json(tmp_path, "code.json", obj)
    code, report = run(capsys, ["quotient", "--code", path])
    assert code == 0
    assert report["classes"] == [["a", "b"], ["c"]]
    assert report["lambda"] == {"b": 1}

    code, report = run(capsys, ["ring", "--code", path])
    assert code == 0
    assert [] in report["members"] and ["a", "b", "c"] in report["members"]


def test_controllable_exit_codes(tmp_path, capsys):
    path = write_json(tmp_path, "f3.json", CODE_F3)
    code, report = run(capsys, ["controllable", "--code", path])
    assert code == 0 and report["controllable"] is True

    bad = {
        "field": {"p": 2},
        "space": {"labels": ["a", "b", "c", "d"]},
        "rows": [[1, 1, 1, 0], [0, 1, 1, 1]],
    }
    path = write_json(tmp_path, "bad.json", bad)
    code, report = run(capsys, ["controllable", "--code", path])
    assert code == 2
    assert report["controllable"] is False
    assert report["witness"] == {"coeffs": [1, 0], "d1": ["a"], "d2": ["d"]}


def test_decompose_identity(tmp_path, capsys):
    code_path = write_json(tmp_path, "f3.json", CODE_F3)
    map_obj = {
        "domain": "f3.json",
        "codomain": CODE_F3,
        "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    }
    map_path = write_json(tmp_path, "map.json", map_obj)
    code, report = run(capsys, ["decompose", "--map", map_path])
    assert code == 0
    assert report["status"] == "composition"
    assert report["h"] == {"x0": "x0", "x1": "x1", "x2": "x2"}
    assert report["omega"] == {"x0": 1, "x1": 1, "x2": 1}
    assert report["monomial"] == {"sigma": [1, 2, 3], "w": [1, 1, 1]}
    assert report["witness"] is None

    code, report = run(capsys, ["verify", "--map", map_path])
    assert code == 0 and report["verified"] is True

    code, report = run(capsys, ["monomial-form", "--map", map_path])
    assert code == 0 and report["monomial"]["sigma"] == [1, 2, 3]


def test_decompose_refuted_exit_2(tmp_path, capsys):
    two = {
        "field": {"p": 2},
        "space": {"labels": ["a", "b"]},
        "rows": [[1, 0], [0, 1]],
    }
    map_obj = {"domain": two, "codomain": two, "matrix": [[1, 1], [0, 1]]}
    map_path = write_json(tmp_path, "map.json", map_obj)
    code, report = run(capsys, ["decompose", "--map", map_path])
    assert code == 2
    assert report["status"] == "refuted"
    assert report["witness"]["point"] == "b"
    assert report["witness"]["functional"] == [1, 1]

    code, report = run(capsys, ["isometry", "--map", map_path])
    assert code == 2 and report["isometry"] is False

    code, report = run(capsys, ["separating", "--map", map_path])
    assert code == 2 and report["separating"] is False


def test_macwilliams(tmp_path, capsys):
    c1 = {
        "field": {"p": 2},
        "space": {"labels": ["a", "b", "c"]},
        "rows": [[1, 1, 0], [0, 1, 1]],
    }
    p1 = write_json(tmp_path, "c1.json", c1)
    code, report = run(capsys, ["macwilliams", "--c1", p1, "--c2", p1])
    assert code == 0
    assert report["equivalent"] is True
    assert report["monomial"]["sigma"] == [1, 2, 3]
    assert report["isometry_matrix"] is not None
    assert report["decompose_roundtrip"] is True

    c2 = dict(c1, rows=[[1, 0, 0], [0, 1, 1]])
    p2 = write_json(tmp_path, "c2.json", c2)
    code, report = run(capsys, ["macwilliams", "--c1", p1, "--c2", p2])
    assert code == 2 and report["equivalent"] is False


def test_macwilliams_theorem_violation_exits_1(tmp_path, capsys, monkeypatch):
    from hamiso import macwilliams

    monkeypatch.setattr(macwilliams, "is_isometry", lambda H, max_enum: (False, (1, 0)))
    path = write_json(tmp_path, "c.json", dict(CODE_F3, rows=[[1, 1, 0], [0, 1, 1]]))
    code, report = run(capsys, ["macwilliams", "--c1", path, "--c2", path])
    assert code == 1 and report["error"]["type"] == "TheoremViolation"


def test_parse_and_schema_errors_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code, report = run(capsys, ["weight", "--code", missing, "--coeffs", "1"])
    assert code == 1 and report["error"]["type"] == "ParseError"

    bad = write_json(tmp_path, "bad.json", {"field": {"p": 2}, "rows": [[1]]})
    code, report = run(capsys, ["weight", "--code", bad, "--coeffs", "1"])
    assert code == 1 and report["error"]["type"] == "SchemaViolation"

    notprime = write_json(
        tmp_path,
        "np.json",
        {"field": {"p": 4}, "space": {"labels": ["a"]}, "rows": [[1]]},
    )
    code, report = run(capsys, ["weight", "--code", notprime, "--coeffs", "1"])
    assert code == 1 and report["error"]["type"] == "NonPrime"


@pytest.mark.parametrize(
    "argv",
    [["weight", "--code", "CODE", "--coeffs", "-1,0"], ["quotient"], ["--max-enum", "x", "ring"]],
)
def test_usage_errors_exit_1(tmp_path, capsys, argv):
    path = write_json(tmp_path, "f3.json", CODE_F3)
    code, report = run(capsys, [path if a == "CODE" else a for a in argv])
    assert code == 1 and report["error"]["type"] == "UsageError"


@pytest.mark.parametrize("flag", ["--max-enum", "--max-ring", "--max-search"])
def test_negative_bounds_are_usage_errors(tmp_path, capsys, flag):
    path = write_json(tmp_path, "f3.json", CODE_F3)
    code, report = run(capsys, [flag, "-1", "quotient", "--code", path])
    assert code == 1 and report["error"]["type"] == "UsageError"
    assert "non-negative" in report["error"]["message"]
    code, report = run(capsys, [flag, "0", "quotient", "--code", path])
    assert code == 0 and report["config"][flag[2:].replace("-", "_")] == 0


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "controllable" in capsys.readouterr().out


def malformed(field=(), space=(), rows=([1, 0], [0, 1])):
    """CODE_F3 cut to two points, with some of its parts overridden."""
    return {"field": {"p": 3, **dict(field)}, "space": {"labels": ["a", "b"], **dict(space)}, "rows": rows}


@pytest.mark.parametrize(
    "code_obj",
    [
        malformed(space={"labels": ["a", "a"]}),
        malformed(space={"measures": [1]}),
        malformed(rows=[["1", 0], [0, 1]]),
        malformed(rows=[[True, 0], [0, 1]]),
        malformed(rows=[[1.5, 0], [0, 1]]),
        malformed(rows=7),
        malformed(space={"measures": [True, 1]}),
        malformed(space={"labels": [["a"], "b"]}),
        malformed(field={"m": "x"}),
        malformed(field={"p": 2305843009213693951}),
        malformed(field={"p": 0, "modulus": [1, 1]}),
    ],
    ids=[
        "duplicate-labels", "measure-count", "string-entry", "bool-entry", "float-entry",
        "rows-not-list", "bool-measure", "list-label", "string-degree", "huge-prime",
        "zero-prime-modulus",
    ],
)
def test_malformed_code_exits_1(tmp_path, capsys, code_obj):
    path = write_json(tmp_path, "bad.json", code_obj)
    code, report = run(capsys, ["quotient", "--code", path])
    assert code == 1 and set(report["error"]) == {"type", "message"}


def test_malformed_map_matrix_exits_1(tmp_path, capsys):
    for matrix in ([[1, 0, 0], [0, "1", 0], [0, 0, 1]], [[1, 0, 0], [0, 7, 0], [0, 0, 1]], 3):
        path = write_json(tmp_path, "map.json", {"domain": CODE_F3, "codomain": CODE_F3, "matrix": matrix})
        code, report = run(capsys, ["isometry", "--map", path])
        assert code == 1 and report["error"]["type"] == "SchemaViolation"


def test_isometry_sample_mode(tmp_path, capsys):
    map_obj = {"domain": CODE_F3, "codomain": CODE_F3, "matrix": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]}
    map_path = write_json(tmp_path, "map.json", map_obj)
    # 27 codewords exceed the bound; without a seed the guard fires
    code, report = run(capsys, ["--max-enum", "8", "isometry", "--map", map_path])
    assert code == 1 and report["error"]["type"] == "EnumerationTooLarge"
    code, report = run(capsys, ["--max-enum", "8", "--seed", "1", "isometry", "--map", map_path])
    assert code == 0
    assert report["isometry"] is True and report["mode"] == "probabilistic"
    code, report = run(capsys, ["isometry", "--map", map_path])
    assert code == 0 and report["mode"] == "exact"


def test_guard_exit_1(tmp_path, capsys):
    path = write_json(tmp_path, "f3.json", CODE_F3)
    code, report = run(capsys, ["--max-enum", "8", "ring", "--code", path])
    assert code == 1 and report["error"]["type"] == "EnumerationTooLarge"


def test_output_file_and_determinism(tmp_path, capsys):
    path = write_json(tmp_path, "code.json", CODE_WEIGHTED)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["--output", str(out1), "weight", "--code", path, "--coeffs", "1,1"]) == 0
    assert main(["--output", str(out2), "weight", "--code", path, "--coeffs", "1,1"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["weight"] == "7/2"
    capsys.readouterr()


def test_selftest(capsys):
    code, report = run(capsys, ["selftest"])
    assert code == 0
    assert all(v == "pass" for v in report["checks"].values())


def test_keys_sorted(tmp_path, capsys):
    path = write_json(tmp_path, "f3.json", CODE_F3)
    assert main(["quotient", "--code", path]) == 0
    out = capsys.readouterr().out
    keys = list(json.loads(out).keys())
    assert keys == sorted(keys)


def test_decompose_failing_its_own_verification_exits_1(tmp_path, capsys, monkeypatch):
    decompose = importlib.import_module("hamiso.decompose")  # the package exports a function of that name
    monkeypatch.setattr(decompose, "verify", lambda D, H, max_enum=None: False)
    map_obj = {"domain": CODE_F3, "codomain": CODE_F3, "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    code, report = run(capsys, ["decompose", "--map", write_json(tmp_path, "map.json", map_obj)])
    assert code == 1 and report["error"]["type"] == "TheoremViolation"


def raw(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_main_parses_without_building_a_parser(tmp_path, capsys, monkeypatch):
    argvs = [["quotient", "--code", write_json(tmp_path, "f3.json", CODE_F3)], ["selftest"]]
    before = [raw(capsys, argv) for argv in argvs]

    def refuse():
        raise RuntimeError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert [raw(capsys, argv) for argv in argvs] == before


REQUIRED = [(name, option) for name, (_, _, options) in cli.COMMANDS.items() for option in options]


@pytest.mark.parametrize("name, option", REQUIRED, ids=[f"{n}{o}" for n, o in REQUIRED])
def test_each_required_option_is_required(capsys, name, option):
    others = [a for o in cli.COMMANDS[name][2] if o != option for a in (o, "x")]
    code, report = run(capsys, [name, *others])
    assert code == 1 and report["error"]["type"] == "UsageError"
    assert report["error"]["message"].endswith(f"required: {option}")


def test_main_twice_gives_the_same_output(tmp_path, capsys):
    for argv in (["quotient"], ["quotient", "--code", write_json(tmp_path, "f3.json", CODE_F3)]):
        assert raw(capsys, argv) == raw(capsys, argv)
