"""Command-line behavior: output shapes, determinism, exit codes."""

import json
import shlex
from pathlib import Path

import pytest

import periodic_hall
from periodic_hall import errors, suites
from periodic_hall.cli import main
from periodic_hall.repcat import RepContext


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_error_type_is_exported():
    """The package exports every HallError subclass the CLI maps to an exit
    code, so a caller can catch each by its public name."""
    kinds = [
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.HallError)
    ]
    assert len(kinds) == 6
    for kind in kinds:
        assert kind.__name__ in periodic_hall.__all__
        assert getattr(periodic_hall, kind.__name__) is kind


def test_multiply_golden_text(capsys):
    code, out, _ = run(
        capsys,
        "multiply",
        "--quiver",
        "A2",
        "--q",
        "2",
        "--m",
        "3",
        "periodic",
        "[S1@0]",
        "[S2@0]",
    )
    assert code == 0
    assert "v^-1" in out
    assert "S1+S2@0" in out
    assert "P1@0" in out


def test_multiply_unit(capsys):
    code, out, _ = run(
        capsys, "multiply", "--quiver", "A2", "--q", "2", "--m", "3",
        "periodic", "[0]", "[S1@0]",
    )
    assert code == 0
    assert out.strip() == "[S1@0]"


def test_multiply_even_m_exit_code(capsys):
    code, _, err = run(
        capsys, "multiply", "--m", "2", "--quiver", "A2", "--q", "2",
        "periodic", "[S1@0]", "[S2@0]",
    )
    assert code == 3
    assert "odd" in err


def test_multiply_extended_accepts_even_m(capsys):
    code, out, _ = run(
        capsys, "multiply", "--m", "2", "--quiver", "A2", "--q", "2",
        "extended", "[S1@0]", "[S2@1]",
    )
    assert code == 0
    assert "S1@0" in out


def test_verify_embedding_even_m_exit_code(capsys):
    code, _, err = run(
        capsys, "verify", "--quiver", "A2", "--q", "2", "--m", "2",
        "embedding", "--dim-bound", "1,1",
    )
    assert code == 3
    assert "odd" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(
        capsys, "multiply", "--quiver", "A2", "--q", "2", "--m", "3",
        "periodic", "[S1@]", "[S2@0]",
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--quiver", "1_0; 1->2"),
        ("--quiver", "+2; 1->2"),
        ("--quiver", "２; １->２"),
        ("--quiver", "2; 1->2,"),
        ("--quiver", "2; 1=>2"),
        ("--bound", "1_0"),
        ("--bound", "+1"),
        ("--bound", "1,"),
        ("--q", "1_1"),
        ("--m", "３"),
    ],
)
def test_malformed_quiver_or_bound_exit_code(capsys, flag, value):
    argv = {"--quiver": "2; 1->2", "--bound": "1", "--q": "2", "--m": "3", flag: value}
    code, out, err = run(
        capsys, "list", "--q", argv["--q"], "--m", argv["--m"], "--quiver", argv["--quiver"],
        "iso-classes", "--bound", argv["--bound"],
    )
    assert code == 2
    assert out == ""
    assert "literal" in err


def _readme_examples():
    """(argv, expected stdout or None) of each `periodic-hall` command in the
    README's "Command line" block, lines continued with a backslash joined;
    a '# ' line right after a command is its expected output."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = block.replace("\\\n", "").splitlines()
    return [
        (shlex.split(line)[1:], after[2:] if after.startswith("# ") else None)
        for line, after in zip(lines, lines[1:] + [""])
        if line.startswith("periodic-hall ")
    ]


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize(
    "argv, expected", README_EXAMPLES, ids=[" ".join(a) for a, _ in README_EXAMPLES]
)
def test_readme_example_runs(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    if expected is not None:
        assert out.strip() == expected


def test_resource_cap_exit_code(capsys):
    code, _, err = run(
        capsys, "list", "--quiver", "A2", "--q", "2", "--cap-dim", "0",
        "derived-hall-number", "--X", "S1@0", "--Y", "S2@0", "--L", "P1@0",
    )
    assert code == 4
    assert "cap" in err


def test_cap_dim_trips_on_stalk_pairs_in_products(capsys):
    """A product cones only the stalk pairs (K, C) of its Hall-table fills.
    [P1@0] [P1@0] at m = 1 meets ext(K, C) = 0 only, so it finishes at cap
    0, though the cone over P1[1] + P1 would have 2 free dimensions;
    [S1@0] [S2@0] meets ext(S1, S2) = 1 and exits 4."""
    base = ("multiply", "--quiver", "A2", "--q", "2", "--m", "1", "--cap-dim", "0", "periodic")
    code, out, err = run(capsys, *base, "[P1@0]", "[P1@0]")
    assert (code, out.strip()) == (0, "v^-1*[0] + v^-1*[P1+P1@0]"), err
    code, _, err = run(capsys, *base, "[S1@0]", "[S2@0]")
    assert code == 4
    assert "dimension 1 exceeds cap 0 for S1@0 -> (S2@0)[1]" in err


def test_json_schema_and_exactness(capsys):
    code, out, _ = run(
        capsys, "multiply", "--quiver", "A2", "--q", "3", "--m", "3",
        "--format", "json", "periodic", "[S1@0]", "[S2@0]",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "1"
    by_basis = {term["basis"]: term for term in payload["result"]}
    assert by_basis["[P1@0]"]["scalar"] == ["0", "0", "0", "0", "2/3", "0", "0", "0"]


def test_verify_identities(capsys):
    code, out, _ = run(
        capsys, "verify", "--quiver", "A2", "--q", "2", "--m", "3",
        "identities", "--samples", "5",
    )
    assert code == 0
    assert "passed: True" in out


@pytest.mark.parametrize(
    "m, code, message",
    [("0", 2, "period must be positive"), ("-3", 2, "period must be positive"),
     ("2", 3, "odd")],
)
def test_verify_identities_rejects_bad_period(capsys, m, code, message):
    got, out, err = run(
        capsys, "verify", "--quiver", "A2", "--q", "2", "--m", m,
        "identities", "--samples", "5",
    )
    assert got == code
    assert message in err
    assert "passed" not in out


def test_verify_assoc_deterministic(capsys):
    args = (
        "verify", "--quiver", "A2", "--q", "2", "--m", "3",
        "assoc", "--samples", "4", "--seed", "7", "--format", "json",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_embedding_small(capsys):
    code, out, _ = run(
        capsys, "verify", "--quiver", "A2", "--q", "2", "--m", "3",
        "embedding", "--dim-bound", "1,1", "--max-degrees", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["checked"] == 169  # (1 + 3 classes * 4 slots)^2... enumerated


def test_verify_partition_small(capsys, tmp_path, monkeypatch):
    code, out, _ = run(
        capsys, "verify", "--quiver", "A2", "--q", "2", "--m", "3",
        "partition", "--total-dim", "1",
    )
    assert code == 0
    assert "passed: True" in out

    # the count mode reaches the sweep from the flag and from the config key
    modes = []
    sweep = suites.partition_sweep

    def recording_sweep(dctx, max_total):
        modes.append(dctx.count_mode)
        return sweep(dctx, max_total)

    monkeypatch.setattr(suites, "partition_sweep", recording_sweep)
    config = tmp_path / "hall.cfg"
    config.write_text("count-mode = total\n")
    inputs = [
        ("--count-mode", "quotient"),
        ("--count-mode", "total"),
        ("--config", str(config)),
    ]
    payloads = []
    for extra in inputs:
        code, out, _ = run(
            capsys, "verify", "--quiver", "A2", "--q", "2", "--m", "3",
            "partition", "--total-dim", "1", "--format", "json", *extra,
        )
        assert code == 0
        payloads.append(json.loads(out))
    assert modes == ["quotient", "total", "total"]
    assert payloads[0]["passed"] is True
    assert payloads[0] == payloads[1] == payloads[2]


def test_list_iso_classes(capsys):
    code, out, _ = run(
        capsys, "list", "--quiver", "A2", "--q", "2",
        "iso-classes", "--bound", "1,1",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_list_derived_hall_number(capsys):
    code, out, _ = run(
        capsys, "list", "--quiver", "A2", "--q", "3",
        "derived-hall-number", "--X", "S1@0", "--Y", "S2@0", "--L", "P1@0",
    )
    assert code == 0
    assert out.strip() == "2"


def test_list_hall_number_trivial(capsys):
    code, out, _ = run(
        capsys, "list", "--quiver", "A2", "--q", "2",
        "hall-number", "--L", "0", "--M", "0", "--N", "0",
    )
    assert code == 0
    assert out.strip() == "1"


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "hall.cfg"
    cfg.write_text("quiver = A2\nq = 3\nm = 3\n# comment\nformat = json\n")
    code, out, _ = run(
        capsys, "multiply", "--config", str(cfg), "periodic", "[S1@0]", "[S2@0]",
    )
    assert code == 0
    payload = json.loads(out)
    assert any(t["basis"] == "[P1@0]" for t in payload["result"])
    # flags override the file
    code, out, _ = run(
        capsys, "multiply", "--config", str(cfg), "--format", "text",
        "periodic", "[S1@0]", "[S2@0]",
    )
    assert code == 0
    assert not out.startswith("{")


def test_config_file_bad_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nope = 1\n")
    code, _, err = run(
        capsys, "multiply", "--config", str(cfg), "periodic", "[0]", "[0]",
    )
    assert code == 2
    assert "unknown key" in err


def test_element_roundtrip_through_cli_text(capsys):
    # printed output re-parses to an equal element
    from periodic_hall.derived import DerivedContext
    from periodic_hall.periodic import PeriodicAlgebra
    from periodic_hall.repcat import Quiver, RepContext

    code, out, _ = run(
        capsys, "multiply", "--quiver", "A2", "--q", "3", "--m", "3",
        "periodic", "[S1@0 + S2@1]", "[P1@0]",
    )
    assert code == 0
    ctx = RepContext(Quiver.parse("A2"), 3)
    P = PeriodicAlgebra(DerivedContext(ctx), 3)
    reparsed = P.parse_element(out.strip())
    direct = P.multiply(
        P.parse_element("[S1@0 + S2@1]"), P.parse_element("[P1@0]")
    )
    assert str(reparsed) == str(direct)


@pytest.mark.parametrize("key, value", [("format", "jsn"), ("count-mode", "totl")])
def test_config_rejects_value_outside_choices(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"quiver = A2\n{key} = {value}\n", encoding="utf-8")
    code, out, err = run(capsys, "list", "iso-classes", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert f"bad.cfg:2: {key} must be one of" in err


@pytest.mark.parametrize(
    "what, given, missing",
    [
        ("hall-number", ["--M", "S1"], "--L, --N"),
        ("derived-hall-number", ["--L", "P1@0"], "--X, --Y"),
    ],
)
def test_list_missing_operands_is_usage_error(capsys, what, given, missing):
    code, out, err = run(capsys, "list", what, "--quiver", "A2", *given)
    assert code == 2
    assert out == ""
    assert f"list {what} needs {missing}" in err


def test_invariant_violation_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(RepContext, "hom_dim", lambda self, M, N: -5)
    code, out, err = run(
        capsys, "list", "derived-hall-number", "--quiver", "A2", "--q", "2",
        "--X", "S1@0", "--Y", "S2@0", "--L", "P1@0",
    )
    assert code == 5
    assert out == ""
    assert "internal invariant violated" in err


@pytest.mark.parametrize("flag, value", [("--cap-dim", "-1"), ("--cap-cell", "0")])
def test_cap_flag_below_minimum_is_usage_error(capsys, flag, value):
    code, _, err = run(
        capsys, "list", "--quiver", "A2", "--q", "2", flag, value, "iso-classes",
    )
    assert code == 2
    assert flag[2:] in err and "at least" in err


@pytest.mark.parametrize(
    "key, value", [("cap-dim", "-1"), ("cap-cell", "0"), ("q", "1_1")]
)
def test_config_rejects_cap_below_minimum(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"quiver = A2\n{key} = {value}\n", encoding="utf-8")
    code, _, err = run(capsys, "list", "--config", str(cfg), "iso-classes")
    assert code == 2
    assert f"{cfg}:2" in err and key in err


@pytest.mark.parametrize(
    "suite, flag",
    [("assoc", "--samples"), ("embedding", "--max-degrees"), ("partition", "--total-dim")],
)
def test_verify_rejects_negative_counts(capsys, suite, flag):
    code, out, err = run(
        capsys, "verify", "--quiver", "A2", "--q", "2", "--m", "3", suite, flag, "-1",
    )
    assert code == 2
    assert flag in err
    assert "passed" not in out


@pytest.mark.parametrize("flag", ["--samples", "--max-degrees", "--total-dim"])
def test_verify_malformed_count_exit_code(capsys, flag):
    # the counts are read by the literal grammar's int rule, not by int()
    code, out, err = run(
        capsys, "verify", "--quiver", "A2", "--q", "2", "--m", "3", "assoc", flag, "1_0",
    )
    assert code == 2
    assert out == ""
    assert "integer literal '1_0'" in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--q", "1_1"),
        ("--m", "３"),
        ("--cap-dim", "+1"),
        ("--bound", "1_0"),
        ("--bound", "1,1,1"),
    ],
)
def test_list_parse_error_names_the_flag(capsys, flag, value):
    argv = {"--q": "2", "--m": "3", "--cap-dim": "14", "--bound": "1", flag: value}
    code, out, err = run(
        capsys, "list", "--quiver", "A2", "--q", argv["--q"], "--m", argv["--m"],
        "--cap-dim", argv["--cap-dim"], "iso-classes", "--bound", argv["--bound"],
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag}: ")


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--samples", "1_0"),
        ("--max-degrees", "+2"),
        ("--total-dim", "3,"),
        ("--dim-bound", "1_1"),
        ("--dim-bound", "1,1,1"),
    ],
)
def test_verify_parse_error_names_the_flag(capsys, flag, value):
    code, out, err = run(
        capsys, "verify", "--quiver", "A2", "--q", "2", "--m", "3", "assoc",
        "--samples", "2", flag, value,
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag}: ")


def test_config_parse_error_names_the_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("quiver = A2\nq = 1_1\n", encoding="utf-8")
    code, _, err = run(capsys, "list", "--config", str(cfg), "iso-classes")
    assert code == 2
    assert err.startswith(f"error: {cfg}:2: q: expected the end at '_'")


def test_verify_assoc_with_no_nonzero_class_is_usage_error(capsys):
    code, out, err = run(
        capsys, "verify", "--quiver", "A2", "--q", "2", "--m", "3",
        "assoc", "--dim-bound", "0", "--samples", "2",
    )
    assert code == 2
    assert out == ""
    assert "(0, 0)" in err and "Traceback" not in err


def test_list_iso_classes_a2_q3_bound_3_3(capsys):
    # |Aut| by Krull-Schmidt, checked by hand from the Hom dimensions:
    # End(S1+S2+P1+P1) is 10-dimensional, End(S1+S1+S2+S2+P1) 13-dimensional
    code, out, _ = run(
        capsys, "list", "--quiver", "A2", "--q", "3", "--format", "json",
        "iso-classes", "--bound", "3,3",
    )
    assert code == 0
    rows = {row["name"]: row["aut"] for row in json.loads(out)["classes"]}
    assert len(rows) == 30
    assert rows["S1+S2+P1+P1"] == 15552
    assert rows["S1+S1+S2+S2+P1"] == 373248
