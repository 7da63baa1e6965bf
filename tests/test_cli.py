import json
import time

import pytest

from posetlab.cli import UsageError, parse_poset_spec, run
from posetlab.family import parse_family, serialize_family, middle_layers
from posetlab.poset import chain, t_r3_poset, y_poset, y_prime_poset


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_poset_spec_named():
    assert parse_poset_spec("named:chain(3)") == chain(3)
    assert parse_poset_spec("named:y(2,2)") == y_poset(2, 2)
    assert parse_poset_spec("named:y'(1,3)") == y_prime_poset(1, 3)
    assert parse_poset_spec("named:t3(2)") == t_r3_poset(2)
    with pytest.raises(UsageError):
        parse_poset_spec("named:w(1)")
    with pytest.raises(UsageError):
        parse_poset_spec("named:y(1)")


def test_parse_poset_spec_file(tmp_path, capsys):
    path = tmp_path / "p.json"
    code, out, _ = run_cli(capsys, "poset", "gen", "--kind", "y", "--params", "2,2",
                           "--out", str(path))
    assert code == 0
    assert parse_poset_spec(str(path)) == y_poset(2, 2)


def test_family_gen_middle(capsys):
    code, out, _ = run_cli(capsys, "family", "gen", "--kind", "middle", "--n", "4", "--h", "2")
    assert code == 0
    fam = parse_family(out)
    assert len(fam) == 10
    assert fam == middle_layers(4, 2)


def test_family_stats(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text(serialize_family(middle_layers(4, 2)))
    code, out, _ = run_cli(capsys, "family", "stats", "--file", str(path))
    assert code == 0
    stats = json.loads(out)
    assert stats == {"n": 4, "size": 10, "profile": [0, 0, 6, 4, 0]}


def test_check_free_f23(tmp_path, capsys):
    f23 = tmp_path / "f23.txt"
    code, _, _ = run_cli(capsys, "family", "gen", "--kind", "f23", "--n", "6",
                         "--out", str(f23))
    assert code == 0
    code, out, _ = run_cli(
        capsys, "check", "free", "--n", "6", "--family", str(f23),
        "--forbid", "named:y(1,2)", "--forbid", "named:y'(1,3)", "--mode", "weak",
    )
    assert code == 0
    assert json.loads(out)["free"] is True


def test_check_free_failure_reports_witness(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text(serialize_family(middle_layers(6, 3)))
    code, out, _ = run_cli(
        capsys, "check", "free", "--family", str(path),
        "--forbid", "named:y(2,2)", "--mode", "weak",
    )
    assert code == 1
    report = json.loads(out)
    assert report["free"] is False
    assert set(report["witness"]["map"]) == {"x1", "x2", "y1", "y2"}


def test_check_n_mismatch_is_usage_error(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text(serialize_family(middle_layers(4, 2)))
    code, _, err = run_cli(
        capsys, "check", "free", "--n", "6", "--family", str(path),
        "--forbid", "named:chain(2)", "--mode", "weak",
    )
    assert code == 2
    assert "n=4" in err


def test_check_saturated(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text(serialize_family(middle_layers(6, 2)))
    code, out, _ = run_cli(
        capsys, "check", "saturated", "--family", str(path),
        "--forbid", "named:y(2,2)", "--forbid", "named:y'(2,2)", "--mode", "rp",
    )
    assert code == 0
    assert json.loads(out)["saturated"] is True


def test_check_saturated_not_free(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text(serialize_family(middle_layers(6, 3)))
    code, out, _ = run_cli(
        capsys, "check", "saturated", "--family", str(path),
        "--forbid", "named:y(2,2)", "--mode", "weak",
    )
    assert code == 1
    assert json.loads(out)["notFree"] is True


def test_measure(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text(serialize_family(middle_layers(4, 2)))
    code, out, _ = run_cli(capsys, "measure", "--family", str(path))
    assert code == 0
    report = json.loads(out)
    assert report == {
        "lubell": "2",
        "pairCount": "48",
        "twoChains": 12,
        "kleitmanBound": 8,
        "chainAvg": "10",
    }


def test_search_la_with_witness(tmp_path, capsys):
    wit = tmp_path / "wit.txt"
    code, out, _ = run_cli(
        capsys, "search", "la", "--n", "4", "--forbid", "named:chain(2)",
        "--mode", "weak", "--emit-witness", str(wit),
    )
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 6
    assert report["exact"] is True
    fam = parse_family(wit.read_text())
    assert len(fam) == 6


def test_search_la_ignores_workers(tmp_path, capsys, monkeypatch):
    """--workers is accepted and not read, nor is POSETLAB_WORKERS: the
    report and the witness file are the same with and without them."""
    monkeypatch.setenv("POSETLAB_WORKERS", "abc")
    wit = tmp_path / "wit.txt"
    runs = []
    for extra in ((), ("--workers", "1"), ("--workers", "2")):
        code, out, err = run_cli(
            capsys, "search", "la", "--n", "4", "--forbid", "named:y(1,2)",
            "--forbid", "named:y'(1,2)", "--emit-witness", str(wit), *extra,
        )
        assert code == 0 and err == ""
        runs.append((out, wit.read_text()))
    assert runs[0] == runs[1] == runs[2]
    assert json.loads(runs[0][0])["nodesExplored"] == 251


def test_verify_paper_ignores_workers(capsys, monkeypatch):
    monkeypatch.setenv("POSETLAB_WORKERS", "abc")
    reports = []
    for extra in ((), ("--workers", "1"), ("--workers", "2")):
        code, out, err = run_cli(capsys, "verify", "paper", "--suite", "fast",
                                 "--max-n", "3", *extra)
        assert code == 0 and err == ""
        reports.append(out)
    assert reports[0] == reports[1] == reports[2]
    assert "workers" not in json.loads(reports[0])


def test_poset_cap_is_checked_before_building(tmp_path, capsys):
    (tmp_path / "fam.txt").write_text("n=2\n1\n")
    for argv in (
        ("poset", "gen", "--kind", "chain", "--params", "3000000", "--out", str(tmp_path / "p")),
        ("poset", "gen", "--kind", "t_r3", "--params", "2000"),
        ("check", "free", "--family", str(tmp_path / "fam.txt"), "--forbid", "named:chain(99)"),
    ):
        start = time.monotonic()
        code, out, err = run_cli(capsys, *argv)
        assert time.monotonic() - start < 1.0, argv
        assert code == 2 and out == "" and "at most 64" in err, argv
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize(
    "flag", [("--initial-bound", "5"), ("--no-level-caps",)],
    ids=["initial-bound", "no-level-caps"],
)
def test_removed_search_flags_are_rejected(capsys, flag):
    code, out, err = run_cli(
        capsys, "search", "la", "--n", "3", "--forbid", "named:y(1,2)",
        "--forbid", "named:y'(1,2)", *flag,
    )
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_search_la_rp_mode_alias(capsys):
    code, out, _ = run_cli(
        capsys, "search", "la", "--n", "4", "--forbid", "named:y(2,2)",
        "--forbid", "named:y'(2,2)", "--mode", "rp",
    )
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "rank_preserving"
    assert report["value"] == 10


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2
    code, _, _ = run_cli(capsys, "search", "la", "--n", "4",
                         "--forbid", "named:nope(1)", "--mode", "weak")
    assert code == 2
    code, _, _ = run_cli(capsys, "measure", "--family", str(tmp_path / "missing.txt"))
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("n=3\n9\n")
    code, _, err = run_cli(capsys, "measure", "--family", str(bad))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("poset", "show", "--file", "{tmp}/missing.json"),
        ("poset", "gen", "--kind", "y", "--params", "a,b"),
        ("search", "la", "--n", "3", "--forbid", "named:chain(2)", "--budget-ms", "-5"),
        ("family", "gen", "--kind", "middle", "--n", "30", "--h", "2"),
        ("poset", "gen", "--kind", "chain", "--params", "2", "--out", "{tmp}/no/p.json"),
        ("family", "gen", "--kind", "middle", "--n", "4", "--h", "2",
         "--out", "{tmp}/no/f.txt"),
        ("search", "la", "--n", "2", "--forbid", "named:chain(2)",
         "--emit-witness", "{tmp}/no/w.txt"),
        ("measure", "--family", "{tmp}/latin1.txt"),
        ("poset", "show", "--file", "{tmp}/latin1.txt"),
        ("poset", "show", "--file", "{tmp}/triple.json"),
        ("search", "la", "--n", "3", "--forbid", "{tmp}/triple.json"),
        ("poset", "show", "--file", "{tmp}/string-elements.json"),
        ("poset", "show", "--file", "{tmp}/int-labels.json"),
        ("verify", "paper", "--max-n", "1"),
        ("verify", "paper", "--max-n", "0"),
        ("verify", "paper", "--max-n", "-3"),
        ("check", "free", "--family", "{tmp}/fam.txt", "--forbid", "{tmp}/empty.json"),
        ("check", "saturated", "--family", "{tmp}/fam.txt", "--forbid", "{tmp}/empty.json"),
        ("search", "la", "--n", "3", "--forbid", "{tmp}/empty.json"),
    ],
    ids=["show-missing-file", "gen-bad-params", "budget-negative", "family-n-too-large", "poset-out-unwritable",
         "family-out-unwritable", "witness-out-unwritable", "family-not-utf8",
         "poset-not-utf8", "poset-cover-triple", "forbid-cover-triple",
         "poset-elements-string", "poset-labels-int", "verify-max-n-1",
         "verify-max-n-0", "verify-max-n-negative", "check-free-empty-poset",
         "check-saturated-empty-poset", "search-empty-poset"],
)
def test_input_errors_exit_2_with_message(capsys, tmp_path, argv):
    (tmp_path / "latin1.txt").write_bytes("n=2\n1\n# caf\u00e9\n".encode("latin-1"))
    (tmp_path / "triple.json").write_text(
        '{"elements": ["a", "b", "c"], "covers": [["a", "b", "c"]]}')
    (tmp_path / "string-elements.json").write_text('{"elements": "ab", "covers": []}')
    (tmp_path / "int-labels.json").write_text('{"elements": [1, 2], "covers": [[1, 2]]}')
    (tmp_path / "empty.json").write_text('{"elements": [], "covers": []}')
    (tmp_path / "fam.txt").write_text("n=2\n1\n")
    code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("posetlab: ")


def test_no_partial_output_on_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("n=3\nzzz\n")
    code, out, err = run_cli(capsys, "measure", "--family", str(bad))
    assert code == 2
    assert out == ""
    assert err


def test_poset_show_named(capsys):
    code, out, _ = run_cli(capsys, "poset", "show", "--named", "named:y(2,2)")
    assert code == 0
    info = json.loads(out)
    assert info["height"] == 3
    assert info["graded"] is True
    assert info["classification"] == "monotone_increasing"


def test_poset_gen_complete_multilevel(capsys):
    code, out, _ = run_cli(capsys, "poset", "gen", "--kind", "complete_multilevel",
                           "--params", "2,2")
    assert code == 0
    assert len(json.loads(out)["covers"]) == 4


def test_csv_format(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text(serialize_family(middle_layers(4, 2)))
    code, out, _ = run_cli(capsys, "measure", "--family", str(path), "--format", "csv")
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert rows["lubell"] == "2"
    assert rows["twoChains"] == "12"


def test_verify_paper_fast(capsys):
    code, out, _ = run_cli(capsys, "verify", "paper", "--suite", "fast", "--max-n", "4")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    names = [c["name"] for c in report["checks"]]
    assert "sperner_small_n" in names
    assert all(c["pass"] for c in report["checks"])


def test_verify_paper_reports_are_reproducible(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "paper", "--suite", "fast", "--max-n", "3")
    code2, out2, _ = run_cli(capsys, "verify", "paper", "--suite", "fast", "--max-n", "3")
    assert code1 == code2 == 0
    assert out1 == out2
