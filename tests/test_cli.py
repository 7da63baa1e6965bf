import json
import random
import time

import pytest

from posetlab.cli import UsageError, parse_poset_spec, run
from posetlab.family import lubell_tail_family, middle_layers, parse_family, serialize_family
from posetlab.poset import (
    _GENERATORS,
    chain,
    gen_named,
    poset_to_json,
    t_r3_poset,
    y_poset,
    y_prime_poset,
)
from strategies import random_family


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


def test_family_gen_lubell_tail(tmp_path, capsys):
    path = tmp_path / "tail.txt"
    code, out, _ = run_cli(capsys, "family", "gen", "--kind", "lubell_tail", "--n", "8",
                           "--h", "3", "--out", str(path))
    assert (code, out) == (0, "")
    fam = parse_family(path.read_text())
    assert len(fam) == 18
    assert fam == lubell_tail_family(8, 3)


def test_family_stats_csv_flattens_the_profile(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text(serialize_family(middle_layers(4, 2)))
    code, out, _ = run_cli(capsys, "family", "stats", "--file", str(path), "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,4", "size,10", "profile.0,0", "profile.1,0", "profile.2,6",
                                "profile.3,4", "profile.4,0"]


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


def test_check_saturated_reports_share_their_fields(tmp_path, capsys):
    """Both outcomes of check saturated carry the fields check free carries."""
    path = tmp_path / "fam.txt"
    path.write_text(serialize_family(middle_layers(8, 2)))
    shared = {"check", "n", "familySize", "mode", "forbidden", "saturated"}
    reports = {}
    for forbid in ("named:chain(1)", "named:y(2,2)"):
        code, out, _ = run_cli(capsys, "check", "saturated", "--family", str(path),
                               "--forbid", forbid)
        assert code == 1
        reports[forbid] = json.loads(out)
    assert set(reports["named:chain(1)"]) == shared | {"notFree", "witness"}
    assert set(reports["named:y(2,2)"]) == shared | {"counterexample"}
    for report in reports.values():
        assert (report["n"], report["familySize"]) == (8, 126)
    _, out, _ = run_cli(capsys, "check", "free", "--family", str(path),
                        "--forbid", "named:chain(1)")
    assert shared - {"saturated"} <= set(json.loads(out))


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


def test_search_la_symmetry_keeps_the_witness(tmp_path, capsys):
    """--symmetry explores fewer nodes and writes the plain run's witness."""
    witnesses, nodes = [], []
    for extra in ((), ("--symmetry",)):
        wit = tmp_path / f"wit{len(extra)}.txt"
        code, out, err = run_cli(
            capsys, "search", "la", "--n", "4", "--forbid", "named:y(2,2)",
            "--forbid", "named:y'(2,2)", "--mode", "rp", "--emit-witness", str(wit), *extra,
        )
        assert code == 0 and err == ""
        witnesses.append(wit.read_bytes())
        nodes.append(json.loads(out)["nodesExplored"])
    assert witnesses[0] == witnesses[1]
    assert nodes == [2399, 389]
    code, out, err = run_cli(capsys, "search", "la", "--n", "8", "--forbid", "named:chain(2)",
                             "--symmetry")
    assert code == 2 and out == ""
    assert err.startswith("posetlab: ") and err.count("\n") == 1


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
        ("family", "stats", "--file", "{tmp}/superscript.txt"),
        ("family", "stats", "--file", "{tmp}/superscript-n.txt"),
        ("family", "stats", "--file", "{tmp}/arabic-indic.txt"),
        ("poset", "show", "--named", "named:chain(\u0663)"),
        ("poset", "gen", "--kind", "chain", "--params", "\u0663"),
        ("poset", "gen", "--kind", "y", "--params", "2,2_0"),
        ("poset", "gen", "--kind", "chain", "--params", "+2"),
        ("poset", "show", "--named", "named:y(2,2"),
        ("poset", "show", "--named", "named:y(2,,2)"),
        ("poset", "gen", "--kind", "zigzag", "--params", "1"),
        ("family", "gen", "--kind", "lubell_tail", "--n", "8"),
        ("family", "gen", "--kind", "middle", "--n", "4"),
        ("poset", "show"),
        ("check", "free", "--family", "{tmp}/fam.txt", "--forbid", "named:chain(2)",
         "--mode", "colored"),
        ("poset", "gen", "--kind", "chain", "--params", "9" * 5000),
        ("poset", "show", "--named", f"named:chain({'9' * 5000})"),
        ("poset", "show", "--named", f"named:chain({'9' * 3000},x)"),
        ("check", "free", "--family", "{tmp}/fam.txt", "--forbid",
         f"named:zz({','.join(['1'] * 2000)})"),
        ("poset", "show", "--named", f"named:{'z' * 5000}(1)"),
        ("family", "stats", "--file", "{tmp}/long-n.txt"),
        ("family", "stats", "--file", "{tmp}/long-element.txt"),
        ("poset", "show", "--file", "{tmp}/deep.json"),
        ("check", "free", "--family", "{tmp}/fam.txt", "--forbid", "{tmp}/deep.json"),
    ],
    ids=["show-missing-file", "gen-bad-params", "budget-negative", "family-n-too-large", "poset-out-unwritable",
         "family-out-unwritable", "witness-out-unwritable", "family-not-utf8",
         "poset-not-utf8", "poset-cover-triple", "forbid-cover-triple",
         "poset-elements-string", "poset-labels-int", "verify-max-n-1",
         "verify-max-n-0", "verify-max-n-negative", "check-free-empty-poset",
         "check-saturated-empty-poset", "search-empty-poset", "family-superscript-digit",
         "family-superscript-n", "family-arabic-indic-digit", "named-arabic-indic-digit",
         "params-arabic-indic-digit", "params-underscore", "params-plus-sign",
         "named-unclosed", "named-empty-param", "gen-unknown-kind", "tail-without-h",
         "middle-without-h", "show-without-source", "check-colored-mode",
         "params-over-long-number", "named-over-long-number", "named-bad-token-after-long-one",
         "forbid-unknown-kind-many-params", "named-over-long-kind", "family-over-long-n",
         "family-over-long-element", "poset-deeply-nested-json", "forbid-deeply-nested-json"],
)
def test_input_errors_exit_2_with_message(capsys, tmp_path, argv):
    (tmp_path / "latin1.txt").write_bytes("n=2\n1\n# caf\u00e9\n".encode("latin-1"))
    (tmp_path / "triple.json").write_text(
        '{"elements": ["a", "b", "c"], "covers": [["a", "b", "c"]]}')
    (tmp_path / "string-elements.json").write_text('{"elements": "ab", "covers": []}')
    (tmp_path / "int-labels.json").write_text('{"elements": [1, 2], "covers": [[1, 2]]}')
    (tmp_path / "empty.json").write_text('{"elements": [], "covers": []}')
    (tmp_path / "fam.txt").write_text("n=2\n1\n")
    (tmp_path / "superscript.txt").write_text("n=3\n1,\u00b2\n", encoding="utf-8")
    (tmp_path / "superscript-n.txt").write_text("n=\u00b2\n1\n", encoding="utf-8")
    (tmp_path / "arabic-indic.txt").write_text("n=3\n1,\u0663\n", encoding="utf-8")
    # more digits than int() reads from a string, and nesting past the recursion limit
    (tmp_path / "long-n.txt").write_text("n=" + "9" * 5000 + "\n1\n")
    (tmp_path / "long-element.txt").write_text("n=3\n" + "9" * 5000 + "\n")
    (tmp_path / "deep.json").write_text("[" * 200_000)
    code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("posetlab: ")
    # the message names an over-long input by an excerpt, not in full
    assert len(err.replace(str(tmp_path), "{tmp}").encode()) < 300


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


_PARAMS = {"chain": (3,), "antichain": (2,), "y": (2, 3), "y_prime": (1, 3), "y'": (1, 3),
           "t_r3": (2,), "t3": (3,), "complete_multilevel": (2, 1, 3)}


@pytest.mark.parametrize("kind", sorted(_GENERATORS))
def test_every_kind_reads_the_same_through_spec_show_and_gen(capsys, kind):
    params = _PARAMS[kind]
    want = gen_named(kind, params)
    text = ",".join(map(str, params))
    assert parse_poset_spec(f"named:{kind}({text})") == want
    for argv in (("show", "--named", f"named:{kind}({text})"),
                 ("gen", "--kind", kind, "--params", text)):
        code, out, _ = run_cli(capsys, "poset", *argv)
        assert code == 0
        got = json.loads(out)
        assert got["elements"] == list(want.elements)
        assert got["covers"] == [list(c) for c in want.covers]


def test_params_allow_spaces_around_numbers(capsys):
    code, out, _ = run_cli(capsys, "poset", "gen", "--kind", "y", "--params", "2, 2")
    assert code == 0
    assert json.loads(out)["elements"] == list(y_poset(2, 2).elements)
    assert parse_poset_spec("named:y( 2 , 2 )") == y_poset(2, 2)


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


@pytest.mark.parametrize("max_n, ran", [
    (2, {"sperner_small_n": "2", "y12_pair_small_n": "4", "middle_layers_saturated": "none",
         "chain_average_identity": "none", "pair_count_identity": "none"}),
    (4, {"sperner_small_n": "2..4", "y12_pair_small_n": "4",
         "middle_layers_saturated": "none", "chain_average_identity": "3..4",
         "pair_count_identity": "3..4"}),
])
def test_verify_paper_inputs_name_only_the_n_that_ran(capsys, max_n, ran):
    code, out, _ = run_cli(capsys, "verify", "paper", "--suite", "fast", "--max-n", str(max_n))
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert {name: checks[name]["inputs"]["n"] for name in ran} == ran
    assert checks["middle_layers_saturated"]["observed"] == {"perN": {}}
    assert list(checks["y12_pair_small_n"]["observed"]) == ["n4"]
    tested = "0" if max_n == 2 else "40"
    for name in ("chain_average_identity", "pair_count_identity"):
        assert checks[name]["observed"] == {"familiesTested": tested}


def test_verify_paper_reports_are_reproducible(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "paper", "--suite", "fast", "--max-n", "3")
    code2, out2, _ = run_cli(capsys, "verify", "paper", "--suite", "fast", "--max-n", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def _fuzz_argv(rng, files):
    """One random command line over every subcommand: each token is valid,
    or one time in ten malformed.  No input takes long: a small --n, a
    --budget-ms on every search, never the `all` verify suite."""
    def tok(valid, bad=("0", "-1", "x", "", "٣", "9" * 30)):
        return rng.choice(bad if rng.random() < 0.1 else valid)

    def num(lo, hi, bad=("0", "-1", "x", "", "٣", "9" * 30)):
        return tok([str(rng.randint(lo, hi))], bad)

    spec = tok(["named:chain(2)", "named:chain(3)", "named:y(2,2)", "named:y'(1,3)",
                "named:t3(2)", "named:antichain(3)", "named:complete_multilevel(2,2)",
                files["poset"], f"named:y({num(1, 3)},{num(1, 3)})"],
               ["named:chain(", "named:w(1)", "named:y(1)", "named:chain(99)",
                files["bad_poset"], files["missing"]])
    family_path = tok([files["family"]],
                      [files["bad_family"], files["binary"], files["missing"], files["dir"]])
    mode = tok(["weak", "induced", "rp", "rank_preserving"], ["colored", ""])
    fmt = tok(["json", "csv"], ["xml"])
    argv = rng.choice([
        ["poset", "gen", "--kind", tok(["chain", "y", "y'", "t3", "antichain"], ["w", ""]),
         "--params", num(1, 4) if rng.random() < 0.5 else f"{num(1, 3)},{num(1, 3)}",
         "--t3-reading", tok(["degree", "children"], ["x"])],
        ["poset", "show", rng.choice(["--named", "--file"]), spec, "--format", fmt],
        ["family", "gen", "--kind", tok(["middle", "f23", "lubell_tail"], ["x"]),
         "--n", num(1, 8, ("0", "25", "-4", "x")), "--h", num(1, 4),
         "--out", tok([files["out"]], [files["dir"], files["missing_dir"]])],
        ["family", "stats", "--file", family_path, "--format", fmt],
        ["check", rng.choice(["free", "saturated"]), "--family", family_path, "--forbid", spec,
         "--mode", mode, "--format", fmt] + rng.choice([[], ["--forbid", spec],
                                                       ["--n", num(2, 5)]]),
        ["measure", "--family", family_path, "--format", fmt],
        ["search", "la", "--n", num(1, 5, ("0", "13", "x")), "--forbid", spec, "--mode", mode,
         "--budget-ms", tok(["0", "20"], ["-5", "x"])] + rng.choice([[], ["--symmetry"]]),
        ["verify", "paper", "--suite", tok(["fast"], ["FAST", "full"]),
         "--max-n", tok(["1", "0", "-3", "x", "2"]), "--seed", tok(["1"], ["x"])],
    ])
    if rng.random() < 0.05:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--bogus", "--n", "-", "--help"]))
    return argv


def test_cli_fuzz_exits_0_1_or_2_with_a_short_stderr(tmp_path, capsys):
    """A seeded few hundred command lines: no exception escapes run, the
    exit code is 0, 1 or 2, and stderr stays under 2,000 bytes."""
    rng = random.Random(20261020)
    files = {"family": tmp_path / "fam.txt", "bad_family": tmp_path / "bad.txt",
             "binary": tmp_path / "bin.txt", "poset": tmp_path / "p.json",
             "bad_poset": tmp_path / "bad.json", "missing": tmp_path / "none.txt",
             "dir": tmp_path, "missing_dir": tmp_path / "none" / "out.txt",
             "out": tmp_path / "out.txt"}
    files["bad_family"].write_text("n=3\n1 2\n4\n")
    files["binary"].write_bytes(b"\xff\xfe\x00n=3")
    files["poset"].write_text(poset_to_json(y_poset(1, 2)))
    files["bad_poset"].write_text('{"elements": ["a"], "covers": [["a", "b"]]}')
    files = {k: str(v) for k, v in files.items()}
    codes = set()
    for _ in range(300):
        n = rng.randint(2, 5)
        fam = random_family(rng, n, 1 << n)
        (tmp_path / "fam.txt").write_text(serialize_family(fam))
        argv = _fuzz_argv(rng, files)
        code = run(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert len(err.encode()) < 2000, argv
        codes.add(code)
    assert codes == {0, 1, 2}
