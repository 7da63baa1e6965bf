"""The package loads its submodules on first use, and the public API is unchanged.

Which modules a command runs is checked in a fresh interpreter: a submodule
that has not run is still a lazy module in sys.modules, and its type turns
into types.ModuleType once its code has run.  The interpreter runs with -S,
so no site hook loads or hides a module, and the probe also names which of
dataclasses and inspect (10-20 ms of start-up together) are loaded.
"""
import copy
import json
import pickle
import os
import subprocess
import sys
from pathlib import Path

import pytest

import posetlab
from posetlab import chains, embed, family, poset
from posetlab.errors import InvalidParam, OddN
from posetlab.family import middle_layers, serialize_family

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import contextlib, io, json, sys, types
if sys.argv[1:]:
    from posetlab.cli import run
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(sys.argv[1:])
else:
    import posetlab
    code = None
ran = [name for name in ("chains", "embed", "family", "poset", "search", "verify")
       if type(sys.modules["posetlab." + name]) is types.ModuleType]
slow = [name for name in ("dataclasses", "inspect") if name in sys.modules]
print(json.dumps({"code": code, "ran": ran, "slow": slow}))
"""


def _modules_run(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-S", "-c", _PROBE, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_runs_no_submodule():
    assert _modules_run() == {"code": None, "ran": [], "slow": []}


def test_poset_gen_runs_only_poset():
    assert _modules_run("poset", "gen", "--kind", "chain", "--params", "2") == {
        "code": 0, "ran": ["poset"], "slow": []}


@pytest.mark.parametrize("check", ["free", "saturated"])
def test_checks_do_not_run_search_chains_or_verify(tmp_path, check):
    path = tmp_path / "fam.txt"
    path.write_text(serialize_family(middle_layers(4, 2)))
    result = _modules_run("check", check, "--family", str(path),
                          "--forbid", "named:y(2,2)", "--forbid", "named:y'(2,2)")
    assert result["code"] == 0
    assert not {"search", "chains", "verify"} & set(result["ran"])
    assert result["slow"] == []


@pytest.mark.parametrize("argv", [
    ("search", "la", "--n", "3", "--forbid", "named:chain(2)"),
    ("verify", "paper", "--suite", "fast", "--max-n", "3"),
], ids=["search-la", "verify-paper"])
def test_search_and_verify_load_neither_dataclasses_nor_inspect(argv):
    result = _modules_run(*argv)
    assert result["code"] == 0
    assert result["slow"] == []


def test_public_names_are_the_home_module_objects():
    assert len(posetlab.__all__) == len(set(posetlab.__all__))
    for name in posetlab.__all__:
        obj = getattr(posetlab, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_and_dir_list_the_public_names():
    namespace = {}
    exec("from posetlab import *", namespace)
    assert set(posetlab.__all__) <= set(namespace)
    assert namespace["la_exact"] is posetlab.search.la_exact
    assert set(posetlab.__all__) <= set(dir(posetlab))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        posetlab.no_such_name  # noqa: B018


def test_check_entry_points_still_import_from_search():
    from posetlab import embed
    from posetlab.search import SaturationResult, saturation_check, verify_free

    assert (SaturationResult, saturation_check, verify_free) == (
        embed.SaturationResult, embed.saturation_check, embed.verify_free)


def test_verify_paper_default_seed(capsys):
    from posetlab.cli import run

    assert run(["verify", "paper", "--suite", "fast", "--max-n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 20240801


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: poset.antichain(0), InvalidParam, "k >= 1"),
        (lambda: poset.y_poset(0, 1), InvalidParam, "h, s >= 1"),
        (lambda: poset.t_r3_poset(1), InvalidParam, "r >= 2"),
        (lambda: poset.t_r3_poset(2, "x"), InvalidParam, "reading 'x'"),
        (lambda: poset.complete_multilevel([]), InvalidParam, "positive"),
        (lambda: poset.poset_from_covers([f"e{i}" for i in range(65)], []), InvalidParam,
         "at most 64"),
        (lambda: poset.all_height2_tree_posets(1), InvalidParam, "at least 2"),
        (lambda: family.full_layer(4, 5), InvalidParam, "outside 0..4"),
        (lambda: family.middle_layers(4, 0), InvalidParam, "1 <= h"),
        (lambda: family.f23_construction(2), InvalidParam, "n >= 4"),
        (lambda: family.f23_formula_size(5), OddN, "even n"),
        (lambda: chains.tail_count(16, log_base=1), InvalidParam, "log base"),
        (lambda: embed.InclusionBigraph((0b111,), (0b1,)), InvalidParam, "strictly smaller"),
        (lambda: embed.min_degree_subgraph(embed.InclusionBigraph((0b1,), (0b11,)), 0),
         InvalidParam, "d >= 1"),
    ],
    ids=["antichain-0", "y-h-0", "t3-r-1", "t3-reading", "multilevel-empty",
         "covers-65-labels", "height2-trees-1", "full-layer-k", "middle-h-0", "f23-n-2",
         "f23-formula-odd", "tail-log-base-1", "bigraph-sizes", "min-degree-0"],
)
def test_out_of_range_arguments_raise_typed_errors(build, error, message):
    with pytest.raises(error, match=message) as err:
        build()
    assert type(err.value) is error


# The value classes: Poset, SetFamily and InclusionBigraph are immutable
# values; the result records keep their field order and defaults.

def _values():
    a = poset.Poset(("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c")])
    b = poset.Poset(["a", "b", "c"], (("b", "c"), ("a", "b")))
    fam_a = family.SetFamily(3, (0b011, 0b001, 0b001))
    fam_b = family.SetFamily.from_sets(3, [[1], [1, 2]])
    graph_a = embed.InclusionBigraph((0b010, 0b001), (0b011,))
    graph_b = embed.InclusionBigraph([0b001, 0b010, 0b001], [0b011])
    return [(a, b), (fam_a, fam_b), (graph_a, graph_b)]


@pytest.mark.parametrize("pair", _values(), ids=["poset", "family", "bigraph"])
def test_equal_values_hash_equal_and_copy_equal(pair):
    x, y = pair
    assert x == y and not x != y and hash(x) == hash(y)
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert clone == x and hash(clone) == hash(x) and type(clone) is type(x)


def test_values_are_equal_only_to_the_same_class():
    (p, _), (fam, _), _ = _values()
    assert p != fam and fam != p
    assert p != (p.elements, p.covers) and fam != (fam.n, fam.members)
    assert poset.chain(2) != poset.antichain(2)
    assert family.SetFamily(3, (1,)) != family.SetFamily(4, (1,))


@pytest.mark.parametrize("pair", _values(), ids=["poset", "family", "bigraph"])
def test_fields_cannot_be_assigned_or_deleted(pair):
    x, _ = pair
    for field in vars(x).copy():
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert pair[0] == pair[1]


def test_reprs_name_the_fields():
    assert repr(poset.chain(2)) == "Poset(elements=('x1', 'x2'), covers=(('x1', 'x2'),))"
    assert repr(family.SetFamily(2, (2, 1))) == "SetFamily(n=2, members=(1, 2))"
    assert repr(embed.InclusionBigraph((1,), (3,))) == "InclusionBigraph(left=(1,), right=(3,))"


@pytest.mark.parametrize("pair", _values(), ids=["poset", "family", "bigraph"])
def test_a_repr_builds_an_equal_value(pair):
    x, _ = pair
    clone = eval(repr(x), {"Poset": poset.Poset, "SetFamily": family.SetFamily,
                           "InclusionBigraph": embed.InclusionBigraph})
    assert clone == x and type(clone) is type(x)


def test_fields_go_by_position_or_by_name():
    assert family.SetFamily(3, members=(2, 1)) == family.SetFamily(n=3, members=(1, 2))
    assert embed.Embedding(mode="weak", mapping={"x": 1}).mode == "weak"
    for args, named in [((3,), {}), ((3, (1,), ()), {}), ((3,), {"n": 3}),
                        ((), {"n": 3}), ((3,), {"members": (1,), "size": 1})]:
        with pytest.raises(TypeError, match=r"SetFamily\(\) takes the fields \('n', 'members'\)"):
            family.SetFamily(*args, **named)


def test_result_records_keep_their_order_and_defaults():
    from posetlab.search import SearchConfig
    from posetlab.verify import CheckResult

    cfg = SearchConfig()
    assert (cfg.budget_ms, cfg.symmetry_pruning) == (None, False)
    assert SearchConfig(5).budget_ms == 5 and SearchConfig(None, True).symmetry_pruning
    assert embed.SaturationResult(True) == embed.SaturationResult(True, None)
    assert embed.SaturationResult(False, 6) != embed.SaturationResult(False, 5)
    assert embed.SaturationResult(False, 6).counterexample == 6
    result = CheckResult("c", "claim", {"n": 1}, {}, True)
    assert result.name == "c"
    assert list(result.to_json_dict()) == ["name", "claim", "inputs", "observed", "pass"]


def test_each_family_build_runs_the_class_post_init_once(monkeypatch):
    builds = []
    original = family.SetFamily.__post_init__

    def counted(self):
        builds.append(self.n)
        original(self)

    monkeypatch.setattr(family.SetFamily, "__post_init__", counted)
    fam = family.middle_layers(4, 2)
    assert builds == [4]
    family.SetFamily.from_sets(3, [[1], [2, 3]])
    assert builds == [4, 3]
    copy.copy(fam), pickle.loads(pickle.dumps(fam))
    assert builds == [4, 3]
