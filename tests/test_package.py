"""The package loads its submodules on first use, and the public API is unchanged.

Which modules a command runs is checked in a fresh interpreter: a submodule
that has not run is still a lazy module in sys.modules, and its type turns
into types.ModuleType once its code has run.
"""
import json
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
print(json.dumps({"code": code, "ran": ran}))
"""


def _modules_run(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_runs_no_submodule():
    assert _modules_run() == {"code": None, "ran": []}


def test_poset_gen_runs_only_poset():
    assert _modules_run("poset", "gen", "--kind", "chain", "--params", "2") == {
        "code": 0, "ran": ["poset"]}


@pytest.mark.parametrize("check", ["free", "saturated"])
def test_checks_do_not_run_search_chains_or_verify(tmp_path, check):
    path = tmp_path / "fam.txt"
    path.write_text(serialize_family(middle_layers(4, 2)))
    result = _modules_run("check", check, "--family", str(path),
                          "--forbid", "named:y(2,2)", "--forbid", "named:y'(2,2)")
    assert result["code"] == 0
    assert not {"search", "chains", "verify"} & set(result["ran"])


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
