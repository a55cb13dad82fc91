"""Which modules each path loads, and the package's exports.

``import foliagraph`` loads the graph core only; the reduction, scalar
and surface layers load on first use.  Loading is watched in fresh
``python -S`` interpreters: in this one every module is loaded already.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import foliagraph

SRC = str(Path(__file__).resolve().parent.parent / "src")
CORE = ["foliagraph", "foliagraph.fileio", "foliagraph.graph"]

GRAPHS = [
    "graph theta\n  vertex m MERGE 3/4\n  vertex s SPLIT 1/4\n"
    "  edge e0 m.out0 -> s.in0 winding 0\n  edge e1 s.out0 -> m.in0 winding 0\n"
    "  edge e2 s.out1 -> m.in1 winding 0\nend\n",
    "graph dumbbell\n  vertex m MERGE 3/4\n  vertex s SPLIT 1/4\n"
    "  edge e1 s.out0 -> m.in0 winding 0\n  edge e2 m.out0 -> m.in1 winding 1\n"
    "  edge e3 s.out1 -> s.in0 winding 1\nend\n",
    "graph c freecircle 2 end\n",
]

SURFACE = (
    "scalar lam irrational approx [141/100, 71/50]\n"
    "scalar mu irrational approx [173/100, 87/50]\n"
    "surface example4\n"
    "  summand t1 periods (1, lam)\n"
    "  summand t2 periods (1, mu)\n"
    "  tube u t1 t2 kind C disks small small\n"
    "end\n"
)


def _fresh(code: str) -> dict:
    """Run ``code`` after ``import foliagraph as fg`` in a fresh interpreter
    without site-packages; it calls ``report(key, value)``, and the
    reports come back as a dict.  ``modules()`` is the sorted names of the
    loaded package modules, ``everything()`` of all loaded modules."""
    prelude = (
        "import json, sys\n"
        "import foliagraph as fg\n"
        "out = {}\n"
        "def report(key, value): out[key] = value\n"
        "def modules(): return sorted(m for m in sys.modules if m.split('.')[0] == 'foliagraph')\n"
        "def everything(): return set(sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", prelude + code + "\nprint(json.dumps(out))\n"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_the_graph_core_only():
    assert _fresh("report('modules', modules())") == {"modules": CORE}


def test_deciding_a_graph_loads_no_module():
    got = _fresh(
        f"texts = {GRAPHS!r}\n"
        "before = everything()\n"
        "for text in texts:\n"
        "    g = fg.parse(text)\n"
        "    fg.validate(g), fg.complexity(g), fg.is_calabi(g)\n"
        "report('verdicts', [fg.is_calabi(fg.parse(t)).verdict for t in texts])\n"
        "report('added', sorted(everything() - before))\n"
    )
    # Both certificate kinds ran: the cycles and the obstruction.
    assert got == {"verdicts": [True, False, True], "added": []}


@pytest.mark.parametrize(
    "code",
    [
        f"for text in {GRAPHS!r}:\n"
        "    g = fg.parse(text)\n"
        "    fg.validate(g), fg.complexity(g), fg.is_calabi(g)\n",
        f"fg.harmonize(fg.parse({GRAPHS[1]!r}))\n",
        f"fg.consistency_check(fg.parse({SURFACE!r}))\n",
        "[getattr(fg, name) for name in fg.__all__]\n",
        "from foliagraph.cli import main\nmain(['harmonize', 'builtin:dumbbell'])\n",
        "from foliagraph.cli import main\nmain(['surface-check', 'example:4'])\n",
    ],
    ids=["decide", "harmonize", "surface", "exports", "cli-harmonize", "cli-surface-check"],
)
def test_deciding_a_graph_loads_no_dataclasses_inspect_ast_or_typing(code):
    # Every record is a named tuple: no layer and no path pays for these
    # standard modules.
    got = _fresh(code + "report('loaded', sorted(everything() & {'dataclasses', 'inspect', 'ast', 'typing'}))\n")
    assert got == {"loaded": []}


def test_harmonize_loads_the_reduction_layer_only():
    got = _fresh(
        f"g = fg.parse({GRAPHS[1]!r})\n"
        "fg.harmonize(g)\n"
        "report('modules', modules())\n"
    )
    assert got == {"modules": CORE + ["foliagraph.reduction"]}


def test_a_surface_file_loads_the_scalar_and_surface_layers_only():
    got = _fresh(
        f"m = fg.parse({SURFACE!r})\n"
        "report('ok', fg.consistency_check(m).ok)\n"
        "report('modules', modules())\n"
    )
    assert got == {"ok": True, "modules": CORE + ["foliagraph.scalars", "foliagraph.surfaces"]}


@pytest.mark.parametrize(
    "argv, status, layers",
    [
        (["calabi", "builtin:theta"], 0, []),
        (["surface-check", "example:4"], 0, ["foliagraph.scalars", "foliagraph.surfaces"]),
        (["harmonize", "builtin:dumbbell"], 0, ["foliagraph.reduction"]),
    ],
)
def test_cli_commands_load_only_their_layers(argv, status, layers):
    got = _fresh(
        "from foliagraph.cli import main\n"
        f"report('status', main({argv!r}))\n"
        "report('modules', modules())\n"
    )
    assert got == {"status": status, "modules": sorted(CORE + ["foliagraph.cli"] + layers)}


def test_every_export_is_its_modules_object():
    modules = [import_module(f"foliagraph.{m}") for m in ("fileio", "graph", "reduction", "scalars", "surfaces")]
    assert len(set(foliagraph.__all__)) == len(foliagraph.__all__)
    for name in foliagraph.__all__:
        homes = [vars(m)[name] for m in modules if name in vars(m)]
        assert homes, name
        assert all(getattr(foliagraph, name) is home for home in homes), name


def test_star_import_and_dir_list_every_export():
    namespace: dict = {}
    exec("from foliagraph import *", namespace)
    assert set(foliagraph.__all__) <= set(namespace)
    assert set(foliagraph.__all__) <= set(dir(foliagraph))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_export'"):
        foliagraph.no_such_export
