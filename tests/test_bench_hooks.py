"""The benchmark's span recorder (gsbench/spans.py) against the package.

The recorder wraps the layer functions it names by their bindings, so a
renamed or deleted layer function breaks traced benchmark runs; these tests
catch that in the regular suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from gsembed import EmbeddingProblem, cli

SPANS = Path(__file__).resolve().parent.parent / "gsbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("gsbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # read only
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = keep
    return mod


def _bindings():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "gsembed" or name.startswith("gsembed."))}


def test_every_layer_resolves(spans):
    for mod_name, funcs in spans.LAYERS.items():
        mod = importlib.import_module(f"gsembed.{mod_name}")
        for fname in funcs:
            assert callable(getattr(mod, fname, None)), f"{mod_name}.{fname}"


def test_install_and_uninstall_restore_bindings(spans):
    rec = spans.Recorder()
    rec.install()  # imports every layer module before the snapshot below
    rec.uninstall()
    before = _bindings()
    rec.install()
    try:
        from gsembed import embanalyzer
        assert embanalyzer.ellr_membership is not before["gsembed.embanalyzer"]["ellr_membership"]
        # deciding renders nothing; printing the verdict renders its criterion
        rec.run_op(0, lambda pr: cli._jsonable(embanalyzer.compactness(pr)),
                   EmbeddingProblem("2^(2*j)", "1", 1, 1, "inf", "inf", 1))
    finally:
        rec.uninstall()
    names = {row[3] for row in rec.rows()}
    assert {"embanalyzer.compactness", "embanalyzer.criterion_sequence",
            "embanalyzer.ellr_membership", "seqdsl.render"} <= names
    after = _bindings()
    for mod_name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[mod_name][attr] is value, f"{mod_name}.{attr}"
