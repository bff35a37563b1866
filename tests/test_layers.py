"""The independence between layers that makes their agreement meaningful:
the series oracle and the symmetric-function checks do not reuse the exact
routes, and the exact routes do not reuse them."""

import ast
import importlib
from pathlib import Path

import pytest

import tsums

SRC = Path(tsums.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))
LAYERS = ["exact", "series", "formulas", "symfunc", "oracle"]


def imports(module):
    """The package modules one module imports from, each with the set of
    names it takes; a whole-module import is recorded as "*"."""
    found = {}
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                base = node.module
            elif node.module == "tsums" or (node.module or "").startswith("tsums."):
                base = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if base is None:  # from . import x
                    found.setdefault(alias.name, set()).add("*")
                else:
                    found.setdefault(base, set()).add(alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "tsums":
                    found.setdefault(rest or "__init__", set()).add("*")
    return found


def test_oracle_takes_only_pi_power_from_exact():
    # _Frozen is the base of the package's records and holds no number and
    # no route: only the record plumbing.  _index is plumbing too: it turns
    # an argument into a plain int or refuses it, and computes no value, so
    # sharing it ties the oracle to no exact route.  _at_least (a lower
    # bound on top of _index) and _check_args (a cell's (n, d) on top of
    # _index) are plumbing in the same way.
    assert imports("oracle") == {"exact": {"PiPower", "_Frozen", "_index", "_at_least",
                                           "_check_args"}}
    assert tsums.oracle._index is tsums.exact._index
    assert tsums.oracle._at_least is tsums.exact._at_least
    assert tsums.oracle._check_args is tsums.exact._check_args
    plumbing = {"__init_subclass__", "__init__", "__eq__", "__hash__", "__repr__",
                "__reduce__", "__setattr__", "__delattr__"}
    held = set(vars(tsums.exact._Frozen))
    assert held - {"__module__", "__qualname__", "__doc__", "__slots__",
                   "__firstlineno__", "__static_attributes__"} == plumbing
    assert tsums.exact._Frozen.__slots__ == ()


def test_symfunc_takes_only_pi_power_eval_from_oracle():
    # Nor does it reuse the exact routes (formulas, series).  From the
    # oracle it takes what specialize_odd_squares reads: pi_power_eval and
    # the precision check _check_dps, which reads no value.  From exact it
    # takes PiPower, the type of the exact image, and plumbing, as the
    # oracle does: _index, _at_least and _check_args.  _rational, which
    # turns an int coefficient into a Fraction or refuses a float, is
    # plumbing too, and so is _over_one_denominator, which writes given
    # rationals as integers over their lcm and reads no route's numbers.
    # _Frozen, the records' base, and _set, which sets a record's field,
    # are the record plumbing.
    assert imports("symfunc") == {"exact": {"PiPower", "_index", "_at_least", "_check_args",
                                            "_rational", "_over_one_denominator", "_Frozen",
                                            "_set"},
                                  "oracle": {"pi_power_eval", "_check_dps"}}
    assert tsums.symfunc._check_args is tsums.exact._check_args
    assert tsums.symfunc._rational is tsums.exact._rational
    assert tsums.formulas._over_one_denominator is tsums.exact._over_one_denominator


def test_series_takes_only_checks_from_exact():
    # The genfunc route reads no number from the exact layer: series takes
    # only the order check _at_least and the coefficient check _rational,
    # which compute no value, so its table stays independent of the closed
    # forms it is compared with.
    assert imports("series") == {"exact": {"_at_least", "_rational"}}
    assert tsums.series._at_least is tsums.exact._at_least
    assert tsums.series._rational is tsums.exact._rational


@pytest.mark.parametrize("module", ["formulas", "series"])
def test_exact_routes_do_not_use_the_checks(module):
    assert not {"oracle", "symfunc"} & set(imports(module))


def test_reader_sees_every_import_form():
    # verify takes each layer whole, and no record plumbing: its report is
    # a plain dict.
    assert imports("verify") == {layer: {"*"} for layer in
                                 ("exact", "formulas", "oracle", "series", "symfunc")}
    assert "t_numeric" in imports("cli")["oracle"]
    assert imports("formulas")["series"] == {"genfunc_biseries"}


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = tsums if module == "__init__" else importlib.import_module(f"tsums.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_exports_each_layer_name_once():
    layers = [importlib.import_module(f"tsums.{name}") for name in LAYERS]
    names = [name for mod in layers for name in mod.__all__]
    assert tsums.__all__ == [*names, "__version__"]
    # A name in two layers would be shadowed silently by the star imports.
    assert len(set(names)) == len(names)
    assert [(mod.__name__, name) for mod in layers for name in mod.__all__
            if getattr(tsums, name) is not getattr(mod, name)] == []
