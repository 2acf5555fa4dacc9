"""The public surface spells each concept once, and README's quick start
states what the library computes."""

import ast
import importlib
from pathlib import Path

import pytest

import skewlin
from skewlin import Matrix, Quaternion

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "alias,target",
    [
        ("transpose", Matrix.transpose),
        ("is_automorphism", skewlin.is_rc_nonsingular),
    ],
)
def test_kept_alias_is_its_target(alias, target):
    assert getattr(skewlin, alias) is target


@pytest.mark.parametrize(
    "owner,name",
    [
        (skewlin, "identity"),
        (skewlin, "ONE"),
        (skewlin, "apply_map"),
        (skewlin, "compose_maps"),
        (skewlin, "dualize"),
        (skewlin.spaces, "apply_map"),
        (skewlin.spaces, "compose_maps"),
        (skewlin.spaces, "dualize"),
        (Matrix, "T"),
        (skewlin.BasisModel, "is_valid"),
        (skewlin.FiniteMonoid, "op"),
        (skewlin.FiniteMonoid, "opposite"),
        (skewlin.FiniteRepresentation, "transform"),
    ],
)
def test_second_spelling_is_gone(owner, name):
    assert not hasattr(owner, name)


@pytest.mark.parametrize("module_name", ["bundles", "representations"])
def test_lazy_names_are_what_their_module_defines(module_name):
    module = importlib.import_module(f"skewlin.{module_name}")
    defined = {name for name, value in vars(module).items()
               if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__}
    listed = {name for name, owner in skewlin._LAZY.items() if owner == module_name}
    assert listed == defined | {module_name}
    assert getattr(skewlin, module_name) is module
    for name in defined:
        assert getattr(skewlin, name) is getattr(module, name)


def test_lazy_names_are_listed_and_star_imported():
    names = dir(skewlin)
    assert names == sorted(names) and set(skewlin._LAZY) <= set(names)
    namespace = {}
    exec("from skewlin import *", namespace)
    for name in [*skewlin._LAZY, "Matrix", "rc_rank", "SingularMatrixError", "BasisModel"]:
        assert namespace[name] is getattr(skewlin, name)
    assert not {name for name in namespace if name.startswith("_")} - {"__builtins__"}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'skewlin' has no attribute 'Sections'"):
        skewlin.Sections


def test_scalars_act_on_matrices_through_scale_left_only():
    with pytest.raises(TypeError):
        Quaternion(2) * Matrix.identity(1)


def _readme_quick_start_values():
    """Run README's ``python`` block statement by statement and return the
    value of each bare expression, in order."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return namespace, values


def test_readme_quick_start_values():
    namespace, values = _readme_quick_start_values()
    rc_qdet, cr_qdet, rc_rank, cr_rank, particular, basis = values
    assert str(rc_qdet) == "0"
    assert str(cr_qdet) == "1+k"
    assert (rc_rank, cr_rank) == (1, 2)
    assert str(particular) == "[1, 0]"
    (row,) = basis
    assert skewlin.rc_product(row, namespace["a"]).is_zero()
