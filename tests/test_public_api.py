"""The public surface spells each concept once, and README's quick start
states what the library computes."""

import ast
from pathlib import Path

import pytest

import skewlin
from skewlin import Matrix, Quaternion

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "alias,target",
    [
        ("transpose", Matrix.transpose),
        ("dualize", Matrix.transpose),
        ("apply_map", skewlin.rc_product),
        ("compose_maps", skewlin.rc_product),
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
        (Matrix, "T"),
        (skewlin.BasisModel, "is_valid"),
        (skewlin.FiniteMonoid, "op"),
        (skewlin.FiniteMonoid, "opposite"),
        (skewlin.FiniteRepresentation, "transform"),
    ],
)
def test_second_spelling_is_gone(owner, name):
    assert not hasattr(owner, name)


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
