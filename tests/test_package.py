import ast
import math
from pathlib import Path

import numpy as np
import pytest

import denseforest
from denseforest.errors import ResourceLimitError, check_limit

PACKAGE = Path(denseforest.__file__).resolve().parent


class TestCheckLimit:
    def test_need_equal_to_the_limit_passes(self):
        check_limit("rows", 5, 5)
        check_limit("rows", 2.5, 2.5)

    @pytest.mark.parametrize("need", [np.nextafter(2.5, 3.0), math.nan, math.inf])
    def test_refused(self, need):
        with pytest.raises(ResourceLimitError, match="rows exceed the limit of 2.5"):
            check_limit("rows", need, 2.5)

    def test_message_names_need_what_and_limit(self):
        with pytest.raises(ResourceLimitError,
                           match="^41 probes exceed the limit of 40$"):
            check_limit("probes", 41, 40)

    def test_integers_too_large_for_a_float_print_in_full(self):
        with pytest.raises(ResourceLimitError, match="^1" + "0" * 400 + " rows"):
            check_limit("rows", 10 ** 400, 10 ** 8)


def test_every_module_level_name_is_read_or_exported():
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    read = set(denseforest.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{name}:{d}" for d in defined
                       if d not in read and not d.startswith("__")]
    assert unread == []
