"""The site table of ``tests/mutants.py`` against the source it mutates.

No mutant runs here.  Each site's function must exist and hold its pattern
as often as the table says, its mutant must still parse, and each owning
test must exist, so that a rename cannot silently empty the mutation check.
"""

import ast
import functools
import os

import pytest

import mutants


@functools.cache
def source(path):
    with open(os.path.join(mutants.ROOT, path)) as f:
        return f.read()


@functools.cache
def definitions(path):
    """Qualified names of the classes and functions defined in ``path``."""
    tree = ast.parse(source(path))
    names = set()

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + node.name)
                visit(node.body, prefix + node.name + "::")

    visit(tree.body, "")
    return names


def test_site_names_are_unique():
    names = [site.name for site in mutants.SITES]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("site", mutants.SITES, ids=lambda site: site.name)
def test_site_matches_the_source(site):
    assert 0 <= site.nth < site.count and site.old != site.new
    mutated = mutants.mutate(source(site.path), site)
    ast.parse(mutated)
    assert mutated != source(site.path)
    for test in site.tests:
        path, _, name = test.partition("::")
        assert name in definitions(path), test
