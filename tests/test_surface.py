"""The library's public surface has a caller outside the tests.

Every public top-level function or class of `src/gausslab`, and every public
method of such a class, must be named somewhere in `src/` or `perfbench/`
outside its own definition.  A function or class counts as named by a bare
name, an attribute or an import; a method only by an attribute (`x.meth`),
so that a local variable or a builtin of the same name does not count.  A
string that is a dotted identifier path (perfbench's traced names, such as
"CycloRing.reduce_matrix") names each of its parts; a string without a dot,
such as a dict key, names nothing.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gausslab"
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")

GL2_HELPER = "gl2's class, character and Bessel helpers stay until the GL_n oracle replaces gl2"

# name -> why it stays without a caller
ALLOWED = {
    "gl2.GL2Group.class_of": GL2_HELPER,
    "gl2.GL2Group.tau": GL2_HELPER,
    "gl2.CuspidalCharacter.value_at": GL2_HELPER,
    "gl2.bessel": GL2_HELPER,
    "gl2.bessel_vector": GL2_HELPER,
    "digits.carry_graph": "acceptance criterion 5: the carry graph behind v_a",
    "digits.core_vertex_count": "acceptance criterion 5: v_a of the digit-sum drop identity",
    "digits.digit_sum_shifted": "acceptance criterion 5: the shifted digit sum of the same identity",
    "ff.FieldTower.mul": "field arithmetic the tests build their references from",
    "ff.FieldTower.inv": "field arithmetic the tests build their references from",
    "ff.FieldTower.pow": "field arithmetic the tests build their references from",
}


def _sources():
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _public_definitions():
    """(qualified name, bare name, is method, path, first line, last line)."""
    for path, tree in _sources():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name, False, path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield (f"{path.stem}.{node.name}.{sub.name}", sub.name, True,
                               path, sub.lineno, sub.end_lineno)


def _references():
    """(name, names a method, path, line) for every naming of an identifier."""
    for path, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id, False, path, node.lineno
            elif isinstance(node, ast.Attribute):
                yield node.attr, True, path, node.lineno
            elif isinstance(node, ast.alias):
                yield node.name.split(".")[-1], False, path, node.lineno
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and DOTTED.fullmatch(node.value):
                for part in node.value.split("."):
                    yield part, True, path, node.lineno


def test_every_public_name_has_a_caller_outside_the_tests():
    refs = list(_references())
    definitions = list(_public_definitions())
    unused = [
        qual for qual, name, is_method, path, first, last in definitions
        if qual not in ALLOWED
        and not any(n == name and (m or not is_method) and not (p == path and first <= line <= last)
                    for n, m, p, line in refs)
    ]
    assert unused == [], "public names no workflow reaches: delete them or move them into tests/"
    assert set(ALLOWED) <= {d[0] for d in definitions}, "allowlist names a definition that is gone"
