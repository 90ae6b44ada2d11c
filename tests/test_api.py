"""The package's exports and the README's Python API block, run as written."""

import ast
import importlib.util
import pathlib
import re

import dephcap

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _api_block():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Python API"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_every_exported_name_resolves():
    missing = [name for name in dephcap.__all__ if not hasattr(dephcap, name)]
    assert missing == []


def test_readme_block_imports_only_exported_names_or_submodules():
    for node in ast.walk(ast.parse(_api_block())):
        if isinstance(node, ast.ImportFrom) and node.module == "dephcap":
            for alias in node.names:
                assert alias.name in dephcap.__all__ or importlib.util.find_spec(
                    f"dephcap.{alias.name}") is not None, alias.name


def test_readme_block_runs_in_a_fresh_namespace():
    exec(compile(_api_block(), str(README), "exec"), {})
