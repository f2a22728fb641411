"""The oracles stay independent of the code they check: ``tests/oracles.py``
may take from the package only the machine types, the decoder and the
errors these raise."""

import ast
from pathlib import Path

ALLOWED = {"decode_machine", "InvalidCodeError", "MachineITM", "MachineTM", "MachineValidationError"}


def package_imports(source):
    """The names a module's source imports from the package."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "minprog":
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names if alias.name.split(".")[0] == "minprog"}
    return names


def test_oracles_import_only_the_machine_types_the_decoder_and_its_errors():
    source = Path(__file__).with_name("oracles.py").read_text()
    assert package_imports(source) <= ALLOWED
