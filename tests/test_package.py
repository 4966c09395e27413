"""The package namespace: lazily resolved public names and submodules."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from test_cli import _fresh_interpreter

import bornchoice


def test_every_public_name_is_the_submodule_object():
    assert bornchoice.__all__[0] == "__version__"
    for name in bornchoice.__all__[1:]:
        module = importlib.import_module(f"bornchoice.{bornchoice._ORIGIN[name]}")
        value = getattr(bornchoice, name)
        assert value is getattr(module, name), name
        if callable(value):
            # defined there, not re-exported from another submodule
            assert value.__module__ == module.__name__, name


def test_dir_covers_all_and_the_submodules():
    assert len(set(bornchoice.__all__)) == len(bornchoice.__all__)
    listed = set(dir(bornchoice))
    assert set(bornchoice.__all__) <= listed
    assert {"classical", "hilbert", "quantum", "scenarios", "solver", "stats"} <= listed


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from bornchoice import *", namespace)
    assert {name: namespace[name] for name in bornchoice.__all__} == {
        name: getattr(bornchoice, name) for name in bornchoice.__all__
    }


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="nonesuch"):
        bornchoice.nonesuch  # noqa: B018


def test_import_loads_no_submodule_until_asked():
    loaded = _fresh_interpreter(
        "import json, sys\n"
        "import bornchoice\n"
        "before = sorted(m for m in sys.modules if m.startswith('bornchoice.'))\n"
        "solve = bornchoice.solver.solve\n"
        "print(json.dumps({'before': before, 'solve': solve.__module__,\n"
        "                  'solver': 'bornchoice.solver' in sys.modules}))\n"
    )
    assert loaded == {"before": [], "solve": "bornchoice.solver", "solver": True}


def test_verification_layers_load_no_numpy():
    loaded = _fresh_interpreter(
        "import json, sys\n"
        "import bornchoice.quantum, bornchoice.report, bornchoice.verification\n"
        "before = 'numpy' in sys.modules\n"
        "from bornchoice.hilbert import CheckLine, ValidationReport\n"
        "print(json.dumps({'before': before, 'after': 'numpy' in sys.modules,\n"
        "                  'same': CheckLine is bornchoice.report.CheckLine\n"
        "                          and ValidationReport is bornchoice.report.ValidationReport}))\n"
    )
    assert loaded == {"before": False, "after": True, "same": True}


def test_expected_utility_and_preference_load_no_numpy():
    # numpy is blocked in a fresh interpreter, so any import of it raises ImportError
    got = _fresh_interpreter(
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from bornchoice import quantum, scenarios\n"
        "w = quantum.state_from_polar(scenarios.builtin('ellsberg3'), (3 ** -0.5, 0.5 ** 0.5, 6 ** -0.5))\n"
        "print(json.dumps({'values': [quantum.expected_utility(w, a) for a in ('f1', 'f2', 'f3', 'f4')],\n"
        "                  'preferences': [quantum.preference(w, 'f1', 'f2'), quantum.preference(w, 'f4', 'f3')],\n"
        "                  'hilbert': 'bornchoice.hilbert' in sys.modules}))\n"
    )
    from bornchoice import quantum, scenarios

    w = quantum.state_from_polar(scenarios.builtin("ellsberg3"), (3 ** -0.5, 0.5 ** 0.5, 6 ** -0.5))
    assert got == {
        "values": [quantum.expected_utility(w, a) for a in ("f1", "f2", "f3", "f4")],
        "preferences": [">", "<"],
        "hilbert": False,
    }


@pytest.mark.parametrize("call", ["scenarios.act_operator(s, 'f1')", "quantum.initial_state(s).ket()"])
def test_operator_api_loads_hilbert(call):
    loaded = _fresh_interpreter(
        "import json, sys\n"
        "from bornchoice import quantum, scenarios\n"
        "s = scenarios.builtin('ellsberg3')\n"
        "before = 'bornchoice.hilbert' in sys.modules\n"
        f"{call}\n"
        "print(json.dumps({'before': before, 'after': 'bornchoice.hilbert' in sys.modules}))\n"
    )
    assert loaded == {"before": False, "after": True}


def test_no_source_file_imports_dataclasses():
    importers = []
    for path in sorted(Path(bornchoice.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "dataclasses" for module in modules):
                importers.append(path.name)
    assert importers == []
