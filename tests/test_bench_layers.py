"""The benchmark's traced layers still name functions of the package.

``mixbench/tracing.py`` patches each ``LAYERS`` entry where its caller looks
it up, so a refactor that renames or stops importing one of those names
breaks the traced benchmark run. This check reads the list and resolves
every entry without patching anything.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "mixbench" / "tracing.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("mixbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, module, path in tracing.LAYERS:
        owner = importlib.import_module(module)
        try:
            for part in path.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(f"{name}: {module}.{path}")
            continue
        if not callable(owner):
            missing.append(f"{name}: {module}.{path} is not callable")
    assert not missing, missing
