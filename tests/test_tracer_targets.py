"""The benchmark's tracer can wrap every function and method it names.

`perfbench/tracer.py` `Tracer.install` reads a function with
`getattr(module, name)` and a method with `cls.__dict__[name]`, so a target
that is deleted, renamed or only inherited makes it raise, and with it
every traced benchmark run.  This resolves each entry of `LAYER_TARGETS`
the same way, without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def layer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYER_TARGETS


def test_every_tracer_target_resolves_as_install_reads_it():
    unresolved = []
    for name, owner, attr in layer_targets():
        module_name, _, class_name = owner.partition(":")
        holder = importlib.import_module(module_name)
        if class_name:
            raw = vars(getattr(holder, class_name)).get(attr)
            ok = isinstance(raw, classmethod) or callable(raw)
        else:
            ok = callable(getattr(holder, attr, None))
        if not ok:
            unresolved.append(f"{name}: {owner}.{attr}")
    assert not unresolved
