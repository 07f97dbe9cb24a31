"""The benchmark tracer can still patch every name it wraps.

perfbench/tracer.py patches package attributes by name (its WRAPS
table); a wrapped name that is renamed or removed must fail here rather
than in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner_and_attr(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def test_tracer_installs_and_uninstalls_every_wrap():
    tracer_module = _load_tracer()
    originals = [(owner, attr, owner.__dict__.get(attr))
                 for owner, attr in (_owner_and_attr(m, a)
                                     for m, a, _ in tracer_module.WRAPS)]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for owner, attr, original in originals:
            assert owner.__dict__[attr].__wrapped__ is original
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__.get(attr) is original
