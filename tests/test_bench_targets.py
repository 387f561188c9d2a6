"""The functions the traced benchmark wraps still live where it looks.

``perfbench/tracer.py`` wraps every entry of its ``TARGETS`` table at
install time: a module attribute, or a method found in its class's own
``__dict__``.  A refactor that moves one (say ``translate_bits`` into a base
class) would make every traced run fail, so this test reads the table and
checks each entry resolves.  The tracer is loaded from its file and not
modified.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _tracer().TARGETS


@pytest.mark.parametrize("target", TARGETS, ids=[t[0] for t in TARGETS])
def test_tracer_target_resolves(target):
    _, module, attr, _, _ = target
    mod = importlib.import_module("idealpack." + module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(mod, cls_name).__dict__.get(meth)), attr
    else:
        assert callable(getattr(mod, attr, None)), attr


def test_every_carrier_translates_in_its_own_class():
    from idealpack import groups

    carriers = {t[2].split(".")[0] for t in TARGETS if t[0].startswith("groups.translate_bits")}
    assert carriers == {"ZWindowGroup", "ZModGroup", "CayleyGroup", "FreeGroup2"}
    for name in carriers:
        assert "translate_bits" in vars(getattr(groups, name))
