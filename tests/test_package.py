"""The package surface: ``fluxgate`` re-exports exactly the ``__all__`` of
its numerical modules, each name bound to its module's object, and no
removed second spelling survives."""

import importlib

import pytest

import fluxgate
from fluxgate import profiles

MODULES = tuple(
    importlib.import_module(f"fluxgate.{name}")
    for name in ("device", "errors", "pulses", "propagator", "fidelity",
                 "optimizer", "opensystem", "robustness")
)

# Path wrappers (the caller opens the file and uses the codec) and second
# spellings of another name.
REMOVED = [
    ("device", "load_device"),
    ("optimizer", "load_constraints"),
    ("pulses", "load_schedule_csv"),
    ("pulses", "save_schedule_csv"),
    ("pulses", "load_schedule_json"),
    ("pulses", "save_schedule_json"),
    ("fidelity", "ccphase_ideal"),
    ("fidelity", "compensation_matrix"),
]


def test_package_all_is_union_of_module_all():
    union = [name for module in MODULES for name in module.__all__]
    assert len(set(union)) == len(union), "a name is public in two modules"
    assert len(set(fluxgate.__all__)) == len(fluxgate.__all__)
    assert set(fluxgate.__all__) == set(union)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_names_resolve_to_module_objects(module):
    for name in module.__all__:
        assert getattr(fluxgate, name) is getattr(module, name), name


def test_profiles_stay_out_of_package_namespace():
    assert not set(profiles.__all__) & set(vars(fluxgate))


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_name_is_gone(module, name):
    assert not hasattr(fluxgate, name)
    assert not hasattr(importlib.import_module(f"fluxgate.{module}"), name)
