import importlib

import fluidtail


def test_every_exported_name_resolves():
    # the spectral names load lazily through the module's __getattr__
    assert len(set(fluidtail.__all__)) == len(fluidtail.__all__)
    for name in fluidtail.__all__:
        assert getattr(fluidtail, name) is not None, name
    for name in fluidtail._SPECTRAL:
        assert name in fluidtail.__all__
        spectral = importlib.import_module("fluidtail.spectral")
        assert getattr(fluidtail, name) is getattr(spectral, name)


def test_star_import():
    namespace = {}
    exec("from fluidtail import *", namespace)
    assert set(fluidtail.__all__) <= namespace.keys()
