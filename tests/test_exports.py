import importlib
import pkgutil

import wavelab
from wavelab import regions


def test_every_exported_name_resolves():
    # a name left in __all__ after its code moved or went fails here, not at
    # a user's `from wavelab.x import *`
    names = ["wavelab"] + [f"wavelab.{m.name}" for m in pkgutil.iter_modules(wavelab.__path__)
                           if not m.name.startswith("__")]
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)
    # one quadrature engine; the dense weights are a test reference only
    assert "influence_quadrature" in regions.__all__
    assert {"strip_quadrature", "lattice_weights", "StripBounds"}.isdisjoint(regions.__all__)
