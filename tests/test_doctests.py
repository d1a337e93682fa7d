import doctest
import importlib
import pkgutil

import hopfchains


def test_module_doctests():
    # every module of the package, so that none can be left out
    names = [m.name for m in pkgutil.iter_modules(hopfchains.__path__, "hopfchains.")]
    assert "hopfchains.linalg" in names
    for mod in [hopfchains] + [importlib.import_module(n) for n in names]:
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__
