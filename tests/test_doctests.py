import doctest

from hopfchains import chains, diffhopf, grading, linalg, pareigis


def test_module_doctests():
    for mod in (linalg, grading, diffhopf, pareigis, chains):
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__
