"""Every shape the tests compile is checked against plain ``apply``.

The law kernels and image functions are generated source, and they are
the one evaluation path behind every verdict.  So the first time a test
run compiles a shape, kernel or image alike, the law or map it was
compiled for is checked again on a small window: window 1 (window 0
past three factors), each part of the domain cut to its first
``PART_LABELS`` labels.  The kernel's verdict and first failing label
are compared with a plain loop of ``apply``, and an image with
``apply`` label by label.  A disagreement fails the test that compiled
the shape, or the collection of the test module whose import compiled
it, and names the maps and the label.  The check holds no map after it
returns.

The reference is ``LinMap.apply`` and ``Space.enumerate`` as defined,
taken before any test can patch them, so that a test spying on either
sees nothing of the check.
"""

import itertools

import pytest

from hopfchains import linalg
from hopfchains.linalg import pair, show_label

PART_LABELS = 5

_apply = linalg.LinMap.apply
_enumerate = linalg.Space.enumerate
_kernel = linalg._kernel
_image = linalg._image

# what the checks found, as messages, until a test's teardown or a
# module's collection reports it
_disagreements = []


def _windows(dom, parts):
    "The cut window of each part, and the labels of their tensor in order."
    K = 1 if dom.arity <= 3 else 0
    windows = [_enumerate(p, K)[:PART_LABELS] for p in parts]
    return windows, [pair(*combo) for combo in itertools.product(*windows)]


def _verdict(checked, label):
    if label is None:
        return "equal on %d labels" % checked
    return "differ at label %d, %s" % (checked, show_label(label))


def _checked_kernel(f, g, parts):
    known = len(linalg._kernels)
    kernel = _kernel(f, g, parts)
    if len(linalg._kernels) > known:
        windows, labels = _windows(f.dom, parts)
        want = (len(labels), None)
        for n, label in enumerate(labels, 1):
            if _apply(f, label) != _apply(g, label):
                want = (n, label)
                break
        got = kernel(*windows)
        if got != want:
            _disagreements.append("kernel of %s == %s: %s, but by apply %s" % (
                f.name, g.name, _verdict(*got), _verdict(*want)))
    return kernel


def _checked_image(f):
    known = len(linalg._kernels)
    image = _image(f)
    if len(linalg._kernels) > known:
        for label in _windows(f.dom, f.dom.parts)[1]:
            got, want = image(label), _apply(f, label)
            if got != want:
                _disagreements.append("image of %s at %s: %r, but by apply %r" % (
                    f.name, show_label(label), got, want))
                break
    return image


linalg._kernel = _checked_kernel
linalg._image = _checked_image


def _reported():
    "The disagreements found so far, as one message; they are reported once."
    found = "\n".join(_disagreements)
    _disagreements.clear()
    return found


@pytest.hookimpl(hookwrapper=True)
def pytest_make_collect_report(collector):
    # a test module that compiles a disagreeing shape as it is imported
    # fails its collection, naming what the check found
    report = (yield).get_result()
    if isinstance(collector, pytest.Module) and _disagreements:
        found = _reported()
        if report.failed:
            found = "%s\n%s" % (report.longrepr, found)
        report.outcome, report.longrepr = "failed", found


@pytest.fixture(autouse=True)
def compiled_shapes_agree_with_apply():
    yield
    found = _reported()
    assert not found, found
