"""The benchmark tracer's hook points exist and are restored on uninstall.

``perfbench/tracer.py`` wraps named attributes of the package (module
functions, methods, each catalog class's own ``prox``).  Renaming or
removing one of them breaks only traced benchmark runs, so this test
installs and uninstalls both tracer levels and checks every patched
attribute afterwards.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "perfbench"))

import tracer  # noqa: E402


def _lookup(owner, attr):
    # the tracer patches and restores class attributes through the class
    # dict, so that an inherited method is not copied onto the subclass
    if isinstance(owner, type):
        return owner.__dict__.get(attr)
    return getattr(owner, attr)


@pytest.mark.parametrize("detail", [False, True])
def test_install_patches_and_uninstall_restores(detail):
    t = tracer.Tracer(detail=detail)
    try:
        t.install()  # raises AttributeError for a hook point that is gone
        patched = list(t._undo)
        for owner, attr, original in patched:
            assert _lookup(owner, attr) is not original, (owner, attr)
    finally:
        t.uninstall()
    assert len(patched) >= len(tracer.COARSE)
    for owner, attr, original in patched:
        assert _lookup(owner, attr) is original, (owner, attr)
