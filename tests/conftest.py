"""Test session set-up: tests that start `python -m spinpoint.cli` in a
subprocess import the package from this checkout, as the in-process
tests do through pytest's `pythonpath` setting."""

import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
