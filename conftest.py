"""Test-session setup: no bytecode caches are written, by pytest or by the
interpreters its tests start, so a test run leaves no ``__pycache__`` in
``src/`` behind to change what a later run of the package imports."""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
