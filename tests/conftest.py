import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# Interpreters the tests start (python -m lgw) import lgw from this checkout
# too, whether or not the caller set PYTHONPATH.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
