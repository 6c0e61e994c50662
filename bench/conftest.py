import sys
from pathlib import Path

# The benchmark imports qunic from the checkout's sources, as run.py arranges for its workers.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
