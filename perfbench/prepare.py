"""Train the decode checkpoints in a child process of the benchmark.

    python3 perfbench/prepare.py ROOT OUT_DIR N_DIALOGUES

ROOT is the checkout whose src/ is under test.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root, out, n_dialogues = Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3])
    sys.path.insert(1, str(root / "src"))
    import workloads

    workloads.build_models(out, n_dialogues)
