"""Set-up sample for the benchmark: import dichroma's CLI and read every
file of a corpus, in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR CORPUS_DIR
"""

import os
import sys

sys.path.insert(0, sys.argv[1])
import dichroma.cli  # noqa: E402,F401

for name in sorted(os.listdir(sys.argv[2])):
    if name.endswith(".txt"):
        with open(os.path.join(sys.argv[2], name)) as fh:
            fh.read()
