"""Set-up cost in a fresh interpreter: import, fixture load and one warm-up op.

Usage: python3 bench/coldstart.py MODEL_DIR OP_ARGV_JSON

Prints one JSON object with ``import_s`` (``import lftident.cli``) and
``setup_s`` (import, loading every model file in MODEL_DIR, and the op).
The caller puts the checkout's ``src`` on PYTHONPATH and sets the BLAS
thread count in the environment.
"""

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    model_dir, argv = Path(sys.argv[1]), json.loads(sys.argv[2])
    start = perf_counter()
    import lftident.cli
    import lftident.model

    imported = perf_counter()
    for path in sorted(model_dir.glob("*.json")):
        lftident.model.load_model(path)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = lftident.cli.main(argv)
    done = perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": done - start, "rc": rc}))
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
