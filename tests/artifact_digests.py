"""SHA-256 of every acceptance artifact, one line per file.

Runs the emitters of criteria 1-8 of test_acceptance.py at one and at two
workers, and criterion 9, into a temporary directory, and prints one
`sha256  criterion/workers/file` line per artifact.  Two checkouts emit the
same artifacts exactly when their outputs are equal:

    python3 tests/artifact_digests.py > digests.txt

The name does not start with test_, so pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import test_acceptance  # noqa: E402


def emit_c9(outdir, workers):
    # criterion 9 writes its artifact from its test; its report line is dropped
    with contextlib.redirect_stdout(io.StringIO()):
        test_acceptance.test_criterion_09_petersen_negative_control(outdir)


def main():
    emitters = test_acceptance.EMITTERS
    runs = [(name, workers, emitters[name])
            for name in sorted(emitters) for workers in (1, 2)]
    runs.append(("c9", 1, emit_c9))
    with tempfile.TemporaryDirectory() as tmp:
        for name, workers, emit in runs:
            outdir = Path(tmp) / name / str(workers)
            outdir.mkdir(parents=True)
            emit(outdir, workers)
            for path in sorted(outdir.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(tmp)}", flush=True)


if __name__ == "__main__":
    main()
