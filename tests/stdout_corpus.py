"""Print a digest of the CLI's stdout on a fixed set of 131 commands.

    python3 tests/stdout_corpus.py > corpus.txt

Run it from the root of a source checkout, on two commits, and compare the
outputs: equal lines mean byte-identical stdout and equal exit codes. Each
line is `sha256-of-stdout exit-code argv`, with a program file named by its
base name. The commands run in this process through `queenscheck.cli.main`,
under PYTHONHASHSEED=0 (the script runs itself again with it when it is not
set). The set: a seed-1 perfbench round of each workload (22 `solve`, 18
`verify` and 35 `query` ops), `solve 1..8` under each selection rule,
`solve 1..6 --boards`, `solve 5 --format records`, `solve 1..8 --mutate M`
for each mutant, and `verify all --depth 2`. pytest does not collect this
file, as its name does not start with `test_`.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def commands(workdir):
    import ops
    from queenscheck.queens import mutant_names

    out = []
    for workload in ("solve", "verify", "query"):
        out += [op.argv for op in ops.make_ops(workload, 1, 1, workdir)[0]]
    for rule in ("leftmost", "rightmost", "fair"):
        out += [["solve", str(n), "--rule", rule] for n in range(1, 9)]
    out += [["solve", str(n), "--boards"] for n in range(1, 7)]
    out.append(["solve", "5", "--format", "records"])
    for mutant in mutant_names():
        out += [["solve", str(n), "--mutate", mutant] for n in range(1, 9)]
    out.append(["verify", "all", "--depth", "2"])
    return out


def main():
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from queenscheck.cli import main as cli_main

    with tempfile.TemporaryDirectory() as workdir:
        for argv in commands(workdir):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(argv)
            shown = [Path(a).name if a.startswith(workdir) else a for a in argv]
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            print(digest, code, " ".join(shown), flush=True)


if __name__ == "__main__":
    main()
