"""Compare the result files of two benchmark runs, or two directories of them.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are result files written by run.py (perfbench/out/result-*.json)
or directories holding them; runs are paired by workload, seed and trace
flag. For each pair it prints the end-to-end metrics side by side and says
whether the work ledgers agree. A ledger difference means the two runs did
not do the same work (fewer instances, a smaller slice, other answers), so
a time difference between them is not a speed-up. Exits 1 if any ledger
differs.
"""

import json
import sys
from pathlib import Path


def load(path):
    path = Path(path)
    files = sorted(path.glob("result-*.json")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        rec = json.loads(f.read_text())
        runs[(rec["workload"], rec["seed"], rec["trace"])] = rec
    return runs


def ledger_diff(old, new):
    """Lines naming each op whose work counts differ."""
    out = []
    if len(old["ledger"]) != len(new["ledger"]):
        out.append(f"  op count {len(old['ledger'])} -> {len(new['ledger'])}")
    for i, (a, b) in enumerate(zip(old["ledger"], new["ledger"])):
        a = {k: v for k, v in a.items() if k != "argv"}
        b = {k: v for k, v in b.items() if k != "argv"}
        if a != b:
            keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
            changes = "; ".join(f"{k}: {a.get(k)!r} -> {b.get(k)!r}" for k in keys)
            out.append(f"  op {i} ({a.get('kind')}): {changes}")
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    differ = False
    for key in sorted(set(old) & set(new)):
        a, b = old[key], new[key]
        print(f"{key[0]} seed {key[1]} trace {key[2]}")
        for name, va in a["end_to_end"].items():
            vb = b["end_to_end"].get(name)
            if vb is None:
                continue
            change = f"{(vb - va) / va:+.1%}" if va else "n/a"
            print(f"  {name:<14} {va:12.6g} -> {vb:12.6g}  {change}")
        if a["ledger_digest"] == b["ledger_digest"]:
            print("  work ledger: same work")
        else:
            differ = True
            print("  work ledger DIFFERS: the runs did not do the same work")
            for line in ledger_diff(a, b)[:40]:
                print(line)
    unpaired = sorted(set(old) ^ set(new))
    if unpaired:
        print(f"unpaired runs: {unpaired}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
