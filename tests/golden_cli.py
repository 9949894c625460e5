"""Golden record of the CLI's output, for proving that a change keeps it.

Runs a fixed command set in-process at one BLAS thread and writes one JSON
that maps each command line to its exit code, stdout, stderr and the
files it wrote:

    PYTHONPATH=src python tests/golden_cli.py --out golden.json

``--threads N`` runs BLAS and OpenMP at N threads instead, set before numpy
loads, so two records show what the thread count changes.  The one-thread
record is checked in, gzipped, as ``tests/golden/record.json.gz``, and
``tests/test_golden_cli.py`` compares a fresh run with it at ``--tol 0``;

    PYTHONPATH=src python tests/golden_cli.py --update

rewrites it.  A path that ends in ``.gz`` is read and written gzipped.

The set covers K = 2..5 with two budget and two fixed-memory instances
per K, seeded, 288 commands: ``solve --out`` (joint and intra),
``verify --scheme`` of both schemes (F = 1e4 with ``--out``, 1e6, 1 and 7),
``verify`` without a scheme in both modes (F = 5000, ``--out``),
``bounds``, ``compare-baselines`` and, for budgets, ``sweep``, each of the
last three in CSV and JSON, and ``compare-baselines --points 2``.  Beyond
the reach of the scheme program it runs only ``bounds`` (CSV and JSON),
on two budget instances per K = 6..9 and two fixed-memory instances per
K = 6..14: 52 more commands.  Three hand-made instances whose caches
are empty or full beyond the zero point (``REDUCED``) add 9
``compare-baselines`` commands, 349 in all.  Paths are recorded relative
to the working directory, so records made from two checkouts line up.

    python tests/golden_cli.py --compare before.json after.json --tol 1e-9

lists every command whose exit code differs, whose text differs outside
its numbers, or whose numbers differ by more than the tolerance, and
exits 1 if there is any.  At ``--tol 0`` it also lists every text whose
bytes differ where the numbers parse equal ("1.0" against "1.00"), so "0
of 349 commands differ beyond 0" means the records are byte-identical.  The file has no ``test_`` prefix, so pytest
does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RECORD = Path(__file__).resolve().parent / "golden" / "record.json.gz"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b")


def instances(K: int) -> list[tuple[str, dict]]:
    """Two budget then two fixed-memory instances with K users."""
    import numpy as np  # only once the thread count is set

    rng = np.random.default_rng(1000 + K)
    out = []
    for i in range(4):
        rates = sorted(float(r) for r in rng.uniform(0.05, 1.0, K))
        doc = {"K": K, "N": K, "rates": rates}
        if i < 2:
            doc["budget"] = float(rng.uniform(0.0, sum(rates)))
            out.append((f"k{K}_budget{i}", doc))
        else:
            doc["memories"] = [float(rng.uniform(0.0, r)) for r in rates]
            out.append((f"k{K}_fixed{i - 2}", doc))
    return out


def commands(name: str, doc: dict) -> list[list[str]]:
    inst = f"{name}.json"
    cmds = []
    for mode in ("joint", "intra"):
        cmds.append(["solve", inst, "--mode", mode, "--out", f"{name}_{mode}.scheme.json"])
    for mode in ("joint", "intra"):
        scheme = f"{name}_{mode}.scheme.json"
        cmds.append(["verify", inst, "--scheme", scheme, "--file-size", "10000",
                     "--out", f"{name}_{mode}.check.json"])
        cmds.append(["verify", inst, "--scheme", scheme, "--file-size", "1000000"])
        # one-bit and seven-bit files: pieces at odd bit offsets, and rounding
        for size in ("1", "7"):
            cmds.append(["verify", inst, "--scheme", scheme, "--file-size", size])
    for mode in ("joint", "intra"):
        cmds.append(["verify", inst, "--mode", mode, "--file-size", "5000",
                     "--out", f"{name}_{mode}.verify.json"])
    for fmt in ("csv", "json"):
        cmds.append(["bounds", inst, "--format", fmt])
        cmds.append(["compare-baselines", inst, "--points", "6", "--format", fmt])
        if "budget" in doc:
            cmds.append(["sweep", inst, "--points", "9", "--format", fmt])
    # only the empty point and the top one
    cmds.append(["compare-baselines", inst, "--points", "2"])
    return cmds


# compare-baselines where caches are empty or full beyond the zero point:
# equal rates leave zero-width layers, and at ratio 0.5 the top point of
# "two_full" fills users 2 and 3 exactly and that of "all_full" every user
REDUCED = {
    "equal_rates": ([0.5, 0.5, 0.7, 0.7], "0.8"),
    "two_full": ([0.3, 0.4, 0.8], "0.5"),
    "all_full": ([0.2, 0.4, 0.8], "0.5"),
}


def reduced_commands(name: str) -> list[list[str]]:
    inst = f"{name}.json"
    ratio = REDUCED[name][1]
    return [["compare-baselines", inst, "--points", "2", "--ratio", ratio],
            ["compare-baselines", inst, "--points", "6", "--ratio", ratio],
            ["compare-baselines", inst, "--points", "6", "--ratio", ratio, "--format", "json"]]


def bound_commands(name: str) -> list[list[str]]:
    return [["bounds", f"{name}.json", "--format", fmt] for fmt in ("csv", "json")]


def cases():
    """(instance name, document, commands) for every recorded instance."""
    for K in (2, 3, 4, 5):
        for name, doc in instances(K):
            yield name, doc, commands(name, doc)
    for K in range(6, 15):
        for name, doc in instances(K):
            if K <= 9 or "memories" in doc:
                yield name, doc, bound_commands(name)
    for name, (rates, _ratio) in REDUCED.items():
        doc = {"K": len(rates), "N": len(rates), "rates": rates, "memories": [0.0] * len(rates)}
        yield name, doc, reduced_commands(name)


def record() -> dict:
    from hetcache.cli import main  # --compare runs without the package

    results = {}
    for name, doc, argvs in cases():
        Path(f"{name}.json").write_text(json.dumps(doc))
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            written = argv[argv.index("--out") + 1] if "--out" in argv else None
            results[" ".join(argv)] = {
                "exit": code,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "files": {written: Path(written).read_text()} if written else {},
            }
    return results


def differences(a: dict, b: dict, tol: float) -> list[str]:
    """How the record of one command differs from another beyond ``tol``."""
    found = []
    if a["exit"] != b["exit"]:
        found.append(f"exit {a['exit']} != {b['exit']}")
    texts = [("stdout", a["stdout"], b["stdout"]), ("stderr", a["stderr"], b["stderr"])]
    texts += [(name, a["files"].get(name, ""), b["files"].get(name, ""))
              for name in sorted(a["files"].keys() | b["files"].keys())]
    for where, x, y in texts:
        if x == y:
            continue
        if NUMBER.sub("#", x) != NUMBER.sub("#", y):
            found.append(f"{where}: text differs")
            continue
        pairs = zip(map(float, NUMBER.findall(x)), map(float, NUMBER.findall(y)))
        worst = max((abs(p - q) for p, q in pairs if p != q and not (p != p and q != q)),
                    default=0.0)
        if not worst <= tol:
            found.append(f"{where}: numbers differ by up to {worst:.3g}")
        elif tol == 0.0:
            found.append(f"{where}: bytes differ")
    return found


def load(path) -> dict:
    data = Path(path).read_bytes()
    return json.loads(gzip.decompress(data) if str(path).endswith(".gz") else data)


def compare(path_a: str, path_b: str, tol: float) -> int:
    a, b = load(path_a), load(path_b)
    bad = 0
    for argv in sorted(set(a) | set(b)):
        if argv not in a or argv not in b:
            found = [f"only in {path_a if argv in a else path_b}"]
        else:
            found = differences(a[argv], b[argv], tol)
        if found:
            bad += 1
            print(f"{argv}: {'; '.join(found)}")
    print(f"{bad} of {len(set(a) | set(b))} commands differ beyond {tol:g}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the record of every command here")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the checked-in record, tests/golden/record.json.gz")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two records instead of running")
    parser.add_argument("--tol", type=float, default=0.0,
                        help="largest number difference that --compare ignores")
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS and OpenMP threads of the recorded run")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, args.tol)
    if args.update:
        args.out = RECORD
    if not args.out:
        parser.error("give --out, --update or --compare")
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    for var in THREAD_VARS:  # before numpy loads: the thread count can move the vertex
        os.environ[var] = str(args.threads)
    out = Path(args.out).resolve()
    with tempfile.TemporaryDirectory() as work:
        here = os.getcwd()
        os.chdir(work)
        try:
            results = record()
        finally:
            os.chdir(here)
    text = (json.dumps(results, indent=1, sort_keys=True) + "\n").encode()
    # no timestamp in the gzip header, so an unchanged record keeps its bytes
    out.write_bytes(gzip.compress(text, mtime=0) if out.suffix == ".gz" else text)
    print(f"{len(results)} commands recorded in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
