#!/usr/bin/env python3
"""Mutant battery for the program evaluator.

Each entry of mutants.json seeds one small bug into the engine source: it
names a file, an exact text to replace (which must occur exactly once) and
its replacement, plus an optional "equivalent" reason for a mutant no
observable behaviour can distinguish. The runner copies the source tree to a
temporary directory, builds it once in Release, and then for every mutant
applies the edit, rebuilds incrementally, runs the tier-1 suite, and
restores the file.

Exit status is non-zero when a non-equivalent mutant survives, when a
mutant marked equivalent is killed (its reason is wrong), when a mutant
does not compile, or when an anchor does not occur exactly once.

Usage (from the repository root):
  python3 tests/mutants/run_mutants.py                 # the whole battery
  python3 tests/mutants/run_mutants.py --only id1,id2  # a subset
  python3 tests/mutants/run_mutants.py --check-anchors # anchors only, no build
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SKIP_DIRS = {".git", "traces", ".bench_build", "__pycache__"}


def load_mutants(path):
    with open(path) as f:
        mutants = json.load(f)
    seen = set()
    for m in mutants:
        for key in ("id", "file", "find", "replace"):
            if key not in m:
                raise SystemExit(f"mutant {m.get('id', '?')}: missing '{key}'")
        if m["id"] in seen:
            raise SystemExit(f"duplicate mutant id {m['id']}")
        seen.add(m["id"])
    return mutants


def check_anchors(root, mutants):
    """Returns the ids whose anchor does not occur exactly once."""
    bad = []
    for m in mutants:
        with open(os.path.join(root, m["file"])) as f:
            count = f.read().count(m["find"])
        if count != 1:
            print(f"anchor error: {m['id']}: {m['file']} contains the anchor {count} times")
            bad.append(m["id"])
    return bad


def copy_tree(src, dst):
    def ignore(_, names):
        return [n for n in names if n in SKIP_DIRS or n.startswith("build")]
    shutil.copytree(src, dst, ignore=ignore)


def run(cmd, cwd, timeout=None):
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=timeout)
    return proc.returncode, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", default="", help="comma-separated mutant ids")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    ap.add_argument("--workdir", default="", help="reuse/keep this scratch tree")
    ap.add_argument("--check-anchors", action="store_true",
                    help="validate anchors against the source and exit")
    args = ap.parse_args()

    mutants = load_mutants(os.path.join(HERE, "mutants.json"))
    if args.only:
        wanted = set(args.only.split(","))
        unknown = wanted - {m["id"] for m in mutants}
        if unknown:
            raise SystemExit(f"unknown mutant ids: {sorted(unknown)}")
        mutants = [m for m in mutants if m["id"] in wanted]
    if check_anchors(ROOT, mutants):
        return 1
    if args.check_anchors:
        print(f"{len(mutants)} mutant anchors each occur exactly once")
        return 0

    work = args.workdir or tempfile.mkdtemp(prefix="pf-mutants-")
    tree = os.path.join(work, "src-tree")
    build = os.path.join(work, "build")
    if not os.path.isdir(tree):
        copy_tree(ROOT, tree)
    jobs = str(args.jobs)
    # Everything: tier 1 also runs the apps tools and the examples.
    build_cmd = ["cmake", "--build", build, "-j", jobs]
    print(f"scratch tree: {tree}", flush=True)
    rc, out = run(["cmake", "-S", tree, "-B", build, "-DCMAKE_BUILD_TYPE=Release"], work)
    if rc != 0:
        print(out)
        return 1
    rc, out = run(build_cmd, work)
    if rc != 0:
        print(out)
        print("the unmutated tree does not build")
        return 1
    # The anchor check reads the (mutated) scratch source, so it would kill
    # every mutant; it is the only tier-1 test left out.
    ctest = ["ctest", "--test-dir", build, "-L", "tier1", "-E", "^MutantAnchors\\.",
             "-j", jobs, "--timeout", "300", "--stop-on-failure", "--output-on-failure"]
    rc, out = run(ctest, work)
    if rc != 0:
        print(out)
        print("the unmutated tree fails tier 1")
        return 1

    results = []
    for m in mutants:
        path = os.path.join(tree, m["file"])
        with open(path) as f:
            pristine = f.read()
        t0 = time.time()
        with open(path, "w") as f:
            f.write(pristine.replace(m["find"], m["replace"], 1))
        try:
            rc, out = run(build_cmd, work)
            if rc != 0:
                outcome = "no-build"
                detail = out[-2000:]
            else:
                rc, out = run(ctest, work)
                outcome = "killed" if rc != 0 else "survived"
                detail = ""
                if outcome == "killed":
                    failed = [line.strip() for line in out.splitlines()
                              if "***Failed" in line or "***Timeout" in line
                              or "***Exception" in line]
                    detail = failed[0] if failed else "ctest failed"
        finally:
            with open(path, "w") as f:
                f.write(pristine)
        equivalent = "equivalent" in m
        ok = (outcome == "survived") if equivalent else (outcome == "killed")
        results.append((m["id"], outcome, equivalent, ok))
        tag = "equivalent " if equivalent else ""
        print(f"[{'ok' if ok else 'FAIL'}] {m['id']}: {tag}{outcome} "
              f"({time.time() - t0:.0f}s) {detail}".rstrip(), flush=True)
        if outcome == "no-build":
            print(detail)

    # Leave the scratch build matching the pristine tree.
    run(build_cmd, work)
    bad = [r for r in results if not r[3]]
    print(f"\n{len(results)} mutants: "
          f"{sum(r[1] == 'killed' for r in results)} killed, "
          f"{sum(r[1] == 'survived' for r in results)} survived "
          f"({sum(r[2] for r in results)} marked equivalent), "
          f"{sum(r[1] == 'no-build' for r in results)} did not build")
    for mid, outcome, equivalent, _ in bad:
        why = ("marked equivalent but killed" if equivalent and outcome == "killed"
               else "did not build" if outcome == "no-build" else "survived")
        print(f"  {mid}: {why}")
    if not args.workdir:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
