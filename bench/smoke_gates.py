#!/usr/bin/env python3
"""Checks the bench-smoke gates over google-benchmark JSON outputs.

usage: python3 bench/smoke_gates.py SMOKE.json NOTRACE.json NOAUDIT.json

SMOKE.json is an ablation_engine run of a release build; NOTRACE.json and
NOAUDIT.json are BM_AuthorizeCompiledIndexed runs of release builds with
PF_TRACE=OFF and PF_AUDIT=OFF. Every run must use --benchmark_repetitions with
--benchmark_report_aggregates_only, since the gates compare medians. The
script prints every gate with its numbers and exits non-zero if any fails.
"""

import json
import math
import sys

RULE_COUNTS = (16, 128, 512, 1218, 2048)


def medians(path):
    with open(path) as f:
        runs = json.load(f)["benchmarks"]
    return {b["name"].removesuffix("_median"): b["real_time"] for b in runs
            if b.get("aggregate_name") == "median"}


def dispatch_ladder(smoke, _notrace, _noaudit):
    # The threaded evaluator (BM_AuthorizeCompiledScan) must beat or tie the
    # portable switch loop. The gap is a branch-predictor effect measured in
    # single-digit percent, so the gate allows a wide 15% for noise on shared
    # runners.
    ok = True
    for arg in (128, 512, 1218, 2048):
        switch = smoke[f"BM_AuthorizeSwitchScan/{arg}"]
        threaded = smoke[f"BM_AuthorizeCompiledScan/{arg}"]
        passed = threaded <= switch * 1.15
        print(f"  /{arg}: threaded {threaded:.0f} <= switch {switch:.0f} ns x 1.15 "
              f"({'ok' if passed else 'REGRESSION'})")
        ok &= passed
    return ok


def verifier_share(smoke, _notrace, _noaudit):
    # The bound was 5% before the tuple-space classifier: the program
    # artifact now carries per-bucket hash tables, slot pools, and candidate
    # slices that the verifier must prove in-bounds and exactly-once covering
    # (classifier-oob / classifier-coverage), so the pass guards ~40% more
    # surface. Steady state is ~8%; 10% leaves noise headroom without letting
    # the proof grow unnoticed.
    verify = smoke["BM_VerifyProgram/1218"]
    compile_ = smoke["BM_CompileProgram/1218"]
    share = verify / compile_
    print(f"  verify {verify / 1e3:.1f} us / compile {compile_ / 1e3:.1f} us "
          f"= {share:.2%} (bound 10%)")
    return share < 0.10


def tuple_scaling(smoke, _notrace, _noaudit):
    # The tuple-space classifier's whole point: Authorize at 100k rules must
    # stay within 3x of the 1218-rule baseline (the scan path is linear, ~80x
    # at that scale). Shared-runner noise is irrelevant at a 3x bound.
    small = smoke["BM_AuthorizeTupleIndexed/1218"]
    big = smoke["BM_AuthorizeTupleIndexed/100000"]
    print(f"  1218 rules {small:.0f} ns, 100k rules {big:.0f} ns "
          f"({big / small:.2f}x, bound 3x)")
    return big <= small * 3.0


def trace_disabled(smoke, notrace, _noaudit):
    # Tracing compiled in but disabled must keep the BM_AuthorizeCompiled*
    # medians within 2% of a PF_TRACE=OFF build. Shared runners are noisy, so
    # the gate allows 5%; the 2% target is what bench/run_bench.sh reports on
    # quiet hardware.
    ok = True
    for arg in RULE_COUNTS:
        name = f"BM_AuthorizeCompiledIndexed/{arg}"
        w, n = smoke[name], notrace[name]
        passed = w <= n * 1.05
        print(f"  {name}: trace-disabled {w:.1f} ns vs no-trace {n:.1f} ns "
              f"({'ok' if passed else 'REGRESSION'})")
        ok &= passed
    return ok


def audit_armed(smoke, _notrace, noaudit):
    # With the audit pipeline *enabled* (every kind, suppression off) the
    # allow hot path must stay within 5%: security events pay for provenance,
    # allowed traffic must not. The gate is the geometric mean across rule
    # counts of armed vs. disabled inside ONE binary (SMOKE.json):
    # cross-binary medians on shared runners swing past 10% on code layout
    # alone, so the PF_AUDIT=OFF baseline is a compile gate and printed for
    # reference only.
    ratios = []
    for arg in RULE_COUNTS:
        a = smoke[f"BM_AuthorizeCompiledAudited/{arg}"]
        d = smoke[f"BM_AuthorizeCompiledIndexed/{arg}"]
        n = noaudit[f"BM_AuthorizeCompiledIndexed/{arg}"]
        ratios.append(a / d)
        print(f"  arg {arg}: armed {a:.1f} ns vs disabled {d:.1f} ns "
              f"({a / d - 1:+.1%}); PF_AUDIT=OFF build {n:.1f} ns")
    gmean = math.exp(sum(map(math.log, ratios)) / len(ratios))
    print(f"  armed/disabled geometric mean {gmean:.3f} (bound 1.05)")
    return gmean <= 1.05


def context_cache(smoke, _notrace, _noaudit):
    # The paper's context cache (§4.2, the CONCACHE rung) must pay for
    # itself: with eight hooks per system call sharing one unwind, the
    # cache-on median must be at most 0.9x the cache-off median.
    off = smoke["BM_ContextCache/0"]
    on = smoke["BM_ContextCache/1"]
    print(f"  cache on {on:.0f} ns vs off {off:.0f} ns ({on / off:.2f}x, bound 0.9x)")
    return on <= off * 0.9


GATES = [
    ("dispatch ladder: threaded <= 1.15x switch", dispatch_ladder),
    ("verifier share of program compilation < 10%", verifier_share),
    ("tuple-dispatch authorize at 100k rules <= 3x 1218", tuple_scaling),
    ("compiled-in but disabled tracing <= 1.05x PF_TRACE=OFF", trace_disabled),
    ("armed audit pipeline geometric mean <= 1.05x disabled", audit_armed),
    ("context cache on <= 0.9x off", context_cache),
]


def main(argv):
    if len(argv) != 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    inputs = [medians(path) for path in argv[1:]]
    failed = []
    for title, gate in GATES:
        print(f"{title}:")
        try:
            ok = gate(*inputs)
        except KeyError as e:
            print(f"  missing benchmark {e}")
            ok = False
        print(f"  -> {'pass' if ok else 'FAIL'}")
        if not ok:
            failed.append(title)
    print(f"{len(GATES) - len(failed)}/{len(GATES)} gates pass")
    for title in failed:
        print(f"  failed: {title}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
