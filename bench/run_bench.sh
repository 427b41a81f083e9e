#!/usr/bin/env sh
# Runs the engine-focused benchmarks and folds their machine-readable
# outputs into one entry of the BENCH_engine.json trajectory:
#
#   table6_lmbench   us/op for every (syscall, config) cell
#   table7_macro     macro means (Without PF / PF Base / PF Full)
#   ablation_engine  switch loop vs threaded evaluator, scan vs indexed
#                    dispatch, the context cache on vs off,
#                    BM_CompileProgram + BM_VerifyProgram (commit-time costs)
#   pfcheck          static-analyzer wall time over the shipped rule base
#
# BENCH_engine.json is {"entries": [...]}, oldest first. Each entry is
# keyed by the commit it measured (`git rev-parse HEAD`, with a "-dirty"
# suffix when tracked files other than BENCH_engine.json differ from HEAD);
# a run appends its entry, or replaces the one with the same key.
#
# Usage: bench/run_bench.sh [build-dir] [output.json]
# (run from the repository root; build the default preset first:
#  cmake --preset default && cmake --build build -j)
set -eu

BUILD="${1:-build}"
OUT="${2:-BENCH_engine.json}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

COMMIT="$(git rev-parse HEAD)"
if ! git diff --quiet HEAD -- . ':(exclude)BENCH_engine.json'; then
  COMMIT="$COMMIT-dirty"
fi

"$BUILD/bench/table6_lmbench" --json "$TMP/table6.json"
"$BUILD/bench/table7_macro" --json "$TMP/table7.json"
# Medians of 3 repetitions: the dispatch-ladder and verifier-share summary
# numbers gate CI, and single-shot runs swing +-20% on shared machines.
"$BUILD/bench/ablation_engine" \
  --benchmark_filter='BM_AuthorizeCompiled|BM_AuthorizeSwitchScan|BM_CompileProgram|BM_VerifyProgram|BM_BuildSymbolicModel|BM_ContextCache' \
  --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
  --benchmark_out="$TMP/ablation.json" --benchmark_out_format=json
"$BUILD/src/apps/pfcheck" --library --json > "$TMP/pfcheck.json"

python3 - "$TMP" "$OUT" "$COMMIT" <<'EOF'
import datetime, json, sys, os

tmp, out_path, commit = sys.argv[1], sys.argv[2], sys.argv[3]
out = {"commit": commit,
       "measured": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%MZ")}
for name in ("table6", "table7"):
    with open(os.path.join(tmp, name + ".json")) as f:
        out.update(json.load(f))

with open(os.path.join(tmp, "ablation.json")) as f:
    ab = json.load(f)
out["ablation_engine"] = {
    b["name"].removesuffix("_median"): {
        "ns_per_op": b["real_time"],
        **{k: b[k] for k in ("arena_words", "regions", "unwinds_per_call")
           if k in b},
    }
    for b in ab.get("benchmarks", [])
    if b.get("aggregate_name") == "median"
}

with open(os.path.join(tmp, "pfcheck.json")) as f:
    out["pfcheck"] = json.load(f)["pfcheck"]

# Headline acceptance numbers, precomputed for easy inspection.
t6 = out["table6"]
ae = out["ablation_engine"]
# Dispatch cost on the linear-scan pair: the indexed pair at 1218 is
# fixed-overhead dominated (hashing + unwinding), so the dispatch-strategy
# ratio is measured switch-loop scan vs threaded scan, verifier on.
switch_1218 = ae.get("BM_AuthorizeSwitchScan/1218", {}).get("ns_per_op")
compiled_1218 = ae.get("BM_AuthorizeCompiledScan/1218", {}).get("ns_per_op")
out["summary"] = {
    "analyzer_us": out["pfcheck"]["analysis_us"],
    "stat_full_us": t6["stat"]["FULL"],
    "stat_eptspc_us": t6["stat"]["EPTSPC"],
    "open_close_full_us": t6["open+close"]["FULL"],
    "open_close_eptspc_us": t6["open+close"]["EPTSPC"],
    # Program evaluator: Authorize on a fresh syscall, 1218-rule base, switch
    # loop vs threaded dispatch (ns/op), the one-time lowering cost, and the
    # load-time verifier's share of it.
    "authorize_switch_1218_ns": switch_1218,
    "authorize_compiled_1218_ns": compiled_1218,
    "authorize_compiled_indexed_1218_ns":
        ae.get("BM_AuthorizeCompiledIndexed/1218", {}).get("ns_per_op"),
    "threaded_speedup_vs_switch_1218": (switch_1218 / compiled_1218
                                        if switch_1218 and compiled_1218 else None),
    "compile_program_1218_ns": ae.get("BM_CompileProgram/1218", {}).get("ns_per_op"),
    "verify_program_1218_ns": ae.get("BM_VerifyProgram/1218", {}).get("ns_per_op"),
    "verify_us": out["pfcheck"].get("verify_us"),
}

# Symbolic decision-space model (DESIGN.md "Symbolic decision-space
# analysis"): full-partition build time over the paper's 1218-rule PF Full
# base (CI budget: < 250 ms) and its scaling point at 100k rules, plus the
# shipped library's numbers from pfcheck's exact tier.
sym_1218_ns = ae.get("BM_BuildSymbolicModel/1218", {}).get("ns_per_op")
sym_100k_ns = ae.get("BM_BuildSymbolicModel/100000", {}).get("ns_per_op")
out["summary"].update({
    "symbolic_analysis_us": sym_1218_ns / 1e3 if sym_1218_ns else None,
    "symbolic_analysis_100k_us": sym_100k_ns / 1e3 if sym_100k_ns else None,
    "symbolic_regions_1218": ae.get("BM_BuildSymbolicModel/1218", {}).get("regions"),
    "symbolic_regions_100k": ae.get("BM_BuildSymbolicModel/100000", {}).get("regions"),
    "symbolic_library_us": out["pfcheck"].get("symbolic", {}).get("analysis_us"),
    "symbolic_library_regions": out["pfcheck"].get("symbolic", {}).get("regions"),
})

# Scaling through the entrypoint index (DESIGN.md §5g): the headline is
# flat authorize latency at 100k rules (within 3x of the 1218-rule base)
# while the scan grows linearly. Every commit relowers the whole base, so
# compile_program_100k_ns is also the per-commit lowering cost at that scale.
indexed_1218 = ae.get("BM_AuthorizeCompiledIndexed/1218", {}).get("ns_per_op")
indexed_100k = ae.get("BM_AuthorizeCompiledIndexed/100000", {}).get("ns_per_op")
out["summary"].update({
    "authorize_indexed_100k_ns": indexed_100k,
    "authorize_indexed_200k_ns":
        ae.get("BM_AuthorizeCompiledIndexed/200000", {}).get("ns_per_op"),
    "authorize_compiled_scan_100k_ns":
        ae.get("BM_AuthorizeCompiledScan/100000", {}).get("ns_per_op"),
    "indexed_scaling_100k_vs_1218": (indexed_100k / indexed_1218
                                     if indexed_100k and indexed_1218 else None),
    "compile_program_100k_ns":
        ae.get("BM_CompileProgram/100000", {}).get("ns_per_op"),
})

# Tracing tax (DESIGN.md §5e): full tracepoint streams on vs. off, measured
# by the table6 trace rider. The acceptance bound is stat/FULL < +15%.
tt = out.get("table6_trace", {})
out["summary"]["trace_overhead_pct"] = (
    tt.get("stat", {}).get("FULL", {}).get("overhead_pct"))
out["summary"]["trace_overhead_eptspc_pct"] = (
    tt.get("stat", {}).get("EPTSPC", {}).get("overhead_pct"))
traced_1218 = ae.get("BM_AuthorizeCompiledTraced/1218", {}).get("ns_per_op")
out["summary"]["authorize_traced_1218_ns"] = traced_1218

# Context cache (paper §4.2, the CONCACHE rung): eight hooks per system call
# share one unwind. bench/smoke_gates.py requires on <= 0.9x off.
cache_off = ae.get("BM_ContextCache/0", {}).get("ns_per_op")
cache_on = ae.get("BM_ContextCache/1", {}).get("ns_per_op")
out["summary"]["context_cache_on_vs_off"] = (cache_on / cache_off
                                             if cache_on and cache_off else None)

entries = []
if os.path.exists(out_path):
    with open(out_path) as f:
        entries = json.load(f)["entries"]
entries = [e for e in entries if e["commit"] != commit] + [out]
with open(out_path, "w") as f:
    json.dump({"entries": entries}, f, indent=2)
    f.write("\n")
print(f"wrote entry {commit} to {out_path} ({len(entries)} entries)")
print(json.dumps(out["summary"], indent=2))
EOF
