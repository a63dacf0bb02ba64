# Distills `go test -bench` output into a JSON array for the CI perf
# artifacts (BENCH_tensor.json, BENCH_engine.json). Standard columns map to
# ns_per_op/bytes_per_op/allocs_per_op; the custom metrics in use (MB/s
# from the kernel benchmarks, seqs/s from the engine benchmarks,
# poolchunks/op — effective per-op fan-out — from the worker-scaling
# benchmark, GFLOP/s from the SPD-inverse benchmark, ns/elem from the
# element-wise exp/erf/GELU benchmarks, GB/s and block_share — bytes moved
# and share of a transformer block — from the row-op benchmarks, slot-B /
# scratch-B — bytes per activation slot and per device's backward
# scratch — from the slot-bytes benchmark; partials-B / deltas-B — the
# high-water bytes a round's folds hold in K-FAC partials and factor sums,
# and in gradient delta sets — from the fold-bytes benchmark; retained-B — bytes a K-FAC
# preconditioner keeps between refreshes — from the inverse-refresh
# benchmark; step_spread, refresh_pending_ms and model_err/<kind> from the
# round-shape benchmark; refresh_tail_ms from the round benchmarks) are
# each keyed independently, so any mix of columns parses.
BEGIN { print "["; first=1 }
/^Benchmark/ {
  if (!first) printf ",\n"; first=0
  name=$1; sub(/-[0-9]+$/, "", name)
  printf "  {\"name\":\"%s\",\"iters\":%s,\"ns_per_op\":%s", name, $2, $3
  for (i=4; i<=NF; i++) {
    if ($i == "B/op") printf ",\"bytes_per_op\":%s", $(i-1)
    if ($i == "allocs/op") printf ",\"allocs_per_op\":%s", $(i-1)
    if ($i == "MB/s") printf ",\"mb_per_s\":%s", $(i-1)
    if ($i == "seqs/s") printf ",\"seqs_per_s\":%s", $(i-1)
    if ($i == "poolchunks/op") printf ",\"poolchunks_per_op\":%s", $(i-1)
    if ($i == "GFLOP/s") printf ",\"gflops\":%s", $(i-1)
    if ($i == "ns/elem") printf ",\"ns_per_elem\":%s", $(i-1)
    if ($i == "GB/s") printf ",\"gb_per_s\":%s", $(i-1)
    if ($i == "block_share") printf ",\"block_share\":%s", $(i-1)
    if ($i == "slot-B") printf ",\"slot_bytes\":%s", $(i-1)
    if ($i == "scratch-B") printf ",\"scratch_bytes\":%s", $(i-1)
    if ($i == "partials-B") printf ",\"partial_bytes\":%s", $(i-1)
    if ($i == "deltas-B") printf ",\"delta_bytes\":%s", $(i-1)
    if ($i == "retained-B") printf ",\"retained_bytes\":%s", $(i-1)
    if ($i == "step_spread") printf ",\"step_spread\":%s", $(i-1)
    if ($i == "refresh_pending_ms") printf ",\"refresh_pending_ms\":%s", $(i-1)
    if ($i == "refresh_tail_ms") printf ",\"refresh_tail_ms\":%s", $(i-1)
    if ($i ~ /^model_err\//) { key=$i; gsub(/[\/-]/, "_", key); printf ",\"%s\":%s", key, $(i-1) }
  }
  printf "}"
}
END { print "\n]" }
