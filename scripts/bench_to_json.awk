# Distills `go test -bench` output into a JSON array for the CI perf
# artifacts (BENCH_tensor.json, BENCH_engine.json). Standard columns map to
# ns_per_op/bytes_per_op/allocs_per_op; the custom metrics in use (MB/s
# from the kernel benchmarks, seqs/s from the engine benchmarks,
# poolchunks/op — effective per-op fan-out — from the worker-scaling
# benchmark, GFLOP/s from the SPD-inverse benchmark, ns/elem from the
# element-wise exp/erf/GELU benchmarks, slot-B / scratch-B — bytes per
# activation slot and per device's backward scratch — from the slot-bytes
# benchmark) are each keyed independently, so any mix of columns parses.
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
    if ($i == "slot-B") printf ",\"slot_bytes\":%s", $(i-1)
    if ($i == "scratch-B") printf ",\"scratch_bytes\":%s", $(i-1)
  }
  printf "}"
}
END { print "\n]" }
