#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout (the
# directory the driver itself names for build output) and runs it with the
# arguments given: what BENCHMARK.json's command names. Everything the build
# and the run write — the Go build cache, the binary, the ring workload's
# Unix sockets — stays inside the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="${GOCACHE:-$build/gocache}"
export GOPATH="${GOPATH:-$build/gopath}"
export GOTOOLCHAIN=local # never download a toolchain: build with what is installed

(cd "$here" && go build -o "$build/pipefisher-bench" .)

# The ring's sockets go under TMPDIR, and a Unix socket path holds ~100
# bytes: a path relative to the working directory fits however deep the
# checkout lies.
TMPDIR=$(realpath --relative-to="$PWD" "$build/tmp") exec "$build/pipefisher-bench" "$@"
