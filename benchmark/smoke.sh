#!/bin/sh
# Runs the whole benchmark at smoke scale (every workload at about 1/20
# size) and fails on a correctness failure or on schema drift — a metric
# that is declared but not emitted, or emitted but not declared. It never
# looks at a threshold: smoke-scale numbers mean nothing.
set -eu
cd "$(dirname "$0")/.."
run() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
run run --scale smoke --rounds 2 --seed 42
run check-schema benchmark/out/result.json
echo "smoke: ok"
