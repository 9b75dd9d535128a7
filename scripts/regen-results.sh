#!/usr/bin/env bash
# Regenerate the recorded experiment outputs in docs/results/.
#
#   scripts/regen-results.sh          # every scale-0.1 seed-42 file
#   scripts/regen-results.sh --full   # plus the two scale-1.0 _full files (~20 s each)
#
# Every run is deterministic, so a clean tree stays clean: CI reruns the
# scale-0.1 set and fails on `git diff --exit-code -- docs/results`.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --bin hobbit
hobbit=target/release/hobbit

for exp in table1 table2 table3 table4 table5 \
           figure3 figure4 figure5 figure6 figure7 figure8 \
           figure9 figure10 figure11 figure12 section2 section31 \
           hobbit_map multivantage longitudinal summary scenario_info; do
    "$hobbit" "$exp" --scale 0.1 --seed 42 > "docs/results/$exp.txt"
done

if [[ "${1:-}" == "--full" ]]; then
    "$hobbit" table5 --scale 1.0 > docs/results/table5_full.txt
    "$hobbit" figure5 --scale 1.0 > docs/results/figure5_full.txt
fi
