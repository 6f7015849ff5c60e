#!/usr/bin/env bash
# The repo's CI gate: release build, full test suite, zero-warning lint.
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

# The perf gate runs first thing after the release build, while the box
# is quiet: the test suite and clippy below thrash cache and scheduler
# for minutes afterwards, which inflates even the min-based floors.
echo "==> perf regression check (vs BENCH_kernel.json)"
cargo run --release -q -p onserve-bench --bin perfbaseline -- --check

echo "==> cargo build --examples"
cargo build --workspace --examples

echo "==> cargo test -q (with test-count floor)"
cargo test -q --workspace 2>&1 | tee target/test-output.log
total_passed=$(grep -Eo '[0-9]+ passed' target/test-output.log | awk '{s+=$1} END {print s}')
echo "    total tests passed: ${total_passed}"
if [ "${total_passed}" -lt 575 ]; then
  echo "test-count floor: expected >= 575 passing tests, got ${total_passed}" >&2
  exit 1
fi

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# One row per fleet bench tier: name|bin args|tests|files. Each test is
# package:test-target[:filter]; each file is one the tier binary writes
# under target/experiments/. The loop runs the tests, then runs the binary
# twice with the same seed and requires every file byte-identical.
tiers=(
  "fleetscale||onserve-bench:golden_determinism:fleetscale_sweep_matches_golden|fleetscale.csv"
  "chaos||onserve-bench:golden_determinism:chaos_sweep_matches_golden onserve-fleet:chaos|chaos.csv"
  "affinity||onserve-bench:golden_determinism:affinity_sweep_matches_golden|affinity.csv"
  "grayfail||onserve-bench:golden_determinism:grayfail_sweep_matches_golden onserve-fleet:health|grayfail.csv grayfail.prom grayfail_timeseries.csv"
  "geo||onserve-bench:golden_determinism:geo_sweep_matches_golden onserve-fleet:proptests:geo onserve-fleet:proptests:fleet_conserves_requests_under_site_outages_and_link_faults|geo.csv geo.prom"
  "millionuser|--ci|onserve-bench:golden_determinism:millionuser_ci_matches_golden|millionuser.csv"
  "rollout||onserve-bench:golden_determinism:rollout_sweep_matches_golden onserve-fleet:rollout onserve-fleet:proptests:rollouts_hold_the_floor_keep_pins_live_and_replay|rollout.csv rollout.prom"
  "noisyneighbor||onserve-bench:golden_determinism:noisyneighbor_sweep_matches_golden onserve-fleet:qos onserve-fleet:proptests:qos_conserves_per_tenant_and_never_starves_underquota_tenants|noisyneighbor.csv noisyneighbor.prom"
)
for row in "${tiers[@]}"; do
  IFS='|' read -r tier args tests files <<< "$row"
  echo "==> ${tier} tier (tests + two same-seed runs, byte-identical ${files})"
  for t in $tests; do
    IFS=: read -r pkg target filter <<< "$t"
    cargo test -q -p "$pkg" --test "$target" ${filter:+"$filter"}
  done
  outs=$(printf 'target/experiments/%s ' $files)
  # shellcheck disable=SC2086 # args and outs are word lists
  cargo run --release -q -p onserve-bench --bin "$tier" -- $args > /dev/null
  for f in $outs; do mv "$f" "$f.run1"; done
  cargo run --release -q -p onserve-bench --bin "$tier" -- $args > /dev/null
  for f in $outs; do cmp "$f.run1" "$f"; done
done

echo "==> perfbench smoke (public API + recorded virtual-result digests, untraced and traced)"
# perfbench is its own Cargo package that calls only the public API; each
# run re-checks its replications against perfbench/digests.tsv and exits
# non-zero with "correct": false on any drift. The traced pass also checks
# that tracing leaves the virtual results unchanged and that its per-step
# charges account for at least 95% of the traced window.
for w in population tenants publish; do
  for t in 0 1; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
      --workload "$w" --seed dev --seconds 1 --trace "$t" | tail -n 1 | grep -q '"correct": true'
  done
done

echo "CI OK"
