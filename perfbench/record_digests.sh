#!/usr/bin/env bash
# Rewrite perfbench/digests.tsv: the virtual-result digest of every
# replication of seeds 0-12 and of the held-out seed, on every workload.
# Run from anywhere after a deliberate change to the modelled results.
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=perfbench/digests.tsv.new
trap 'rm -f "$tmp"' EXIT
{
    echo "# Recorded virtual-result digests, one line per replication seed:"
    echo "# workload<TAB>seed<TAB>digest (hex). Regenerate with perfbench/record_digests.sh."
    for w in population tenants publish; do
        for s in $(seq 0 12) heldout; do
            cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
                --digest --workload "$w" --seed "$s"
        done
    done
} > "$tmp"
mv "$tmp" perfbench/digests.tsv
trap - EXIT
