#!/usr/bin/env bash
# Alternating parent/change icbench pairs — the protocol behind every
# "same bytes, host metrics not worse" line in docs/replay-perf.md.
#
#   tools/icbench-pairs.sh [--aa] <parent-rev|parent-dir> <workload|--all> \
#       [--seed N] [--pairs N] [--seconds N] [--cpus LIST]
#
# Builds the parent (a revision is checked out as a detached `git
# worktree` under .bench_build/pairs/; an existing directory is used as
# it is) and the working tree, each into its own --target-dir, then runs
# `icbench --workload W --seed S --seconds T --trace 0` once per side per
# pair, alternating which side goes first. Every run is listed. The two
# sides must print one and the same report hash in every run (the
# simulated-clock metrics are then bit-identical and are not repeated);
# for the host metrics it prints each side's median and quartiles, the
# parent's inter-quartile spread, and how many pairs the change won.
# `--all` runs the four workloads in turn and ends with one table of
# those rows, so the workload a change targets and the ones it should
# not move come from one command. `--aa` builds the given revision (or
# directory) into both target dirs instead of the working tree, and
# prints the same rotation and table: the host's own A/A spread and
# "won k of n", to read a change's rows against. `--cpus LIST` runs
# both sides under `taskset -c LIST` (`--cpus 0`: the one-core row,
# where the engine starts no helper thread).
# Offline; nothing under benchmark/ is left modified.
set -euo pipefail

usage() {
    sed -n '2,6p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}
aa=0
[ "${1:-}" != --aa ] || { aa=1; shift; }
[ $# -ge 2 ] || usage
parent=$1 workloads=$2
[ "$workloads" != --all ] || workloads="coldstart_lowload bigbank_select trending_dups churn_writes"
shift 2
seed=7 pairs=10 seconds=20 pin=()
while [ $# -gt 0 ]; do
    case $1 in
    --seed) seed=$2 ;;
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    --cpus) pin=(taskset -c "$2") ;;
    *) usage ;;
    esac
    shift 2 || usage
done

repo=$(git rev-parse --show-toplevel)
work=$repo/.bench_build/pairs
mkdir -p "$work"
if [ -d "$parent" ]; then
    parent_tree=$(cd "$parent" && pwd)
else
    sha=$(git -C "$repo" rev-parse --verify "$parent^{commit}")
    parent_tree=$work/parent-$sha
    [ -d "$parent_tree" ] || git -C "$repo" worktree add --detach "$parent_tree" "$sha" >&2
fi

# Building rewrites benchmark/Cargo.lock when a crate's dependency edges
# changed since it was recorded; put the tree's own copy back, byte for
# byte. No git call: a parent directory need not be a git checkout.
build() { # <tree> <target-dir>
    local lock=$1/benchmark/Cargo.lock saved
    saved=$(mktemp)
    cp -p "$lock" "$saved"
    cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml" --target-dir "$2" >&2 || {
        cp -p "$saved" "$lock"
        rm -f "$saved"
        return 1
    }
    cp -p "$saved" "$lock"
    rm -f "$saved"
}
change_tree=$repo
[ $aa = 0 ] || change_tree=$parent_tree
build "$parent_tree" "$work/target-parent"
build "$change_tree" "$work/target-change"

metrics="setup_s replay_s peak_rss_mb"
run() { # <side> <workload> <pair>
    local out hash failed row
    out=$("${pin[@]}" "$work/target-$1/release/icbench" \
        --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0)
    hash=$(sed -n 's/.*report fnv64 \([0-9a-f]*\).*/\1/p' <<<"$out")
    failed=$(sed -n 's/.* failed \([0-9]*\) (failed_share.*/\1/p' <<<"$out")
    row=$hash
    for m in $metrics; do
        row="$row $(awk -v m="$m" '$1 == m { print $2 }' <<<"$out")"
    done
    echo "$row $failed" >>"$work/$1.runs"
    printf 'pair %2d %-6s %s failed %s\n' "$3" "$1" "$row" "$failed"
}
# "q1 median q3" of column <col> of <file>, linearly interpolated.
quartiles() { # <file> <col>
    cut -d' ' -f"$2" "$1" | sort -g | awk '
        { v[NR] = $1 }
        function at(q,    pos, lo, hi) {
            pos = (NR - 1) * q; lo = int(pos) + 1; hi = lo < NR ? lo + 1 : NR
            return v[lo] + (pos - lo + 1) * (v[hi] - v[lo])
        }
        END { print at(0.25), at(0.5), at(0.75) }'
}

: >"$work/summary"
for workload in $workloads; do
    : >"$work/parent.runs"
    : >"$work/change.runs"
    echo "# $workload seed $seed, $seconds s, $pairs pairs${pin:+, under ${pin[*]}}: hash $metrics"
    for ((k = 1; k <= pairs; k++)); do
        if ((k % 2)); then
            run parent "$workload" "$k" && run change "$workload" "$k"
        else
            run change "$workload" "$k" && run parent "$workload" "$k"
        fi
    done

    hashes=$(cat "$work/parent.runs" "$work/change.runs" | cut -d' ' -f1 | sort -u)
    if [ "$(wc -l <<<"$hashes")" != 1 ]; then
        echo "$workload: report hashes differ:" $hashes >&2
        exit 1
    fi
    {
        echo "# $workload: report hash $hashes on every run of both sides"
        col=2
        for m in $metrics; do
            read -r pq1 pmed pq3 <<<"$(quartiles "$work/parent.runs" $col)"
            read -r cq1 cmed cq3 <<<"$(quartiles "$work/change.runs" $col)"
            paste -d' ' "$work/parent.runs" "$work/change.runs" | awk -v w="$workload" -v m="$m" -v col=$col \
                -v pq1="$pq1" -v pmed="$pmed" -v pq3="$pq3" -v cq1="$cq1" -v cmed="$cmed" -v cq3="$cq3" '
                { p = $col; c = $(NF / 2 + col); if (c < p) won++; else if (c == p) tied++ }
                END {
                    printf "%-18s %-12s parent %.4f (%.4f-%.4f, spread %.4f)  change %.4f (%.4f-%.4f)  %+.1f%%  won %d tied %d of %d\n",
                        w, m, pmed, pq1, pq3, pq3 - pq1, cmed, cq1, cq3, 100 * (cmed - pmed) / pmed, won, tied, NR
                }'
            col=$((col + 1))
        done
        awk -v w="$workload" '{ failed += $NF } END { printf "%-18s failed operations: parent %d, ", w, failed }' "$work/parent.runs"
        awk '{ failed += $NF } END { printf "change %d\n", failed }' "$work/change.runs"
    } >>"$work/summary"
done
[ $aa = 0 ] || echo "# A/A: both sides are builds of $parent"
[ ${#pin[@]} = 0 ] || echo "# both sides ran under ${pin[*]}"
echo "# summary, seed $seed: median (quartiles), parent spread = q3 - q1, change vs parent, pairs won"
cat "$work/summary"
