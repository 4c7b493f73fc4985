#!/usr/bin/env bash
# The CI bench gate, factored out of the workflow shell: given the fresh
# smoke outputs of scripts/bench.sh, run every check that keeps the
# committed BENCH_*.json files honest.
#
#   scripts/ci_bench_gate.sh <fresh-smoke.json...>
#
# 1. Pairwise gate — every committed BENCH_*.json is matched to the
#    fresh output with the same file-level kind tag and checked with
#    scripts/check_bench.sh (id coverage, sane units, non-empty).
#    Matching by kind tag (not filename) means a new committed bench is
#    gated the moment bench.sh produces its kind — no workflow edit.
# 2. Orphan gate — every committed file must have a fresh counterpart.
# 3. Ratio gate — the fresh "hot" output's within-run speedup of the hot
#    tier over the cached tree (derived_speedups_hot_vs_tree_cached)
#    must be at least 5 on ycsb_c and at least 3 on ycsb_a.
# 4. Negative self-tests — the gate must *fail* on (a) a committed file
#    whose kind no smoke output produced, (b) a committed file with an
#    empty benchmarks array, and (c) a hot output with either ratio just
#    under its floor. A gate that cannot fail gates nothing.
#
# Exit 0 = all gates passed.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -gt 0 ] || {
    echo "usage: ci_bench_gate.sh <fresh-smoke.json...>" >&2
    exit 2
}
fresh_files=("$@")

kind_of() {
    { grep -oE '"bench": "[^"]+"' "$1" || true; } | head -1 | sed 's/.*: "//; s/"$//'
}

# Floors for the hot tier's within-run speedups, as "<ratio>:<floor>".
HOT_FLOORS="ycsb_c:5 ycsb_a:3"

# hot_ratio_gate <hot.json>: fail unless every ratio meets its floor. A
# missing or null ratio fails too.
hot_ratio_gate() {
    local file="$1" fail=0 pair name floor got
    for pair in $HOT_FLOORS; do
        name="${pair%%:*}"
        floor="${pair##*:}"
        got="$({ grep -A3 '"derived_speedups_hot_vs_tree_cached"' "$file" || true; } \
            | { grep -oE "\"$name\": [^,}]+" || true; } | head -1 | sed 's/.*: //')"
        if awk -v g="${got:-null}" -v f="$floor" 'BEGIN { exit !(g != "null" && g + 0 >= f) }'; then
            echo "   hot_vs_tree_cached $name = $got (floor $floor)"
        else
            echo "FAIL: $file hot_vs_tree_cached $name = ${got:-missing}, below floor $floor" >&2
            fail=1
        fi
    done
    return "$fail"
}

# ---- 1. Pairwise gates, matched by kind tag ----------------------------

for committed in BENCH_*.json; do
    kind="$(kind_of "$committed")"
    match=""
    for f in "${fresh_files[@]}"; do
        if [ "$(kind_of "$f")" = "$kind" ]; then
            match="$f"
            break
        fi
    done
    if [ -z "$match" ]; then
        echo "FAIL: no fresh smoke output has kind '$kind' for $committed" >&2
        exit 1
    fi
    echo "== pairwise: $match vs $committed (kind '$kind')"
    scripts/check_bench.sh "$match" "$committed"
done

# ---- 2. Orphan gate ----------------------------------------------------

echo "== orphan gate"
scripts/check_bench.sh --orphans BENCH_*.json -- "${fresh_files[@]}"

# ---- 3. Ratio gate -----------------------------------------------------

hot_fresh=""
for f in "${fresh_files[@]}"; do
    if [ "$(kind_of "$f")" = "hot" ]; then
        hot_fresh="$f"
        break
    fi
done
[ -n "$hot_fresh" ] || {
    echo "FAIL: no fresh smoke output has kind 'hot' for the ratio gate" >&2
    exit 1
}
echo "== ratio gate: $hot_fresh"
hot_ratio_gate "$hot_fresh"

# ---- 4. Negative self-tests -------------------------------------------

echo "== negative: phantom committed bench must fail the orphan gate"
printf '{\n  "bench": "phantom",\n  "raw": [\n{"bench":"phantom/x","median_ns_per_iter":1.0,"ops_per_sec":1.0}\n  ]\n}\n' \
    > BENCH_phantom.json
if scripts/check_bench.sh --orphans BENCH_*.json -- "${fresh_files[@]}" 2>/dev/null; then
    rm -f BENCH_phantom.json
    echo "FAIL: orphan gate passed on a phantom bench file" >&2
    exit 1
fi
rm -f BENCH_phantom.json

echo "== negative: empty benchmarks array must fail the pairwise gate"
first_kind="$(kind_of "${fresh_files[0]}")"
printf '{\n  "bench": "%s",\n  "raw": []\n}\n' "$first_kind" > BENCH_empty_neg.tmp.json
if scripts/check_bench.sh "${fresh_files[0]}" BENCH_empty_neg.tmp.json 2>/dev/null; then
    rm -f BENCH_empty_neg.tmp.json
    echo "FAIL: pairwise gate passed on a committed file with zero benchmark entries" >&2
    exit 1
fi
rm -f BENCH_empty_neg.tmp.json

for low in "4.99 50.00" "50.00 2.99"; do
    read -r c a <<<"$low"
    echo "== negative: hot ratios ycsb_c=$c ycsb_a=$a must fail the ratio gate"
    neg="$(mktemp)"
    printf '{\n  "bench": "hot",\n  "derived_speedups_hot_vs_tree_cached": {\n    "ycsb_c": %s,\n    "ycsb_a": %s\n  }\n}\n' \
        "$c" "$a" > "$neg"
    if hot_ratio_gate "$neg" 2>/dev/null >/dev/null; then
        rm -f "$neg"
        echo "FAIL: ratio gate passed on ycsb_c=$c ycsb_a=$a" >&2
        exit 1
    fi
    rm -f "$neg"
done

echo "OK: pairwise, orphan and ratio gates passed and every negative self-test failed as required"
