#!/bin/sh
# Every metric name the docs mention exists in the code: each `bzk_*`
# name in docs/*.md and README.md must appear as a whole name inside a
# string literal somewhere under src/ or tools/.
#
#   sh tests/test_metric_names.sh [repo-root]
#
# `{a,b,...}` groups expand, so `bzk_host_{encoder,merkle}_ms` checks
# bzk_host_encoder_ms and bzk_host_merkle_ms. A mention that ends in
# `_` is a prefix (`bzk_net_` or `bzk_net_submits_<kind>_total`) and is
# skipped.

set -u
root=${1:-$(dirname "$0")/..}
cd "$root" || exit 2

names=$(grep -ohE 'bzk_[a-z0-9_]*(\{[a-z0-9_,]+\}[a-z0-9_]*)*' \
    docs/*.md README.md |
    awk '
        function expand(name,    i, j, k, n, pre, rest, post, alts) {
            i = index(name, "{")
            if (i == 0) {
                print name
                return
            }
            pre = substr(name, 1, i - 1)
            rest = substr(name, i + 1)
            j = index(rest, "}")
            post = substr(rest, j + 1)
            n = split(substr(rest, 1, j - 1), alts, ",")
            for (k = 1; k <= n; k++)
                expand(pre alts[k] post)
        }
        { expand($0) }' |
    grep -v '_$' | sort -u)

if [ -z "$names" ]; then
    echo "test_metric_names: no bzk_* names found in the docs" >&2
    exit 1
fi

missing=0
count=0
for name in $names; do
    count=$((count + 1))
    # NAME as a whole name inside a "..." literal.
    if ! grep -rqE "\"([^\"]*[^a-z0-9_\"])?$name([^a-z0-9_\"][^\"]*)?\"" \
        src tools; then
        echo "FAIL: $name is in the docs but in no string literal" \
            "under src/ or tools/" >&2
        missing=$((missing + 1))
    fi
done

if [ "$missing" -ne 0 ]; then
    echo "test_metric_names: $missing of $count name(s) missing" >&2
    exit 1
fi
echo "test_metric_names: all $count names found"
