#!/usr/bin/env bash
# Validate a Prometheus text-format (version 0.0.4) exposition.
#
# Usage: scripts/validate_prometheus.sh [FILE]   (stdin when FILE is omitted)
#
# Checks, line by line and per family:
#   * every sample line parses as `name[{labels}] value`;
#   * every sampled family is preceded by a `# TYPE` declaration;
#   * every family named `*_total` is typed `counter` (the Prometheus naming
#     rule for monotone counts);
#   * histogram families are complete and coherent: for each label set,
#     `_bucket` counts are cumulative (non-decreasing in file order), the
#     terminal `le="+Inf"` bucket exists and equals the family's `_count`,
#     and `_sum` is present.
#
# Exits non-zero with a diagnostic on the first violation.
set -euo pipefail

exec awk '
function fail(msg) { printf "validate_prometheus: line %d: %s\n", NR, msg; bad = 1; exit 1 }

/^# TYPE / {
    if (NF != 4) fail("malformed TYPE comment: " $0)
    if ($3 ~ /_total$/ && $4 != "counter") fail($3 " is typed " $4 ", but a _total family is a counter")
    type[$3] = $4
    next
}
/^# HELP / { next }
/^#/ { next }
/^[[:space:]]*$/ { next }

{
    # Sample line: name[{labels}] value
    if ($0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?([0-9.eE+-]+|\+Inf|-Inf|NaN)$/)
        fail("unparseable sample line: " $0)
    name = $0; sub(/[{ ].*$/, "", name)
    labels = ""
    if (index($0, "{") > 0) {
        labels = $0
        sub(/^[^{]*\{/, "", labels)
        sub(/\}.*$/, "", labels)
    }
    value = $0; sub(/^.* /, "", value)

    # Resolve histogram component suffixes back to the declared family.
    base = name; kind = "plain"
    if (name ~ /_bucket$/) {
        b = name; sub(/_bucket$/, "", b)
        if (type[b] == "histogram") { base = b; kind = "bucket" }
    } else if (name ~ /_sum$/) {
        b = name; sub(/_sum$/, "", b)
        if (type[b] == "histogram") { base = b; kind = "sum" }
    } else if (name ~ /_count$/) {
        b = name; sub(/_count$/, "", b)
        if (type[b] == "histogram") { base = b; kind = "count" }
    }
    if (!(base in type)) fail("series " name " has no preceding # TYPE")

    if (kind == "plain") next

    # Split the le label out of the label set to key the series.
    le = ""; rest = ""
    n = split(labels, parts, /",/)
    for (i = 1; i <= n; i++) {
        part = parts[i]
        if (i < n) part = part "\""   # re-attach the quote split consumed
        if (part ~ /^le="/) {
            le = part
            sub(/^le="/, "", le); sub(/"$/, "", le)
        } else if (part != "") {
            rest = (rest == "") ? part : rest "," part
        }
    }
    key = base "{" rest "}"

    if (kind == "bucket") {
        if (le == "") fail(name " bucket without an le label")
        if ((key in last_bucket) && value + 0 < last_bucket[key] + 0)
            fail(key " buckets are not cumulative: " value " after " last_bucket[key])
        last_bucket[key] = value
        if (le == "+Inf") inf_count[key] = value
        seen_bucket[key] = 1
    } else if (kind == "count") {
        count_val[key] = value
        seen_count[key] = 1
    } else if (kind == "sum") {
        seen_sum[key] = 1
    }
}

END {
    if (bad) exit 1
    for (key in seen_bucket) {
        if (!(key in inf_count))
            { printf "validate_prometheus: %s lacks an le=\"+Inf\" bucket\n", key; exit 1 }
        if (!(key in seen_count))
            { printf "validate_prometheus: %s lacks a _count series\n", key; exit 1 }
        if (!(key in seen_sum))
            { printf "validate_prometheus: %s lacks a _sum series\n", key; exit 1 }
        if (inf_count[key] + 0 != count_val[key] + 0)
            { printf "validate_prometheus: %s +Inf bucket %s != _count %s\n", \
                     key, inf_count[key], count_val[key]; exit 1 }
    }
    for (key in seen_count) {
        if (!(key in seen_bucket))
            { printf "validate_prometheus: %s has _count but no buckets\n", key; exit 1 }
    }
}
' "${1:--}"
