#!/bin/sh
# End-to-end pins for the batchzk CLI: proof-file digests, the output of
# `prove`, `verify` and `info`, `verify`'s exit codes, journaled `prove`
# followed by `recover` for both protocol kinds, and a mixed-kind
# `sched` run.
#
#   sh tests/test_cli.sh build/tools/batchzk
#
# Proofs are bit-identical for any BZK_THREADS, field backend and IFMA
# setting, so every tier-1 pass checks the same digests. Timings are
# masked before outputs are compared.

set -u
if [ $# -ne 1 ]; then
    echo "usage: $0 path/to/batchzk" >&2
    exit 2
fi
batchzk=$1
# `prove --log-gates 8 --seed 2024` proof files per system.
table_sha=3534706d7b01b562c1e3e48c6562c5830d05ced6c02df6a4973b1f3a29100e8e
hdg_sha=3672a51ae6806f132de80af7bee60dd895ff2b14809b0b2745ce8efcd57c29d4
full_sha=7512cf5d227724017a6d1debef18942118ceb21b9d270b8895bb6c58497b51f3
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
failures=0

fail() {
    echo "FAIL: $*" >&2
    failures=$((failures + 1))
}

# expect_exit CODE CMD...: run CMD into $work/out, require exit CODE.
expect_exit() {
    want=$1
    shift
    "$@" >"$work/out" 2>&1
    got=$?
    if [ "$got" -ne "$want" ]; then
        fail "'$*' exited $got, want $want"
        sed 's/^/    /' "$work/out" >&2
    fi
}

# expect_output TEXT: the last output, "in N.N ms" masked to "in T ms",
# must be exactly TEXT.
expect_output() {
    sed -E 's/in [0-9]+\.[0-9] ms/in T ms/' "$work/out" >"$work/got"
    printf '%s\n' "$1" >"$work/want"
    if ! cmp -s "$work/want" "$work/got"; then
        fail "unexpected output (diff want got):"
        diff "$work/want" "$work/got" | sed 's/^/    /' >&2
    fi
}

# expect_line REGEX: some line of the last output matches REGEX whole.
expect_line() {
    if ! grep -qxE -- "$1" "$work/out"; then
        fail "no line matches: $1"
        sed 's/^/    /' "$work/out" >&2
    fi
}

# expect_digest FILE SHA256
expect_digest() {
    got=$(sha256sum "$1" | cut -d ' ' -f 1)
    if [ "$got" != "$2" ]; then
        fail "$(basename "$1") sha256 $got, want $2"
    fi
}

# flip_byte IN OUT: copy IN to OUT with the low bit of its middle byte
# flipped.
flip_byte() {
    cp "$1" "$2"
    at=$(($(wc -c <"$1") / 2))
    byte=$(od -An -tu1 -j "$at" -N 1 "$1" | tr -d ' ')
    printf "\\$(printf '%03o' $((byte ^ 1)))" |
        dd of="$2" bs=1 seek="$at" conv=notrunc 2>/dev/null
}

# check_file NAME BLOB_BYTES SYSTEM SUMCHECK_LINE: verify and info on
# $work/NAME.bzkp, then on a flipped, a truncated and a missing file.
check_file() {
    file=$work/$1.bzkp
    expect_exit 0 "$batchzk" verify --in "$file"
    expect_output "ACCEPT (verified in T ms)"
    expect_exit 0 "$batchzk" info --in "$file"
    expect_output "file        : $file
format      : BZKP v2
system      : $3
circuit     : ~2^8 gates
encoder seed: 2024
blob        : $2 bytes (well-formed)
$4"

    flip_byte "$file" "$work/flipped.bzkp"
    expect_exit 1 "$batchzk" verify --in "$work/flipped.bzkp"
    expect_output "REJECT (verified in T ms)"

    head -c $(($(wc -c <"$file") - 100)) "$file" >"$work/truncated.bzkp"
    expect_exit 1 "$batchzk" verify --in "$work/truncated.bzkp"
    expect_output "REJECT (malformed proof)"
    expect_exit 0 "$batchzk" info --in "$work/truncated.bzkp"
    expect_line "blob        : $(($2 - 100)) bytes \(MALFORMED\)"

    expect_exit 2 "$batchzk" verify --in "$work/missing.bzkp"
    expect_output "cannot open '$work/missing.bzkp'"
}

# Table-commit: the demo circuit's tables under the mul gate.
expect_exit 0 "$batchzk" prove --log-gates 8 --seed 2024 \
    --kind table-commit --out "$work/table.bzkp"
expect_output "building a deterministic satisfied instance with ~2^8 gates (table system)...
proved in T ms (18304-byte proof)
wrote $work/table.bzkp (18587 bytes)"
expect_digest "$work/table.bzkp" "$table_sha"
check_file table 18572 table \
    "sum-check   : 8 rounds; 8 opened columns per table"

# High-degree gate: a seeded a^4 * b = c instance.
expect_exit 0 "$batchzk" prove --log-gates 8 --seed 2024 \
    --kind high-degree-gate --out "$work/hdg.bzkp"
expect_output "building a satisfied high-degree gate instance with 2^8 rows...
proved in T ms
wrote $work/hdg.bzkp (19355 bytes)"
expect_digest "$work/hdg.bzkp" "$hdg_sha"
check_file hdg 19340 high-degree-gate \
    "sum-check   : 8 degree-6 rounds; 8 opened columns per table"

# Wiring-sound FullSnark over the same demo circuit.
expect_exit 0 "$batchzk" prove --log-gates 8 --seed 2024 --system full \
    --out "$work/full.bzkp"
expect_output "building a deterministic satisfied instance with ~2^8 gates (full system)...
proved in T ms (7744-byte wiring-sound proof)
wrote $work/full.bzkp (7913 bytes)"
expect_digest "$work/full.bzkp" "$full_sha"
check_file full 7898 "full (wiring-sound)" \
    "sum-checks  : 8 + 9 rounds; 8 opened columns"

# check_journal KIND SHA256: a journaled prove writes the same proof,
# journals a task and an ack, and recover replays both records and
# re-proves nothing.
check_journal() {
    journal=$work/journal-$1
    expect_exit 0 "$batchzk" prove --log-gates 8 --seed 2024 \
        --kind "$1" --journal-dir "$journal" --out "$work/journaled.bzkp"
    expect_line "journaled task \+ completion under .*/journal-$1 \(2 records, 86 bytes\)"
    expect_digest "$work/journaled.bzkp" "$2"
    expect_exit 0 "$batchzk" recover --journal-dir "$journal"
    expect_line "\| records replayed +\| 2 +\|"
    expect_line "\| proofs restored +\| 1 +\|"
    expect_line "\| tasks re-proved +\| 0 +\|"
    expect_line "\| all proofs verify +\| yes +\|"
}

check_journal table-commit "$table_sha"
check_journal high-degree-gate "$hdg_sha"

# A batch alternating both kinds through the simulated pipeline.
expect_exit 0 "$batchzk" sched --batch 16 --log-gates 10 --kind mixed \
    --lane-policy measured-cost
expect_line "makespan    : 0.525 ms over 35 pipeline cycles"

if [ "$failures" -ne 0 ]; then
    echo "test_cli: $failures check(s) failed" >&2
    exit 1
fi
echo "test_cli: all checks passed"
