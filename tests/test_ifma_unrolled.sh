#!/bin/sh
# The AVX-512 IFMA kernels compile straight-line: every fixed-count
# limb loop unrolled and every ff/Ifma52.h helper inlined into the
# kernel. A rolled loop or an outlined helper keeps the limbs on the
# stack and ran a kernel up to 3x slower (docs/PERFORMANCE.md,
# "Unrolled limbs"); it shows as fewer vpmadd52 instructions in the
# kernel's own body.
#
#   sh tests/test_ifma_unrolled.sh LIBRARY
#
# LIBRARY is bzk_ff's library, which holds the three IFMA objects
# (WideKernelsIfma, RowKernelsIfma, GateKernelsIfma). Each kernel below
# must hold at least one iteration's straight-line count of
# vpmadd52luq/vpmadd52huq in its own body: a reduced product is 105
# (50 partial-product halves, 55 in the Montgomery reduction), and
# mul, fold and axpy run four of them per iteration, 420; a row of the
# row combination is 50 and its once-per-column reduction 55, 105; a
# row term plus the row reduction 20, the row load's two positions 110
# (55 per load-time reduction) and a gate block 1,375 (a^4) or 460
# (a^1), as counted in GateKernelsIfma.cpp. Where a kernel's body is a
# call to a template (gateSums<K>), the larger of the two counts is
# the kernel's. Exits 77 (ctest's SKIP_RETURN_CODE) off x86-64 or
# without objdump.

set -u
lib=${1:?usage: sh tests/test_ifma_unrolled.sh LIBRARY}

case $(uname -m) in
  x86_64 | amd64) ;;
  *)
    echo "test_ifma_unrolled: not x86-64, skipped"
    exit 77
    ;;
esac
if ! command -v objdump >/dev/null 2>&1; then
    echo "test_ifma_unrolled: no objdump, skipped"
    exit 77
fi
if [ ! -r "$lib" ]; then
    echo "FAIL: cannot read $lib" >&2
    exit 1
fi

# name=minimum; a name matches a demangled function name that
# contains it.
kernels='ifmaMul(=420 ifmaFold(=420 ifmaAxpy(=420 ifmaDot(=105
ifmaCombineRows(=105 ifmaMulRows(=20 ifmaLoadRows(=110
gateSums<4u>(=1375 gateSums<1u>(=460'

objdump -d --no-show-raw-insn -C "$lib" | awk -v kernels="$(echo $kernels)" '
/^[0-9a-f]+ <.*>:$/ { fn = $0; next }
/vpmadd52[lh]uq/ { count[fn]++ }
END {
    n = split(kernels, spec, " ")
    failed = 0
    for (i = 1; i <= n; ++i) {
        split(spec[i], kv, "=")
        best = 0
        for (f in count)
            if (index(f, kv[1]) && count[f] > best)
                best = count[f]
        status = best >= kv[2] + 0 ? "ok  " : "FAIL"
        if (best < kv[2] + 0)
            failed++
        printf "%s %-16s %5d vpmadd52 (at least %d)\n", status, kv[1],
               best, kv[2]
    }
    if (failed) {
        printf "test_ifma_unrolled: %d of %d kernels are not " \
               "straight-line\n", failed, n
        exit 1
    }
    printf "test_ifma_unrolled: all %d kernels are straight-line\n", n
}'
