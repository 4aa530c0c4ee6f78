#!/bin/sh
# The real prover never reaches the GPU simulator. The protocol table,
# the durable service, the journal and the network service must not
# include a simulator header, directly or through another header. The
# simulator may call the protocol table; this checks the other way.
#
#   sh tests/test_layering.sh CXX [repo-root]
#
# CXX is a C++20 compiler; `CXX -MM` lists every project header a
# source file reaches. The simulator side is src/gpusim/, the pipelined
# system and its front ends, and the scheduler's pipeline engine.
# sched/AdmissionQueue.h and sched/ProtocolKind.h are guard-rail code
# the real path shares, and stay allowed.

set -u
cxx=${1:?usage: sh tests/test_layering.sh CXX [repo-root]}
root=${2:-$(dirname "$0")/..}
cd "$root" || exit 2

simulator='gpusim/
core/PipelinedSystem.h
core/StreamingService.h
core/MultiGpu.h
sched/CycleModel.h
sched/PipelineScheduler.h
sched/LaneAllocator.h
sched/StageGraph.h'

failed=0
checked=0
for source in src/core/Protocol.cpp src/core/DurableService.cpp \
    src/journal/*.cpp src/net/*.cpp; do
    checked=$((checked + 1))
    if ! deps=$("$cxx" -std=c++20 -Isrc -MM "$source"); then
        echo "FAIL: $cxx -MM $source did not run" >&2
        failed=$((failed + 1))
        continue
    fi
    hit=0
    for dep in $(printf '%s\n' "$deps" | tr -d '\\'); do
        for header in $simulator; do
            case "$dep" in
              "src/$header"*)
                echo "FAIL: $source reaches $dep" >&2
                hit=1
                ;;
            esac
        done
    done
    failed=$((failed + hit))
done

if [ "$failed" -ne 0 ]; then
    echo "test_layering: $failed of $checked real-path source(s)" \
        "reach the simulator" >&2
    exit 1
fi
echo "test_layering: none of $checked real-path sources reach the" \
    "simulator"
