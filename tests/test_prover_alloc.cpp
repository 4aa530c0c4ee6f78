/**
 * @file
 * A gate prover that proves repeatedly allocates nothing as large as
 * one of the encoder's row-batch buffers after its first proof: the
 * codeword matrices, folded sum-check tables, suffix weights and
 * evaluation rows are its own buffers, reused, the committed tables
 * are borrowed, the gate sum-check's chunk step needs no scratch, and
 * the encoder keeps its row-batch buffers per slot across commits,
 * never per chunk. A repeat commit alone is held to the same size, and
 * a repeat proveRounds on steppedSums (FullSnark phase 2, GKR) makes
 * no chunk scratch.
 *
 * This binary replaces every form of the global operator new and
 * delete with malloc-backed ones. While a LargeAllocations is alive
 * they count each allocation of at least its threshold, on any thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <type_traits>

#include "core/HighDegreeSnark.h"
#include "core/Snark.h"
#include "core/TensorPcs.h"
#include "exec/ExecContext.h"
#include "ff/FieldBackend.h"
#include "ff/Fields.h"
#include "sumcheck/Sumcheck.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_threshold{0};
std::atomic<size_t> g_large{0};

void *
allocate(size_t size, size_t align) noexcept
{
    if (g_counting.load(std::memory_order_relaxed) &&
        size >= g_threshold.load(std::memory_order_relaxed))
        g_large.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    if (align <= alignof(std::max_align_t))
        return std::malloc(size);
    void *p = nullptr;
    return posix_memalign(&p, align, size) == 0 ? p : nullptr;
}

void *
allocateOrThrow(size_t size, size_t align)
{
    if (void *p = allocate(size, align))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(size_t size)
{
    return allocateOrThrow(size, 0);
}

void *
operator new[](size_t size)
{
    return allocateOrThrow(size, 0);
}

void *
operator new(size_t size, std::align_val_t align)
{
    return allocateOrThrow(size, static_cast<size_t>(align));
}

void *
operator new[](size_t size, std::align_val_t align)
{
    return allocateOrThrow(size, static_cast<size_t>(align));
}

void *
operator new(size_t size, const std::nothrow_t &) noexcept
{
    return allocate(size, 0);
}

void *
operator new[](size_t size, const std::nothrow_t &) noexcept
{
    return allocate(size, 0);
}

void *
operator new(size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return allocate(size, static_cast<size_t>(align));
}

void *
operator new[](size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return allocate(size, static_cast<size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace bzk {
namespace {

/** Counts allocations of at least @p bytes while it is alive. */
class LargeAllocations
{
  public:
    explicit LargeAllocations(size_t bytes)
    {
        g_large = 0;
        g_threshold = bytes;
        g_counting = true;
    }
    ~LargeAllocations() { g_counting = false; }
    LargeAllocations(const LargeAllocations &) = delete;
    LargeAllocations &operator=(const LargeAllocations &) = delete;

    size_t count() const { return g_large.load(); }
};

template <typename Gate>
ConstraintTables<Fr>
satisfied(unsigned n_vars, Rng &rng)
{
    if constexpr (std::is_same_v<Gate, Pow4Gate>)
        return highDegreeInstance<Fr>(n_vars, rng);
    else
        return randomInstance(n_vars, rng);
}

template <typename Gate>
class ProverAllocT : public ::testing::Test
{
  protected:
    /**
     * Prove one instance three times with one prover on @p exec. The
     * first prove builds the working set, so it must make allocations
     * of at least a row-batch buffer's size (that also checks the
     * counter); the second and third must make none.
     */
    static void
    repeatProvesAllocateNoTable(const exec::ExecContext *exec)
    {
        // At n = 14 a table is 512 KiB and a row-batch buffer, 2m = 256
        // codeword positions of 8 rows, 80 KiB.
        constexpr unsigned kNVars = 14;
        constexpr size_t kBatchBytes = 256 * sizeof(ff::RowLanes);
        static_assert(kBatchBytes == 80 * 1024);
        Rng rng(14);
        const auto tables = satisfied<Gate>(kNVars, rng);
        GateSnark<Fr, Gate> snark(kNVars, 99);
        snark.setExec(exec);
        for (int prove = 1; prove <= 3; ++prove) {
            GateProof<Fr, Gate> proof;
            size_t large = 0;
            {
                LargeAllocations counter(kBatchBytes);
                proof = snark.prove(tables, {});
                large = counter.count();
            }
            if (prove == 1)
                EXPECT_GT(large, 0u) << "the first prove builds its buffers";
            else
                EXPECT_EQ(large, 0u) << "prove " << prove;
            EXPECT_TRUE(snark.verify(proof, {})) << "prove " << prove;
        }
    }
};

/**
 * Commit one table three times into one state on @p exec. The first
 * commit sizes the codeword matrix and, under IFMA, one row-batch
 * buffer per slot; the second and third must allocate nothing as large
 * as one batch buffer, whichever pool thread runs which slot.
 */
void
repeatCommitsAllocateNoBatchBuffer(const exec::ExecContext *exec)
{
    // At n = 14 a row-batch buffer holds 2m = 256 codeword positions
    // of 8 rows: 80 KiB. The leaves and the Merkle tree stay below.
    constexpr unsigned kNVars = 14;
    constexpr size_t kBatchBytes = 256 * sizeof(ff::RowLanes);
    static_assert(kBatchBytes == 80 * 1024);
    Rng rng(15);
    std::vector<Fr> table(size_t{1} << kNVars);
    for (auto &x : table)
        x = Fr::random(rng);
    TensorPcs<Fr> pcs(kNVars, 99);
    PcsProverState<Fr> state;
    for (int commit = 1; commit <= 3; ++commit) {
        size_t large = 0;
        {
            LargeAllocations counter(kBatchBytes);
            pcs.commit(table, state, exec);
            large = counter.count();
        }
        if (commit == 1)
            EXPECT_GT(large, 0u) << "the first commit sizes the matrix";
        else
            EXPECT_EQ(large, 0u) << "commit " << commit;
    }
}

TEST(CommitAlloc, RepeatCommitsAllocateNoBatchBufferSerially)
{
    repeatCommitsAllocateNoBatchBuffer(nullptr);
}

TEST(CommitAlloc, RepeatCommitsAllocateNoBatchBufferOnAPool)
{
    exec::ExecConfig cfg;
    cfg.threads = 3;
    exec::ExecContext exec(cfg);
    repeatCommitsAllocateNoBatchBuffer(&exec);
}

/**
 * Two proveRounds over two owned 2^14 tables, FullSnark phase 2's
 * shape: steppedSums<3> with a dot combine, tables folded in place.
 * The first grows the thread's chunk scratch; the second must make no
 * allocation as large as that scratch.
 */
TEST(SteppedSumsAlloc, RepeatProveRoundsAllocateNoChunkScratch)
{
    // A chunk's scratch holds 2N + 1 = 5 chunks of values: 320 KiB.
    constexpr size_t kN = size_t{1} << 14;
    constexpr size_t kScratchBytes = 256 * 1024;
    static_assert(5 * exec::kReduceChunk * sizeof(Fr) >= kScratchBytes);
    auto step = steppedSums<3>([](const std::array<const Fr *, 2> &at,
                                  const Fr *, Fr *, size_t m) {
        return ff::dotLanes(at[0], at[1], m);
    });
    auto absorb = [](std::span<const Fr> g) { return g[2] + Fr::one(); };
    Rng rng(16);
    std::vector<Fr> p, q;
    for (int run = 1; run <= 2; ++run) {
        p.resize(kN);
        q.resize(kN);
        for (size_t i = 0; i < kN; ++i) {
            p[i] = Fr::random(rng);
            q[i] = Fr::random(rng);
        }
        std::vector<std::vector<Fr>> rounds;
        size_t large = 0;
        {
            LargeAllocations counter(kScratchBytes);
            proveRounds({p, q}, std::array{&p, &q}, step, absorb, rounds);
            large = counter.count();
        }
        EXPECT_EQ(rounds.size(), 14u);
        if (run == 1)
            EXPECT_GT(large, 0u) << "the first run grows the scratch";
        else
            EXPECT_EQ(large, 0u) << "run " << run;
    }
}

using Gates = ::testing::Types<MulGate, Pow4Gate>;
TYPED_TEST_SUITE(ProverAllocT, Gates);

TYPED_TEST(ProverAllocT, RepeatProvesAllocateNoTableSerially)
{
    TestFixture::repeatProvesAllocateNoTable(nullptr);
}

TYPED_TEST(ProverAllocT, RepeatProvesAllocateNoTableOnAPool)
{
    exec::ExecConfig cfg;
    cfg.threads = 2;
    exec::ExecContext exec(cfg);
    TestFixture::repeatProvesAllocateNoTable(&exec);
}

} // namespace
} // namespace bzk
