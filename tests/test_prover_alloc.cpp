/**
 * @file
 * A gate prover that proves repeatedly allocates nothing as large as a
 * table after its first proof: the codeword matrices, folded sum-check
 * tables and suffix weights are its own buffers, reused, and the
 * committed tables are borrowed.
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
#include "ff/Fields.h"

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
     * of a table's size (that also checks the counter); the second and
     * third must make none.
     */
    static void
    repeatProvesAllocateNoTable(const exec::ExecContext *exec)
    {
        // At n = 14 a table is 512 KiB. proveRounds' chunk scratch,
        // 2 * 3 + 1 chunks of kReduceChunk elements, stays below.
        constexpr unsigned kNVars = 14;
        constexpr size_t kTableBytes = (size_t{1} << kNVars) * sizeof(Fr);
        static_assert(7 * exec::kReduceChunk * sizeof(Fr) < kTableBytes);
        Rng rng(14);
        const auto tables = satisfied<Gate>(kNVars, rng);
        GateSnark<Fr, Gate> snark(kNVars, 99);
        snark.setExec(exec);
        for (int prove = 1; prove <= 3; ++prove) {
            GateProof<Fr, Gate> proof;
            size_t large = 0;
            {
                LargeAllocations counter(kTableBytes);
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
