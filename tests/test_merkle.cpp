/**
 * @file
 * Tests for the Merkle-tree module: reference construction, inclusion
 * proofs, and the GPU batch drivers (functional equality plus the
 * timing/memory properties the paper claims).
 */

#include <gtest/gtest.h>

#include <thread>

#include "exec/ExecContext.h"
#include "gpusim/Device.h"
#include "merkle/GpuMerkle.h"
#include "merkle/MerkleTree.h"

namespace bzk {
namespace {

std::vector<uint8_t>
bytes(size_t n, uint8_t fill)
{
    return std::vector<uint8_t>(n, fill);
}

TEST(MerkleTree, SingleBlock)
{
    auto data = bytes(64, 0xaa);
    MerkleTree t = MerkleTree::build(data);
    EXPECT_EQ(t.numLeaves(), 1u);
    EXPECT_EQ(t.compressions(), 1u);
    uint8_t block[64];
    std::copy(data.begin(), data.end(), block);
    EXPECT_EQ(t.root(),
              Sha256::compressBlock(std::span<const uint8_t, 64>(block)));
}

TEST(MerkleTree, TwoBlocksRootIsPairHash)
{
    auto data = bytes(128, 0x01);
    MerkleTree t = MerkleTree::build(data);
    EXPECT_EQ(t.numLeaves(), 2u);
    EXPECT_EQ(t.root(), Sha256::hashPair(t.leaf(0), t.leaf(1)));
    EXPECT_EQ(t.compressions(), 3u);
}

TEST(MerkleTree, CompressionCountIs2NMinus1)
{
    // The paper's cost analysis: 2N ~ N + N/2 + ... + 1 hashes.
    for (size_t n : {4u, 8u, 64u}) {
        MerkleTree t = MerkleTree::build(bytes(64 * n, 0x55));
        EXPECT_EQ(t.compressions(), 2 * n - 1) << "N=" << n;
    }
}

TEST(MerkleTree, PadsToPowerOfTwo)
{
    MerkleTree t = MerkleTree::build(bytes(64 * 5, 0x11));
    EXPECT_EQ(t.numLeaves(), 8u);
}

TEST(MerkleTree, PadsPartialBlock)
{
    // 100 bytes -> 2 blocks, second zero-padded; must differ from the
    // 128-byte all-same input.
    auto short_data = bytes(100, 0x22);
    auto long_data = bytes(128, 0x22);
    EXPECT_NE(MerkleTree::build(short_data).root(),
              MerkleTree::build(long_data).root());
}

TEST(MerkleTree, RootChangesWithAnyBlock)
{
    auto data = bytes(64 * 8, 0x00);
    Digest base = MerkleTree::build(data).root();
    for (size_t block = 0; block < 8; ++block) {
        auto mutated = data;
        mutated[block * 64 + 3] ^= 1;
        EXPECT_NE(MerkleTree::build(mutated).root(), base)
            << "block " << block;
    }
}

TEST(MerkleTree, PathVerifies)
{
    auto data = bytes(64 * 16, 0x42);
    MerkleTree t = MerkleTree::build(data);
    for (size_t i = 0; i < 16; ++i) {
        MerklePath p = t.path(i);
        EXPECT_EQ(p.siblings.size(), 4u);
        EXPECT_TRUE(MerkleTree::verifyPath(t.root(), t.leaf(i), p));
    }
}

std::vector<uint8_t>
distinctBlocks(size_t n)
{
    std::vector<uint8_t> data(64 * n);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 31 + i / 64);
    return data;
}

TEST(MerkleTree, PathRejectsWrongLeaf)
{
    MerkleTree t = MerkleTree::build(distinctBlocks(8));
    MerklePath p = t.path(3);
    EXPECT_FALSE(MerkleTree::verifyPath(t.root(), t.leaf(4), p));
}

TEST(MerkleTree, PathRejectsWrongIndex)
{
    MerkleTree t = MerkleTree::build(distinctBlocks(8));
    MerklePath p = t.path(3);
    p.leaf_index = 5;
    EXPECT_FALSE(MerkleTree::verifyPath(t.root(), t.leaf(3), p));
}

TEST(MerkleTree, PathRejectsTamperedSibling)
{
    auto data = bytes(64 * 8, 0x42);
    MerkleTree t = MerkleTree::build(data);
    MerklePath p = t.path(2);
    p.siblings[1].bytes[0] ^= 1;
    EXPECT_FALSE(MerkleTree::verifyPath(t.root(), t.leaf(2), p));
}

TEST(MerkleTree, BuildFromLeaves)
{
    std::vector<Digest> leaves(4);
    for (int i = 0; i < 4; ++i)
        leaves[i].bytes[0] = static_cast<uint8_t>(i);
    MerkleTree t = MerkleTree::buildFromLeaves(leaves);
    Digest l = Sha256::hashPair(leaves[0], leaves[1]);
    Digest r = Sha256::hashPair(leaves[2], leaves[3]);
    EXPECT_EQ(t.root(), Sha256::hashPair(l, r));
}

TEST(MerkleTree, RootBitIdenticalAcrossThreadCounts)
{
    // 1000 blocks: not a power of two, so the build path exercises
    // padding, the 16-lane leaf hasher's ragged tail, and every
    // parallel layer. The root must not depend on the thread count.
    std::vector<uint8_t> data(1000 * 64);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 37 + 11);
    Digest serial_root = MerkleTree::build(data).root();

    size_t hw = std::thread::hardware_concurrency();
    for (size_t threads : {size_t{1}, size_t{2}, hw ? hw : size_t{4}}) {
        exec::ExecConfig cfg;
        cfg.threads = threads;
        exec::ExecContext exec(cfg);
        MerkleTree t = MerkleTree::build(data, &exec);
        EXPECT_EQ(t.root(), serial_root) << "threads=" << threads;
        EXPECT_EQ(t.compressions(), MerkleTree::build(data).compressions())
            << "threads=" << threads;
    }
}

TEST(MerkleTree, RootMatchesOneCompressionPerNode)
{
    // The leaves and layers run 16 blocks per compression where the CPU
    // has AVX-512; the root must equal a tree built one compressBlock
    // per leaf and one hashPair per node. 1000 blocks leave a tail of 8
    // leaves and give layers of 512 down to 1 pairs.
    std::vector<uint8_t> data(1000 * 64);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 29 + 5);
    std::vector<Digest> layer(1024);
    for (size_t i = 0; i < 1000; ++i)
        layer[i] = Sha256::compressBlock(
            std::span<const uint8_t, 64>(data.data() + 64 * i, 64));
    while (layer.size() > 1) {
        std::vector<Digest> above(layer.size() / 2);
        for (size_t i = 0; i < above.size(); ++i)
            above[i] = Sha256::hashPair(layer[2 * i], layer[2 * i + 1]);
        layer = std::move(above);
    }
    EXPECT_EQ(MerkleTree::build(data).root(), layer[0]);
    exec::ExecConfig cfg;
    cfg.threads = 4;
    exec::ExecContext exec(cfg);
    EXPECT_EQ(MerkleTree::build(data, &exec).root(), layer[0]);
}

TEST(MerkleTree, PathsVerifyOnParallelBuild)
{
    std::vector<uint8_t> data(64 * 64, 0x3c);
    exec::ExecConfig cfg;
    cfg.threads = 4;
    exec::ExecContext exec(cfg);
    MerkleTree t = MerkleTree::build(data, &exec);
    for (size_t leaf : {size_t{0}, size_t{17}, size_t{63}}) {
        MerklePath p = t.path(leaf);
        EXPECT_TRUE(MerkleTree::verifyPath(t.root(), t.leaf(leaf), p));
    }
}

class GpuMerkleTest : public ::testing::Test
{
  protected:
    gpusim::Device dev_{gpusim::DeviceSpec::v100()};
};

TEST_F(GpuMerkleTest, PipelinedAndIntuitiveAgreeOnRoots)
{
    // The GPU drivers run the identical functional hashing; with the
    // same seed, roots must match across strategies.
    GpuMerkleOptions opt;
    opt.functional = 3;
    Rng rng1(77), rng2(77);
    std::vector<Digest> roots_pipe, roots_int;
    PipelinedMerkleGpu(dev_, opt).run(8, 256, rng1, &roots_pipe);
    IntuitiveMerkleGpu(dev_, opt).run(8, 256, rng2, &roots_int);
    ASSERT_EQ(roots_pipe.size(), 3u);
    EXPECT_EQ(roots_pipe, roots_int);
}

TEST_F(GpuMerkleTest, CpuBaselineAgreesOnRoots)
{
    Rng rng1(78), rng2(78);
    std::vector<Digest> gpu_roots, cpu_roots;
    GpuMerkleOptions opt;
    opt.functional = 2;
    PipelinedMerkleGpu(dev_, opt).run(4, 128, rng1, &gpu_roots);
    CpuMerkleBaseline(2).run(4, 128, rng2, &cpu_roots);
    ASSERT_EQ(cpu_roots.size(), 2u);
    EXPECT_EQ(gpu_roots, cpu_roots);
}

TEST_F(GpuMerkleTest, PipelinedThroughputBeatsIntuitive)
{
    // Table 3's headline: the pipelined builder wins on throughput.
    GpuMerkleOptions opt;
    opt.functional = 0;
    Rng rng(1);
    auto pipe = PipelinedMerkleGpu(dev_, opt).run(256, 1 << 12, rng);
    auto intuitive = IntuitiveMerkleGpu(dev_, opt).run(256, 1 << 12, rng);
    EXPECT_GT(pipe.throughput_per_ms, intuitive.throughput_per_ms);
}

TEST_F(GpuMerkleTest, PipelinedAdvantageGrowsForSmallTrees)
{
    GpuMerkleOptions opt;
    opt.functional = 0;
    Rng rng(1);
    auto speedup = [&](size_t n_blocks) {
        auto pipe = PipelinedMerkleGpu(dev_, opt).run(256, n_blocks, rng);
        auto base = IntuitiveMerkleGpu(dev_, opt).run(256, n_blocks, rng);
        return pipe.throughput_per_ms / base.throughput_per_ms;
    };
    EXPECT_GT(speedup(1 << 10), speedup(1 << 16));
}

TEST_F(GpuMerkleTest, PipelinedLatencyIsWorse)
{
    // Table 6: pipelining trades latency for throughput.
    GpuMerkleOptions opt;
    opt.functional = 0;
    Rng rng(1);
    auto pipe = PipelinedMerkleGpu(dev_, opt).run(128, 1 << 14, rng);
    auto intuitive = IntuitiveMerkleGpu(dev_, opt).run(128, 1 << 14, rng);
    EXPECT_GT(pipe.first_latency_ms, intuitive.first_latency_ms);
}

TEST_F(GpuMerkleTest, PipelinedUsesLessDeviceMemory)
{
    // Sec. 3.1: 2N blocks versus mN blocks.
    GpuMerkleOptions opt;
    opt.functional = 0;
    Rng rng(1);
    auto pipe = PipelinedMerkleGpu(dev_, opt).run(64, 1 << 12, rng);
    auto intuitive = IntuitiveMerkleGpu(dev_, opt).run(64, 1 << 12, rng);
    EXPECT_LT(pipe.peak_device_bytes, intuitive.peak_device_bytes / 4);
}

TEST_F(GpuMerkleTest, PipelinedUtilizationHigher)
{
    // Figure 9 shape: the pipelined module keeps lanes busy.
    GpuMerkleOptions opt;
    opt.functional = 0;
    Rng rng(1);
    auto pipe = PipelinedMerkleGpu(dev_, opt).run(256, 1 << 12, rng);
    auto intuitive = IntuitiveMerkleGpu(dev_, opt).run(256, 1 << 12, rng);
    EXPECT_GT(pipe.utilization, intuitive.utilization);
    EXPECT_GT(pipe.utilization, 0.7);
}

TEST_F(GpuMerkleTest, ThroughputScalesWithBatch)
{
    // Amortization: bigger batches approach the steady-state rate.
    GpuMerkleOptions opt;
    opt.functional = 0;
    Rng rng(1);
    auto small = PipelinedMerkleGpu(dev_, opt).run(16, 1 << 12, rng);
    auto large = PipelinedMerkleGpu(dev_, opt).run(512, 1 << 12, rng);
    EXPECT_GT(large.throughput_per_ms, small.throughput_per_ms);
}

TEST_F(GpuMerkleTest, StreamIoOverlapsNotSerializes)
{
    // With multi-stream dynamic loading, total time should be far below
    // compute + transfer fully serialized.
    GpuMerkleOptions opt;
    opt.functional = 0;
    Rng rng(1);
    auto resident = PipelinedMerkleGpu(dev_, opt).run(128, 1 << 12, rng);
    opt.stream_io = true;
    auto streamed = PipelinedMerkleGpu(dev_, opt).run(128, 1 << 12, rng);
    double copy_ms = dev_.copyDurationMs(128ull * (1 << 12) * 64);
    EXPECT_LT(streamed.total_ms,
              resident.total_ms + copy_ms + resident.total_ms * 0.25);
}

} // namespace
} // namespace bzk
