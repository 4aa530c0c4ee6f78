#include "merkle/MerkleTree.h"

#include <algorithm>
#include <cstring>

#include "util/Log.h"

namespace bzk {

namespace {

size_t
nextPow2(size_t n)
{
    size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

MerkleTree::MerkleTree(std::vector<Digest> leaves, size_t data_compressions,
                       const exec::ExecContext *exec)
{
    if (leaves.empty())
        panic("MerkleTree: no leaves");
    size_t padded = nextPow2(leaves.size());
    leaves.resize(padded); // zero digests pad the tail
    compressions_ = data_compressions;

    if (exec)
        exec->setRegion("merkle");
    layers_.push_back(std::move(leaves));
    while (layers_.back().size() > 1) {
        const auto &below = layers_.back();
        std::vector<Digest> above(below.size() / 2);
        // The layer hot loop: sibling pairs are read in place and
        // compressed 16 per AVX-512 compression where the CPU has it;
        // layers split across host threads when an ExecContext is
        // supplied.
        auto hash_range = [&](size_t begin, size_t end) {
            Sha256::hashPairs(below.data() + 2 * begin, end - begin,
                              above.data() + begin);
        };
        if (exec)
            exec->parallelFor(above.size(), hash_range);
        else
            hash_range(0, above.size());
        compressions_ += above.size();
        layers_.push_back(std::move(above));
    }
}

MerkleTree
MerkleTree::build(std::span<const uint8_t> data,
                  const exec::ExecContext *exec)
{
    size_t blocks = (data.size() + 63) / 64;
    if (blocks == 0)
        blocks = 1;
    if (exec)
        exec->setRegion("merkle");
    std::vector<Digest> leaves(blocks);
    auto leaf_range = [&](size_t begin, size_t end) {
        // Whole blocks compress straight out of the input buffer.
        size_t i = std::max(begin, std::min(end, data.size() / 64));
        Sha256::compressBlocks(data.data() + 64 * begin, i - begin,
                               leaves.data() + begin);
        // A ragged tail block is zero-padded into a stack staging
        // buffer (at most one per build).
        for (; i < end; ++i) {
            uint8_t block[64] = {0};
            size_t offset = i * 64;
            size_t len = offset < data.size()
                             ? std::min<size_t>(64, data.size() - offset)
                             : 0;
            if (len > 0)
                std::memcpy(block, data.data() + offset, len);
            leaves[i] =
                Sha256::compressBlock(std::span<const uint8_t, 64>(block));
        }
    };
    if (exec)
        exec->parallelFor(blocks, leaf_range);
    else
        leaf_range(0, blocks);
    return MerkleTree(std::move(leaves), blocks, exec);
}

MerkleTree
MerkleTree::buildFromLeaves(std::vector<Digest> leaves,
                            const exec::ExecContext *exec)
{
    return MerkleTree(std::move(leaves), 0, exec);
}

const Digest &
MerkleTree::leaf(size_t leaf_index) const
{
    if (leaf_index >= numLeaves())
        panic("MerkleTree::leaf: index %zu out of %zu", leaf_index,
              numLeaves());
    return layers_.front()[leaf_index];
}

MerklePath
MerkleTree::path(size_t leaf_index) const
{
    if (leaf_index >= numLeaves())
        panic("MerkleTree::path: index %zu out of %zu", leaf_index,
              numLeaves());
    MerklePath p;
    p.leaf_index = leaf_index;
    size_t idx = leaf_index;
    for (size_t layer = 0; layer + 1 < layers_.size(); ++layer) {
        p.siblings.push_back(layers_[layer][idx ^ 1]);
        idx >>= 1;
    }
    return p;
}

bool
MerkleTree::verifyPath(const Digest &root, const Digest &leaf,
                       const MerklePath &path)
{
    Digest node = leaf;
    size_t idx = path.leaf_index;
    for (const Digest &sibling : path.siblings) {
        node = (idx & 1) ? Sha256::hashPair(sibling, node)
                         : Sha256::hashPair(node, sibling);
        idx >>= 1;
    }
    return node == root;
}

} // namespace bzk
