#ifndef BZK_HASH_SHA256_H_
#define BZK_HASH_SHA256_H_

/**
 * @file
 * SHA-256 implemented from scratch (FIPS 180-4).
 *
 * Exposes both the full padded digest and the raw 512-bit -> 256-bit
 * block compression. The Merkle-tree modules use the raw compression —
 * exactly the "hash a 512-bit block into a 256-bit value" primitive of the
 * paper's Figure 2 — so the cost model can charge precisely one compression
 * per tree node. Every single-message entry point compresses through
 * one block kernel picked once per process (SHA-NI when the CPU has it,
 * portable code otherwise); compressBlocks runs 16 messages per AVX-512
 * compression where the CPU has it (see hash/Sha256Kernels.h).
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace bzk {

/** A 256-bit digest. */
struct Digest
{
    std::array<uint8_t, 32> bytes{};

    bool operator==(const Digest &o) const { return bytes == o.bytes; }
    bool operator!=(const Digest &o) const { return !(*this == o); }

    /** Lowercase hex rendering. */
    std::string toHex() const;
};

/** Incremental SHA-256 hasher. */
class Sha256
{
  public:
    Sha256() { reset(); }

    /** Reset to the initial state. */
    void reset();

    /** Absorb @p data. */
    void update(std::span<const uint8_t> data);

    /** Finish padding and produce the digest. Hasher must be reset after. */
    Digest finalize();

    /** One-shot digest of @p data. */
    static Digest digest(std::span<const uint8_t> data);

    /**
     * Raw compression of one 512-bit block with the standard IV.
     * This is the Merkle node hash: two 256-bit children in, one 256-bit
     * parent out, exactly one compression of work.
     */
    static Digest compressBlock(std::span<const uint8_t, 64> block);

    /** compressBlock over the concatenation of two digests. */
    static Digest hashPair(const Digest &left, const Digest &right);

    /**
     * out[i] = compressBlock(block i) for @p n_blocks consecutive
     * 64-byte blocks — the scalar analogue of the paper's
     * one-thread-per-node Merkle kernel. Where the CPU has AVX-512,
     * whole groups of 16 blocks run as the 16 lanes of one compression
     * (hash/Sha256Kernels.h); the rest, and every block on other CPUs,
     * take one dispatched compressBlock each.
     */
    static void compressBlocks(const uint8_t *blocks, size_t n_blocks,
                               Digest *out);

    /**
     * Hash @p n_pairs sibling pairs: out[i] = hashPair(children[2i],
     * children[2i+1]). Adjacent digests are read in place as one
     * 64-byte block (no per-node staging copies) and go through
     * compressBlocks — the Merkle layer hot loop. @p out may not alias
     * @p children.
     */
    static void hashPairs(const Digest *children, size_t n_pairs,
                          Digest *out);

  private:
    uint32_t state_[8];
    uint8_t buffer_[64];
    size_t buffered_;
    uint64_t total_bytes_;
};

} // namespace bzk

#endif // BZK_HASH_SHA256_H_
