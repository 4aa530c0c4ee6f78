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
 * per tree node. Every entry point compresses through one block kernel
 * picked once per process (SHA-NI when the CPU has it, portable code
 * otherwise; see hash/Sha256Kernels.h).
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
     * Compress 4 independent 512-bit blocks — the scalar analogue of
     * the paper's one-thread-per-node Merkle kernel. On CPUs with the
     * SHA extensions each lane is one SHA-NI compression; elsewhere the
     * portable kernel interleaves the message schedules so the
     * compiler can vectorize across the lanes. Bit-identical to 4
     * compressBlock calls. @p blocks holds 4 consecutive 64-byte
     * blocks.
     */
    static void compressBlocks4(const uint8_t *blocks, Digest *out);

    /** compressBlocks4, 8 lanes wide. */
    static void compressBlocks8(const uint8_t *blocks, Digest *out);

    /**
     * Hash @p n_pairs sibling pairs: out[i] = hashPair(children[2i],
     * children[2i+1]). Adjacent digests are read in place as one
     * 64-byte block (no per-node staging copies) and compressed with
     * the widest multi-way kernel that fits — the Merkle layer hot
     * loop. @p out may not alias @p children.
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
