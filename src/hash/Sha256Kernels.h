#ifndef BZK_HASH_SHA256KERNELS_H_
#define BZK_HASH_SHA256KERNELS_H_

/**
 * @file
 * Internal contract between Sha256's dispatcher and its compression
 * kernels. Sha256.cpp picks one block kernel per process — the x86
 * SHA extensions when the CPU has them, the portable FIPS 180-4 code
 * otherwise — and every single-message entry point (digest,
 * compressBlock, the transcript) goes through it. Independent
 * messages run 16 at a time on the AVX-512 kernel where the CPU has
 * it: Sha256::compressBlocks (Merkle leaves and layers) and the
 * commit's column leaves (hashColumns in core/TensorPcs.h). Exposed
 * so tests can hold every kernel to the same vectors on any host, as
 * ff/WideKernels.h does for the field kernels.
 */

#include <cstddef>
#include <cstdint>

#include "hash/Sha256.h"

namespace bzk::hash::detail {

/**
 * A block kernel: compress @p n_blocks consecutive 64-byte blocks into
 * @p state (eight words, A..H).
 */
using CompressFn = void (*)(uint32_t state[8], const uint8_t *blocks,
                            size_t n_blocks);

/** The FIPS 180-4 kernel in portable C++. Always available. */
void compressPortable(uint32_t state[8], const uint8_t *blocks,
                      size_t n_blocks);

/**
 * True iff this CPU has the SHA extensions and SSE4.1 (x86 only;
 * checked once per process).
 */
bool shaNiSupported();

/**
 * compressPortable on sha256rnds2/sha256msg1/sha256msg2. Call only
 * when shaNiSupported().
 */
void compressShaNi(uint32_t state[8], const uint8_t *blocks,
                   size_t n_blocks);

/**
 * The kernel every single-message Sha256 entry point uses on this
 * host: SHA-NI when shaNiSupported(), else portable. Fixed for the
 * process.
 */
CompressFn activeCompress();

/** Name of activeCompress(): "sha-ni" or "portable". */
const char *activeCompressName();

/**
 * True iff this CPU has AVX-512F and AVX-512BW (x86 only; checked once
 * per process). The 16-lane kernel below needs both.
 */
bool avx512Supported();

/** Messages per 16-lane compression: one per 32-bit lane of a zmm. */
inline constexpr size_t kShaLanes = 16;

/**
 * Sixteen SHA-256 chaining states side by side: word i (A..H) of lane
 * j is word[i][j], so each word is one zmm register.
 */
struct alignas(64) Lanes16
{
    uint32_t word[8][kShaLanes];
};

/** Set every lane of @p lanes to SHA-256's initial state. */
void initLanes16(Lanes16 &lanes);

/** Lane j of @p lanes as a digest into out[j], for j < 16. */
void lanes16Digests(const Lanes16 &lanes, Digest *out);

/**
 * One compressPortable block per lane: lane j takes the 64-byte block
 * at blocks + 64j. Call only when avx512Supported().
 */
void compress16Blocks(Lanes16 &lanes, const uint8_t *blocks);

/**
 * The same for one row pair of 16 adjacent 32-byte column cells: lane
 * j's block is the 32 bytes at top + 32j followed by the 32 bytes at
 * bottom + 32j. Call only when avx512Supported().
 */
void compress16Cells(Lanes16 &lanes, const uint8_t *top,
                     const uint8_t *bottom);

} // namespace bzk::hash::detail

#endif // BZK_HASH_SHA256KERNELS_H_
