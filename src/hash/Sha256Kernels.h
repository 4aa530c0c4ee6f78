#ifndef BZK_HASH_SHA256KERNELS_H_
#define BZK_HASH_SHA256KERNELS_H_

/**
 * @file
 * Internal contract between Sha256's dispatcher and its block
 * compression kernels. Sha256.cpp picks one kernel per process — the
 * x86 SHA extensions when the CPU has them, the portable FIPS 180-4
 * code otherwise — and every entry point (digest, compressBlock,
 * compressBlocks4/8, hashPairs, the transcript) goes through it.
 * Exposed so tests can hold both kernels to the same vectors on any
 * host, as ff/WideKernels.h does for the field kernels.
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
 * The portable multi-way kernels behind Sha256::compressBlocks4/8 on
 * CPUs without SHA-NI: independent blocks, each from the standard IV,
 * with interleaved message schedules.
 */
void compressBlocks4Portable(const uint8_t *blocks, Digest *out);
void compressBlocks8Portable(const uint8_t *blocks, Digest *out);

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
 * The kernel every Sha256 entry point uses on this host: SHA-NI when
 * shaNiSupported(), else portable. Fixed for the process.
 */
CompressFn activeCompress();

/** Name of activeCompress(): "sha-ni" or "portable". */
const char *activeCompressName();

} // namespace bzk::hash::detail

#endif // BZK_HASH_SHA256KERNELS_H_
