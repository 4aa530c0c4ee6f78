#include "hash/Sha256.h"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "hash/Sha256Kernels.h"
#include "util/Hex.h"
#include "util/Log.h"

namespace bzk {

namespace {

constexpr uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

constexpr uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline uint32_t
rotr(uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

/** The eight state words, big-endian, as a digest. */
Digest
stateDigest(const uint32_t state[8])
{
    Digest out;
    for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 4; ++j)
            out.bytes[i * 4 + j] =
                static_cast<uint8_t>(state[i] >> (24 - 8 * j));
    return out;
}

void
compress(uint32_t state[8], const uint8_t *blocks, size_t n_blocks)
{
    hash::detail::activeCompress()(state, blocks, n_blocks);
}

static_assert(sizeof(Digest) == 32,
              "hashPairs reads adjacent digests as one 64-byte block");

/**
 * N independent compressions with interleaved message schedules: every
 * per-round value is an N-lane array with the lane index innermost, so
 * the rotate/add/select chains vectorize across the independent blocks
 * instead of serializing on one block's dependency chain.
 */
template <int N>
void
compressNBlocks(const uint8_t *blocks, Digest *out)
{
    uint32_t w[64][N];
    for (int i = 0; i < 16; ++i) {
        for (int lane = 0; lane < N; ++lane) {
            const uint8_t *b = blocks + 64 * lane + 4 * i;
            w[i][lane] = (static_cast<uint32_t>(b[0]) << 24) |
                         (static_cast<uint32_t>(b[1]) << 16) |
                         (static_cast<uint32_t>(b[2]) << 8) |
                         static_cast<uint32_t>(b[3]);
        }
    }
    for (int i = 16; i < 64; ++i) {
        for (int lane = 0; lane < N; ++lane) {
            uint32_t x = w[i - 15][lane];
            uint32_t y = w[i - 2][lane];
            uint32_t s0 = rotr(x, 7) ^ rotr(x, 18) ^ (x >> 3);
            uint32_t s1 = rotr(y, 17) ^ rotr(y, 19) ^ (y >> 10);
            w[i][lane] = w[i - 16][lane] + s0 + w[i - 7][lane] + s1;
        }
    }

    uint32_t v[8][N];
    for (int i = 0; i < 8; ++i)
        for (int lane = 0; lane < N; ++lane)
            v[i][lane] = kInit[i];
    for (int i = 0; i < 64; ++i) {
        for (int lane = 0; lane < N; ++lane) {
            uint32_t e = v[4][lane];
            uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            uint32_t ch = (e & v[5][lane]) ^ (~e & v[6][lane]);
            uint32_t t1 =
                v[7][lane] + s1 + ch + kRound[i] + w[i][lane];
            uint32_t a = v[0][lane];
            uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            uint32_t maj = (a & v[1][lane]) ^ (a & v[2][lane]) ^
                           (v[1][lane] & v[2][lane]);
            uint32_t t2 = s0 + maj;
            v[7][lane] = v[6][lane];
            v[6][lane] = v[5][lane];
            v[5][lane] = v[4][lane];
            v[4][lane] = v[3][lane] + t1;
            v[3][lane] = v[2][lane];
            v[2][lane] = v[1][lane];
            v[1][lane] = v[0][lane];
            v[0][lane] = t1 + t2;
        }
    }
    for (int lane = 0; lane < N; ++lane) {
        uint32_t state[8];
        for (int i = 0; i < 8; ++i)
            state[i] = kInit[i] + v[i][lane];
        out[lane] = stateDigest(state);
    }
}

/**
 * N independent single-block compressions: one SHA-NI block at a time
 * when the CPU has the extensions (each is already several times
 * faster than a portable lane), the interleaved portable kernel
 * otherwise.
 */
template <int N>
void
compressLanes(const uint8_t *blocks, Digest *out)
{
    if (!hash::detail::shaNiSupported()) {
        compressNBlocks<N>(blocks, out);
        return;
    }
    for (int lane = 0; lane < N; ++lane)
        out[lane] = Sha256::compressBlock(
            std::span<const uint8_t, 64>(blocks + 64 * lane, 64));
}

} // namespace

namespace hash::detail {

void
compressBlocks4Portable(const uint8_t *blocks, Digest *out)
{
    compressNBlocks<4>(blocks, out);
}

void
compressBlocks8Portable(const uint8_t *blocks, Digest *out)
{
    compressNBlocks<8>(blocks, out);
}

void
compressPortable(uint32_t state[8], const uint8_t *blocks,
                 size_t n_blocks)
{
    for (; n_blocks > 0; --n_blocks, blocks += 64) {
        uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = (static_cast<uint32_t>(blocks[4 * i]) << 24) |
                   (static_cast<uint32_t>(blocks[4 * i + 1]) << 16) |
                   (static_cast<uint32_t>(blocks[4 * i + 2]) << 8) |
                   static_cast<uint32_t>(blocks[4 * i + 3]);
        }
        for (int i = 16; i < 64; ++i) {
            uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                          (w[i - 15] >> 3);
            uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                          (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
        for (int i = 0; i < 64; ++i) {
            uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            uint32_t ch = (e & f) ^ (~e & g);
            uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
            uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            uint32_t t2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + t1;
            d = c;
            c = b;
            b = a;
            a = t1 + t2;
        }
        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#if defined(__x86_64__)

bool
shaNiSupported()
{
    static const bool supported = __builtin_cpu_supports("sha") &&
                                  __builtin_cpu_supports("sse4.1");
    return supported;
}

/*
 * The SHA extensions keep the state as two registers, ABEF and CDGH
 * (A in the top lane). Each sha256rnds2 runs two rounds on W+K words in
 * the low two lanes, so one quad of message words takes two of them;
 * sha256msg1/msg2 extend the schedule four words at a time from a
 * rolling window of four quads.
 */
__attribute__((target("sha,sse4.1"))) void
compressShaNi(uint32_t state[8], const uint8_t *blocks, size_t n_blocks)
{
    // Byte-swap each 32-bit word: the message is big-endian.
    const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
    __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i *>(state));
    __m128i hgfe =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state + 4));
    __m128i badc = _mm_shuffle_epi32(dcba, 0xB1);
    __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    __m128i abef = _mm_alignr_epi8(badc, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, badc, 0xF0);

    for (; n_blocks > 0; --n_blocks, blocks += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        __m128i w[4];
        for (int i = 0; i < 4; ++i)
            w[i] = _mm_shuffle_epi8(
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(blocks + 16 * i)),
                bswap);
#pragma GCC unroll 16
        for (int q = 0; q < 16; ++q) {
            if (q >= 4) {
                // W[4q..4q+3] from quads q-4 .. q-1.
                __m128i t = _mm_sha256msg1_epu32(w[q & 3], w[(q + 1) & 3]);
                t = _mm_add_epi32(
                    t, _mm_alignr_epi8(w[(q + 3) & 3], w[(q + 2) & 3], 4));
                w[q & 3] = _mm_sha256msg2_epu32(t, w[(q + 3) & 3]);
            }
            __m128i wk = _mm_add_epi32(
                w[q & 3], _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                              kRound + 4 * q)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh,
                                         _mm_shuffle_epi32(wk, 0x0E));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state),
                     _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
}

#else

bool
shaNiSupported()
{
    return false;
}

void
compressShaNi(uint32_t *, const uint8_t *, size_t)
{
    panic("Sha256: SHA-NI kernel called on a non-x86 build");
}

#endif

CompressFn
activeCompress()
{
    static const CompressFn kernel =
        shaNiSupported() ? compressShaNi : compressPortable;
    return kernel;
}

const char *
activeCompressName()
{
    return shaNiSupported() ? "sha-ni" : "portable";
}

} // namespace hash::detail

std::string
Digest::toHex() const
{
    return bzk::toHex(bytes);
}

void
Sha256::reset()
{
    std::memcpy(state_, kInit, sizeof(state_));
    buffered_ = 0;
    total_bytes_ = 0;
}

void
Sha256::update(std::span<const uint8_t> data)
{
    total_bytes_ += data.size();
    size_t offset = 0;
    if (buffered_ > 0) {
        size_t take = std::min(data.size(), 64 - buffered_);
        std::memcpy(buffer_ + buffered_, data.data(), take);
        buffered_ += take;
        offset = take;
        if (buffered_ == 64) {
            compress(state_, buffer_, 1);
            buffered_ = 0;
        }
    }
    if (size_t whole = (data.size() - offset) / 64; whole > 0) {
        compress(state_, data.data() + offset, whole);
        offset += 64 * whole;
    }
    if (offset < data.size()) {
        std::memcpy(buffer_, data.data() + offset, data.size() - offset);
        buffered_ = data.size() - offset;
    }
}

Digest
Sha256::finalize()
{
    uint64_t bit_len = total_bytes_ * 8;
    uint8_t pad[72] = {0x80};
    // Pad to 56 mod 64, then append the 64-bit big-endian length.
    size_t pad_len = (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
    uint8_t len_be[8];
    for (int i = 0; i < 8; ++i)
        len_be[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
    std::memcpy(pad + pad_len, len_be, 8);
    update(std::span<const uint8_t>(pad, pad_len + 8));

    Digest out = stateDigest(state_);
    reset();
    return out;
}

Digest
Sha256::digest(std::span<const uint8_t> data)
{
    Sha256 h;
    h.update(data);
    return h.finalize();
}

Digest
Sha256::compressBlock(std::span<const uint8_t, 64> block)
{
    uint32_t state[8];
    std::memcpy(state, kInit, sizeof(state));
    compress(state, block.data(), 1);
    return stateDigest(state);
}

Digest
Sha256::hashPair(const Digest &left, const Digest &right)
{
    uint8_t block[64];
    std::memcpy(block, left.bytes.data(), 32);
    std::memcpy(block + 32, right.bytes.data(), 32);
    return compressBlock(std::span<const uint8_t, 64>(block, 64));
}

void
Sha256::compressBlocks4(const uint8_t *blocks, Digest *out)
{
    compressLanes<4>(blocks, out);
}

void
Sha256::compressBlocks8(const uint8_t *blocks, Digest *out)
{
    compressLanes<8>(blocks, out);
}

void
Sha256::hashPairs(const Digest *children, size_t n_pairs, Digest *out)
{
    const uint8_t *blocks = reinterpret_cast<const uint8_t *>(children);
    size_t i = 0;
    for (; i + 8 <= n_pairs; i += 8)
        compressBlocks8(blocks + 64 * i, out + i);
    if (i + 4 <= n_pairs) {
        compressBlocks4(blocks + 64 * i, out + i);
        i += 4;
    }
    for (; i < n_pairs; ++i)
        out[i] = compressBlock(
            std::span<const uint8_t, 64>(blocks + 64 * i, 64));
}

} // namespace bzk
