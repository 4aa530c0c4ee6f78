#include "hash/Sha256.h"

#include <cstring>
#include <type_traits>
#include <utility>

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

} // namespace

namespace hash::detail {

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

bool
avx512Supported()
{
    static const bool supported = __builtin_cpu_supports("avx512f") &&
                                  __builtin_cpu_supports("avx512bw");
    return supported;
}

/*
 * The 16-lane kernel. A zmm register holds one SHA-256 word of 16
 * independent messages, one per 32-bit lane, so a round is the FIPS
 * 180-4 round on whole registers: Sigma0, Sigma1, sigma0 and sigma1
 * are three vprord/vpsrld terms joined by one three-way-XOR
 * vpternlogd, and Ch and Maj are one vpternlogd each. A loader gathers
 * word t of all 16 blocks with one vpgatherdd and byte-swaps it with
 * vpshufb. Rounds, schedule and loads expand from index sequences
 * (unrolled<N>), so each loader is one straight-line function at -O2
 * with no unroll pragma and no branch: 64 x 6 + 48 x 4 = 576 rotates
 * per compression (GCC writes some as vprold by 32 - n).
 * The eight working variables change roles by index instead of moving:
 * round t reads A from v[-t mod 8] and writes only D (the next E) and
 * H (the next A).
 */
#define BZK_AVX512 __attribute__((target("avx512f,avx512bw")))
#define BZK_AVX512_INLINE \
    __attribute__((target("avx512f,avx512bw"), always_inline))

namespace {

using V16 = __m512i;

template <int... I, typename F>
BZK_AVX512_INLINE inline void
unrolledSeq(std::integer_sequence<int, I...>, F f)
{
    (f(std::integral_constant<int, I>{}), ...);
}

/** f(std::integral_constant<int, i>{}) for i = 0 .. N-1, in order. */
template <int N, typename F>
BZK_AVX512_INLINE inline void
unrolled(F f)
{
    unrolledSeq(std::make_integer_sequence<int, N>{}, f);
}

BZK_AVX512_INLINE inline V16
add(V16 x, V16 y)
{
    return _mm512_add_epi32(x, y);
}

// Rotate and shift, spelled with an all-ones zeroing mask: the plain
// intrinsics pass an undefined source that GCC 12 warns on. The
// compiler emits the unmasked instruction.
template <int N>
BZK_AVX512_INLINE inline V16
ror(V16 x)
{
    return _mm512_maskz_ror_epi32(0xFFFF, x, N);
}

template <int N>
BZK_AVX512_INLINE inline V16
shr(V16 x)
{
    return _mm512_maskz_srli_epi32(0xFFFF, x, N);
}

BZK_AVX512_INLINE inline V16
xor3(V16 x, V16 y, V16 z)
{
    return _mm512_ternarylogic_epi32(x, y, z, 0x96);
}

/**
 * Lane j's big-endian word at @p base + offsets[j] (bytes), for all 16
 * lanes.
 */
BZK_AVX512_INLINE inline V16
gatherWord(V16 offsets, const uint8_t *base)
{
    // Byte order 3 2 1 0 within each word. The gather takes a zero
    // source for the same reason as ror.
    const V16 bswap = _mm512_set4_epi32(0x0c0d0e0f, 0x08090a0b, 0x04050607,
                                        0x00010203);
    return _mm512_shuffle_epi8(
        _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), 0xFFFF, offsets,
                                    base, 1),
        bswap);
}

/**
 * The core: compress one block per lane into @p lanes, given the
 * blocks' 16 message words (w[t] holds word t of every lane). w is
 * the schedule's rolling window afterwards.
 */
BZK_AVX512_INLINE inline void
compress16(Lanes16 &lanes, V16 w[16])
{
    V16 v[8];
    unrolled<8>([&](auto i) BZK_AVX512_INLINE {
        v[i] = _mm512_load_si512(lanes.word[i]);
    });
    unrolled<64>([&](auto round) BZK_AVX512_INLINE {
        constexpr int t = decltype(round)::value;
        if constexpr (t >= 16) {
            // W[t] = sigma1(W[t-2]) + W[t-7] + sigma0(W[t-15]) + W[t-16].
            V16 x = w[(t + 1) & 15];
            V16 y = w[(t + 14) & 15];
            V16 s0 = xor3(ror<7>(x), ror<18>(x), shr<3>(x));
            V16 s1 = xor3(ror<17>(y), ror<19>(y), shr<10>(y));
            w[t & 15] = add(add(w[t & 15], s0), add(w[(t + 9) & 15], s1));
        }
        constexpr int o = 8 - t % 8; // role r (A = 0) is v[(o + r) % 8]
        V16 &a = v[o % 8], &b = v[(o + 1) % 8], &c = v[(o + 2) % 8];
        V16 &d = v[(o + 3) % 8], &e = v[(o + 4) % 8];
        V16 &f = v[(o + 5) % 8], &g = v[(o + 6) % 8], &h = v[(o + 7) % 8];
        const V16 k = _mm512_set1_epi32(static_cast<int>(kRound[t]));
        V16 s1 = xor3(ror<6>(e), ror<11>(e), ror<25>(e));
        V16 ch = _mm512_ternarylogic_epi32(e, f, g, 0xCA);
        V16 t1 = add(add(h, s1), add(ch, add(w[t & 15], k)));
        V16 s0 = xor3(ror<2>(a), ror<13>(a), ror<22>(a));
        V16 maj = _mm512_ternarylogic_epi32(a, b, c, 0xE8);
        d = add(d, t1);
        h = add(t1, add(s0, maj));
    });
    unrolled<8>([&](auto i) BZK_AVX512_INLINE {
        _mm512_store_si512(lanes.word[i],
                           add(v[i], _mm512_load_si512(lanes.word[i])));
    });
}

BZK_AVX512_INLINE inline V16
laneIndex()
{
    return _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                             14, 15);
}

} // namespace

BZK_AVX512 void
compress16Blocks(Lanes16 &lanes, const uint8_t *blocks)
{
    const V16 offsets = _mm512_slli_epi32(laneIndex(), 6); // 64 j
    V16 w[16];
    unrolled<16>([&](auto t) BZK_AVX512_INLINE {
        w[t] = gatherWord(offsets, blocks + 4 * t);
    });
    compress16(lanes, w);
}

BZK_AVX512 void
compress16Cells(Lanes16 &lanes, const uint8_t *top, const uint8_t *bottom)
{
    const V16 offsets = _mm512_slli_epi32(laneIndex(), 5); // 32 j
    V16 w[16];
    unrolled<8>([&](auto t) BZK_AVX512_INLINE {
        w[t] = gatherWord(offsets, top + 4 * t);
        w[8 + t] = gatherWord(offsets, bottom + 4 * t);
    });
    compress16(lanes, w);
}

#undef BZK_AVX512
#undef BZK_AVX512_INLINE

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

bool
avx512Supported()
{
    return false;
}

void
compress16Blocks(Lanes16 &, const uint8_t *)
{
    panic("Sha256: AVX-512 kernel called on a non-x86 build");
}

void
compress16Cells(Lanes16 &, const uint8_t *, const uint8_t *)
{
    panic("Sha256: AVX-512 kernel called on a non-x86 build");
}

#endif

void
initLanes16(Lanes16 &lanes)
{
    for (int i = 0; i < 8; ++i)
        for (size_t j = 0; j < kShaLanes; ++j)
            lanes.word[i][j] = kInit[i];
}

void
lanes16Digests(const Lanes16 &lanes, Digest *out)
{
    uint32_t state[8];
    for (size_t j = 0; j < kShaLanes; ++j) {
        for (int i = 0; i < 8; ++i)
            state[i] = lanes.word[i][j];
        out[j] = stateDigest(state);
    }
}

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
Sha256::compressBlocks(const uint8_t *blocks, size_t n_blocks, Digest *out)
{
    using hash::detail::kShaLanes;
    size_t i = 0;
    if (hash::detail::avx512Supported()) {
        hash::detail::Lanes16 lanes;
        for (; i + kShaLanes <= n_blocks; i += kShaLanes) {
            hash::detail::initLanes16(lanes);
            hash::detail::compress16Blocks(lanes, blocks + 64 * i);
            hash::detail::lanes16Digests(lanes, out + i);
        }
    }
    for (; i < n_blocks; ++i)
        out[i] = compressBlock(
            std::span<const uint8_t, 64>(blocks + 64 * i, 64));
}

void
Sha256::hashPairs(const Digest *children, size_t n_pairs, Digest *out)
{
    compressBlocks(reinterpret_cast<const uint8_t *>(children), n_pairs,
                   out);
}

} // namespace bzk
