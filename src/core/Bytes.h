#ifndef BZK_CORE_BYTES_H_
#define BZK_CORE_BYTES_H_

/**
 * @file
 * Deterministic little-endian byte encoding primitives, shared by the
 * proof wire format (core/Serialize.h) and the durable task journal
 * (src/journal). ByteWriter is an append-only sink; ByteReader is a
 * bounds-checked source where every read fails soft via ok(), so a
 * truncated or hostile buffer can never read out of bounds.
 */

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "hash/Sha256.h"

namespace bzk {

/** Append-only byte sink. */
class ByteWriter
{
  public:
    void
    u8(uint8_t v)
    {
        bytes_.push_back(v);
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    raw(std::span<const uint8_t> data)
    {
        bytes_.insert(bytes_.end(), data.begin(), data.end());
    }

    template <typename F>
    void
    field(const F &v)
    {
        uint8_t buf[F::kNumBytes];
        v.toBytes(buf);
        raw(std::span<const uint8_t>(buf, F::kNumBytes));
    }

    void
    digest(const Digest &d)
    {
        raw(d.bytes);
    }

    /** Take the accumulated bytes. */
    std::vector<uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<uint8_t> bytes_;
};

/** Bounds-checked byte source; all reads fail-soft via ok(). */
class ByteReader
{
  public:
    explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

    bool ok() const { return ok_; }

    /** Bytes not yet consumed. */
    size_t remaining() const { return data_.size() - pos_; }

    uint8_t
    u8()
    {
        uint8_t v = 0;
        if (take(1))
            v = data_[pos_ - 1];
        return v;
    }

    uint32_t
    u32()
    {
        uint32_t v = 0;
        if (take(4))
            for (int i = 0; i < 4; ++i)
                v |= static_cast<uint32_t>(data_[pos_ - 4 + i]) << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        uint64_t v = 0;
        if (take(8))
            for (int i = 0; i < 8; ++i)
                v |= static_cast<uint64_t>(data_[pos_ - 8 + i]) << (8 * i);
        return v;
    }

    /**
     * A field element in its canonical encoding. An integer >= p fails
     * the read: reducing it would give one element two encodings, so
     * one proof two byte strings.
     */
    template <typename F>
    F
    field()
    {
        if (!take(F::kNumBytes))
            return F::zero();
        auto v = F::fromCanonicalBytes(data_.data() + pos_ - F::kNumBytes);
        if (!v) {
            ok_ = false;
            return F::zero();
        }
        return *v;
    }

    Digest
    digest()
    {
        Digest d;
        if (take(32))
            std::memcpy(d.bytes.data(), data_.data() + pos_ - 32, 32);
        return d;
    }

    /**
     * Read a length prefix counting items of at least @p elem_size
     * encoded bytes each, failing when it exceeds @p cap or when that
     * many items cannot fit in the bytes left. A hostile length is
     * rejected before any allocation, so decoders allocate in
     * proportion to their input.
     */
    size_t
    length(size_t cap, size_t elem_size)
    {
        uint32_t v = u32();
        if (v > cap || size_t{v} * elem_size > remaining())
            ok_ = false;
        return ok_ ? v : 0;
    }

  private:
    bool
    take(size_t n)
    {
        if (!ok_ || pos_ + n > data_.size()) {
            ok_ = false;
            return false;
        }
        pos_ += n;
        return true;
    }

    std::span<const uint8_t> data_;
    size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace bzk

#endif // BZK_CORE_BYTES_H_
