#include "net/Wire.h"

#include <cstring>
#include <type_traits>

#include "core/Bytes.h"
#include "journal/Crc32.h"
#include "util/Log.h"

namespace bzk::net {

namespace {

/** Cap on ProtoError::detail (keeps error frames bounded). */
constexpr size_t kMaxErrorDetail = 256;

void
writeBody(ByteWriter &w, const Hello &m)
{
    w.u8(static_cast<uint8_t>(MsgType::Hello));
    w.u8(m.min_version);
    w.u8(m.max_version);
    w.u64(m.tenant);
}

void
writeBody(ByteWriter &w, const HelloAck &m)
{
    w.u8(static_cast<uint8_t>(MsgType::HelloAck));
    w.u8(m.version);
    w.u32(m.window);
    w.u32(m.max_frame);
}

void
writeBody(ByteWriter &w, const Submit &m, uint8_t version)
{
    w.u8(static_cast<uint8_t>(MsgType::Submit));
    w.u64(m.task_id);
    w.u32(m.n_vars);
    w.u64(m.seed);
    if (version >= 2) {
        w.u8(static_cast<uint8_t>(m.kind));
    } else if (m.kind != sched::ProtocolKind::TableCommit) {
        // A v1 frame has nowhere to carry the kind; silently encoding
        // it as the legacy protocol would prove the wrong statement.
        panic("encodeFrame: Submit kind %s needs wire version >= 2",
              sched::protocolKindName(m.kind));
    }
}

void
writeBody(ByteWriter &w, const Result &m)
{
    w.u8(static_cast<uint8_t>(MsgType::Result));
    w.u64(m.task_id);
    w.u8(static_cast<uint8_t>(m.status));
    w.u32(m.retry_after_ms);
    w.u32(static_cast<uint32_t>(m.proof.size()));
    w.raw(m.proof);
}

void
writeBody(ByteWriter &w, const ProtoError &m)
{
    w.u8(static_cast<uint8_t>(MsgType::ProtoError));
    w.u8(static_cast<uint8_t>(m.code));
    std::string detail = m.detail.substr(
        0, std::min(m.detail.size(), kMaxErrorDetail));
    w.u32(static_cast<uint32_t>(detail.size()));
    w.raw(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t *>(detail.data()), detail.size()));
}

std::variant<Message, WireError>
readHello(ByteReader &r)
{
    Hello m;
    m.min_version = r.u8();
    m.max_version = r.u8();
    m.tenant = r.u64();
    if (!r.ok() || r.remaining() != 0 || m.min_version > m.max_version)
        return WireError::Malformed;
    return Message{m};
}

std::variant<Message, WireError>
readHelloAck(ByteReader &r)
{
    HelloAck m;
    m.version = r.u8();
    m.window = r.u32();
    m.max_frame = r.u32();
    if (!r.ok() || r.remaining() != 0)
        return WireError::Malformed;
    return Message{m};
}

std::variant<Message, WireError>
readSubmit(ByteReader &r, uint8_t version)
{
    Submit m;
    m.task_id = r.u64();
    m.n_vars = r.u32();
    m.seed = r.u64();
    if (version >= 2) {
        uint8_t kind_byte = r.u8();
        if (!r.ok())
            return WireError::Malformed;
        auto kind = sched::protocolKindFromByte(kind_byte);
        if (!kind)
            return WireError::Malformed;
        m.kind = *kind;
    } else {
        // v1 peers predate protocol kinds: legacy workload.
        m.kind = sched::ProtocolKind::TableCommit;
    }
    if (!r.ok() || r.remaining() != 0)
        return WireError::Malformed;
    return Message{m};
}

std::variant<Message, WireError>
readResult(ByteReader &r)
{
    Result m;
    m.task_id = r.u64();
    uint8_t status = r.u8();
    if (status > static_cast<uint8_t>(Status::Invalid))
        return WireError::Malformed;
    m.status = static_cast<Status>(status);
    m.retry_after_ms = r.u32();
    size_t n = r.length(kMaxFrameBytes, 1);
    if (!r.ok() || n != r.remaining())
        return WireError::Malformed;
    m.proof.resize(n);
    for (auto &b : m.proof)
        b = r.u8();
    if (!r.ok() || r.remaining() != 0)
        return WireError::Malformed;
    return Message{std::move(m)};
}

std::variant<Message, WireError>
readProtoError(ByteReader &r)
{
    ProtoError m;
    uint8_t code = r.u8();
    if (code < static_cast<uint8_t>(ErrorCode::UnsupportedVersion) ||
        code > static_cast<uint8_t>(ErrorCode::UnexpectedMessage))
        return WireError::Malformed;
    m.code = static_cast<ErrorCode>(code);
    size_t n = r.length(kMaxErrorDetail, 1);
    if (!r.ok() || n != r.remaining())
        return WireError::Malformed;
    m.detail.resize(n);
    for (auto &c : m.detail)
        c = static_cast<char>(r.u8());
    if (!r.ok() || r.remaining() != 0)
        return WireError::Malformed;
    return Message{std::move(m)};
}

} // namespace

const char *
wireErrorName(WireError error)
{
    switch (error) {
      case WireError::BadMagic:
        return "bad_magic";
      case WireError::Oversize:
        return "oversize";
      case WireError::BadCrc:
        return "bad_crc";
      case WireError::BadVersion:
        return "bad_version";
      case WireError::BadType:
        return "bad_type";
      case WireError::Malformed:
        return "malformed";
    }
    return "unknown";
}

std::vector<uint8_t>
encodeFrame(const Message &msg, uint8_t version)
{
    ByteWriter bw;
    bw.u8(version);
    std::visit(
        [&](const auto &m) {
            using T = std::decay_t<decltype(m)>;
            if constexpr (std::is_same_v<T, Submit>)
                writeBody(bw, m, version);
            else
                writeBody(bw, m);
        },
        msg);
    std::vector<uint8_t> body = bw.take();

    ByteWriter fw;
    fw.raw(std::span<const uint8_t>(kFrameMagic, 4));
    fw.u32(static_cast<uint32_t>(body.size()));
    fw.u32(journal::crc32(body));
    fw.raw(body);
    return fw.take();
}

std::variant<Message, WireError>
decodeBody(std::span<const uint8_t> body)
{
    ByteReader r(body);
    uint8_t version = r.u8();
    uint8_t type = r.u8();
    if (!r.ok())
        return WireError::Malformed;
    if (version < kMinWireVersion || version > kWireVersion)
        return WireError::BadVersion;
    switch (static_cast<MsgType>(type)) {
      case MsgType::Hello:
        return readHello(r);
      case MsgType::HelloAck:
        return readHelloAck(r);
      case MsgType::Submit:
        return readSubmit(r, version);
      case MsgType::Result:
        return readResult(r);
      case MsgType::ProtoError:
        return readProtoError(r);
    }
    return WireError::BadType;
}

void
FrameDecoder::feed(std::span<const uint8_t> bytes)
{
    if (poisoned_)
        return;
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::optional<std::variant<Message, WireError>>
FrameDecoder::poll()
{
    if (poisoned_)
        return std::variant<Message, WireError>{*poisoned_};
    // Compact the consumed prefix before parsing so a long-lived
    // connection's buffer does not grow without bound.
    if (pos_ > 0) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<ptrdiff_t>(pos_));
        pos_ = 0;
    }
    if (buf_.size() < kFrameHeaderBytes)
        return std::nullopt;

    auto fail = [&](WireError e) {
        poisoned_ = e;
        return std::variant<Message, WireError>{e};
    };

    if (std::memcmp(buf_.data(), kFrameMagic, 4) != 0)
        return fail(WireError::BadMagic);
    uint32_t len = 0, crc = 0;
    for (int i = 0; i < 4; ++i) {
        len |= static_cast<uint32_t>(buf_[4 + i]) << (8 * i);
        crc |= static_cast<uint32_t>(buf_[8 + i]) << (8 * i);
    }
    // The length is validated before the body is awaited, so a hostile
    // prefix can never make the decoder buffer (or wait for) gigabytes.
    if (len > max_body_)
        return fail(WireError::Oversize);
    if (buf_.size() < kFrameHeaderBytes + len)
        return std::nullopt;

    std::span<const uint8_t> body(buf_.data() + kFrameHeaderBytes, len);
    if (journal::crc32(body) != crc)
        return fail(WireError::BadCrc);
    auto decoded = decodeBody(body);
    if (std::holds_alternative<WireError>(decoded))
        return fail(std::get<WireError>(decoded));
    pos_ = kFrameHeaderBytes + len;
    return decoded;
}

} // namespace bzk::net
