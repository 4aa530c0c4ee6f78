#include "journal/Record.h"

#include <cstring>

#include "core/Bytes.h"
#include "journal/Crc32.h"

namespace bzk::journal {

namespace {

constexpr char kMagic[4] = {'B', 'Z', 'K', 'J'};

/** Shared preamble check for the typed body decoders. */
bool
readBodyHeader(ByteReader &r, RecordType expected)
{
    uint8_t type = r.u8();
    uint8_t version = r.u8();
    return r.ok() && type == static_cast<uint8_t>(expected) &&
           version == kJournalVersion;
}

} // namespace

std::array<uint8_t, kSegmentHeaderBytes>
encodeSegmentHeader(const SegmentHeader &header)
{
    ByteWriter w;
    w.raw(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t *>(kMagic), 4));
    w.u8(kJournalVersion);
    w.u64(header.index);
    std::vector<uint8_t> prefix = w.take();
    uint32_t crc = crc32(prefix);
    ByteWriter tail;
    tail.u32(crc);
    std::vector<uint8_t> crc_bytes = tail.take();

    std::array<uint8_t, kSegmentHeaderBytes> out{};
    std::memcpy(out.data(), prefix.data(), prefix.size());
    std::memcpy(out.data() + prefix.size(), crc_bytes.data(),
                crc_bytes.size());
    return out;
}

std::optional<SegmentHeader>
decodeSegmentHeader(std::span<const uint8_t> bytes)
{
    if (bytes.size() < kSegmentHeaderBytes)
        return std::nullopt;
    if (std::memcmp(bytes.data(), kMagic, 4) != 0)
        return std::nullopt;
    ByteReader r(bytes.subspan(4, kSegmentHeaderBytes - 4));
    uint8_t version = r.u8();
    uint64_t index = r.u64();
    uint32_t stored_crc = r.u32();
    if (!r.ok() || version != kJournalVersion)
        return std::nullopt;
    if (crc32(bytes.first(kSegmentHeaderBytes - 4)) != stored_crc)
        return std::nullopt;
    return SegmentHeader{index};
}

const char *
recordDecodeErrorName(RecordDecodeError error)
{
    switch (error) {
      case RecordDecodeError::Ok:
        return "ok";
      case RecordDecodeError::Malformed:
        return "malformed";
      case RecordDecodeError::BadType:
        return "bad-type";
      case RecordDecodeError::BadVersion:
        return "bad-version";
      case RecordDecodeError::UnknownKind:
        return "unknown-kind";
    }
    return "unknown";
}

std::vector<uint8_t>
encodeTaskRecord(const TaskRecord &record)
{
    ByteWriter w;
    w.u8(static_cast<uint8_t>(RecordType::Task));
    w.u8(kTaskRecordVersion);
    w.u64(record.task_id);
    w.u32(record.n_vars);
    w.u32(static_cast<uint32_t>(record.priority));
    w.u64(record.seed);
    w.u8(static_cast<uint8_t>(record.kind));
    return w.take();
}

RecordDecodeError
decodeTaskRecordChecked(std::span<const uint8_t> body, TaskRecord *out)
{
    ByteReader r(body);
    uint8_t type = r.u8();
    uint8_t version = r.u8();
    if (!r.ok())
        return RecordDecodeError::Malformed;
    if (type != static_cast<uint8_t>(RecordType::Task))
        return RecordDecodeError::BadType;
    if (version < 1 || version > kTaskRecordVersion)
        return RecordDecodeError::BadVersion;
    TaskRecord record;
    record.task_id = r.u64();
    record.n_vars = r.u32();
    record.priority = static_cast<int32_t>(r.u32());
    record.seed = r.u64();
    if (version >= 2) {
        uint8_t kind_byte = r.u8();
        if (!r.ok() || r.remaining() != 0)
            return RecordDecodeError::Malformed;
        auto kind = sched::protocolKindFromByte(kind_byte);
        if (!kind)
            return RecordDecodeError::UnknownKind;
        record.kind = *kind;
    } else {
        // v1 bodies predate protocol kinds: legacy workload.
        record.kind = sched::ProtocolKind::TableCommit;
    }
    if (!r.ok() || r.remaining() != 0)
        return RecordDecodeError::Malformed;
    *out = record;
    return RecordDecodeError::Ok;
}

std::optional<TaskRecord>
decodeTaskRecord(std::span<const uint8_t> body)
{
    TaskRecord record;
    if (decodeTaskRecordChecked(body, &record) != RecordDecodeError::Ok)
        return std::nullopt;
    return record;
}

std::vector<uint8_t>
encodeCompletionRecord(const CompletionRecord &record)
{
    ByteWriter w;
    w.u8(static_cast<uint8_t>(RecordType::Completion));
    w.u8(kJournalVersion);
    w.u64(record.task_id);
    w.u32(record.n_vars);
    w.u64(record.seed);
    w.u32(static_cast<uint32_t>(record.proof.size()));
    w.raw(record.proof);
    return w.take();
}

std::optional<CompletionRecord>
decodeCompletionRecord(std::span<const uint8_t> body)
{
    ByteReader r(body);
    if (!readBodyHeader(r, RecordType::Completion))
        return std::nullopt;
    CompletionRecord record;
    record.task_id = r.u64();
    record.n_vars = r.u32();
    record.seed = r.u64();
    size_t len = r.length(kMaxRecordBytes, 1);
    if (!r.ok() || r.remaining() != len)
        return std::nullopt;
    record.proof.resize(len);
    for (auto &b : record.proof)
        b = r.u8();
    if (!r.ok())
        return std::nullopt;
    return record;
}

std::optional<RecordType>
recordType(std::span<const uint8_t> body)
{
    if (body.empty())
        return std::nullopt;
    switch (body[0]) {
      case static_cast<uint8_t>(RecordType::Task):
        return RecordType::Task;
      case static_cast<uint8_t>(RecordType::Completion):
        return RecordType::Completion;
      default:
        return std::nullopt;
    }
}

std::vector<uint8_t>
frameRecord(std::span<const uint8_t> body)
{
    ByteWriter w;
    w.u32(static_cast<uint32_t>(body.size()));
    w.u32(crc32(body));
    w.raw(body);
    return w.take();
}

} // namespace bzk::journal
