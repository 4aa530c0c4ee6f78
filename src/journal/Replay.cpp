#include "journal/Replay.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <set>

#include <dirent.h>
#include <sys/stat.h>

#include "core/Bytes.h"
#include "journal/Crc32.h"
#include "obs/Metrics.h"
#include "util/Log.h"
#include "util/Timer.h"

namespace bzk::journal {

namespace {

/** Parse `wal-<index>.bzkj`; returns false for other directory names. */
bool
parseSegmentName(const std::string &name, uint64_t &index)
{
    const std::string prefix = "wal-";
    const std::string suffix = ".bzkj";
    if (name.size() <= prefix.size() + suffix.size())
        return false;
    if (name.rfind(prefix, 0) != 0)
        return false;
    if (name.compare(name.size() - suffix.size(), suffix.size(),
                     suffix) != 0)
        return false;
    std::string digits = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
        return false;
    index = std::stoull(digits);
    return true;
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<uint8_t> bytes;
    if (!in)
        return bytes;
    in.seekg(0, std::ios::end);
    std::streamoff size = in.tellg();
    in.seekg(0, std::ios::beg);
    if (size <= 0)
        return bytes;
    bytes.resize(static_cast<size_t>(size));
    in.read(reinterpret_cast<char *>(bytes.data()), size);
    if (!in)
        bytes.clear();
    return bytes;
}

void
markTorn(ReplayResult &result, uint64_t segment, size_t offset,
         const char *reason)
{
    ++result.torn_records;
    result.torn.torn = true;
    result.torn.segment_index = segment;
    result.torn.offset = offset;
    result.torn.reason = reason;
    warn("journal replay: stopped at segment %llu offset %zu (%s)",
         static_cast<unsigned long long>(segment), offset, reason);
}

} // namespace

ReplayResult
replayJournal(const std::string &dir, obs::MetricsRegistry *metrics)
{
    Timer timer;
    ReplayResult result;

    // Collect segment files. A missing directory is an empty journal.
    std::vector<std::pair<uint64_t, std::string>> files;
    if (DIR *d = ::opendir(dir.c_str())) {
        while (const dirent *entry = ::readdir(d)) {
            uint64_t index = 0;
            if (parseSegmentName(entry->d_name, index))
                files.emplace_back(index,
                                   dir + "/" + entry->d_name);
        }
        ::closedir(d);
    }
    std::sort(files.begin(), files.end());

    std::set<uint64_t> admitted;
    std::vector<TaskRecord> tasks_in_order;

    for (const auto &[index, path] : files) {
        if (result.torn.torn)
            break;
        std::vector<uint8_t> bytes = readFile(path);
        std::span<const uint8_t> data(bytes);

        auto header = decodeSegmentHeader(data);
        if (!header || header->index != index) {
            markTorn(result, index, 0, "bad segment header");
            break;
        }
        ReplaySegment seg;
        seg.index = index;
        seg.path = path;

        size_t pos = kSegmentHeaderBytes;
        while (pos < data.size()) {
            if (data.size() - pos < kRecordFrameBytes) {
                markTorn(result, index, pos, "torn frame");
                break;
            }
            ByteReader frame(data.subspan(pos));
            size_t body_len = frame.length(kMaxRecordBytes, 1);
            uint32_t stored_crc = frame.u32();
            if (!frame.ok() ||
                body_len > data.size() - pos - kRecordFrameBytes) {
                markTorn(result, index, pos, "torn tail");
                break;
            }
            auto body = data.subspan(pos + kRecordFrameBytes, body_len);
            if (crc32(body) != stored_crc) {
                markTorn(result, index, pos, "bad crc");
                break;
            }
            auto type = recordType(body);
            if (!type) {
                markTorn(result, index, pos, "unknown record type");
                break;
            }
            if (*type == RecordType::Task) {
                auto task = decodeTaskRecord(body);
                if (!task) {
                    markTorn(result, index, pos, "bad task record");
                    break;
                }
                ++result.task_records;
                if (admitted.insert(task->task_id).second) {
                    tasks_in_order.push_back(*task);
                    seg.admitted.push_back(task->task_id);
                } else {
                    ++result.duplicate_tasks;
                }
            } else {
                auto completion = decodeCompletionRecord(body);
                if (!completion) {
                    markTorn(result, index, pos,
                             "bad completion record");
                    break;
                }
                ++result.completion_records;
                // Last write wins; duplicates carry identical proofs.
                result.completions[completion->task_id] =
                    std::move(*completion);
            }
            ++result.records_replayed;
            pos += kRecordFrameBytes + body_len;
        }
        result.segments.push_back(std::move(seg));
    }

    for (const auto &task : tasks_in_order)
        if (!result.completions.count(task.task_id))
            result.pending.push_back(task);

    result.scan_ms = timer.milliseconds();

    if (metrics) {
        metrics
            ->counter("bzk_journal_replayed_records_total",
                      "valid journal records folded in at replay")
            .add(static_cast<double>(result.records_replayed));
        metrics
            ->counter("bzk_journal_torn_records_total",
                      "invalid records/headers that stopped a replay")
            .add(static_cast<double>(result.torn_records));
        metrics
            ->counter("bzk_journal_duplicates_total",
                      "duplicate task submissions absorbed")
            .add(static_cast<double>(result.duplicate_tasks));
        metrics
            ->gauge("bzk_journal_replay_pending",
                    "tasks left pending by the last replay")
            .set(static_cast<double>(result.pending.size()));
        metrics
            ->gauge("bzk_journal_replay_scan_ms",
                    "wall time of the last journal scan")
            .set(result.scan_ms);
    }
    return result;
}

} // namespace bzk::journal
