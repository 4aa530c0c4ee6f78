#include "journal/Journal.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "journal/Replay.h"
#include "obs/Metrics.h"
#include "util/Log.h"

namespace bzk::journal {

namespace {

/** Highest existing segment index in @p dir, or 0 when none. */
uint64_t
maxSegmentIndex(const std::string &dir)
{
    uint64_t max_index = 0;
    if (DIR *d = ::opendir(dir.c_str())) {
        while (const dirent *entry = ::readdir(d)) {
            const std::string name = entry->d_name;
            const std::string prefix = "wal-";
            const std::string suffix = ".bzkj";
            if (name.size() <= prefix.size() + suffix.size() ||
                name.rfind(prefix, 0) != 0 ||
                name.compare(name.size() - suffix.size(),
                             suffix.size(), suffix) != 0)
                continue;
            std::string digits = name.substr(
                prefix.size(),
                name.size() - prefix.size() - suffix.size());
            if (digits.empty() || digits.find_first_not_of(
                                      "0123456789") != std::string::npos)
                continue;
            max_index = std::max(
                max_index, static_cast<uint64_t>(std::stoull(digits)));
        }
        ::closedir(d);
    }
    return max_index;
}

} // namespace

std::string
Journal::segmentPath(const std::string &dir, uint64_t index)
{
    char name[32];
    std::snprintf(name, sizeof(name), "wal-%08llu.bzkj",
                  static_cast<unsigned long long>(index));
    return dir + "/" + name;
}

Journal::Journal(JournalOptions opt, obs::MetricsRegistry *metrics)
    : opt_(std::move(opt)), metrics_(metrics)
{
    if (opt_.dir.empty())
        fatal("journal: --journal-dir must not be empty");
    if (::mkdir(opt_.dir.c_str(), 0755) != 0 && errno != EEXIST)
        fatal("journal: cannot create directory '%s': %s",
              opt_.dir.c_str(), std::strerror(errno));
    // Never append to a segment a previous incarnation wrote — its
    // tail may be torn. Always start a fresh one.
    current_index_ = maxSegmentIndex(opt_.dir) + 1;
    openNextSegment();
}

Journal::~Journal()
{
    close();
}

void
Journal::openNextSegment()
{
    if (fd_ >= 0) {
        sync();
        ::close(fd_);
        fd_ = -1;
        ++current_index_;
    }
    std::string path = segmentPath(opt_.dir, current_index_);
    fd_ = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd_ < 0)
        fatal("journal: cannot create segment '%s': %s", path.c_str(),
              std::strerror(errno));
    auto header = encodeSegmentHeader(SegmentHeader{current_index_});
    if (::write(fd_, header.data(), header.size()) !=
        static_cast<ssize_t>(header.size()))
        fatal("journal: short write of segment header '%s'",
              path.c_str());
    current_segment_bytes_ = header.size();
    stats_.bytes_appended += header.size();
    ++stats_.segments_created;
    segments_.push_back(SegmentState{current_index_, {}});
    sync();
    if (metrics_)
        metrics_
            ->counter("bzk_journal_segments_created_total",
                      "journal segments opened for appending")
            .add(1.0);
}

void
Journal::appendFramed(std::span<const uint8_t> body)
{
    if (fd_ < 0)
        panic("journal: append after close");
    std::vector<uint8_t> frame = frameRecord(body);
    if (::write(fd_, frame.data(), frame.size()) !=
        static_cast<ssize_t>(frame.size()))
        fatal("journal: short write appending %zu bytes to segment "
              "%llu",
              frame.size(),
              static_cast<unsigned long long>(current_index_));
    current_segment_bytes_ += frame.size();
    stats_.bytes_appended += frame.size();
    sync();
    if (metrics_) {
        metrics_
            ->counter("bzk_journal_appended_total",
                      "records appended to the journal")
            .add(1.0);
        metrics_
            ->counter("bzk_journal_bytes_total",
                      "bytes appended to the journal")
            .add(static_cast<double>(frame.size()));
    }
}

void
Journal::append(const TaskRecord &record)
{
    appendFramed(encodeTaskRecord(record));
    ++stats_.task_appends;
    // The task belongs to the segment its bytes landed in, even if the
    // very next append rotates.
    segments_.back().open_tasks.insert(record.task_id);
    task_segment_[record.task_id] = current_index_;
    if (metrics_)
        metrics_
            ->counter("bzk_journal_task_appends_total",
                      "admitted tasks journaled")
            .add(1.0);
    if (current_segment_bytes_ >= opt_.segment_bytes)
        openNextSegment();
}

void
Journal::append(const CompletionRecord &record)
{
    appendFramed(encodeCompletionRecord(record));
    ++stats_.completion_appends;
    if (metrics_)
        metrics_
            ->counter("bzk_journal_completion_appends_total",
                      "task completions journaled")
            .add(1.0);
    auto it = task_segment_.find(record.task_id);
    if (it != task_segment_.end()) {
        for (auto &segment : segments_)
            if (segment.index == it->second) {
                segment.open_tasks.erase(record.task_id);
                break;
            }
        task_segment_.erase(it);
    }
    retireAckedPrefix();
    if (current_segment_bytes_ >= opt_.segment_bytes)
        openNextSegment();
}

void
Journal::adoptReplayed(const ReplayResult &replayed)
{
    // Rebuild the retirement bookkeeping for segments an earlier
    // incarnation wrote: a replayed task without a replayed completion
    // is still open in its segment.
    std::deque<SegmentState> old_segments;
    for (const auto &seg : replayed.segments) {
        if (seg.index >= current_index_)
            continue;
        SegmentState state;
        state.index = seg.index;
        for (uint64_t id : seg.admitted)
            if (!replayed.completions.count(id)) {
                state.open_tasks.insert(id);
                task_segment_[id] = seg.index;
            }
        old_segments.push_back(std::move(state));
    }
    segments_.insert(segments_.begin(), old_segments.begin(),
                     old_segments.end());
    retireAckedPrefix();
}

void
Journal::retireAckedPrefix()
{
    while (segments_.size() > 1 &&
           segments_.front().open_tasks.empty()) {
        std::string path =
            segmentPath(opt_.dir, segments_.front().index);
        if (::unlink(path.c_str()) != 0 && errno != ENOENT)
            warn("journal: cannot retire segment '%s': %s",
                 path.c_str(), std::strerror(errno));
        segments_.pop_front();
        ++stats_.segments_retired;
        if (metrics_)
            metrics_
                ->counter("bzk_journal_segments_retired_total",
                          "fully-acked journal segments unlinked")
                .add(1.0);
    }
}

void
Journal::sync()
{
    if (fd_ < 0)
        return;
    if (::fsync(fd_) != 0)
        fatal("journal: fsync failed on segment %llu: %s",
              static_cast<unsigned long long>(current_index_),
              std::strerror(errno));
    ++stats_.fsyncs;
    if (metrics_)
        metrics_
            ->counter("bzk_journal_fsyncs_total",
                      "fsync calls on journal segments")
            .add(1.0);
}

void
Journal::close()
{
    if (fd_ < 0)
        return;
    sync();
    ::close(fd_);
    fd_ = -1;
}

} // namespace bzk::journal
