#ifndef BZK_JOURNAL_JOURNAL_H_
#define BZK_JOURNAL_JOURNAL_H_

/**
 * @file
 * Append-only write-ahead journal of admitted tasks and completed
 * proofs, modeled on CredaCash's WAL discipline (dbconn-wal/dblog): a
 * record is framed, CRC'd, appended, and fsync'd *before* the work it
 * describes is acknowledged, so an admitted task survives any crash of
 * the process that accepted it.
 *
 * The journal is a directory of segments (`wal-<index>.bzkj`). The
 * writer appends to one segment at a time and rotates to a fresh one
 * when the current segment exceeds the configured size. A restart never
 * appends to an old segment — the tail of the last segment may be torn
 * from the crash — it always opens the next index.
 *
 * Retirement: a segment is fully acked once every task admitted in it
 * has a completion recorded. Fully-acked segments are unlinked
 * oldest-first (a completion is always journaled at or after its task's
 * segment, so a retired prefix can only drop completions for tasks that
 * are themselves retired). The journal is a recovery log, not a proof
 * archive: retiring a segment discards the proofs journaled in it, by
 * design — they were delivered when their completions were appended.
 */

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>

#include "journal/Record.h"

namespace bzk::obs {
class MetricsRegistry;
} // namespace bzk::obs

namespace bzk::journal {

struct ReplayResult;

/** Writer configuration. */
struct JournalOptions
{
    /** Directory holding the segments (created if absent). */
    std::string dir;
    /** Rotate to a fresh segment beyond this many bytes. */
    size_t segment_bytes = size_t{1} << 20;
};

/** Monotonic writer-side counters (mirrored into bzk_journal_*). */
struct JournalStats
{
    size_t task_appends = 0;
    size_t completion_appends = 0;
    size_t fsyncs = 0;
    uint64_t bytes_appended = 0;
    size_t segments_created = 0;
    size_t segments_retired = 0;
};

/** The append side of the durable proof ledger. */
class Journal
{
  public:
    /**
     * Open @p opt.dir for appending. Existing segments are never
     * touched: the writer continues at the next free segment index.
     * @p metrics (not owned, may be nullptr) receives bzk_journal_*
     * counters as records are appended.
     */
    explicit Journal(JournalOptions opt,
                     obs::MetricsRegistry *metrics = nullptr);

    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /**
     * Durably record an admitted task. On return the record is written
     * and synced: the task can no longer be lost.
     */
    void append(const TaskRecord &record);

    /**
     * Durably record a task's completion (the ack). Retires any
     * fully-acked prefix segments afterwards.
     */
    void append(const CompletionRecord &record);

    /**
     * Adopt the segments an earlier incarnation left behind so that
     * retirement keeps working across restarts: replayed segments whose
     * tasks are all completed are retired immediately; the rest retire
     * as this writer appends their missing completions.
     */
    void adoptReplayed(const ReplayResult &replayed);

    /** Flush and fsync the current segment. */
    void sync();

    /** Close the current segment (the destructor also does this). */
    void close();

    const JournalStats &stats() const { return stats_; }

    const std::string &dir() const { return opt_.dir; }

    /** Index of the segment currently being appended to. */
    uint64_t currentSegmentIndex() const { return current_index_; }

    /** Segments on disk that this writer knows about (incl. current). */
    size_t liveSegments() const { return segments_.size(); }

    /** Path of segment @p index under @p dir (naming convention). */
    static std::string segmentPath(const std::string &dir,
                                   uint64_t index);

  private:
    struct SegmentState
    {
        uint64_t index = 0;
        /** Tasks admitted in this segment without a completion yet. */
        std::set<uint64_t> open_tasks;
    };

    void openNextSegment();
    void appendFramed(std::span<const uint8_t> body);
    void retireAckedPrefix();

    JournalOptions opt_;
    obs::MetricsRegistry *metrics_ = nullptr;
    int fd_ = -1;
    uint64_t current_index_ = 0;
    size_t current_segment_bytes_ = 0;
    std::deque<SegmentState> segments_;
    /** task_id -> index of the segment that admitted it. */
    std::map<uint64_t, uint64_t> task_segment_;
    JournalStats stats_;
};

} // namespace bzk::journal

#endif // BZK_JOURNAL_JOURNAL_H_
