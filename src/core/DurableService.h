#ifndef BZK_CORE_DURABLESERVICE_H_
#define BZK_CORE_DURABLESERVICE_H_

/**
 * @file
 * Durable proof service: the journal-backed front end that makes "no
 * admitted task is ever lost" an enforced invariant.
 *
 * Every submitted task is journaled (fsync'd) before it is accepted;
 * every produced proof is journaled before it counts as complete. On
 * construction the service replays the journal directory: completed
 * proofs are restored from their completion records, and tasks that
 * were admitted but never completed stay pending for processAll().
 * Task IDs are idempotency keys — duplicate submissions and
 * double replay are absorbed (bzk_journal_duplicates_total), so
 * at-least-once replay still yields exactly-one proof per task.
 *
 * Tasks of every protocol kind are proved through proveTask()
 * (core/Protocol.h), the call the network executor serves from: the
 * instance is derived from (task_id, seed, n_vars) and the prover is
 * transcript-deterministic, so a proof produced after a crash and
 * replay is bit-identical to the proof an uninterrupted run, or the
 * network server, produces for the same task and kind. The crash-matrix
 * test harness (tests/test_crash_matrix.cpp) kills processing at every
 * ProveStage boundary via the CrashHook and asserts exactly that.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/Protocol.h"
#include "journal/Journal.h"
#include "journal/Replay.h"

namespace bzk {

/** One durable proof request (the caller assigns the idempotent id). */
struct DurableTaskSpec
{
    /** Idempotency key: resubmitting an id is a no-op. */
    uint64_t id = 0;
    /** Constraint-table log-size. */
    unsigned n_vars = 10;
    /** Public encoder seed (with id, pins the instance). */
    uint64_t seed = 2024;
    /** Scheduling priority (higher admits first). */
    int priority = 0;
    /** Proving protocol to run (journaled with the task). */
    sched::ProtocolKind kind = sched::ProtocolKind::TableCommit;
};

/** What construction-time recovery found and did. */
struct RecoveryInfo
{
    /** Valid records replayed from the journal. */
    size_t records_replayed = 0;
    /** Completed proofs restored from completion records. */
    size_t proofs_restored = 0;
    /** Unfinished tasks left pending for processAll(). */
    size_t tasks_resubmitted = 0;
    /** Invalid records/headers the scan stopped at. */
    size_t torn_records = 0;
    /** Where/why the scan stopped (valid when torn_records > 0). */
    journal::TornInfo torn;
    /** Duplicate task records absorbed during replay. */
    size_t duplicates = 0;
    /** Wall time of the journal replay, ms. */
    double recovery_wall_ms = 0.0;
};

/** Journal-backed proving service over the protocol table. */
class DurableProofService
{
  public:
    /**
     * Crash hook for the kill/restart harness: invoked at every
     * ProveStage boundary of every task; return false to "kill" the
     * service there (processing stops, nothing further is journaled,
     * exactly like a power cut between stages).
     */
    using CrashHook =
        std::function<bool(uint64_t task_id, ProveStage stage)>;

    /**
     * Open (and if needed recover) the journal at @p journal_opt.dir.
     * @p metrics (not owned, may be nullptr) receives the
     * bzk_journal_* series.
     */
    explicit DurableProofService(journal::JournalOptions journal_opt,
                                 obs::MetricsRegistry *metrics = nullptr);

    /** What recovery replayed, restored, and left pending. */
    const RecoveryInfo &recovery() const { return recovery_; }

    /**
     * Durably admit a task. Returns true when the task was journaled,
     * false when @p spec.id is already known (pending or completed) —
     * the duplicate is absorbed and counted, never proved twice.
     */
    bool submit(const DurableTaskSpec &spec);

    /** Tasks admitted (journaled) but not yet completed. */
    size_t pendingCount() const { return pending_.size(); }

    /**
     * Prove every pending task on the process's default thread count
     * (exec::resolveThreads), check that its proof verifies (a
     * failure panics), and journal its completion. Tasks run
     * priority-first, ties in admission order — the scheduler's
     * admission policy. Returns the number of proofs completed this
     * call; with a @p crash hook returning false the count stops short
     * and the unfinished tasks stay pending (and journaled).
     */
    size_t processAll(const CrashHook &crash = {});

    /** Completed proofs: task id -> self-contained completion record. */
    const std::map<uint64_t, journal::CompletionRecord> &proofs() const
    {
        return proofs_;
    }

    /** Deserialize and verify every completed proof. */
    bool verifyAll() const;

  private:
    obs::MetricsRegistry *metrics_ = nullptr;
    std::unique_ptr<journal::Journal> journal_;
    RecoveryInfo recovery_;
    std::vector<journal::TaskRecord> pending_;
    std::map<uint64_t, journal::CompletionRecord> proofs_;
};

} // namespace bzk

#endif // BZK_CORE_DURABLESERVICE_H_
