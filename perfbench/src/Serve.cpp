/**
 * @file
 * serve-mixed-n12: the real served path, submit -> verified proof.
 *
 * An in-process net::ProofServer with two workers runs the real
 * net::SnarkExecutor (wrapped only to time execute()). One client
 * thread drives it over at most four loopback connections with an open
 * loop: a seeded Poisson schedule of n_vars = 12 tasks, half
 * table-commit and half high-degree-gate. Each request is timed from
 * when it was due to be sent, never resubmitted, and every Ok proof is
 * deserialized and verified by the client before it counts.
 *
 * Server loop + two workers + this client thread = four threads.
 */

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include <poll.h>

#include "Common.h"
#include "Helpers.h"
#include "core/HighDegreeSnark.h"
#include "core/Serialize.h"
#include "core/Snark.h"
#include "ff/FieldBackend.h"
#include "ff/Fields.h"
#include "hash/Sha256.h"
#include "net/Executor.h"
#include "net/Server.h"
#include "net/Socket.h"
#include "net/Wire.h"
#include "util/Log.h"

namespace bzk::perfbench {

namespace {

/** Public encoder seed carried by every Submit. */
constexpr uint64_t kPcsSeed = 2024;
constexpr unsigned kNVars = 12;
constexpr size_t kWorkers = 2;
constexpr size_t kMaxConns = 4;
/** Set-up repetitions; setup_s is their median. */
constexpr size_t kSetupReps = 201;
/** A request with no Result this long after it was due has failed. */
constexpr double kResultTimeoutMs = 10000.0;
/**
 * The open loop is invalid when its p90 send lateness exceeds this: the
 * client thread also verifies proofs, and a generator that falls behind
 * offers less load than the schedule says.
 */
constexpr double kMaxLateP90Ms = 20.0;
/** Leading requests whose proof bytes the printed SHA-256 covers. */
constexpr size_t kDigestRequests = 16;

/** When one task was inside execute(), on the benchmark clock. */
struct ExecTimes
{
    double entry_ms = 0.0;
    double exit_ms = 0.0;
    /** The worker thread's CPU time inside execute(). */
    double cpu_ms = 0.0;
};

/** The real SnarkExecutor, timed at execute() entry and exit. */
class TimingExecutor final : public net::ProofExecutor
{
  public:
    std::vector<uint8_t>
    execute(const net::Submit &task) override
    {
        double cpu = threadCpuMs();
        double entry = nowMs();
        std::vector<uint8_t> proof = inner_.execute(task);
        double exit = nowMs();
        cpu = threadCpuMs() - cpu;
        std::lock_guard<std::mutex> lock(mutex_);
        times_[task.task_id] = {entry, exit, cpu};
        return proof;
    }

    std::optional<ExecTimes>
    times(uint64_t task_id) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = times_.find(task_id);
        if (it == times_.end())
            return std::nullopt;
        return it->second;
    }

  private:
    net::SnarkExecutor inner_;
    mutable std::mutex mutex_;
    std::unordered_map<uint64_t, ExecTimes> times_;
};

/** One non-blocking client connection after its handshake. */
struct Conn
{
    net::Fd fd;
    net::FrameDecoder decoder;
    uint8_t version = net::kMinWireVersion;
};

bool
sendAll(Conn &c, const net::Message &msg)
{
    std::vector<uint8_t> frame = net::encodeFrame(msg, c.version);
    size_t sent = 0;
    while (sent < frame.size()) {
        ptrdiff_t n = net::sendSome(
            c.fd.get(),
            std::span<const uint8_t>(frame).subspan(sent));
        if (n < 0)
            return false;
        if (n == 0) {
            pollfd p = {c.fd.get(), POLLOUT, 0};
            ::poll(&p, 1, 100);
            continue;
        }
        sent += static_cast<size_t>(n);
    }
    return true;
}

/** Read everything the socket holds; false once the peer is gone. */
bool
drain(Conn &c)
{
    uint8_t buf[65536];
    while (true) {
        ptrdiff_t n = net::recvSome(c.fd.get(), buf);
        if (n < 0)
            return false;
        if (n == 0)
            return true;
        c.decoder.feed(
            std::span<const uint8_t>(buf, static_cast<size_t>(n)));
    }
}

std::optional<Conn>
openConn(uint16_t port)
{
    Conn c;
    c.fd = net::connectTcp(port);
    if (!c.fd.valid() || !net::setNonBlocking(c.fd.get()) ||
        !sendAll(c, net::Hello{}))
        return std::nullopt;
    double deadline = nowMs() + 5000.0;
    while (nowMs() < deadline) {
        if (auto polled = c.decoder.poll()) {
            auto *msg = std::get_if<net::Message>(&*polled);
            auto *ack = msg ? std::get_if<net::HelloAck>(msg) : nullptr;
            if (!ack)
                return std::nullopt;
            c.version = ack->version;
            return c;
        }
        pollfd p = {c.fd.get(), POLLIN, 0};
        ::poll(&p, 1, 50);
        if (!drain(c))
            return std::nullopt;
    }
    return std::nullopt;
}

/** A running server and the client's connections to it. */
struct Service
{
    std::unique_ptr<net::ProofServer> server;
    std::vector<Conn> conns;
};

Service
startService(net::ProofExecutor &executor, size_t conns)
{
    Service s;
    net::ServerOptions so;
    so.workers = kWorkers;
    s.server = std::make_unique<net::ProofServer>(so, executor);
    if (!s.server->start())
        fatal("perfbench: cannot bind a loopback listener");
    for (size_t i = 0; i < conns; ++i) {
        auto c = openConn(s.server->port());
        if (!c)
            fatal("perfbench: handshake with the proof server failed");
        s.conns.push_back(std::move(*c));
    }
    return s;
}

/**
 * Wait up to @p wait_ms for traffic, then hand every decoded message to
 * @p on_msg with the time it was taken off the wire. A connection that
 * closes or sends a bad frame is closed and reported.
 */
void
pollOnce(std::vector<Conn> &conns, double wait_ms,
         const std::function<void(net::Message &&, double)> &on_msg,
         Report &report)
{
    std::vector<pollfd> fds;
    for (auto &c : conns)
        fds.push_back({c.fd.valid() ? c.fd.get() : -1, POLLIN, 0});
    wait_ms = std::clamp(wait_ms, 0.0, 100.0);
    timespec ts{0, static_cast<long>(wait_ms * 1e6)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0)
        return;
    for (size_t i = 0; i < conns.size(); ++i) {
        Conn &c = conns[i];
        if (!c.fd.valid() || !(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
            continue;
        bool alive = drain(c);
        while (auto polled = c.decoder.poll()) {
            if (auto *err = std::get_if<net::WireError>(&*polled)) {
                report.fail(std::string("bad frame from server: ") +
                            net::wireErrorName(*err));
                alive = false;
                break;
            }
            on_msg(std::move(std::get<net::Message>(*polled)), nowMs());
        }
        if (!alive) {
            report.fail("server closed connection " + std::to_string(i));
            c.fd.close();
        }
    }
}

/** Client-side cost of checking one proof, ms. */
struct VerifyTimes
{
    bool ok = false;
    double decode_ms = 0.0;
    double setup_ms = 0.0;
    double verify_ms = 0.0;
    double cpu_ms = 0.0;
};

VerifyTimes
verifyProof(bool high_degree, std::span<const uint8_t> bytes)
{
    VerifyTimes v;
    double cpu = threadCpuMs();
    double t0 = nowMs();
    if (high_degree) {
        auto proof = deserializeHighDegreeProof<Fr>(bytes);
        double t1 = nowMs();
        HighDegreeSnark<Fr> verifier(kNVars, kPcsSeed);
        double t2 = nowMs();
        v.ok = proof && verifier.verify(*proof, {});
        v.decode_ms = t1 - t0;
        v.setup_ms = t2 - t1;
        v.verify_ms = nowMs() - t2;
    } else {
        auto proof = deserializeProof<Fr>(bytes);
        double t1 = nowMs();
        Snark<Fr> verifier(kNVars, kPcsSeed);
        double t2 = nowMs();
        v.ok = proof && verifier.verify(*proof, {});
        v.decode_ms = t1 - t0;
        v.setup_ms = t2 - t1;
        v.verify_ms = nowMs() - t2;
    }
    v.cpu_ms = threadCpuMs() - cpu;
    return v;
}

/** Everything the client learns about one scheduled request. */
struct Request
{
    double due_ms = 0.0;
    double sent_ms = 0.0;
    double decoded_ms = 0.0;
    double verified_ms = 0.0;
    bool high_degree = false;
    bool done = false;
    bool ok = false;
    ExecTimes exec;
    VerifyTimes check;
    size_t bytes = 0;
};

/** Quantile @p q of each kind's samples, averaged over the two kinds. */
double
kindMean(const std::vector<double> (&by_kind)[2], double q)
{
    return (percentile(by_kind[0], q) + percentile(by_kind[1], q)) / 2.0;
}

} // namespace

Report
runServeWorkload(const RunOptions &opt)
{
    Report report;
    size_t hw = std::thread::hardware_concurrency();
    size_t n_conns = std::clamp<size_t>(hw, 1, kMaxConns);
    std::vector<Arrival> schedule =
        poissonSchedule(opt.seed, kRatePerS, opt.seconds);
    const size_t n = schedule.size();
    // Task ids pick the instances (taskInstanceRng), so the seed does.
    const uint64_t base = (opt.seed + 1) << 24;
    report.note("workload %s: open loop, %.1f req/s Poisson, %zu requests "
                "over %.1f s, n_vars=%u, 50/50 table-commit/high-degree-"
                "gate, %zu workers, %zu connections, seed=%llu",
                opt.workload.c_str(), kRatePerS, n, opt.seconds, kNVars,
                kWorkers, n_conns,
                static_cast<unsigned long long>(opt.seed));
    if (n == 0)
        fatal("perfbench: --seconds %g schedules no request", opt.seconds);

    // Set-up: server bind + thread start, then every client handshake.
    TimingExecutor executor;
    std::vector<double> setup_s;
    Service service;
    for (size_t r = 0; r < kSetupReps; ++r) {
        service = Service{};
        double t = nowMs();
        service = startService(executor, n_conns);
        setup_s.push_back((nowMs() - t) / 1e3);
    }

    std::vector<Request> reqs(n);
    for (size_t i = 0; i < n; ++i) {
        reqs[i].due_ms = schedule[i].due_ms;
        reqs[i].high_degree = schedule[i].high_degree;
    }
    auto kindOf = [](bool high_degree) {
        return high_degree ? sched::ProtocolKind::HighDegreeGate
                           : sched::ProtocolKind::TableCommit;
    };

    // Warm-up, untimed: one proof of each kind through the whole path.
    {
        size_t pending = 2;
        for (uint64_t k = 0; k < 2; ++k)
            if (!sendAll(service.conns[0],
                         net::Submit{base - 1 - k, kNVars, kPcsSeed,
                                     kindOf(k == 1)}))
                fatal("perfbench: warm-up submit failed");
        double deadline = nowMs() + kResultTimeoutMs;
        while (pending > 0 && nowMs() < deadline)
            pollOnce(
                service.conns, 100.0,
                [&](net::Message &&msg, double) {
                    auto *r = std::get_if<net::Result>(&msg);
                    if (!r)
                        return;
                    bool hd = r->task_id == base - 2;
                    if (r->status != net::Status::Ok ||
                        !verifyProof(hd, r->proof).ok)
                        report.fail("warm-up proof did not verify");
                    --pending;
                },
                report);
        if (pending > 0)
            report.fail("warm-up results never arrived");
    }

    size_t statuses[4] = {};
    std::optional<size_t> kind_bytes[2];
    std::vector<std::vector<uint8_t>> digest_proofs(
        std::min(n, kDigestRequests));
    size_t done = 0;
    auto on_msg = [&](net::Message &&msg, double now) {
        if (auto *err = std::get_if<net::ProtoError>(&msg)) {
            report.fail("server protocol error: " + err->detail);
            return;
        }
        auto *r = std::get_if<net::Result>(&msg);
        if (!r)
            return;
        if (r->task_id < base || r->task_id >= base + n) {
            report.fail("result for unknown task id");
            return;
        }
        size_t idx = static_cast<size_t>(r->task_id - base);
        Request &rq = reqs[idx];
        if (rq.done) {
            report.fail("duplicate result for one task");
            return;
        }
        rq.done = true;
        ++done;
        rq.decoded_ms = now;
        ++statuses[static_cast<size_t>(r->status) & 3];
        if (r->status != net::Status::Ok)
            return; // counted in `failed`, never resubmitted
        rq.check = verifyProof(rq.high_degree, r->proof);
        rq.verified_ms = nowMs();
        rq.ok = rq.check.ok;
        rq.bytes = r->proof.size();
        if (auto t = executor.times(r->task_id))
            rq.exec = *t;
        if (!rq.ok)
            report.fail("proof for request " + std::to_string(idx) +
                        " did not verify");
        auto &size = kind_bytes[rq.high_degree];
        if (size && *size != rq.bytes)
            report.fail("proof sizes differ within one kind");
        size = rq.bytes;
        if (idx < digest_proofs.size())
            digest_proofs[idx] = std::move(r->proof);
    };

    // The open loop.
    auto counts0 = ff::kernelCounters();
    double cpu0 = cpuMs();
    const double origin = nowMs() + 5.0;
    const double deadline =
        origin + schedule.back().due_ms + kResultTimeoutMs;
    size_t next = 0;
    while (done < n) {
        double now = nowMs();
        while (next < n && origin + reqs[next].due_ms <= now) {
            Request &rq = reqs[next];
            Conn &c = service.conns[next % service.conns.size()];
            rq.sent_ms = nowMs();
            if (!c.fd.valid() ||
                !sendAll(c, net::Submit{base + next, kNVars, kPcsSeed,
                                        kindOf(rq.high_degree)})) {
                rq.done = true; // no proof: a failure, not resubmitted
                ++done;
            }
            ++next;
            now = nowMs();
        }
        if (now > deadline)
            break;
        double wait = next < n ? origin + reqs[next].due_ms - now
                               : deadline - now;
        pollOnce(service.conns, wait, on_msg, report);
    }
    const double end = nowMs();
    double cpu_ms = cpuMs() - cpu0;
    auto counts1 = ff::kernelCounters();
    net::ServerStats stats = service.server->stats();
    service = Service{};

    // Per-request samples, relative to when each request was due.
    std::vector<double> e2e, late, queue_wait, execute, ret, client;
    std::vector<double> decode, verify_only, exec_by_kind[2],
        client_by_kind[2], e2e_by_kind[2], cpu_by_kind[2];
    double busy_ms = 0.0, bytes_total = 0.0;
    size_t verified = 0;
    SpanLog spans;
    std::vector<double> record_ms;
    for (size_t i = 0; i < n; ++i) {
        const Request &rq = reqs[i];
        double due = origin + rq.due_ms;
        if (rq.sent_ms > 0.0)
            late.push_back(rq.sent_ms - due);
        if (!rq.ok)
            continue;
        ++verified;
        double client_ms = rq.verified_ms - rq.decoded_ms;
        e2e.push_back(rq.verified_ms - due);
        queue_wait.push_back(rq.exec.entry_ms - due);
        execute.push_back(rq.exec.exit_ms - rq.exec.entry_ms);
        ret.push_back(rq.decoded_ms - rq.exec.exit_ms);
        client.push_back(client_ms);
        decode.push_back(rq.check.decode_ms);
        verify_only.push_back(rq.check.verify_ms);
        e2e_by_kind[rq.high_degree].push_back(e2e.back());
        exec_by_kind[rq.high_degree].push_back(execute.back());
        client_by_kind[rq.high_degree].push_back(
            rq.check.decode_ms + rq.check.setup_ms + rq.check.verify_ms);
        cpu_by_kind[rq.high_degree].push_back(rq.exec.cpu_ms +
                                              rq.check.cpu_ms);
        busy_ms += execute.back();
        bytes_total += static_cast<double>(rq.bytes);
        if (!opt.trace)
            continue;
        double t = nowMs();
        std::string track = "request/" + std::to_string(i);
        double d0 = rq.decoded_ms, d1 = d0 + rq.check.decode_ms;
        double d2 = d1 + rq.check.setup_ms;
        spans.add(track, "request", "net", i, due, rq.verified_ms);
        spans.add(track, "queue_wait", "net", i, due, rq.exec.entry_ms);
        spans.add(track, "execute", "net", i, rq.exec.entry_ms,
                  rq.exec.exit_ms);
        spans.add(track, "return", "net", i, rq.exec.exit_ms, d0);
        spans.add(track, "client_verify", "verify", i, d0,
                  rq.verified_ms);
        spans.add(track, "deserialize", "serialize", i, d0, d1);
        spans.add(track, "verifier_setup", "verify", i, d1, d2);
        spans.add(track, "verify", "verify", i, d2,
                  std::min(d2 + rq.check.verify_ms, rq.verified_ms));
        record_ms.push_back(nowMs() - t);
    }
    const double wall_s = (end - origin) / 1e3;
    report.attempted = n;
    report.failed = n - verified;

    Sha256 digest;
    bool digest_complete = true;
    for (const auto &proof : digest_proofs) {
        digest_complete &= !proof.empty();
        digest.update(proof);
    }
    report.note("sent=%zu verified=%zu ok=%zu retry=%zu shed=%zu "
                "invalid=%zu no-result=%zu in %.3f s (%.4f verified "
                "proofs/s, process CPU %.3f ms per proof)",
                next, verified, statuses[0], statuses[1], statuses[2],
                statuses[3], n - done, wall_s,
                static_cast<double>(verified) / wall_s,
                cpu_ms / static_cast<double>(std::max<size_t>(verified, 1)));
    report.note("proof_sha256(requests 0..%zu by task id)=%s%s",
                digest_proofs.size() - 1, digest.finalize().toHex().c_str(),
                digest_complete ? "" : " (incomplete)");
    report.note("server window=%zu, peak queue depth=%zu", stats.window,
                stats.peak_queue_depth);
    for (int hd = 0; hd < 2; ++hd) {
        std::string kind = hd ? "high-degree-gate" : "table-commit";
        report.notes.push_back(
            quantileNote((kind + " e2e").c_str(), e2e_by_kind[hd]));
        report.notes.push_back(
            quantileNote((kind + " execute").c_str(), exec_by_kind[hd]));
        report.notes.push_back(quantileNote(
            (kind + " client verify").c_str(), client_by_kind[hd]));
    }
    report.notes.push_back(quantileNote("send lateness", late));
    double late_p90 = percentile(late, 0.9);
    if (late_p90 > kMaxLateP90Ms)
        report.fail("load generator fell behind: p90 lateness " +
                    std::to_string(late_p90) + " ms");

    // Per kind, then the mean of the two kinds: their latencies form
    // separate modes, and a quantile of the pooled samples would jump
    // between them from run to run.
    report.set("setup_s", median(setup_s));
    report.set("prove_ms_p10", kindMean(exec_by_kind, kLowQuantile));
    report.set("verify_ms_p10", kindMean(client_by_kind, kLowQuantile));
    report.set("e2e_ms_p10", kindMean(e2e_by_kind, kLowQuantile));
    report.set("cpu_ms_per_proof_p10", kindMean(cpu_by_kind, kLowQuantile));
    report.set("proof_bytes",
               verified ? bytes_total / static_cast<double>(verified) : 0.0);
    report.set("peak_rss_mb", peakRssMiB());
    if (!opt.trace)
        return report;

    for (const auto &def : perLayerMetrics()) {
        std::string name = def.name;
        if (name.starts_with("core.") || name.starts_with("encoder.") ||
            name.starts_with("merkle.") || name.starts_with("exec."))
            report.set(name, 0.0);
    }
    // Kernel counts cannot be split between concurrent workers: report
    // the timed phase's process-wide calls (provers and client verify)
    // per verified proof.
    double per = static_cast<double>(std::max<size_t>(verified, 1));
    report.set("ff.wide_mul_lanes_calls",
               double(counts1.wide_mul_lanes - counts0.wide_mul_lanes) / per);
    report.set("ff.wide_fold_lanes_calls",
               double(counts1.wide_fold_lanes - counts0.wide_fold_lanes) /
                   per);
    report.set("ff.wide_sum_lanes_calls",
               double(counts1.wide_sum_lanes - counts0.wide_sum_lanes) / per);
    report.set("ff.wide_dot_lanes_calls",
               double(counts1.wide_dot_lanes - counts0.wide_dot_lanes) / per);
    report.set("ff.wide_axpy_lanes_calls",
               double(counts1.wide_axpy_lanes - counts0.wide_axpy_lanes) /
                   per);
    report.set("ff.wide_batch_inverse_calls",
               double(counts1.wide_batch_inverse -
                      counts0.wide_batch_inverse) /
                   per);
    report.set("serialize.encode_ms", 0.0); // inside execute()
    report.set("serialize.decode_ms", median(decode));
    report.set("verify.ms", median(verify_only));
    report.set("net.queue_wait_ms_p50", median(queue_wait));
    report.set("net.queue_wait_ms_p90", percentile(queue_wait, 0.9));
    report.set("net.execute_ms_p50", median(execute));
    report.set("net.execute_ms_p90", percentile(execute, 0.9));
    report.set("net.return_ms_p50", median(ret));
    report.set("net.client_verify_ms_p50", median(client));
    report.set("net.worker_busy_frac",
               busy_ms / (static_cast<double>(kWorkers) * wall_s * 1e3));
    report.set("net.peak_queue_depth",
               static_cast<double>(stats.peak_queue_depth));
    report.set("net.bytes_tx_per_proof",
               static_cast<double>(stats.bytes_tx) /
                   static_cast<double>(std::max<uint64_t>(
                       stats.results_ok, 1)));
    report.set("net.sheds", static_cast<double>(stats.sheds));
    report.set("net.retries", static_cast<double>(stats.retries));
    report.set("net.invalid", static_cast<double>(stats.invalid));
    report.set("net.protocol_errors",
               static_cast<double>(stats.protocol_errors));
    report.set("loadgen.late_ms_p90", late_p90);
    report.set("loadgen.late_ms_max",
               late.empty() ? 0.0 : *std::max_element(late.begin(),
                                                      late.end()));
    report.set("loadgen.sent", static_cast<double>(next));
    report.set("trace.overhead_ms", median(record_ms));
    finishTrace(spans, opt, report);
    return report;
}

} // namespace bzk::perfbench
