#include "net/Server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/RateLimiter.h"
#include "net/Socket.h"
#include "sched/AdmissionQueue.h"
#include "util/Log.h"

namespace bzk::net {

namespace {

/** Epoll identities below this are not connections. */
constexpr uint64_t kListenerId = 0;
constexpr uint64_t kEventId = 1;
constexpr uint64_t kFirstConnId = 2;

/** Per-connection output backlog cap (slow-consumer guard), bytes. */
constexpr size_t kMaxConnBacklog = size_t{64} << 20;

/** Latency histogram bounds, ms. */
const std::vector<double> kLatencyBounds = {1,   2,   5,    10,   20,  50,
                                            100, 200, 500,  1000, 2000,
                                            5000};

/** One accepted connection's protocol state. */
struct Connection
{
    enum class State { AwaitHello, Open, Closing };

    Fd fd;
    State state = State::AwaitHello;
    uint64_t tenant = 0;
    /**
     * Wire version negotiated by the Hello handshake; every frame the
     * server sends on this connection is encoded at it. Until the
     * handshake completes it stays at the oldest version, so a
     * pre-handshake ProtoError is parseable by any peer.
     */
    uint8_t version = kMinWireVersion;
    FrameDecoder decoder;
    std::vector<uint8_t> out;
    size_t out_pos = 0;
    bool want_write = false;
    /** Tasks admitted from this connection, not yet answered. */
    size_t inflight = 0;
};

/** A submit waiting in the admission queue. */
struct NetTask
{
    uint64_t conn_id = 0;
    uint64_t tenant = 0;
    Submit submit;
    double submitted_ms = 0.0;
};

/** A task handed to a worker. */
struct WorkItem
{
    uint64_t conn_id = 0;
    uint64_t tenant = 0;
    Submit submit;
    double submitted_ms = 0.0;
};

/** A finished proof on its way back to the loop thread. */
struct Completion
{
    uint64_t conn_id = 0;
    uint64_t tenant = 0;
    Result result;
    double submitted_ms = 0.0;
};

} // namespace

struct ProofServer::Impl
{
    Impl(ServerOptions o, ProofExecutor &e, obs::MetricsRegistry *m)
        : opt(std::move(o)), executor(e), metrics(m),
          // The queue deadline is enforced here against the aligned
          // payload deque (sweepDeadline), not inside the
          // AdmissionQueue, so expiry fires even while the in-flight
          // window is full.
          admission(sched::AdmissionOptions{
              .timeout_ms = 0.0,
              .max_retries = 0,
              .backoff_base_ms = 0.0,
              .queue_capacity = opt.queue_capacity})
    {
    }

    ServerOptions opt;
    ProofExecutor &executor;
    obs::MetricsRegistry *metrics = nullptr;

    Fd listener;
    Fd epoll;
    Fd event;
    std::thread loop;
    std::vector<std::thread> workers;
    std::atomic<bool> running{false};
    std::atomic<bool> stopping{false};

    /// @name Worker handoff
    /// @{
    std::mutex work_mu;
    std::condition_variable work_cv;
    std::deque<WorkItem> work;
    std::mutex comp_mu;
    std::deque<Completion> completions;
    /// @}

    /// @name Loop-thread-only state
    /// @{
    std::unordered_map<uint64_t, Connection> conns;
    uint64_t next_conn_id = kFirstConnId;
    sched::AdmissionQueue admission;
    std::deque<NetTask> payloads;
    std::unordered_map<uint64_t, TokenBucket> buckets;
    size_t inflight = 0;
    size_t window = 1;
    std::chrono::steady_clock::time_point t0;
    /// @}

    mutable std::mutex stats_mu;
    ServerStats stats;

    double
    nowMs() const
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    }

    /** Mutate the stats snapshot under its lock. */
    template <typename F>
    void
    bump(F f)
    {
        std::lock_guard<std::mutex> lk(stats_mu);
        f(stats);
    }

    void
    count(const char *name, const char *help, double v = 1.0)
    {
        if (metrics)
            metrics->counter(name, help).add(v);
    }

    void runLoop();
    void runWorker();
    void acceptAll();
    void readConn(uint64_t cid, double now);
    void onMessage(uint64_t cid, Message &&msg, double now);
    void onSubmit(uint64_t cid, const Submit &submit, double now);
    void sendMsg(uint64_t cid, const Message &msg);
    void protoFail(uint64_t cid, ErrorCode code, const char *detail);
    /** False when the connection was closed by the flush. */
    bool flushConn(uint64_t cid);
    void armWrite(uint64_t cid, Connection &c, bool want);
    void closeConn(uint64_t cid);
    void handleCompletions(double now);
    void sweepDeadline(double now);
    void pump(double now);
    void updateGauges();
};

ProofServer::ProofServer(ServerOptions opt, ProofExecutor &executor,
                         obs::MetricsRegistry *metrics)
    : impl_(std::make_unique<Impl>(std::move(opt), executor, metrics))
{
}

ProofServer::~ProofServer()
{
    stop();
}

bool
ProofServer::start()
{
    Impl &s = *impl_;
    if (s.running.load())
        return true;
    s.listener = listenTcp(s.opt.port, 4096);
    if (!s.listener.valid())
        return false;
    port_ = localPort(s.listener.get());

    s.epoll = Fd(::epoll_create1(0));
    s.event = Fd(::eventfd(0, EFD_NONBLOCK));
    if (!s.epoll.valid() || !s.event.valid())
        return false;
    epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerId;
    ::epoll_ctl(s.epoll.get(), EPOLL_CTL_ADD, s.listener.get(), &ev);
    ev.data.u64 = kEventId;
    ::epoll_ctl(s.epoll.get(), EPOLL_CTL_ADD, s.event.get(), &ev);

    // The in-flight window defaults to one task per worker: a task
    // past it waits in the admission queue, where the capacity and
    // deadline guard rails see it, not in the worker hand-off.
    size_t workers = std::max<size_t>(1, s.opt.workers);
    s.window = s.opt.window ? s.opt.window : workers;
    s.bump([&](ServerStats &st) { st.window = s.window; });

    s.t0 = std::chrono::steady_clock::now();
    s.stopping.store(false);
    s.running.store(true);
    for (size_t i = 0; i < workers; ++i)
        s.workers.emplace_back([&s] { s.runWorker(); });
    s.loop = std::thread([&s] { s.runLoop(); });
    return true;
}

void
ProofServer::stop()
{
    Impl &s = *impl_;
    if (!s.running.load())
        return;
    s.stopping.store(true);
    uint64_t one = 1;
    [[maybe_unused]] ssize_t w =
        ::write(s.event.get(), &one, sizeof(one));
    if (s.loop.joinable())
        s.loop.join();
    {
        std::lock_guard<std::mutex> lk(s.work_mu);
        s.work.clear();
    }
    s.work_cv.notify_all();
    for (auto &t : s.workers)
        if (t.joinable())
            t.join();
    s.workers.clear();
    s.running.store(false);
}

bool
ProofServer::running() const
{
    return impl_->running.load();
}

ServerStats
ProofServer::stats() const
{
    std::lock_guard<std::mutex> lk(impl_->stats_mu);
    return impl_->stats;
}

void
ProofServer::Impl::runWorker()
{
    while (true) {
        WorkItem item;
        {
            std::unique_lock<std::mutex> lk(work_mu);
            work_cv.wait(lk, [&] {
                return stopping.load() || !work.empty();
            });
            if (work.empty())
                return; // stopping with nothing left
            item = std::move(work.front());
            work.pop_front();
        }
        Completion done;
        done.conn_id = item.conn_id;
        done.tenant = item.tenant;
        done.submitted_ms = item.submitted_ms;
        done.result.task_id = item.submit.task_id;
        done.result.status = Status::Ok;
        done.result.proof = executor.execute(item.submit);
        {
            std::lock_guard<std::mutex> lk(comp_mu);
            completions.push_back(std::move(done));
        }
        uint64_t one = 1;
        [[maybe_unused]] ssize_t w =
            ::write(event.get(), &one, sizeof(one));
    }
}

void
ProofServer::Impl::runLoop()
{
    epoll_event evs[128];
    while (!stopping.load()) {
        // A queue deadline needs a periodic sweep even when the wire is
        // quiet; otherwise sleep until traffic or a completion.
        int timeout =
            (opt.queue_timeout_ms > 0.0 && !payloads.empty()) ? 10 : 100;
        int n = ::epoll_wait(epoll.get(), evs, 128, timeout);
        double now = nowMs();
        for (int i = 0; i < n; ++i) {
            uint64_t id = evs[i].data.u64;
            if (id == kListenerId) {
                acceptAll();
            } else if (id == kEventId) {
                uint64_t drain = 0;
                [[maybe_unused]] ssize_t r = ::read(
                    event.get(), &drain, sizeof(drain));
                handleCompletions(now);
            } else if (conns.count(id)) {
                if (evs[i].events & (EPOLLHUP | EPOLLERR)) {
                    closeConn(id);
                    continue;
                }
                if (evs[i].events & EPOLLIN)
                    readConn(id, now);
                if (conns.count(id) && (evs[i].events & EPOLLOUT))
                    flushConn(id);
            }
        }
        handleCompletions(now);
        pump(now);
        updateGauges();
    }
    // Single-owner cleanup: every socket is closed on the loop thread.
    std::vector<uint64_t> open;
    open.reserve(conns.size());
    for (const auto &kv : conns)
        open.push_back(kv.first);
    for (uint64_t id : open)
        closeConn(id);
}

void
ProofServer::Impl::acceptAll()
{
    while (true) {
        int fd = ::accept4(listener.get(), nullptr, nullptr,
                           SOCK_NONBLOCK);
        if (fd < 0)
            return;
        if (conns.size() >= opt.max_connections) {
            ::close(fd);
            bump([](ServerStats &st) { ++st.connections_rejected; });
            count("bzk_net_connections_rejected_total",
                  "connections closed at the max_connections cap");
            continue;
        }
        uint64_t id = next_conn_id++;
        epoll_event ev = {};
        ev.events = EPOLLIN;
        ev.data.u64 = id;
        ::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, fd, &ev);
        Connection c;
        c.fd = Fd(fd);
        conns.emplace(id, std::move(c));
        count("bzk_net_connections_total", "connections accepted");
        bump([&](ServerStats &st) {
            ++st.connections_accepted;
            st.open_connections = conns.size();
            st.peak_connections =
                std::max(st.peak_connections, conns.size());
        });
    }
}

void
ProofServer::Impl::readConn(uint64_t cid, double now)
{
    auto it = conns.find(cid);
    if (it == conns.end())
        return;
    Connection &c = it->second;
    uint8_t buf[65536];
    size_t got = 0;
    while (true) {
        ptrdiff_t n = recvSome(c.fd.get(), buf);
        if (n < 0) {
            closeConn(cid);
            return;
        }
        if (n == 0)
            break;
        got += static_cast<size_t>(n);
        c.decoder.feed(
            std::span<const uint8_t>(buf, static_cast<size_t>(n)));
    }
    if (got > 0) {
        count("bzk_net_bytes_rx_total", "payload bytes received",
              static_cast<double>(got));
        bump([&](ServerStats &st) { st.bytes_rx += got; });
    }
    while (conns.count(cid)) {
        auto polled = conns.at(cid).decoder.poll();
        if (!polled)
            return;
        if (std::holds_alternative<WireError>(*polled)) {
            WireError e = std::get<WireError>(*polled);
            bump([](ServerStats &st) { ++st.protocol_errors; });
            count("bzk_net_protocol_errors_total",
                  "frames rejected by the decoder");
            protoFail(cid, ErrorCode::BadFrame, wireErrorName(e));
            return;
        }
        count("bzk_net_frames_rx_total", "frames decoded");
        bump([](ServerStats &st) { ++st.frames_rx; });
        onMessage(cid, std::move(std::get<Message>(*polled)), now);
    }
}

void
ProofServer::Impl::onMessage(uint64_t cid, Message &&msg, double now)
{
    auto it = conns.find(cid);
    if (it == conns.end())
        return;
    Connection &c = it->second;
    if (c.state != Connection::State::Open) {
        if (auto *hello = std::get_if<Hello>(&msg)) {
            // Speak the newest version both sides support.
            uint8_t negotiated =
                std::min(hello->max_version, kWireVersion);
            if (negotiated < hello->min_version ||
                negotiated < kMinWireVersion) {
                bump([](ServerStats &st) { ++st.protocol_errors; });
                protoFail(cid, ErrorCode::UnsupportedVersion,
                          "no wire version in common");
                return;
            }
            c.tenant = hello->tenant;
            c.state = Connection::State::Open;
            c.version = negotiated;
            HelloAck ack;
            ack.version = negotiated;
            ack.window = static_cast<uint32_t>(window);
            ack.max_frame = kMaxFrameBytes;
            sendMsg(cid, Message{ack});
            return;
        }
        bump([](ServerStats &st) { ++st.protocol_errors; });
        protoFail(cid, ErrorCode::HandshakeRequired,
                  "first message must be Hello");
        return;
    }
    if (auto *submit = std::get_if<Submit>(&msg)) {
        onSubmit(cid, *submit, now);
        return;
    }
    if (std::get_if<ProtoError>(&msg)) {
        // The peer reported a fatal error; nothing sane can follow.
        closeConn(cid);
        return;
    }
    bump([](ServerStats &st) { ++st.protocol_errors; });
    protoFail(cid, ErrorCode::UnexpectedMessage,
              "only Submit is valid after the handshake");
}

void
ProofServer::Impl::onSubmit(uint64_t cid, const Submit &submit,
                            double now)
{
    auto it = conns.find(cid);
    if (it == conns.end())
        return;
    Connection &c = it->second;
    count("bzk_net_submits_total", "tasks submitted");
    count(("bzk_net_submits_" +
           std::string(sched::protocolKindMetricName(submit.kind)) +
           "_total")
              .c_str(),
          "tasks submitted, by protocol kind");
    bump([&](ServerStats &st) {
        ++st.submits;
        ++st.submits_by_kind[static_cast<size_t>(submit.kind)];
        ++st.tenants[c.tenant].submits;
    });

    Result reply;
    reply.task_id = submit.task_id;

    if (submit.n_vars < 8 || submit.n_vars > opt.max_n_vars) {
        reply.status = Status::Invalid;
        count("bzk_net_invalid_total", "submits with rejected params");
        bump([](ServerStats &st) { ++st.invalid; });
        sendMsg(cid, Message{std::move(reply)});
        return;
    }

    auto bucket = buckets.find(c.tenant);
    if (bucket == buckets.end())
        bucket = buckets
                     .emplace(c.tenant,
                              TokenBucket(opt.tenant_rate_per_s,
                                          opt.tenant_burst))
                     .first;
    if (!bucket->second.tryTake(now)) {
        reply.status = Status::Retry;
        reply.retry_after_ms = bucket->second.retryAfterMs(now);
        count("bzk_net_retries_total", "submits rate-limited");
        bump([&](ServerStats &st) {
            ++st.retries;
            ++st.tenants[c.tenant].retries;
        });
        sendMsg(cid, Message{std::move(reply)});
        return;
    }

    size_t pre_shed = admission.shed();
    admission.submit(now);
    if (admission.shed() > pre_shed) {
        reply.status = Status::Shed;
        count("bzk_net_sheds_total", "submits shed at a full queue");
        bump([&](ServerStats &st) {
            ++st.sheds;
            ++st.tenants[c.tenant].sheds;
        });
        sendMsg(cid, Message{std::move(reply)});
        return;
    }
    NetTask task;
    task.conn_id = cid;
    task.tenant = c.tenant;
    task.submit = submit;
    task.submitted_ms = now;
    payloads.push_back(std::move(task));
    ++c.inflight;
    pump(now);
}

void
ProofServer::Impl::sweepDeadline(double now)
{
    if (opt.queue_timeout_ms <= 0.0)
        return;
    // The deque is FIFO by submit time, so only the front can have
    // expired; the admission queue pops in the same order, keeping the
    // two aligned.
    while (!payloads.empty() &&
           now - payloads.front().submitted_ms > opt.queue_timeout_ms) {
        admission.admitOne(now); // discard the aligned queue entry
        NetTask t = std::move(payloads.front());
        payloads.pop_front();
        count("bzk_net_queue_timeouts_total",
              "submits shed at the queue deadline");
        bump([&](ServerStats &st) {
            ++st.queue_timeouts;
            ++st.sheds;
            ++st.tenants[t.tenant].sheds;
        });
        auto it = conns.find(t.conn_id);
        if (it == conns.end())
            continue;
        --it->second.inflight;
        Result reply;
        reply.task_id = t.submit.task_id;
        reply.status = Status::Shed;
        sendMsg(t.conn_id, Message{std::move(reply)});
    }
}

void
ProofServer::Impl::pump(double now)
{
    sweepDeadline(now);
    while (inflight < window && !payloads.empty()) {
        if (!admission.admitOne(now))
            break;
        NetTask t = std::move(payloads.front());
        payloads.pop_front();
        if (!conns.count(t.conn_id)) {
            bump([](ServerStats &st) { ++st.orphaned; });
            count("bzk_net_orphaned_total",
                  "tasks whose connection vanished");
            continue;
        }
        ++inflight;
        {
            std::lock_guard<std::mutex> lk(work_mu);
            work.push_back({t.conn_id, t.tenant, t.submit,
                            t.submitted_ms});
        }
        work_cv.notify_one();
    }
}

void
ProofServer::Impl::handleCompletions(double now)
{
    std::deque<Completion> batch;
    {
        std::lock_guard<std::mutex> lk(comp_mu);
        batch.swap(completions);
    }
    for (auto &done : batch) {
        --inflight;
        auto it = conns.find(done.conn_id);
        if (it == conns.end()) {
            bump([](ServerStats &st) { ++st.orphaned; });
            count("bzk_net_orphaned_total",
                  "tasks whose connection vanished");
            continue;
        }
        --it->second.inflight;
        double latency = now - done.submitted_ms;
        if (metrics)
            metrics
                ->histogram("bzk_net_accept_to_result_ms",
                            kLatencyBounds,
                            "accept-to-result latency")
                .observe(latency);
        count("bzk_net_results_total", "proofs returned");
        bump([&](ServerStats &st) {
            ++st.results_ok;
            ++st.tenants[done.tenant].results_ok;
        });
        sendMsg(done.conn_id, Message{std::move(done.result)});
    }
    if (!batch.empty())
        pump(now);
}

void
ProofServer::Impl::sendMsg(uint64_t cid, const Message &msg)
{
    auto it = conns.find(cid);
    if (it == conns.end())
        return;
    Connection &c = it->second;
    std::vector<uint8_t> frame = encodeFrame(msg, c.version);
    if (c.out.size() - c.out_pos + frame.size() > kMaxConnBacklog) {
        // Slow consumer: closing is the only bounded-memory option.
        closeConn(cid);
        return;
    }
    c.out.insert(c.out.end(), frame.begin(), frame.end());
    count("bzk_net_frames_tx_total", "frames sent");
    count("bzk_net_bytes_tx_total", "payload bytes sent",
          static_cast<double>(frame.size()));
    bump([&](ServerStats &st) {
        ++st.frames_tx;
        st.bytes_tx += frame.size();
    });
    flushConn(cid);
}

void
ProofServer::Impl::protoFail(uint64_t cid, ErrorCode code,
                             const char *detail)
{
    auto it = conns.find(cid);
    if (it == conns.end())
        return;
    ProtoError err;
    err.code = code;
    err.detail = detail;
    it->second.state = Connection::State::Closing;
    sendMsg(cid, Message{std::move(err)});
}

bool
ProofServer::Impl::flushConn(uint64_t cid)
{
    auto it = conns.find(cid);
    if (it == conns.end())
        return false;
    Connection &c = it->second;
    while (c.out_pos < c.out.size()) {
        ptrdiff_t n = sendSome(
            c.fd.get(),
            std::span<const uint8_t>(c.out.data() + c.out_pos,
                                     c.out.size() - c.out_pos));
        if (n < 0) {
            closeConn(cid);
            return false;
        }
        if (n == 0) {
            armWrite(cid, c, true);
            return true;
        }
        c.out_pos += static_cast<size_t>(n);
    }
    c.out.clear();
    c.out_pos = 0;
    if (c.want_write)
        armWrite(cid, c, false);
    if (c.state == Connection::State::Closing) {
        closeConn(cid);
        return false;
    }
    return true;
}

void
ProofServer::Impl::armWrite(uint64_t cid, Connection &c, bool want)
{
    (void)cid;
    if (c.want_write == want)
        return;
    c.want_write = want;
    epoll_event ev = {};
    ev.events = EPOLLIN | (want ? uint32_t{EPOLLOUT} : 0u);
    ev.data.u64 = cid;
    ::epoll_ctl(epoll.get(), EPOLL_CTL_MOD, c.fd.get(), &ev);
}

void
ProofServer::Impl::closeConn(uint64_t cid)
{
    auto it = conns.find(cid);
    if (it == conns.end())
        return;
    ::epoll_ctl(epoll.get(), EPOLL_CTL_DEL, it->second.fd.get(),
                nullptr);
    conns.erase(it);
    count("bzk_net_disconnects_total", "connections closed");
    bump([&](ServerStats &st) {
        ++st.connections_closed;
        st.open_connections = conns.size();
    });
}

void
ProofServer::Impl::updateGauges()
{
    bump([&](ServerStats &st) {
        st.queue_depth = admission.depth();
        st.peak_queue_depth =
            std::max(st.peak_queue_depth, st.queue_depth);
        st.inflight = inflight;
        st.open_connections = conns.size();
    });
    if (!metrics)
        return;
    metrics->gauge("bzk_net_open_connections", "connections open now")
        .set(static_cast<double>(conns.size()));
    metrics->gauge("bzk_net_queue_depth", "submits awaiting admission")
        .set(static_cast<double>(admission.depth()));
    metrics->gauge("bzk_net_inflight", "tasks past admission")
        .set(static_cast<double>(inflight));
    metrics->gauge("bzk_net_window", "in-flight window")
        .set(static_cast<double>(window));
}

} // namespace bzk::net
