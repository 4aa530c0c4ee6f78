/**
 * @file
 * Proof-service network layer: wire-codec round trips and the
 * corruption suite (truncation, flipped CRC bytes, oversized length
 * prefixes, unknown versions/types — every one a clean typed error,
 * never a crash or a hang), the epoll server's guard rails
 * (Invalid/Retry/Shed ordering, queue-deadline sheds, version
 * negotiation), proof compatibility with the durable service's
 * instance derivation, and a small load-generator soak with exact
 * task-id accounting.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/DurableService.h"
#include "core/HighDegreeSnark.h"
#include "core/Serialize.h"
#include "core/Snark.h"
#include "journal/Crc32.h"
#include "net/Client.h"
#include "net/Executor.h"
#include "net/LoadGen.h"
#include "net/RateLimiter.h"
#include "net/Server.h"
#include "net/Socket.h"
#include "net/Wire.h"
#include "obs/Metrics.h"
#include "util/Rng.h"

using namespace bzk;
using namespace bzk::net;

namespace {

/** Encode, then decode through a FrameDecoder fed in one shot. */
std::optional<Message>
roundTripMessage(const Message &msg)
{
    FrameDecoder decoder;
    decoder.feed(encodeFrame(msg));
    auto polled = decoder.poll();
    if (!polled || !std::holds_alternative<Message>(*polled))
        return std::nullopt;
    return std::get<Message>(*polled);
}

WireError
expectError(FrameDecoder &decoder)
{
    auto polled = decoder.poll();
    EXPECT_TRUE(polled.has_value());
    EXPECT_TRUE(std::holds_alternative<WireError>(*polled));
    return std::get<WireError>(*polled);
}

/** Executor that takes long enough for backpressure to be observable. */
class SlowExecutor : public ProofExecutor
{
  public:
    explicit SlowExecutor(int ms) : ms_(ms) {}

    std::vector<uint8_t>
    execute(const Submit &task) override
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms_));
        return digest_.execute(task);
    }

  private:
    int ms_;
    DigestExecutor digest_;
};

} // namespace

TEST(NetWire, RoundTripsEveryMessageType)
{
    Hello hello;
    hello.tenant = 42;
    HelloAck ack;
    ack.window = 7;
    Submit submit;
    submit.task_id = 9001;
    submit.n_vars = 12;
    submit.seed = 77;
    Result result;
    result.task_id = 9001;
    result.status = Status::Retry;
    result.retry_after_ms = 250;
    result.proof = {1, 2, 3, 4, 5};
    ProtoError error;
    error.code = ErrorCode::UnexpectedMessage;
    error.detail = "surprise";

    for (const Message &msg :
         {Message{hello}, Message{ack}, Message{submit},
          Message{result}, Message{error}}) {
        auto back = roundTripMessage(msg);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(msg, *back);
    }
}

TEST(NetWire, SubmitKindIsVersioned)
{
    Submit hdg;
    hdg.task_id = 7;
    hdg.n_vars = 9;
    hdg.seed = 5;
    hdg.kind = sched::ProtocolKind::HighDegreeGate;

    // v2 (the default) round-trips the kind byte.
    auto back = roundTripMessage(Message{hdg});
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(Message{hdg}, *back);

    // A v1 frame has no kind byte: a legacy Submit still round-trips,
    // decodes as the legacy protocol, and is one byte shorter on the
    // wire than its v2 encoding.
    Submit legacy;
    legacy.task_id = 8;
    FrameDecoder decoder;
    decoder.feed(encodeFrame(Message{legacy}, 1));
    auto polled = decoder.poll();
    ASSERT_TRUE(polled.has_value());
    auto got = std::get<Submit>(std::get<Message>(*polled));
    EXPECT_EQ(sched::ProtocolKind::TableCommit, got.kind);
    EXPECT_EQ(legacy, got);
    EXPECT_EQ(encodeFrame(Message{legacy}, 1).size() + 1,
              encodeFrame(Message{legacy}, 2).size());

    // An unknown kind byte in a v2 body is Malformed, not a crash.
    std::vector<uint8_t> body = {2,
                                 static_cast<uint8_t>(MsgType::Submit)};
    body.insert(body.end(), 8, 0); // task_id
    body.insert(body.end(), 4, 0); // n_vars
    body.insert(body.end(), 8, 0); // seed
    body.push_back(9);             // no such protocol kind
    auto decoded = decodeBody(body);
    ASSERT_TRUE(std::holds_alternative<WireError>(decoded));
    EXPECT_EQ(WireError::Malformed, std::get<WireError>(decoded));
}

TEST(NetWire, ReassemblesByteAtATime)
{
    Result result;
    result.task_id = 5;
    result.proof.assign(1000, 0xAB);
    std::vector<uint8_t> frame = encodeFrame(Message{result});

    FrameDecoder decoder;
    for (size_t i = 0; i < frame.size(); ++i) {
        if (i + 1 < frame.size()) {
            EXPECT_FALSE(decoder.poll().has_value());
        }
        decoder.feed(std::span<const uint8_t>(&frame[i], 1));
    }
    auto polled = decoder.poll();
    ASSERT_TRUE(polled.has_value());
    EXPECT_EQ(Message{result}, std::get<Message>(*polled));
    EXPECT_EQ(0u, decoder.buffered());
}

TEST(NetWire, DecodesBackToBackFramesInOrder)
{
    FrameDecoder decoder;
    std::vector<uint8_t> bytes;
    for (uint64_t id = 0; id < 8; ++id) {
        Submit submit;
        submit.task_id = id;
        auto frame = encodeFrame(Message{submit});
        bytes.insert(bytes.end(), frame.begin(), frame.end());
    }
    decoder.feed(bytes);
    for (uint64_t id = 0; id < 8; ++id) {
        auto polled = decoder.poll();
        ASSERT_TRUE(polled.has_value());
        EXPECT_EQ(id,
                  std::get<Submit>(std::get<Message>(*polled)).task_id);
    }
    EXPECT_FALSE(decoder.poll().has_value());
}

TEST(NetWire, TruncatedFrameIsIncompleteNotAnError)
{
    std::vector<uint8_t> frame = encodeFrame(Message{Submit{}});
    for (size_t keep : {size_t{0}, size_t{3}, size_t{11},
                        frame.size() - 1}) {
        FrameDecoder decoder;
        decoder.feed(std::span<const uint8_t>(frame.data(), keep));
        EXPECT_FALSE(decoder.poll().has_value());
        EXPECT_FALSE(decoder.poisoned());
    }
}

TEST(NetWire, FlippedCrcByteIsBadCrc)
{
    std::vector<uint8_t> frame = encodeFrame(Message{Submit{}});
    // Flip one bit in each CRC byte (header bytes 8..11) and in the
    // body; every variant must fail the checksum.
    for (size_t at : {size_t{8}, size_t{9}, size_t{10}, size_t{11},
                      kFrameHeaderBytes + 2}) {
        std::vector<uint8_t> bad = frame;
        bad[at] ^= 0x40;
        FrameDecoder decoder;
        decoder.feed(bad);
        EXPECT_EQ(WireError::BadCrc, expectError(decoder));
        EXPECT_TRUE(decoder.poisoned());
    }
}

TEST(NetWire, BadMagicIsRejected)
{
    std::vector<uint8_t> frame = encodeFrame(Message{Hello{}});
    frame[0] = 'X';
    FrameDecoder decoder;
    decoder.feed(frame);
    EXPECT_EQ(WireError::BadMagic, expectError(decoder));
}

TEST(NetWire, OversizedLengthPrefixRejectedBeforeBuffering)
{
    // A hostile length just past the cap, with no body bytes at all:
    // the decoder must reject from the 12-byte header alone instead of
    // waiting for (or allocating) 4 GiB.
    std::vector<uint8_t> header(kFrameHeaderBytes, 0);
    header[0] = 'B';
    header[1] = 'Z';
    header[2] = 'K';
    header[3] = 'N';
    uint32_t huge = static_cast<uint32_t>(kMaxFrameBytes) + 1;
    for (int i = 0; i < 4; ++i)
        header[4 + i] = static_cast<uint8_t>(huge >> (8 * i));
    FrameDecoder decoder;
    decoder.feed(header);
    EXPECT_EQ(WireError::Oversize, expectError(decoder));
    EXPECT_LE(decoder.buffered(), kFrameHeaderBytes);
}

TEST(NetWire, UnknownVersionIsBadVersion)
{
    std::vector<uint8_t> frame = encodeFrame(Message{Submit{}});
    // Body starts after the header; byte 0 of the body is the version.
    frame[kFrameHeaderBytes] = 99;
    // The CRC covers the body, so recompute it for the tampered body.
    std::span<const uint8_t> body(frame.data() + kFrameHeaderBytes,
                                  frame.size() - kFrameHeaderBytes);
    uint32_t crc = journal::crc32(body);
    for (int i = 0; i < 4; ++i)
        frame[8 + i] = static_cast<uint8_t>(crc >> (8 * i));
    FrameDecoder decoder;
    decoder.feed(frame);
    EXPECT_EQ(WireError::BadVersion, expectError(decoder));
}

TEST(NetWire, UnknownTypeAndMalformedPayloadAreTyped)
{
    // decodeBody is the layer under the frame check, so hostile bodies
    // can be probed directly.
    std::vector<uint8_t> unknown_type = {kWireVersion, 200};
    auto decoded = decodeBody(unknown_type);
    ASSERT_TRUE(std::holds_alternative<WireError>(decoded));
    EXPECT_EQ(WireError::BadType, std::get<WireError>(decoded));

    // A Submit payload cut short.
    std::vector<uint8_t> truncated = {
        kWireVersion, static_cast<uint8_t>(MsgType::Submit), 1, 2, 3};
    decoded = decodeBody(truncated);
    ASSERT_TRUE(std::holds_alternative<WireError>(decoded));
    EXPECT_EQ(WireError::Malformed, std::get<WireError>(decoded));

    // A Submit payload with trailing bytes is over-long, not ignored.
    std::vector<uint8_t> frame = encodeFrame(Message{Submit{}});
    std::vector<uint8_t> overlong(frame.begin() + kFrameHeaderBytes,
                                  frame.end());
    overlong.push_back(0);
    decoded = decodeBody(overlong);
    ASSERT_TRUE(std::holds_alternative<WireError>(decoded));
    EXPECT_EQ(WireError::Malformed, std::get<WireError>(decoded));
}

TEST(NetWire, FirstErrorPoisonsTheDecoder)
{
    std::vector<uint8_t> bad = encodeFrame(Message{Submit{}});
    bad[0] = 'X';
    FrameDecoder decoder;
    decoder.feed(bad);
    EXPECT_EQ(WireError::BadMagic, expectError(decoder));
    // A pristine frame after the poison must NOT decode: nothing past
    // the first corrupt byte is ever interpreted.
    decoder.feed(encodeFrame(Message{Hello{}}));
    EXPECT_EQ(WireError::BadMagic, expectError(decoder));
    EXPECT_TRUE(decoder.poisoned());
}

TEST(NetWire, DeterministicGarbageNeverCrashesOrGrows)
{
    Rng rng(1234);
    for (int trial = 0; trial < 50; ++trial) {
        FrameDecoder decoder;
        for (int chunk = 0; chunk < 20; ++chunk) {
            std::vector<uint8_t> garbage(rng.nextBounded(257));
            for (auto &b : garbage)
                b = static_cast<uint8_t>(rng.next());
            decoder.feed(garbage);
            while (decoder.poll().has_value() && !decoder.poisoned()) {
            }
            // Poisoned decoders discard input; clean ones can buffer
            // at most one bounded frame.
            EXPECT_LE(decoder.buffered(),
                      kMaxFrameBytes + kFrameHeaderBytes);
        }
    }
}

TEST(NetWire, ErrorDetailIsBoundedOnTheWire)
{
    ProtoError error;
    error.detail.assign(10000, 'x');
    auto back = roundTripMessage(Message{error});
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(256u, std::get<ProtoError>(*back).detail.size());
}

TEST(NetRateLimiter, RefillsContinuouslyAndHintsRetry)
{
    TokenBucket bucket(10.0, 2.0); // 10/s, burst 2
    EXPECT_TRUE(bucket.tryTake(0.0));
    EXPECT_TRUE(bucket.tryTake(0.0));
    EXPECT_FALSE(bucket.tryTake(0.0));
    uint32_t hint = bucket.retryAfterMs(0.0);
    EXPECT_GE(hint, 1u);
    EXPECT_LE(hint, 100u);
    // One token refills every 100 ms at 10/s.
    EXPECT_TRUE(bucket.tryTake(101.0));
    EXPECT_FALSE(bucket.tryTake(101.0));

    TokenBucket unlimited(0.0);
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(unlimited.tryTake(0.0));
}

TEST(NetServer, ServesDigestProofsOverTheWire)
{
    DigestExecutor executor;
    obs::MetricsRegistry metrics;
    ServerOptions opt;
    opt.workers = 2;
    ProofServer server(opt, executor, &metrics);
    ASSERT_TRUE(server.start());

    SyncClient client;
    ASSERT_TRUE(client.connect(server.port(), 7));
    EXPECT_EQ(kWireVersion, client.ack().version);
    EXPECT_GT(client.ack().window, 0u);

    for (uint64_t id = 1; id <= 16; ++id) {
        Submit task;
        task.task_id = id;
        task.n_vars = 10;
        auto result = client.roundTrip(task);
        ASSERT_TRUE(result.has_value());
        EXPECT_EQ(Status::Ok, result->status);
        EXPECT_EQ(id, result->task_id);
        EXPECT_TRUE(verifyDigestProof(task, result->proof));
    }
    ServerStats stats = server.stats();
    EXPECT_EQ(16u, stats.submits);
    EXPECT_EQ(16u, stats.results_ok);
    EXPECT_EQ(16u, stats.tenants.at(7).results_ok);
    EXPECT_TRUE(metrics.has("bzk_net_submits_total"));
    EXPECT_TRUE(metrics.has("bzk_net_accept_to_result_ms"));
    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(NetServer, ServedProofMatchesDurableDerivationAndVerifies)
{
    SnarkExecutor executor;
    ServerOptions opt;
    opt.workers = 1;
    ProofServer server(opt, executor);
    ASSERT_TRUE(server.start());

    SyncClient client;
    ASSERT_TRUE(client.connect(server.port()));
    Submit task;
    task.task_id = 31;
    task.n_vars = 8;
    task.seed = 99;
    auto result = client.roundTrip(task);
    ASSERT_TRUE(result.has_value());
    ASSERT_EQ(Status::Ok, result->status);

    auto proof = deserializeProof<Fr>(result->proof);
    ASSERT_TRUE(proof.has_value());
    Snark<Fr> verifier(task.n_vars, task.seed);
    EXPECT_TRUE(verifier.verify(*proof, {}));

    // Bit-identical to proving the same (task_id, seed, n_vars)
    // locally with the shared instance derivation: the wire adds no
    // entropy.
    Rng rng = taskInstanceRng(task.task_id, task.seed, task.n_vars);
    auto tables = randomInstance(task.n_vars, rng);
    Snark<Fr> local(task.n_vars, task.seed);
    EXPECT_EQ(serializeProof(local.prove(tables, {})), result->proof);
}

TEST(NetServer, ServesHighDegreeProofsAndCountsPerKind)
{
    SnarkExecutor executor;
    ServerOptions opt;
    opt.workers = 1;
    obs::MetricsRegistry metrics;
    ProofServer server(opt, executor, &metrics);
    ASSERT_TRUE(server.start());

    SyncClient client;
    ASSERT_TRUE(client.connect(server.port()));
    // The handshake lands on v2, so this connection may carry kinds.
    EXPECT_EQ(kWireVersion, client.version());

    Submit task;
    task.task_id = 41;
    task.n_vars = 8;
    task.seed = 3;
    task.kind = sched::ProtocolKind::HighDegreeGate;
    auto result = client.roundTrip(task);
    ASSERT_TRUE(result.has_value());
    ASSERT_EQ(Status::Ok, result->status);

    auto proof = deserializeHighDegreeProof<Fr>(result->proof);
    ASSERT_TRUE(proof.has_value());
    HighDegreeSnark<Fr> verifier(task.n_vars, task.seed);
    EXPECT_TRUE(verifier.verify(*proof, {}));

    // Bit-identical to a local prove from the shared (task_id, seed,
    // n_vars) instance derivation, exactly like the legacy protocol.
    Rng rng = taskInstanceRng(task.task_id, task.seed, task.n_vars);
    auto tables = highDegreeInstance<Fr>(task.n_vars, rng);
    HighDegreeSnark<Fr> local(task.n_vars, task.seed);
    EXPECT_EQ(serializeHighDegreeProof(local.prove(tables, {})),
              result->proof);

    // A legacy task on the same connection: both kinds interleave.
    Submit legacy;
    legacy.task_id = 42;
    legacy.n_vars = 8;
    legacy.seed = 3;
    auto legacy_result = client.roundTrip(legacy);
    ASSERT_TRUE(legacy_result.has_value());
    EXPECT_EQ(Status::Ok, legacy_result->status);

    ServerStats stats = server.stats();
    EXPECT_EQ(2u, stats.submits);
    EXPECT_EQ(1u,
              stats.submits_by_kind[static_cast<size_t>(
                  sched::ProtocolKind::TableCommit)]);
    EXPECT_EQ(1u,
              stats.submits_by_kind[static_cast<size_t>(
                  sched::ProtocolKind::HighDegreeGate)]);
    EXPECT_DOUBLE_EQ(
        metrics.counter("bzk_net_submits_table_commit_total").value(),
        1.0);
    EXPECT_DOUBLE_EQ(
        metrics.counter("bzk_net_submits_high_degree_gate_total")
            .value(),
        1.0);
}

TEST(NetServer, RejectsInvalidParameters)
{
    DigestExecutor executor;
    ServerOptions opt;
    opt.max_n_vars = 12;
    ProofServer server(opt, executor);
    ASSERT_TRUE(server.start());

    SyncClient client;
    ASSERT_TRUE(client.connect(server.port()));
    for (uint32_t n_vars : {uint32_t{4}, uint32_t{13}}) {
        Submit task;
        task.task_id = n_vars;
        task.n_vars = n_vars;
        auto result = client.roundTrip(task);
        ASSERT_TRUE(result.has_value());
        EXPECT_EQ(Status::Invalid, result->status);
    }
    EXPECT_EQ(2u, server.stats().invalid);
}

TEST(NetServer, RateLimitsPerTenantWithRetryHint)
{
    DigestExecutor executor;
    ServerOptions opt;
    opt.tenant_rate_per_s = 1.0;
    opt.tenant_burst = 1.0;
    ProofServer server(opt, executor);
    ASSERT_TRUE(server.start());

    SyncClient limited;
    ASSERT_TRUE(limited.connect(server.port(), 1));
    Submit task;
    task.task_id = 1;
    auto first = limited.roundTrip(task);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(Status::Ok, first->status);
    task.task_id = 2;
    auto second = limited.roundTrip(task);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(Status::Retry, second->status);
    EXPECT_GT(second->retry_after_ms, 0u);

    // The bucket is per tenant: a different tenant is not throttled.
    SyncClient other;
    ASSERT_TRUE(other.connect(server.port(), 2));
    task.task_id = 3;
    auto third = other.roundTrip(task);
    ASSERT_TRUE(third.has_value());
    EXPECT_EQ(Status::Ok, third->status);

    ServerStats stats = server.stats();
    EXPECT_EQ(1u, stats.retries);
    EXPECT_EQ(1u, stats.tenants.at(1).retries);
    EXPECT_EQ(0u, stats.tenants.at(2).retries);
}

TEST(NetServer, ShedsAtQueueCapacityInSubmitOrder)
{
    // One worker, the window set to 1 and left at its default (one per
    // worker): either way no queued task hides past the capacity rail.
    for (size_t window : {size_t{1}, size_t{0}}) {
        SCOPED_TRACE("window option " + std::to_string(window));
        SlowExecutor executor(100);
        ServerOptions opt;
        opt.window = window;
        opt.workers = 1;
        opt.queue_capacity = 1;
        ProofServer server(opt, executor);
        ASSERT_TRUE(server.start());
        EXPECT_EQ(1u, server.stats().window);

        SyncClient client;
        ASSERT_TRUE(client.connect(server.port()));
        EXPECT_EQ(1u, client.ack().window);
        // Five pipelined submits: 1 admitted, 2 queued, 3..5 shed.
        for (uint64_t id = 1; id <= 5; ++id) {
            Submit task;
            task.task_id = id;
            ASSERT_TRUE(client.send(Message{task}));
        }
        size_t ok = 0, shed = 0;
        for (int i = 0; i < 5; ++i) {
            auto msg = client.receive(10000.0);
            ASSERT_TRUE(msg.has_value());
            auto *result = std::get_if<Result>(&*msg);
            ASSERT_NE(nullptr, result);
            if (result->status == Status::Ok)
                ++ok;
            else if (result->status == Status::Shed)
                ++shed;
        }
        EXPECT_EQ(2u, ok);
        EXPECT_EQ(3u, shed);
        EXPECT_EQ(3u, server.stats().sheds);
    }
}

TEST(NetServer, ShedsQueuedWorkPastTheDeadline)
{
    // As above: the explicit window of 1 and the default window of one
    // per worker both keep the waiting task under the deadline rail.
    for (size_t window : {size_t{1}, size_t{0}}) {
        SCOPED_TRACE("window option " + std::to_string(window));
        SlowExecutor executor(150);
        ServerOptions opt;
        opt.window = window;
        opt.workers = 1;
        opt.queue_timeout_ms = 40.0;
        ProofServer server(opt, executor);
        ASSERT_TRUE(server.start());
        EXPECT_EQ(1u, server.stats().window);

        SyncClient client;
        ASSERT_TRUE(client.connect(server.port()));
        EXPECT_EQ(1u, client.ack().window);
        for (uint64_t id = 1; id <= 2; ++id) {
            Submit task;
            task.task_id = id;
            ASSERT_TRUE(client.send(Message{task}));
        }
        // Task 1 occupies the window for 150 ms; task 2 waits past the
        // 40 ms deadline and must come back shed well before task 1's
        // proof.
        size_t ok = 0, shed = 0;
        for (int i = 0; i < 2; ++i) {
            auto msg = client.receive(10000.0);
            ASSERT_TRUE(msg.has_value());
            auto *result = std::get_if<Result>(&*msg);
            ASSERT_NE(nullptr, result);
            if (result->status == Status::Ok)
                ++ok;
            else if (result->status == Status::Shed)
                ++shed;
        }
        EXPECT_EQ(1u, ok);
        EXPECT_EQ(1u, shed);
        EXPECT_EQ(1u, server.stats().queue_timeouts);
    }
}

TEST(NetServer, NegotiatesVersionAndRefusesUnsupportedRanges)
{
    DigestExecutor executor;
    ProofServer server({}, executor);
    ASSERT_TRUE(server.start());

    // A client whose whole range lies above what this build speaks
    // gets a typed UnsupportedVersion error, not a silent downgrade.
    Fd raw = connectTcp(server.port());
    ASSERT_TRUE(raw.valid());
    Hello hello;
    hello.min_version = kWireVersion + 1;
    hello.max_version = kWireVersion + 7;
    auto frame = encodeFrame(Message{hello});
    ASSERT_GT(sendSome(raw.get(), frame), 0);

    FrameDecoder decoder;
    uint8_t buf[4096];
    std::optional<Message> reply;
    for (int spin = 0; spin < 200 && !reply; ++spin) {
        ptrdiff_t n = recvSome(raw.get(), buf);
        if (n > 0)
            decoder.feed(std::span<const uint8_t>(
                buf, static_cast<size_t>(n)));
        else if (n == 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        else
            break;
        if (auto polled = decoder.poll())
            reply = std::get<Message>(*polled);
    }
    ASSERT_TRUE(reply.has_value());
    auto *error = std::get_if<ProtoError>(&*reply);
    ASSERT_NE(nullptr, error);
    EXPECT_EQ(ErrorCode::UnsupportedVersion, error->code);
}

TEST(NetServer, RequiresHandshakeBeforeSubmit)
{
    DigestExecutor executor;
    ProofServer server({}, executor);
    ASSERT_TRUE(server.start());

    SyncClient client;
    // Bypass connect()'s handshake with a raw socket via the client's
    // framing: connect, send Submit first.
    Fd raw = connectTcp(server.port());
    ASSERT_TRUE(raw.valid());
    auto frame = encodeFrame(Message{Submit{}});
    ASSERT_GT(sendSome(raw.get(), frame), 0);
    FrameDecoder decoder;
    uint8_t buf[4096];
    std::optional<Message> reply;
    for (int spin = 0; spin < 200 && !reply; ++spin) {
        ptrdiff_t n = recvSome(raw.get(), buf);
        if (n > 0)
            decoder.feed(std::span<const uint8_t>(
                buf, static_cast<size_t>(n)));
        else if (n == 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        else
            break;
        if (auto polled = decoder.poll())
            reply = std::get<Message>(*polled);
    }
    ASSERT_TRUE(reply.has_value());
    auto *error = std::get_if<ProtoError>(&*reply);
    ASSERT_NE(nullptr, error);
    EXPECT_EQ(ErrorCode::HandshakeRequired, error->code);
}

TEST(NetServer, SurvivesGarbageAndKeepsServingOthers)
{
    DigestExecutor executor;
    ProofServer server({}, executor);
    ASSERT_TRUE(server.start());

    // A well-behaved client before, during, and after the attack.
    SyncClient good;
    ASSERT_TRUE(good.connect(server.port()));

    Rng rng(777);
    for (int attack = 0; attack < 8; ++attack) {
        Fd raw = connectTcp(server.port());
        ASSERT_TRUE(raw.valid());
        std::vector<uint8_t> garbage(512);
        for (auto &b : garbage)
            b = static_cast<uint8_t>(rng.next());
        sendSome(raw.get(), garbage);
        // The server answers with a typed ProtoError and closes; the
        // socket draining to EOF proves no hang.
        uint8_t buf[4096];
        for (int spin = 0; spin < 400; ++spin) {
            ptrdiff_t n = recvSome(raw.get(), buf);
            if (n < 0)
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        }
    }

    Submit task;
    task.task_id = 1;
    auto result = good.roundTrip(task);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(Status::Ok, result->status);
    EXPECT_GT(server.stats().protocol_errors, 0u);
}

TEST(NetServer, ConcurrentClientsEachGetTheirOwnProofs)
{
    DigestExecutor executor;
    ServerOptions opt;
    opt.workers = 4;
    ProofServer server(opt, executor);
    ASSERT_TRUE(server.start());

    constexpr int kThreads = 8;
    constexpr uint64_t kTasks = 24;
    std::vector<std::thread> threads;
    std::vector<uint64_t> completed(kThreads, 0);
    for (int i = 0; i < kThreads; ++i)
        threads.emplace_back([&, i] {
            SyncClient client;
            if (!client.connect(server.port(),
                                static_cast<uint64_t>(i)))
                return;
            for (uint64_t t = 0; t < kTasks; ++t) {
                Submit task;
                task.task_id =
                    (static_cast<uint64_t>(i) << 32) | (t + 1);
                auto result = client.roundTrip(task);
                if (result && result->status == Status::Ok &&
                    result->task_id == task.task_id &&
                    verifyDigestProof(task, result->proof))
                    ++completed[i];
            }
        });
    for (auto &t : threads)
        t.join();
    for (int i = 0; i < kThreads; ++i)
        EXPECT_EQ(kTasks, completed[i]) << "client " << i;
    EXPECT_EQ(kThreads * kTasks, server.stats().results_ok);
}

TEST(NetLoadGen, SmallSoakLosesAndDuplicatesNothing)
{
    DigestExecutor executor;
    obs::MetricsRegistry metrics;
    ServerOptions opt;
    opt.workers = 4;
    opt.max_connections = 512;
    ProofServer server(opt, executor, &metrics);
    ASSERT_TRUE(server.start());

    LoadGenOptions load;
    load.port = server.port();
    load.connections = 48;
    load.tasks_per_conn = 8;
    load.tenants = 4;
    load.hot_fraction = 0.25;
    LoadGenReport report = runLoadGen(load);

    EXPECT_EQ(48u, report.connections_opened);
    EXPECT_EQ(0u, report.connections_failed);
    EXPECT_EQ(0u, report.lost);
    EXPECT_EQ(0u, report.duplicated);
    EXPECT_EQ(0u, report.bad_proofs);
    EXPECT_EQ(48u * 8u, report.results_ok);
    EXPECT_TRUE(report.clean());
    EXPECT_GT(report.throughput_per_s, 0.0);
    EXPECT_GE(report.p99_ms, report.p50_ms);

    ServerStats stats = server.stats();
    EXPECT_EQ(48u * 8u, stats.results_ok);
    EXPECT_EQ(4u, stats.tenants.size());
    EXPECT_GE(stats.peak_connections, 40u);
}

TEST(NetLoadGen, BackpressureResubmitsUntilEveryTaskCompletes)
{
    SlowExecutor executor(2);
    ServerOptions opt;
    opt.window = 2;
    opt.workers = 2;
    opt.queue_capacity = 4;
    opt.tenant_rate_per_s = 400.0;
    ProofServer server(opt, executor);
    ASSERT_TRUE(server.start());

    LoadGenOptions load;
    load.port = server.port();
    load.connections = 8;
    load.tasks_per_conn = 6;
    load.pipeline = 6;
    LoadGenReport report = runLoadGen(load);

    // The shape guarantees backpressure fired, and the resubmit loop
    // still completed every task exactly once.
    EXPECT_GT(report.retries + report.sheds, 0u);
    EXPECT_EQ(0u, report.lost);
    EXPECT_EQ(0u, report.duplicated);
    EXPECT_EQ(48u, report.results_ok);
    EXPECT_TRUE(report.clean());
}
