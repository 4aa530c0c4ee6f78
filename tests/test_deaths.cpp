/**
 * @file
 * Death tests for the library's panic paths: misuse of the public API
 * must fail loudly (abort with a message), never silently corrupt.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "../tools/BatchzkCli.h"
#include "circuit/Circuit.h"
#include "core/Snark.h"
#include "encoder/SpielmanCode.h"
#include "ff/FieldBackend.h"
#include "ff/Fields.h"
#include "gpusim/Device.h"
#include "gpusim/FaultInjector.h"
#include "merkle/MerkleTree.h"
#include "net/Wire.h"
#include "poly/Multilinear.h"
#include "sumcheck/Sumcheck.h"

namespace bzk {
namespace {

using DeathTest = ::testing::Test;

TEST(DeathTest, MultilinearRejectsNonPow2)
{
    EXPECT_DEATH(
        { Multilinear<Fr> m(std::vector<Fr>(3)); },
        "power of two");
}

TEST(DeathTest, MultilinearRejectsEmpty)
{
    EXPECT_DEATH({ Multilinear<Fr> m((std::vector<Fr>())); },
                 "power of two");
}

TEST(DeathTest, EvaluateRejectsWrongArity)
{
    Rng rng(1);
    auto p = Multilinear<Fr>::random(3, rng);
    std::vector<Fr> point(2);
    EXPECT_DEATH({ (void)p.evaluate(point); }, "coords");
}

TEST(DeathTest, SumcheckRejectsWrongChallengeCount)
{
    Rng rng(2);
    auto p = Multilinear<Fr>::random(3, rng);
    std::vector<Fr> challenges(2);
    EXPECT_DEATH({ (void)proveSumcheck(p, challenges); }, "challenges");
}

TEST(DeathTest, GateSumcheckRejectsWrongTauLength)
{
    std::vector<Fr> a(8), b(8), c(8), weights;
    Transcript transcript("death");
    for (size_t n : {size_t{2}, size_t{4}}) {
        std::vector<Fr> tau(n);
        EXPECT_DEATH(
            {
                (void)proveGateSumcheck<MulGate>(tau, {a, b, c}, {&a, &b, &c},
                                                 weights, MulGate::kLabels,
                                                 transcript);
            },
            "tau entries");
    }
}

TEST(DeathTest, MerklePathOutOfRange)
{
    auto t = MerkleTree::build(std::vector<uint8_t>(64 * 4, 1));
    EXPECT_DEATH({ (void)t.path(4); }, "out of");
}

TEST(DeathTest, CircuitRejectsDanglingWire)
{
    Circuit<Fr> c;
    WireId a = c.addWitness();
    EXPECT_DEATH({ (void)c.mul(a, 7); }, "does not exist");
}

TEST(DeathTest, CircuitRejectsWrongWitnessCount)
{
    Circuit<Fr> c;
    c.addWitness();
    std::vector<Fr> none;
    EXPECT_DEATH({ (void)c.evaluate({}, none); }, "witness");
}

TEST(DeathTest, DeviceRejectsBadStream)
{
    gpusim::DeviceSpec spec = gpusim::DeviceSpec::v100();
    gpusim::Device dev(spec);
    gpusim::KernelDesc k;
    k.name = "bad";
    k.threads = 1;
    k.cycles_per_thread = 1;
    EXPECT_DEATH({ dev.launchKernel(7, k); }, "bad stream");
}

TEST(DeathTest, DeviceRejectsDoubleFree)
{
    gpusim::Device dev(gpusim::DeviceSpec::v100());
    int64_t h = dev.alloc(100);
    dev.free(h);
    EXPECT_DEATH({ dev.free(h); }, "double-freed");
}

TEST(DeathTest, DeviceRejectsBadOpQuery)
{
    gpusim::Device dev(gpusim::DeviceSpec::v100());
    EXPECT_DEATH({ (void)dev.opEnd(3); }, "bad op");
}

TEST(DeathTest, InverseOfZeroAsserts)
{
    // Fermat's little theorem silently maps 0 -> 0; the assert makes
    // the misuse loud in debug builds. Callers that legitimately hold
    // zeros use ff::batchInverse's documented skip-zero semantics.
    EXPECT_DEBUG_DEATH({ (void)Fr::zero().inverse(); },
                       "inverse of zero");
    // Fq sees zero denominators routinely in the MSM batch-affine
    // pass (infinity operands, P + (-P) cancellations); those flow
    // through ff::batchInverse's skip-zero path, and a stray scalar
    // inverse() of zero must still trip the same assert.
    EXPECT_DEBUG_DEATH({ (void)Fq::zero().inverse(); },
                       "inverse of zero");
}

TEST(DeathTest, EncoderRejectsTinyMessage)
{
    // Message length below the base size is a configuration error.
    EXPECT_EXIT({ SpielmanCode<Fr> code(16, 1); },
                ::testing::ExitedWithCode(1), "power of two");
}

TEST(DeathTest, EncoderRejectsWrongMessageLength)
{
    SpielmanCode<Fr> code(64, 1);
    std::vector<Fr> msg(63);
    EXPECT_DEATH({ (void)code.encode(msg); }, "message length");
}

TEST(DeathTest, EncoderRejectsWrongOutputLength)
{
    // encodeInto writes the whole codeword in place; a window that is
    // not exactly 2k elements must fail before any write.
    SpielmanCode<Fr> code(64, 1);
    std::vector<Fr> msg(64);
    std::vector<Fr> out(127);
    EXPECT_DEATH({ code.encodeInto(msg, out); }, "output length");
}

TEST(DeathTest, FieldBackendEnvRejectsUnknownNames)
{
    // BZK_FIELD_BACKEND names a lane-kernel backend: scalar or ifma.
    // Any other name, ISA names that are no backend (avx2, avx512,
    // neon) included, is an operator error that exits 1 before any
    // kernel runs.
    for (const char *name : {"avx2", "avx512", "neon", "bogus"}) {
        SCOPED_TRACE(name);
        EXPECT_EXIT(
            {
                setenv("BZK_FIELD_BACKEND", name, 1);
                ff::clearForcedBackend();
                (void)ff::activeBackend();
            },
            ::testing::ExitedWithCode(1), "want scalar\\|ifma");
    }
}

// A malformed fault plan is an operator configuration error: the CLI
// must exit cleanly (code 1) with a "fault plan" diagnostic, never
// install a half-parsed schedule.

TEST(DeathTest, FaultPlanRejectsUnknownKind)
{
    EXPECT_EXIT({ (void)gpusim::FaultPlan::parse("bogus:0-5:2"); },
                ::testing::ExitedWithCode(1), "unknown fault kind");
}

TEST(DeathTest, FaultPlanRejectsInvertedWindow)
{
    EXPECT_EXIT({ (void)gpusim::FaultPlan::parse("stall:5-2:3"); },
                ::testing::ExitedWithCode(1), "empty window");
}

TEST(DeathTest, FaultPlanRejectsOutOfRangeMagnitudes)
{
    // A stall that does not slow anything down and a lane fraction
    // outside (0, 1) are both nonsense.
    EXPECT_EXIT({ (void)gpusim::FaultPlan::parse("stall:0-5:0.5"); },
                ::testing::ExitedWithCode(1), "must exceed 1");
    EXPECT_EXIT({ (void)gpusim::FaultPlan::parse("lanes:0-5:1.5"); },
                ::testing::ExitedWithCode(1), "must be in \\(0, 1\\)");
}

TEST(DeathTest, FaultPlanRejectsGarbageNumbers)
{
    EXPECT_EXIT({ (void)gpusim::FaultPlan::parse("corrupt:abc"); },
                ::testing::ExitedWithCode(1), "bad number");
    EXPECT_EXIT({ (void)gpusim::FaultPlan::parse("stall:0-5:fast"); },
                ::testing::ExitedWithCode(1), "bad magnitude");
}

TEST(DeathTest, FaultPlanRejectsEmptySpec)
{
    EXPECT_EXIT({ (void)gpusim::FaultPlan::parse(""); },
                ::testing::ExitedWithCode(1), "fault plan");
}

TEST(DeathTest, WireV1CannotCarryHighDegreeSubmit)
{
    // A v1 frame has no kind byte: silently encoding a high-degree
    // Submit would make the server prove the wrong protocol. The
    // encoder refuses instead of downgrading.
    net::Submit submit;
    submit.kind = sched::ProtocolKind::HighDegreeGate;
    EXPECT_DEATH(
        { (void)net::encodeFrame(net::Message{submit}, 1); },
        "wire version");
}

// Regression tests for the batchzk shell contract: unknown subcommands
// and flags must be rejected with a diagnostic (the binary then exits
// nonzero with usage), never fall through to a half-configured run.
// The CLI used to silently ignore a trailing flag with no value.

cli::ParseResult
parseArgv(std::vector<const char *> argv, cli::Args &args)
{
    return cli::parse(static_cast<int>(argv.size()),
                      const_cast<char **>(argv.data()), args);
}

TEST(CliParse, RejectsMissingCommand)
{
    cli::Args args;
    auto result = parseArgv({"batchzk"}, args);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error, "missing command");
}

TEST(CliParse, RejectsUnknownCommand)
{
    cli::Args args;
    auto result = parseArgv({"batchzk", "bogus"}, args);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error, "unknown command 'bogus'");
}

TEST(CliParse, RejectsUnknownFlag)
{
    cli::Args args;
    auto result =
        parseArgv({"batchzk", "prove", "--frobnicate", "1"}, args);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error, "unknown flag '--frobnicate'");
}

TEST(CliParse, RejectsTrailingFlagWithoutValue)
{
    // The historical bug: `--seed` at the end of argv was dropped on
    // the floor and the run proceeded with the default seed.
    cli::Args args;
    auto result = parseArgv({"batchzk", "prove", "--seed"}, args);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error, "flag '--seed' is missing a value");
}

TEST(CliParse, RejectsNonNumericNumbers)
{
    cli::Args args;
    auto result =
        parseArgv({"batchzk", "prove", "--log-gates", "twelve"}, args);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error,
              "flag '--log-gates' needs a non-negative integer, got "
              "'twelve'");
    result = parseArgv({"batchzk", "prove", "--seed", "-3"}, args);
    EXPECT_FALSE(result.ok);
}

TEST(CliParse, RejectsStrayPositionalArgument)
{
    cli::Args args;
    auto result = parseArgv({"batchzk", "prove", "stray"}, args);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error, "unexpected argument 'stray'");
}

TEST(CliParse, AcceptsEveryCommandAndFlag)
{
    cli::Args args;
    auto result = parseArgv(
        {"batchzk", "recover", "--journal-dir", "/tmp/j", "--gpu",
         "H100", "--seed", "7", "--threads", "4"},
        args);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(args.command, "recover");
    EXPECT_EQ(args.journal_dir, "/tmp/j");
    EXPECT_EQ(args.gpu, "H100");
    EXPECT_EQ(args.seed, 7u);
    EXPECT_EQ(args.threads, 4u);
}

TEST(CliParse, RejectsUnknownKindAndLanePolicy)
{
    cli::Args args;
    auto result =
        parseArgv({"batchzk", "prove", "--kind", "plonk"}, args);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error,
              "flag '--kind' needs table-commit, high-degree-gate, or "
              "mixed, got 'plonk'");
    result = parseArgv({"batchzk", "sched", "--lane-policy", "greedy"},
                       args);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error,
              "flag '--lane-policy' needs proportional, fixed-ratio, "
              "or measured-cost, got 'greedy'");
    result = parseArgv({"batchzk", "sched", "--kind", "mixed",
                        "--lane-policy", "measured-cost"},
                       args);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(args.kind, "mixed");
    EXPECT_EQ(args.lane_policy, "measured-cost");
}

TEST(CliParse, TraceAndMetricsTakePositionalOutput)
{
    cli::Args args;
    auto result = parseArgv({"batchzk", "trace", "/tmp/t.json"}, args);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(args.out, "/tmp/t.json");
    // But a second positional is still an error.
    cli::Args more;
    result = parseArgv({"batchzk", "trace", "a.json", "b.json"}, more);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error, "unexpected argument 'b.json'");
}

} // namespace
} // namespace bzk
