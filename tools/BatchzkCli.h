#ifndef BZK_TOOLS_BATCHZKCLI_H_
#define BZK_TOOLS_BATCHZKCLI_H_

/**
 * @file
 * Argument parsing for the batchzk CLI, extracted so the shell
 * contract — unknown subcommands and flags exit nonzero with a usage
 * message, never fall through silently — is unit-testable
 * (tests/test_deaths.cpp) without spawning the binary.
 */

#include <cstdint>
#include <cstdlib>
#include <string>

#include "sched/ProtocolKind.h"

namespace bzk::cli {

/** Parsed batchzk invocation. */
struct Args
{
    std::string command;
    unsigned log_gates = 12;
    uint64_t seed = 2024;
    std::string in;
    std::string out = "proof.bzkp";
    std::string gpu = "GH200";
    std::string system = "table"; // or "full" (wiring-sound)
    size_t batch = 128;
    std::string faults;
    std::string format = "prom"; // metrics output: "prom" or "json"
    std::string sizes;           // sched: comma list of task log-sizes
    size_t threads = 0;          // host threads (0 = env/hardware)
    std::string journal_dir;     // durable task journal directory
    uint16_t port = 9091;        // serve/submit: loopback TCP port
    uint64_t tenant = 0;         // submit: tenant identity
    uint64_t rate = 0;           // serve: per-tenant submits/s (0 = off)
    size_t window = 0;           // serve: in-flight window (0 = workers)
    size_t queue_cap = 4096;     // serve: admission-queue capacity
    // Proving protocol: "table-commit", "high-degree-gate", or (sched
    // only) "mixed" for a batch alternating between the two.
    std::string kind = "table-commit";
    // sched: lane split policy, "proportional", "fixed-ratio", or
    // "measured-cost".
    std::string lane_policy = "proportional";
};

/** Outcome of a parse: ok, or a diagnostic for stderr. */
struct ParseResult
{
    bool ok = true;
    std::string error;

    static ParseResult
    fail(std::string message)
    {
        return {false, std::move(message)};
    }
};

inline const char *
usage()
{
    return "usage: batchzk <prove|verify|info|simulate|trace|metrics|"
           "chaos|sched|recover|serve|submit> [--log-gates N] "
           "[--seed S] [--system table|full] [--in FILE] [--out FILE] "
           "[--gpu NAME] [--batch B] [--faults PLAN] "
           "[--format prom|json] [--sizes N,N,...] [--threads T] "
           "[--journal-dir DIR] [--port P] [--tenant T] [--rate R] "
           "[--window W] [--queue-cap C] "
           "[--kind table-commit|high-degree-gate|mixed] "
           "[--lane-policy proportional|fixed-ratio|measured-cost]\n";
}

/**
 * Parse @p argv into @p args. Unknown commands, unknown flags, flags
 * missing their value, and non-numeric numeric values all fail with a
 * specific diagnostic; the caller prints it plus usage() and exits
 * nonzero.
 */
inline ParseResult
parse(int argc, char **argv, Args &args)
{
    if (argc < 2)
        return ParseResult::fail("missing command");
    args.command = argv[1];

    const char *known_commands[] = {"prove",    "verify", "info",
                                    "simulate", "trace",  "metrics",
                                    "chaos",    "sched",  "recover",
                                    "serve",    "submit"};
    bool known = false;
    for (const char *cmd : known_commands)
        known = known || args.command == cmd;
    if (!known)
        return ParseResult::fail("unknown command '" + args.command +
                                 "'");

    int first_opt = 2;
    // trace/metrics accept a positional output path:
    //   batchzk trace /tmp/t.json
    if ((args.command == "trace" || args.command == "metrics") &&
        argc > 2 && argv[2][0] != '-') {
        args.out = argv[2];
        first_opt = 3;
    }

    auto parse_unsigned = [](const std::string &value, uint64_t &out) {
        if (value.empty() ||
            value.find_first_not_of("0123456789") != std::string::npos)
            return false;
        out = std::strtoull(value.c_str(), nullptr, 10);
        return true;
    };

    for (int i = first_opt; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            return ParseResult::fail("unexpected argument '" + key +
                                     "'");
        if (i + 1 >= argc)
            return ParseResult::fail("flag '" + key +
                                     "' is missing a value");
        std::string value = argv[++i];

        uint64_t number = 0;
        bool numeric = parse_unsigned(value, number);
        auto need_number = [&](const char *flag) {
            return ParseResult::fail(std::string("flag '") + flag +
                                     "' needs a non-negative integer, "
                                     "got '" +
                                     value + "'");
        };

        if (key == "--log-gates") {
            if (!numeric)
                return need_number("--log-gates");
            args.log_gates = static_cast<unsigned>(number);
        } else if (key == "--seed") {
            if (!numeric)
                return need_number("--seed");
            args.seed = number;
        } else if (key == "--in") {
            args.in = value;
        } else if (key == "--out") {
            args.out = value;
        } else if (key == "--gpu") {
            args.gpu = value;
        } else if (key == "--batch") {
            if (!numeric)
                return need_number("--batch");
            args.batch = number;
        } else if (key == "--system") {
            args.system = value;
        } else if (key == "--faults") {
            args.faults = value;
        } else if (key == "--format") {
            args.format = value;
        } else if (key == "--sizes") {
            args.sizes = value;
        } else if (key == "--threads") {
            if (!numeric)
                return need_number("--threads");
            args.threads = number;
        } else if (key == "--journal-dir") {
            args.journal_dir = value;
        } else if (key == "--port") {
            if (!numeric || number > 65535)
                return need_number("--port");
            args.port = static_cast<uint16_t>(number);
        } else if (key == "--tenant") {
            if (!numeric)
                return need_number("--tenant");
            args.tenant = number;
        } else if (key == "--rate") {
            if (!numeric)
                return need_number("--rate");
            args.rate = number;
        } else if (key == "--window") {
            if (!numeric)
                return need_number("--window");
            args.window = number;
        } else if (key == "--queue-cap") {
            if (!numeric)
                return need_number("--queue-cap");
            args.queue_cap = number;
        } else if (key == "--kind") {
            if (value != "mixed" && !sched::protocolKindFromName(value))
                return ParseResult::fail(
                    "flag '--kind' needs table-commit, "
                    "high-degree-gate, or mixed, got '" +
                    value + "'");
            args.kind = value;
        } else if (key == "--lane-policy") {
            if (value != "proportional" && value != "fixed-ratio" &&
                value != "measured-cost")
                return ParseResult::fail(
                    "flag '--lane-policy' needs proportional, "
                    "fixed-ratio, or measured-cost, got '" +
                    value + "'");
            args.lane_policy = value;
        } else {
            return ParseResult::fail("unknown flag '" + key + "'");
        }
    }
    return {};
}

} // namespace bzk::cli

#endif // BZK_TOOLS_BATCHZKCLI_H_
