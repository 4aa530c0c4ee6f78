/**
 * @file
 * perfbench: the real-prover benchmark.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <file.json>]
 *   perfbench --list-metrics
 *
 * Workloads: prove-table-n16, prove-hdg-n16-1t, serve-mixed-n12. The
 * last stdout line is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}, with the end-to-end metrics when --trace 0 and
 * the per-layer metrics when --trace 1. Exits 1 when any task got no
 * verified proof or a self-check broke, 2 on a usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "Common.h"

using namespace bzk::perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <prove-table-n16|"
                 "prove-hdg-n16-1t|serve-mixed-n12> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n"
                 "       perfbench --list-metrics\n",
                 why);
    std::exit(2);
}

double
parseNumber(const std::string &s, const char *flag)
{
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (s.empty() || *end != '\0' || v < 0)
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

uint64_t
parseSeed(const std::string &s)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (s.empty() || s[0] == '-' || *end != '\0')
        usage("bad value for --seed");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--list-metrics") {
            for (const auto &m : endToEndMetrics())
                std::printf("end_to_end %s %s\n", m.name, m.unit);
            for (const auto &m : perLayerMetrics())
                std::printf("per_layer %s %s\n", m.name, m.unit);
            return 0;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = parseSeed(value);
        else if (flag == "--seconds")
            opt.seconds = parseNumber(value, "--seconds");
        else if (flag == "--trace")
            opt.trace = parseNumber(value, "--trace") != 0.0;
        else if (flag == "--trace-out")
            opt.trace_out = value;
        else
            usage(("unknown flag " + flag).c_str());
    }

    Report report;
    if (opt.workload == "prove-table-n16" ||
        opt.workload == "prove-hdg-n16-1t")
        report = runProveWorkload(opt);
    else if (opt.workload == "serve-mixed-n12")
        report = runServeWorkload(opt);
    else
        usage(("unknown workload '" + opt.workload + "'").c_str());
    printReport(report, opt.trace);
    return report.correct && report.failed == 0 ? 0 : 1;
}
