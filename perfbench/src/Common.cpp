#include "Common.h"

#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>

#include <sys/resource.h>
#include <time.h>

#include "Helpers.h"
#include "util/Log.h"

namespace bzk::perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"prove_ms_p10", "ms"},
        {"verify_ms_p10", "ms"},
        {"e2e_ms_p10", "ms"},
        {"cpu_ms_per_proof_p10", "ms"},
        {"proof_bytes", "B"},
        {"peak_rss_mb", "MiB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"core.commit_ms", "ms"},
        {"core.fiat_shamir_ms", "ms"},
        {"core.sumcheck_ms", "ms"},
        {"core.open_ms", "ms"},
        {"core.commit_share", "ratio"},
        {"core.sumcheck_share", "ratio"},
        {"core.open_share", "ratio"},
        {"encoder.wall_ms", "ms"},
        {"encoder.busy_ms", "ms"},
        {"merkle.wall_ms", "ms"},
        {"merkle.busy_ms", "ms"},
        {"ff.wide_mul_lanes_calls", "count"},
        {"ff.wide_fold_lanes_calls", "count"},
        {"ff.wide_sum_lanes_calls", "count"},
        {"ff.wide_dot_lanes_calls", "count"},
        {"ff.wide_axpy_lanes_calls", "count"},
        {"ff.wide_batch_inverse_calls", "count"},
        {"exec.parallel_efficiency", "ratio"},
        {"exec.parallel_for_calls", "count"},
        {"serialize.encode_ms", "ms"},
        {"serialize.decode_ms", "ms"},
        {"verify.ms", "ms"},
        {"net.queue_wait_ms_p50", "ms"},
        {"net.queue_wait_ms_p90", "ms"},
        {"net.execute_ms_p50", "ms"},
        {"net.execute_ms_p90", "ms"},
        {"net.return_ms_p50", "ms"},
        {"net.client_verify_ms_p50", "ms"},
        {"net.worker_busy_frac", "ratio"},
        {"net.peak_queue_depth", "count"},
        {"net.bytes_tx_per_proof", "B"},
        {"net.sheds", "count"},
        {"net.retries", "count"},
        {"net.invalid", "count"},
        {"net.protocol_errors", "count"},
        {"loadgen.late_ms_p90", "ms"},
        {"loadgen.late_ms_max", "ms"},
        {"loadgen.sent", "count"},
        {"trace.overhead_ms", "ms"},
    };
    return defs;
}

void
Report::fail(const std::string &why)
{
    correct = false;
    notes.push_back("FAIL: " + why);
}

void
Report::note(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    notes.emplace_back(buf);
}

void
printReport(const Report &report, bool trace)
{
    const auto &defs = trace ? perLayerMetrics() : endToEndMetrics();
    for (const auto &line : report.notes)
        std::printf("# %s\n", line.c_str());
    std::string json = "{\"correct\": ";
    json += report.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &def : defs) {
        if (!validMetricName(def.name) || !validUnit(def.unit))
            panic("perfbench: metric '%s' [%s] breaks the name charset",
                  def.name, def.unit);
        auto it = report.values.find(def.name);
        if (it == report.values.end())
            panic("perfbench: metric '%s' was not measured", def.name);
        double v = std::isfinite(it->second) ? it->second : 0.0;
        std::printf("%-30s %16.6f %s\n", def.name, v, def.unit);
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", v);
        json += first ? "" : ", ";
        json += "\"" + std::string(def.name) + "\": {\"value\": " + num +
                ", \"unit\": \"" + def.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

double
nowMs()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

namespace {

double
clockMs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

} // namespace

double
cpuMs()
{
    return clockMs(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuMs()
{
    return clockMs(CLOCK_THREAD_CPUTIME_ID);
}

std::string
quantileNote(const char *name, const std::vector<double> &v)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s: p10 %.3f p50 %.3f p90 %.3f ms (n=%zu%s)", name,
                  percentile(v, 0.1), percentile(v, 0.5),
                  percentile(v, 0.9), v.size(),
                  tailSupported(v.size(), 0.9)
                      ? ""
                      : ", p90 below the ten-sample tail rule");
    return buf;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

void
SpanLog::add(const std::string &track, const std::string &name,
             const std::string &layer, uint64_t id, double start_ms,
             double end_ms)
{
    recorder_.span(track, name, layer, start_ms, end_ms,
                   static_cast<int64_t>(id));
}

std::map<std::string, double>
SpanLog::medianSelfMs() const
{
    std::map<int64_t, std::vector<const obs::TraceSpan *>> by_id;
    for (const auto &s : recorder_.spans())
        by_id[s.cycle].push_back(&s);
    std::map<std::string, std::vector<double>> by_name;
    for (const auto &[id, spans] : by_id) {
        std::vector<Interval> intervals;
        for (const auto *s : spans)
            intervals.push_back({s->start_ms, s->end_ms});
        std::vector<double> self = selfTimes(intervals);
        for (size_t i = 0; i < spans.size(); ++i)
            by_name[spans[i]->name].push_back(self[i]);
    }
    std::map<std::string, double> out;
    for (const auto &[name, v] : by_name)
        out[name] = median(v);
    return out;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << recorder_.chromeTraceJson();
    return static_cast<bool>(f);
}

void
finishTrace(const SpanLog &spans, const RunOptions &opt, Report &report)
{
    for (const auto &[name, ms] : spans.medianSelfMs())
        report.note("self time  %-16s %10.3f ms (median per id)",
                    name.c_str(), ms);
    if (opt.trace_out.empty())
        return;
    if (!spans.write(opt.trace_out))
        fatal("perfbench: cannot write trace '%s'", opt.trace_out.c_str());
    report.note("chrome trace: %zu spans -> %s", spans.size(),
                opt.trace_out.c_str());
}

} // namespace bzk::perfbench
