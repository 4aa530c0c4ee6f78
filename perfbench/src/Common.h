#ifndef BZK_PERFBENCH_COMMON_H_
#define BZK_PERFBENCH_COMMON_H_

/**
 * @file
 * Shared pieces of the real-prover benchmark: the metric catalogue (the
 * same names and units BENCHMARK.json lists), the per-run report and its
 * output, the clock, process resource probes, and the span log that
 * feeds both self-time accounting and the Chrome trace.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/Trace.h"

namespace bzk::perfbench {

/** Workload seed, run length and trace switch from the command line. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome trace JSON path for a traced run ("" writes none). */
    std::string trace_out;
};

/** One metric of the catalogue. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, printed by every untraced run. */
const std::vector<MetricDef> &endToEndMetrics();

/**
 * Per-layer metrics, printed by every traced run. A metric whose layer
 * a workload does not reach reads 0 there.
 */
const std::vector<MetricDef> &perLayerMetrics();

/** What one run measured and whether its outputs were correct. */
struct Report
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, double> values;
    /** Human-readable lines printed ahead of the metric table. */
    std::vector<std::string> notes;

    void set(const std::string &name, double value) { values[name] = value; }

    /** Record an incorrect output; the run then exits non-zero. */
    void fail(const std::string &why);

    /** printf-style note. */
    void note(const char *fmt, ...) __attribute__((format(printf, 2, 3)));
};

/**
 * Print the notes, a name/value/unit table of the catalogue the run
 * reports (per-layer when @p trace, else end-to-end), and last the JSON
 * result line. Fatal if a catalogue metric was not measured.
 */
void printReport(const Report &report, bool trace);

/** Milliseconds since the process's clock origin (steady clock). */
double nowMs();

/** CPU time of the whole process so far, ms. */
double cpuMs();

/** CPU time of the calling thread so far, ms. */
double threadCpuMs();

/** "name: p10 .. p50 .. p90 .. ms (n=..)" for a note line. */
std::string quantileNote(const char *name, const std::vector<double> &v);

/** Peak resident set of the process so far, MiB. */
double peakRssMiB();

/** Median of @p v (0 when empty). */
double median(const std::vector<double> &v);

/**
 * Spans recorded by the benchmark's own code around its calls into each
 * layer, kept in memory and written out at exit as Chrome trace JSON.
 * All spans of one proof or request carry its id (the trace event's
 * "cycle" argument).
 */
class SpanLog
{
  public:
    void add(const std::string &track, const std::string &name,
             const std::string &layer, uint64_t id, double start_ms,
             double end_ms);

    /**
     * Median over ids of each span name's self time (its duration minus
     * its direct children's), by name.
     */
    std::map<std::string, double> medianSelfMs() const;

    /** Write the Chrome trace JSON; false when the file cannot be written. */
    bool write(const std::string &path) const;

    size_t size() const { return recorder_.spans().size(); }

  private:
    obs::TraceRecorder recorder_;
};

/** Note each span's median self time, then write the trace if asked. */
void finishTrace(const SpanLog &spans, const RunOptions &opt, Report &report);

/** prove-table-n16 and prove-hdg-n16-1t (Prove.cpp). */
Report runProveWorkload(const RunOptions &opt);

/** serve-mixed-n12 (Serve.cpp). */
Report runServeWorkload(const RunOptions &opt);

} // namespace bzk::perfbench

#endif // BZK_PERFBENCH_COMMON_H_
