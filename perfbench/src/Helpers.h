#ifndef BZK_PERFBENCH_HELPERS_H_
#define BZK_PERFBENCH_HELPERS_H_

/**
 * @file
 * Pure helpers of the real-prover benchmark: the percentile rule, the
 * seeded open-loop arrival schedule, the metric-name charset, and span
 * self time. Nothing here touches the prover, so perfbench_tests covers
 * it without building a proof.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/Rng.h"

namespace bzk::perfbench {

/** Samples a reported tail percentile must have beyond it. */
inline constexpr size_t kTailSamples = 10;

/**
 * The quantile the bounded timings report. On a shared host other
 * tenants slow the cores' execution itself, in bursts lasting seconds
 * and phases lasting minutes; the thread keeps its CPU, so CPU time
 * slows as much as wall time. Contention only adds time, so the fast end
 * of a run's samples stays closest to what the code costs. Medians and
 * p90s are printed as notes.
 */
inline constexpr double kLowQuantile = 0.1;

/**
 * Offered load of serve-mixed-n12's open loop, requests per second:
 * about 40% of the two workers' capacity on a 4-vCPU AVX-512 host (about
 * 50 verified proofs/s), so queues form without growing while other
 * tenants slow the host's cores.
 */
inline constexpr double kRatePerS = 20.0;

/**
 * Quantile @p q in [0, 1] of @p v by linear interpolation between order
 * statistics (numpy's default). 0 for an empty sample.
 */
inline double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** Samples of @p n that lie strictly beyond quantile @p q. */
inline size_t
samplesBeyond(size_t n, double q)
{
    // Round before flooring: 100 * (1 - 0.9) is 9.999... in binary.
    return static_cast<size_t>(
        std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9));
}

/** True when quantile @p q of @p n samples has kTailSamples beyond it. */
inline bool
tailSupported(size_t n, double q)
{
    return samplesBeyond(n, q) >= kTailSamples;
}

/** One scheduled request of the open loop. */
struct Arrival
{
    /** Due time, ms after the schedule's origin. */
    double due_ms = 0.0;
    /** True for a high-degree-gate proof, false for table-commit. */
    bool high_degree = false;
};

/**
 * Seeded open-loop schedule: round(rate * seconds) arrivals over
 * [0, seconds), kinds split exactly half and half in a seeded order.
 *
 * Conditioned on its count, a Poisson process's arrival times are
 * independent and uniform over the window, so sorting that many uniform
 * draws is a Poisson schedule whose count is pinned. Pinning the count
 * and the kind split keeps throughput and per-kind medians comparable
 * across seeds; the gaps between arrivals stay exponential.
 */
inline std::vector<Arrival>
poissonSchedule(uint64_t seed, double rate_per_s, double seconds)
{
    size_t n = static_cast<size_t>(std::llround(rate_per_s * seconds));
    Rng rng(seed ^ 0x5bd1e9955bd1e995ULL);
    std::vector<Arrival> out(n);
    for (auto &a : out)
        a.due_ms = rng.nextDouble() * seconds * 1e3;
    std::sort(out.begin(), out.end(),
              [](const Arrival &l, const Arrival &r) {
                  return l.due_ms < r.due_ms;
              });
    // Fisher-Yates over exactly n/2 high-degree slots.
    for (size_t i = 0; i < n / 2; ++i)
        out[i].high_degree = true;
    for (size_t i = n; i > 1; --i)
        std::swap(out[i - 1].high_degree,
                  out[rng.nextBounded(i)].high_degree);
    return out;
}

/**
 * A metric name: starts with a letter or digit, at most 64 characters
 * from letters, digits, '_', '.' and '-'.
 */
inline bool
validMetricName(std::string_view name)
{
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (name.empty() || name.size() > 64 || !alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

/** A unit: 1..16 characters from letters, digits, '_', '/', '%', '.', '-'. */
inline bool
validUnit(std::string_view unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '_' || c == '/' ||
               c == '%' || c == '.' || c == '-';
    });
}

/** An interval for self-time accounting. */
struct Interval
{
    double start_ms = 0.0;
    double end_ms = 0.0;
};

/**
 * Self time of each interval of one id's spans: its duration minus the
 * durations of its direct children. Spans nest (a child lies inside its
 * parent) and siblings do not overlap; a span starting exactly where an
 * earlier one ends is its sibling, not its child. Results are in input
 * order.
 */
inline std::vector<double>
selfTimes(const std::vector<Interval> &spans)
{
    std::vector<size_t> order(spans.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    // Parents first: earlier start, then longer span.
    std::sort(order.begin(), order.end(), [&](size_t l, size_t r) {
        if (spans[l].start_ms != spans[r].start_ms)
            return spans[l].start_ms < spans[r].start_ms;
        return spans[l].end_ms > spans[r].end_ms;
    });
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end_ms - spans[i].start_ms;
    std::vector<size_t> open;
    for (size_t idx : order) {
        const Interval &s = spans[idx];
        // Close every open span that cannot contain this one.
        while (!open.empty() && (spans[open.back()].end_ms <= s.start_ms ||
                                 spans[open.back()].end_ms < s.end_ms))
            open.pop_back();
        if (!open.empty())
            self[open.back()] -= s.end_ms - s.start_ms;
        open.push_back(idx);
    }
    return self;
}

} // namespace bzk::perfbench

#endif // BZK_PERFBENCH_HELPERS_H_
