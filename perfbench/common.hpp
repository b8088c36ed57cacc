/**
 * @file
 * Shared pieces of the layer-by-layer benchmark: options, the span
 * tracer, the metric report and the result line.
 *
 * Every layer is measured from outside: the benchmark times its own
 * calls into the public functions of rt, kernels, simt, harness, trace
 * and serve, and reads the counters those layers already expose. No
 * simulator source is instrumented.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "simt/stats.hpp"

namespace uksim::harness {
struct ExperimentConfig;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** rt::SceneParams' default seed, so the default run renders the
 *  scenes EXPERIMENTS.md reports. */
constexpr uint32_t kDefaultSeed = 0x5eedu;

/** Modelled shader clock (Table I), for Mrays/s. */
constexpr double kClockGhz = 1.30;

struct Options {
    std::string workload;
    uint32_t seed = kDefaultSeed;
    double seconds = 10.0;      ///< measurement budget of the timed loop
    bool trace = false;         ///< traced run: report per-layer metrics
    bool tiny = false;          ///< self-test scale (seconds-long runs)
    bool injectMismatch = false;///< self-test: corrupt one hit record
    bool injectClearHits = false;///< self-test: first point stores no hits
    std::string outDir;         ///< span dumps and serve cache roots
};

/** One recorded span. Times are seconds since the tracer started. */
struct Span {
    std::string name;           ///< "<layer>.<what>", e.g. "simt.run"
    std::string op;             ///< point or job the span belongs to
    int parent = -1;            ///< index of the enclosing span
    double start = 0.0;
    double end = 0.0;
};

/**
 * In-memory span recorder. Spans nest by call order (begin/end) or are
 * added with explicit times and parent (serve job phases, which are
 * timestamped from the event stream). Disabled tracers record nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    double now() const { return secondsBetween(origin_, Clock::now()); }

    /** Open a span under the innermost open one; -1 when disabled. */
    int begin(const std::string &name, const std::string &op);
    void end(int id);
    /** Add a closed span with explicit times; returns its index. */
    int add(const std::string &name, const std::string &op, int parent,
            Clock::time_point start, Clock::time_point end);
    /**
     * Self time per layer (span name up to the first dot) over the
     * subtree of @p root: each instant of the root's interval goes to
     * the deepest span open at that instant, so for nested calls a
     * span's self time is its duration minus what its children cover.
     * Concurrent deepest spans (serve jobs on parallel workers) share
     * the instant, so the layers sum to the root's duration.
     */
    std::map<std::string, double> selfTimeByLayer(int root) const;

    double duration(int id) const
    {
        return spans_[size_t(id)].end - spans_[size_t(id)].start;
    }

    /** Write every span as JSON lines to @p path (best effort). */
    void write(const std::string &path) const;

  private:
    /** Index of the innermost open span (-1 at top level). */
    int current() const { return open_.empty() ? -1 : open_.back(); }

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/**
 * RAII timer around one call into a layer: always adds the elapsed
 * seconds to @p total (untraced runs need the timings too) and, when
 * the tracer is on, records a span.
 */
class Scope
{
  public:
    Scope(Tracer &tracer, const std::string &name, const std::string &op,
          double *total)
        : tracer_(tracer), total_(total), start_(Clock::now()),
          id_(tracer.begin(name, op))
    {
    }
    ~Scope()
    {
        if (total_)
            *total_ += secondsBetween(start_, Clock::now());
        tracer_.end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    double *total_;
    Clock::time_point start_;
    int id_;
};

/** One named metric as printed in the result line. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Metrics in the order they are printed. */
class Report
{
  public:
    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics_.push_back({name, value, unit});
    }
    const std::vector<Metric> &metrics() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

/**
 * Print the human-readable metric table, then, as the last line of
 * stdout, {"correct", "attempted", "failed", "metrics"}.
 */
void printResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Report &report);

/** Seeded generator for the workloads' orders and patterns. */
inline uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double median(std::vector<double> values);

/**
 * The smallest of @p values (0 when empty): the estimator for host
 * times. Noise from other tenants of a shared host only adds time, in
 * bursts of seconds, so the fastest repetition is the steadiest.
 */
double fastest(const std::vector<double> &values);

/**
 * The highest percentile with at least ten samples beyond it, over
 * @p values: the (n-10)-th smallest value. Sets @p percentile to its
 * rank in percent. Falls back to the maximum when n <= 10.
 */
double tailWithTenBeyond(std::vector<double> values, double *percentile);

/** Peak resident set of this process and of its waited-for children,
 *  in MB: the larger of the two. */
double peakRssMb();

/** JSON-escape @p s (quotes, backslashes, control characters). */
std::string jsonEscape(const std::string &s);

/** Print the engine @p config resolves to once the overrides are
 *  cleared: host threads, speed layers, SIMD, host cores (JSON line). */
void printEngine(const uksim::harness::ExperimentConfig &config);

/** sim_ipc, sim_mrays_per_s and simt_efficiency of a workload's sum. */
void addModelledEndToEnd(Report &rep, const uksim::SimStats &sum);
/** The modelled machine's own counters (simt issues and stalls, mem,
 *  spawn), summed over a workload's points or jobs. */
void addModelledCounters(Report &rep, const uksim::SimStats &sum);

/**
 * The traced run's accounting over the fastest traced pass among
 * @p roots: self.<layer>_s per layer, their sum (that pass's wall), and
 * the tracing overhead against @p untracedWall, the fastest untraced
 * pass wall.
 */
void addTraceAccounting(Report &rep, const Tracer &tracer,
                        const std::vector<int> &roots, double untracedWall);

int runSimWorkload(const Options &options);
int runServeSweep(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
