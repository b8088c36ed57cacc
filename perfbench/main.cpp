/**
 * @file
 * Entry point of the layer-by-layer benchmark.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--out-dir DIR] [--tiny] [--inject-mismatch]
 *             [--inject-clear-hits]
 *
 * Workloads: paper_uk, paper_pdom, drain_nocache (sim_workloads.cpp)
 * and serve_sweep (serve_sweep.cpp). The last line of stdout is the
 * JSON result; the lines before it are the human-readable report.
 * Exit 0 when every operation checked out, 1 when one failed, 2 on a
 * usage or set-up error (no result line then).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "harness/experiment.hpp"

extern char **environ;

namespace perfbench {

int
Tracer::begin(const std::string &name, const std::string &op)
{
    if (!enabled_)
        return -1;
    const double t = now();
    spans_.push_back({name, op, current(), t, t});
    open_.push_back(int(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    spans_[size_t(id)].end = now();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

int
Tracer::add(const std::string &name, const std::string &op, int parent,
            Clock::time_point start, Clock::time_point end)
{
    if (!enabled_)
        return -1;
    spans_.push_back({name, op, parent, secondsBetween(origin_, start),
                      secondsBetween(origin_, end)});
    return int(spans_.size()) - 1;
}

std::map<std::string, double>
Tracer::selfTimeByLayer(int root) const
{
    std::vector<std::vector<int>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); i++) {
        if (spans_[i].parent >= 0)
            children[size_t(spans_[i].parent)].push_back(int(i));
    }
    // The root's subtree with depths, and every span boundary in it.
    const Span &top = spans_[size_t(root)];
    std::vector<std::pair<int, int>> subtree;  // (span, depth)
    std::vector<double> cuts;
    std::vector<std::pair<int, int>> stack{{root, 0}};
    while (!stack.empty()) {
        const auto [id, depth] = stack.back();
        stack.pop_back();
        subtree.emplace_back(id, depth);
        const Span &s = spans_[size_t(id)];
        cuts.push_back(std::clamp(s.start, top.start, top.end));
        cuts.push_back(std::clamp(s.end, top.start, top.end));
        for (int k : children[size_t(id)])
            stack.emplace_back(k, depth + 1);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    // Each instant goes to the deepest span open then; concurrent
    // deepest spans of different layers share it evenly.
    std::map<std::string, double> self;
    for (size_t c = 0; c + 1 < cuts.size(); c++) {
        const double mid = 0.5 * (cuts[c] + cuts[c + 1]);
        int deepest = -1;
        std::vector<std::string> layers;
        for (const auto &[id, depth] : subtree) {
            const Span &s = spans_[size_t(id)];
            if (!(s.start <= mid && mid < s.end) || depth < deepest)
                continue;
            if (depth > deepest) {
                deepest = depth;
                layers.clear();
            }
            const std::string layer = s.name.substr(0, s.name.find('.'));
            if (std::find(layers.begin(), layers.end(), layer) == layers.end())
                layers.push_back(layer);
        }
        for (const std::string &layer : layers)
            self[layer] += (cuts[c + 1] - cuts[c]) / double(layers.size());
    }
    return self;
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    for (const Span &s : spans_) {
        char times[96];
        std::snprintf(times, sizeof(times), "\"start\": %.9f, \"end\": %.9f",
                      s.start, s.end);
        out << "{\"name\": \"" << jsonEscape(s.name) << "\", \"op\": \""
            << jsonEscape(s.op) << "\", \"parent\": " << s.parent << ", "
            << times << "}\n";
    }
}

namespace {

std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const Report &report)
{
    for (const Metric &m : report.metrics())
        std::printf("  %-34s %18.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : report.metrics()) {
        os << (first ? "" : ", ") << "\"" << jsonEscape(m.name)
           << "\": {\"value\": " << formatNumber(m.value)
           << ", \"unit\": \"" << jsonEscape(m.unit) << "\"}";
        first = false;
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
}

void
addTraceAccounting(Report &rep, const Tracer &tracer,
                   const std::vector<int> &roots, double untracedWall)
{
    // The fastest traced pass: its layers' self times sum to its wall
    // exactly, so with the overhead they account for the untraced wall.
    const int root = *std::min_element(
        roots.begin(), roots.end(),
        [&](int a, int b) { return tracer.duration(a) < tracer.duration(b); });
    const double tracedWall = tracer.duration(root);

    static const char *const kLayers[] = {"rt", "kernels", "simt", "trace",
                                          "serve"};
    std::map<std::string, double> self = tracer.selfTimeByLayer(root);
    double total = 0;
    for (const char *layer : kLayers) {
        rep.add(std::string("self.") + layer + "_s", self[layer], "s");
        total += self[layer];
        self.erase(layer);
    }
    double bench = 0;   // the benchmark's own glue: pass, point, pair
    for (const auto &[layer, secs] : self)
        bench += secs;
    rep.add("self.bench_s", bench, "s");
    total += bench;
    rep.add("trace.self_sum_s", total, "s");
    rep.add("trace.traced_wall_s", tracedWall, "s");
    rep.add("trace.untraced_wall_s", untracedWall, "s");
    rep.add("trace.overhead_s", tracedWall - untracedWall, "s");
    std::printf("self times of the fastest traced pass sum to %.4f s; "
                "untraced wall %.4f s, tracing overhead %.4f s\n",
                total, untracedWall, tracedWall - untracedWall);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
fastest(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
}

double
tailWithTenBeyond(std::vector<double> values, double *percentile)
{
    if (values.empty()) {
        *percentile = 0.0;
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    const size_t idx = n > 10 ? n - 11 : n - 1;
    *percentile = 100.0 * double(idx + 1) / double(n);
    return values[idx];
}

double
peakRssMb()
{
    rusage self{};
    rusage kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    return double(std::max(self.ru_maxrss, kids.ru_maxrss)) / 1024.0;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace perfbench

namespace {

/**
 * Clear every UKSIM_* override (THREADS, FASTFWD, EPOCHS, BLOCKEXEC,
 * SIMD, CYCLES, DETAIL, RES, SMS, CHAOS, ...) before anything reads
 * one: simd::enabled() latches its answer on the first call, and each
 * override silently changes what the benchmark measures.
 */
std::vector<std::string>
clearSimulatorOverrides()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; e++) {
        if (std::strncmp(*e, "UKSIM_", 6) == 0) {
            const char *eq = std::strchr(*e, '=');
            names.emplace_back(*e, eq ? size_t(eq - *e) : std::strlen(*e));
        }
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
    return names;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper_uk|paper_pdom|drain_nocache|serve_sweep "
                 "[--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR] "
                 "[--tiny] [--inject-mismatch] [--inject-clear-hits]\n",
                 why.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> cleared = clearSimulatorOverrides();

    perfbench::Options opt;
    opt.outDir = ".";
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            opt.workload = value();
        } else if (a == "--seed") {
            const auto v = uksim::harness::parseU64(value());
            if (!v)
                usage("--seed must be a non-negative integer");
            opt.seed = uint32_t(*v);
        } else if (a == "--seconds") {
            char *end = nullptr;
            const char *text = value();
            opt.seconds = std::strtod(text, &end);
            if (end == text || *end || !(opt.seconds > 0.0))
                usage("--seconds must be a positive number");
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            opt.trace = v == "1";
        } else if (a == "--out-dir") {
            opt.outDir = value();
        } else if (a == "--tiny") {
            opt.tiny = true;
        } else if (a == "--inject-mismatch") {
            opt.injectMismatch = true;
        } else if (a == "--inject-clear-hits") {
            opt.injectClearHits = true;
        } else {
            usage("unknown argument " + a);
        }
    }

    std::printf("perfbench: workload %s, seed %u%s, %.3g s budget, "
                "trace %d%s\n",
                opt.workload.c_str(), opt.seed,
                opt.seed == perfbench::kDefaultSeed ? " (default)" : "",
                opt.seconds, int(opt.trace), opt.tiny ? ", tiny scale" : "");
    std::printf("perfbench: cleared overrides:");
    for (const std::string &n : cleared)
        std::printf(" %s", n.c_str());
    std::printf("%s\n", cleared.empty() ? " (none set)" : "");

    try {
        if (opt.workload == "serve_sweep")
            return perfbench::runServeSweep(opt);
        if (opt.workload == "paper_uk" || opt.workload == "paper_pdom" ||
            opt.workload == "drain_nocache") {
            return perfbench::runSimWorkload(opt);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    usage("unknown workload '" + opt.workload + "'");
}
