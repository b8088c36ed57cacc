/**
 * @file
 * The serve_sweep workload: one closed-loop client submits the figure
 * sweep (pdom, uk, uk_banked, uk_adaptive, pt on the three scenes) to
 * serve::ServerEngine with two forked workers and a fresh cache
 * directory, then submits the same batch again warm.
 *
 * Each configuration is submitted twice under different labels, the
 * second copies after the first; the seed fixes how each copy is
 * spelled (identical spec, or one that names a default explicitly and
 * so resolves to the same job hash). Job phases are timestamped as the
 * engine's event lines arrive: submit -> job_started is queue wait,
 * job_started -> job_done is compute. Job latency (submit -> job_done)
 * is taken over the computed jobs only: the engine answers in-batch
 * duplicates together once the worker pool is done, so their latency
 * is the batch wall.
 *
 * Checks: no job fails, times out or is rejected; each job's
 * resultSha256 equals its duplicate's and the warm batch's; the warm
 * batch computes nothing; every cached payload hashes to the reported
 * digest.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "harness/experiment.hpp"
#include "harness/serialize.hpp"
#include "rt/scenes.hpp"
#include "serve/engine.hpp"
#include "serve/job.hpp"
#include "serve/sha256.hpp"

namespace perfbench {
namespace {

using namespace uksim;

/** Reduced window: most 64² points are still running when it ends. */
constexpr uint64_t kServeWindowCycles = 30000;
constexpr int kServeRes = 64;
/** Forked workers: two of the four host cores, leaving the parent room. */
constexpr int kWorkers = 2;
/** Fewest cold+warm batch pairs per run (per kind in a traced run). */
constexpr int kMinPairs = 3;

std::vector<serve::JobSpec>
sweepJobs(const Options &o)
{
    const char *kernels[] = {"pdom", "uk", "uk_banked", "uk_adaptive", "pt"};
    const char *scenes[] = {"conference", "fairyforest", "atrium"};
    // The first copies keep figure order, so every seed computes the
    // same jobs in the same order on the workers: a seeded order of the
    // distinct jobs alone moves the two-worker makespan by 20-30%. The
    // second copies follow; the engine answers in-batch duplicates once
    // the pool is done, wherever they sit, so only their spelling (which
    // exercises resolveJobSpec/jobHash canonicalisation) is seeded.
    uint64_t rng = o.seed;
    std::vector<serve::JobSpec> jobs, seconds;
    for (const char *k : kernels) {
        for (const char *s : scenes) {
            serve::JobSpec first;
            first.name = std::string(k) + "_" + s;
            first.cycles = o.tiny ? 2000 : kServeWindowCycles;
            first.res = o.tiny ? 8 : kServeRes;
            serve::JobSpec second = first;
            switch (splitmix64(rng) % 3) {
            case 1: second.sms = GpuConfig{}.numSms; break;
            case 2: second.detail = rt::SceneParams{}.detail; break;
            default: break;
            }
            if (splitmix64(rng) % 2)
                std::swap(first, second);
            first.label = first.name + "/a";
            second.label = first.name + "/b";
            jobs.push_back(first);
            seconds.push_back(second);
        }
    }
    jobs.insert(jobs.end(), seconds.begin(), seconds.end());
    return jobs;
}

/** Value of "key": "..." or "key": N in one single-line event. */
std::string
eventField(const std::string &line, const std::string &key)
{
    const std::string tag = "\"" + key + "\": ";
    size_t at = line.find(tag);
    if (at == std::string::npos)
        return "";
    at += tag.size();
    if (line[at] == '"') {
        const size_t close = line.find('"', at + 1);
        return line.substr(at + 1, close - at - 1);
    }
    const size_t stop = line.find_first_of(",}", at);
    return line.substr(at, stop - at);
}

struct Batch {
    serve::BatchManifest manifest;
    double wall = 0;
    double setup = 0;                   ///< submit -> first job_started
    // Computed jobs only (those with a job_started event).
    std::vector<double> latency;        ///< submit -> job_done
    std::vector<double> queueWait;      ///< submit -> job_started
    std::vector<double> compute;        ///< job_started -> job_done
};

Batch
submit(serve::ServerEngine &engine, const std::vector<serve::JobSpec> &jobs,
       Tracer &tr, const std::string &name)
{
    const size_t n = jobs.size();
    std::vector<std::optional<Clock::time_point>> started(n), done(n);
    std::optional<Clock::time_point> firstStart;
    auto sink = [&](const std::string &line) {
        const Clock::time_point now = Clock::now();
        const std::string ev = eventField(line, "event");
        const std::string job = eventField(line, "job");
        if (job.empty())
            return;
        const size_t i = std::stoul(job);
        if (i >= n)
            return;
        if (ev == "job_started" && !started[i]) {
            started[i] = now;
            if (!firstStart)
                firstStart = now;
        } else if (ev == "job_done") {
            done[i] = now;
        }
    };

    Batch b;
    const int root = tr.begin(name, name);
    const Clock::time_point t0 = Clock::now();
    b.manifest = engine.runBatch(jobs, sink);
    const Clock::time_point t1 = Clock::now();
    b.wall = secondsBetween(t0, t1);
    b.setup = secondsBetween(t0, firstStart.value_or(t1));
    for (size_t i = 0; i < n; i++) {
        if (!started[i] || !done[i])
            continue;
        b.latency.push_back(secondsBetween(t0, *done[i]));
        b.queueWait.push_back(secondsBetween(t0, *started[i]));
        b.compute.push_back(secondsBetween(*started[i], *done[i]));
        tr.add("serve.queue_wait", jobs[i].label, root, t0, *started[i]);
        tr.add("serve.job_compute", jobs[i].label, root, *started[i],
               *done[i]);
    }
    tr.end(root);
    return b;
}

/** Failed operations of one batch: failed, rejected, timed out. */
uint64_t
batchFailures(const serve::BatchManifest &m)
{
    uint64_t bad = 0;
    for (const serve::JobReport &r : m.jobs) {
        if (r.outcome == "error" || r.outcome == "rejected" ||
            r.resultSha256.empty())
            bad++;
    }
    return std::max<uint64_t>(bad, uint64_t(m.failed + m.rejected +
                                            m.timeouts));
}

} // namespace

int
runServeSweep(const Options &o)
{
    namespace fs = std::filesystem;
    const std::vector<serve::JobSpec> jobs = sweepJobs(o);
    std::printf("serve_sweep: %zu jobs (%zu configurations x 2 labels) at "
                "%dx%d, %llu-cycle window, %d forked workers, closed loop "
                "with one client; seed %u spells the duplicates\n",
                jobs.size(), jobs.size() / 2, jobs[0].res, jobs[0].res,
                (unsigned long long)jobs[0].cycles, kWorkers, o.seed);

    printEngine(serve::resolveJobSpec(jobs[0]));

    Tracer tracer(o.trace);
    Tracer off(false);
    struct Pair {
        Batch cold, warm;
        double wall = 0;
        int root = -1;
    };
    std::vector<Pair> plain, traced;
    uint64_t attempted = 0, failed = 0;
    SimStats payloadSum;
    size_t distinct = 0;
    auto fail = [&](uint64_t count, const std::string &why) {
        failed += count;
        std::printf("FAILED %s\n", why.c_str());
    };

    const Clock::time_point loopStart = Clock::now();
    for (int k = 0;; k++) {
        const bool tracedPair = o.trace && k % 2 == 1;
        Tracer &tr = tracedPair ? tracer : off;
        const std::string dir =
            o.outDir + "/serve-cache-" + std::to_string(k);
        fs::remove_all(dir);
        fs::create_directories(dir);

        Pair p;
        const Clock::time_point p0 = Clock::now();
        p.root = tr.begin("pair", "pair" + std::to_string(k));
        {
            serve::EngineOptions eo;
            eo.cacheDir = dir;
            eo.workers = kWorkers;
            serve::ServerEngine engine(eo);
            p.cold = submit(engine, jobs, tr, "serve.batch_cold");
            p.warm = submit(engine, jobs, tr, "serve.batch_warm");
            tr.end(p.root);
            p.wall = secondsBetween(p0, Clock::now());

            // --- Checks (outside the timed region).
            attempted += 2 * jobs.size();
            if (uint64_t bad = batchFailures(p.cold.manifest))
                fail(bad, "cold batch: failed/rejected/timed-out jobs");
            if (uint64_t bad = batchFailures(p.warm.manifest))
                fail(bad, "warm batch: failed/rejected/timed-out jobs");
            if (p.warm.manifest.computed != 0)
                fail(uint64_t(p.warm.manifest.computed),
                     "warm batch computed jobs instead of reading the cache");
            std::map<std::string, std::string> shaByHash;
            for (const serve::JobReport &r : p.cold.manifest.jobs) {
                auto [it, fresh] = shaByHash.emplace(r.hash, r.resultSha256);
                if (!fresh && it->second != r.resultSha256)
                    fail(1, "duplicate " + r.spec.label + " differs");
            }
            for (size_t i = 0; i < jobs.size(); i++) {
                const serve::JobReport &c = p.cold.manifest.jobs[i];
                const serve::JobReport &w = p.warm.manifest.jobs[i];
                if (c.resultSha256 != w.resultSha256)
                    fail(1, "warm " + w.spec.label + " differs from cold");
            }
            if (k == 0) {
                distinct = shaByHash.size();
                for (const auto &[hash, sha] : shaByHash) {
                    const auto payload = engine.cache().load(hash);
                    if (!payload || serve::sha256Hex(*payload) != sha) {
                        fail(1, "cache entry " + hash + " does not match");
                        continue;
                    }
                    payloadSum += harness::deserializeResult(*payload).stats;
                }
            }
        }
        fs::remove_all(dir);
        (tracedPair ? traced : plain).push_back(std::move(p));
        const bool enough = int(plain.size()) >= kMinPairs &&
                            (!o.trace || int(traced.size()) >= kMinPairs);
        if (enough && secondsBetween(loopStart, Clock::now()) >= o.seconds)
            break;
    }

    // Host times: the fastest pair (see fastest()). Job latencies pool
    // the computed jobs of the kMinPairs fastest cold batches, a fixed
    // sample count, so the tail is the same percentile in every run.
    auto fast = [](const std::vector<Pair> &ps, auto field) {
        std::vector<double> v;
        for (const Pair &p : ps)
            v.push_back(field(p));
        return fastest(v);
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double coldWall =
        fast(plain, [](const Pair &p) { return p.cold.wall; });
    const double wall = fast(plain, [](const Pair &p) { return p.wall; });
    std::vector<const Pair *> byCold;
    for (const Pair &p : plain)
        byCold.push_back(&p);
    std::sort(byCold.begin(), byCold.end(), [](const Pair *a, const Pair *b) {
        return a->cold.wall < b->cold.wall;
    });
    std::vector<double> latency;
    for (size_t b = 0; b < size_t(kMinPairs); b++)
        latency.insert(latency.end(), byCold[b]->cold.latency.begin(),
                       byCold[b]->cold.latency.end());
    double pct = 0;
    const double tail = tailWithTenBeyond(latency, &pct);
    std::printf("%zu untraced + %zu traced cold/warm pairs; %llu of %llu jobs "
                "failed (failed_frac %.6g)\n",
                plain.size(), traced.size(), (unsigned long long)failed,
                (unsigned long long)attempted,
                ratio(double(failed), double(attempted)));
    std::printf("job latency = submit -> job_done of the computed jobs (the "
                "engine answers in-batch duplicates at the batch's end); p50 "
                "and tail p%.1f over %zu samples from the %d fastest cold "
                "batches\n",
                pct, latency.size(), kMinPairs);
    std::printf("The timing model is unvalidated against hardware: the scenes "
                "are procedural stand-ins for the paper's meshes, so no error "
                "figure is given.\n");

    std::printf("untraced cold-batch walls (s):");
    for (const Pair &p : plain)
        std::printf(" %.4f", p.cold.wall);
    std::printf("\n");

    Report rep;
    if (!o.trace) {
        rep.add("wall_s", wall, "s");
        rep.add("setup_s",
                fast(plain, [](const Pair &p) { return p.cold.setup; }), "s");
        rep.add("warp_insts_per_s",
                ratio(double(payloadSum.warpIssues), coldWall), "1/s");
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        addModelledEndToEnd(rep, payloadSum);
        rep.add("jobs_per_s", ratio(double(distinct), coldWall), "1/s");
        rep.add("job_latency_p50_s", median(latency), "s");
        rep.add("job_latency_tail_s", tail, "s");
        printResult(failed == 0, attempted, failed, rep);
        return failed == 0 ? 0 : 1;
    }

    // --- Traced run: the per-layer calls the engine makes internally,
    // timed once here from outside (not on the batch's blocking path).
    double sceneS = 0, kdS = 0, programS = 0, hashS = 0;
    size_t triangles = 0, kdNodes = 0;
    std::set<std::string> scenesSeen, hashesSeen;
    for (const serve::JobSpec &spec : jobs) {
        harness::ExperimentConfig cfg;
        std::string hash;
        {
            Scope s(tracer, "serve.hash", spec.label, &hashS);
            cfg = serve::resolveJobSpec(spec);
            hash = serve::jobHash(cfg);
        }
        if (hashesSeen.insert(hash).second) {
            Scope s(tracer, "kernels.program_build", spec.label, &programS);
            harness::kernelProgram(cfg.kernel);
        }
        if (scenesSeen.insert(cfg.sceneName).second) {
            rt::Scene scene;
            {
                Scope s(tracer, "rt.scene_build", cfg.sceneName, &sceneS);
                scene = rt::makeSceneByName(cfg.sceneName, cfg.sceneParams);
            }
            Scope s(tracer, "rt.kd_build", cfg.sceneName, &kdS);
            const rt::KdTree tree =
                rt::KdTree::build(scene.triangles, harness::sceneBuildParams());
            triangles += scene.triangles.size();
            kdNodes += tree.nodes().size();
        }
    }

    rep.add("rt.scene_build_s", sceneS, "s");
    rep.add("rt.kd_build_s", kdS, "s");
    rep.add("rt.triangles", double(triangles), "count");
    rep.add("rt.kd_nodes", double(kdNodes), "count");
    rep.add("kernels.program_build_s", programS, "s");
    // These run inside the forked workers, out of the parent's sight.
    rep.add("kernels.upload_s", 0.0, "s");
    rep.add("kernels.download_s", 0.0, "s");
    rep.add("simt.load_program_s", 0.0, "s");
    rep.add("simt.run_s", 0.0, "s");
    rep.add("simt.ns_per_warp_inst", 0.0, "ns");
    rep.add("simt.epoch.epochs", 0.0, "count");
    rep.add("simt.epoch.mean_cycles", 0.0, "cycles");
    rep.add("simt.epoch.rounds_per_epoch", 0.0, "ratio");
    rep.add("simt.epoch.advance_s", 0.0, "s");
    rep.add("simt.epoch.merge_s", 0.0, "s");
    rep.add("simt.ff.skipped_frac", 0.0, "ratio");
    rep.add("simt.blockexec.fused_frac", 0.0, "ratio");
    rep.add("trace.registry_export_s", 0.0, "s");
    addModelledCounters(rep, payloadSum);
    rep.add("serve.hash_s", hashS, "s");
    rep.add("serve.queue_wait_s",
            fast(traced,
                 [](const Pair &p) { return median(p.cold.queueWait); }),
            "s");
    rep.add("serve.job_compute_s",
            fast(traced, [](const Pair &p) { return median(p.cold.compute); }),
            "s");
    const Pair &quickest = *std::min_element(
        traced.begin(), traced.end(), [](const Pair &a, const Pair &b) {
            return a.cold.wall < b.cold.wall;
        });
    rep.add("serve.workers_busy_frac",
            ratio(std::accumulate(quickest.cold.compute.begin(),
                                  quickest.cold.compute.end(), 0.0),
                  kWorkers * quickest.cold.wall),
            "ratio");
    rep.add("serve.computed", double(traced[0].cold.manifest.computed),
            "count");
    rep.add("serve.cache_hits",
            double(traced[0].cold.manifest.cacheHits +
                   traced[0].warm.manifest.cacheHits),
            "count");
    rep.add("serve.warm_batch_s",
            fast(traced, [](const Pair &p) { return p.warm.wall; }), "s");
    std::vector<int> roots;
    for (const Pair &p : traced)
        roots.push_back(p.root);
    addTraceAccounting(rep, tracer, roots, wall);
    tracer.write(o.outDir + "/spans-" + o.workload + ".jsonl");
    printResult(failed == 0, attempted, failed, rep);
    return failed == 0 ? 0 : 1;
}

} // namespace perfbench
