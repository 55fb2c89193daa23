/**
 * @file
 * Shared helpers for the figure/table benchmark binaries.
 *
 * Each binary regenerates one table or figure of the paper and
 * prints its rows. Environment variables scale the runs:
 *   HH_REQUESTS  arrival budget per Primary VM   (default 800)
 *   HH_SERVERS   servers in cluster experiments  (default 2)
 *   HH_SAMPLING  memory-access sampling factor   (default 6)
 *   HH_SEED      experiment seed                 (default 1)
 */

#ifndef HH_BENCH_UTIL_H
#define HH_BENCH_UTIL_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "cluster/checkpoint.h"
#include "cluster/experiment.h"
#include "cluster/parallel.h"
#include "cluster/system_config.h"
#include "sim/event_queue.h"
#include "sim/log.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "stats/sampler.h"
#include "trace/chrome_trace.h"

namespace hh::bench {

/** Read an environment variable as unsigned with a default. */
inline unsigned
envUnsigned(const char *name, unsigned def)
{
    const char *v = std::getenv(name);
    if (!v)
        return def;
    const long parsed = std::strtol(v, nullptr, 10);
    return parsed > 0 ? static_cast<unsigned>(parsed) : def;
}

/** Read an environment variable as double with a default. */
inline double
envDouble(const char *name, double def)
{
    const char *v = std::getenv(name);
    if (!v)
        return def;
    const double parsed = std::strtod(v, nullptr);
    return parsed > 0 ? parsed : def;
}

/**
 * Scale knobs shared by all benches. The environment always wins;
 * the constructor arguments only shift the defaults for benches that
 * want a different baseline (e.g. bench_speed runs all 8 servers), so
 * no binary parses HH_* on its own.
 */
struct BenchScale
{
    unsigned requests;
    unsigned servers;
    unsigned sampling;
    std::uint64_t seed;

    explicit BenchScale(unsigned def_servers = 2,
                        unsigned def_requests = 400,
                        unsigned def_sampling = 8)
        : requests(envUnsigned("HH_REQUESTS", def_requests)),
          servers(envUnsigned("HH_SERVERS", def_servers)),
          sampling(envUnsigned("HH_SAMPLING", def_sampling)),
          seed(envUnsigned("HH_SEED", 1))
    {
    }
};

/** Apply the scale knobs to a system configuration. */
inline void
applyScale(hh::cluster::SystemConfig &cfg, const BenchScale &s)
{
    cfg.requestsPerVm = s.requests;
    cfg.accessSampling = s.sampling;
    cfg.seed = s.seed;
}

/**
 * Observability command-line options accepted by every figure bench:
 *
 *   --trace <out.json>   Enable request-span/transition tracing and
 *                        write a Chrome trace_event JSON file
 *                        (loadable in chrome://tracing or Perfetto).
 *   --metrics <out.csv>  Enable periodic metric sampling and write
 *                        the time series as CSV.
 *   --checkpoint-every <ms>
 *                        Periodically checkpoint cluster runs every
 *                        <ms> simulated milliseconds (see
 *                        docs/SNAPSHOT.md); a killed run resumes from
 *                        the last checkpoint on the next invocation.
 *   --checkpoint-file <path>
 *                        Where the checkpoint lives (default
 *                        checkpoint.hhcp).
 */
struct ObsOptions
{
    std::string tracePath;
    std::string metricsPath;
    double checkpointEveryMs = 0;
    std::string checkpointPath = "checkpoint.hhcp";

    bool traceEnabled() const { return !tracePath.empty(); }
    bool metricsEnabled() const { return !metricsPath.empty(); }
    bool checkpointEnabled() const { return checkpointEveryMs > 0; }
};

/**
 * Parse --trace/--metrics/--checkpoint-every/--checkpoint-file;
 * fatal on unknown arguments.
 */
inline ObsOptions
parseObsArgs(int argc, char **argv)
{
    ObsOptions o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--trace" && i + 1 < argc) {
            o.tracePath = argv[++i];
        } else if (a == "--metrics" && i + 1 < argc) {
            o.metricsPath = argv[++i];
        } else if (a == "--checkpoint-every" && i + 1 < argc) {
            o.checkpointEveryMs = std::strtod(argv[++i], nullptr);
        } else if (a == "--checkpoint-file" && i + 1 < argc) {
            o.checkpointPath = argv[++i];
        } else {
            hh::sim::fatal("usage: ", argv[0],
                           " [--trace out.json] [--metrics out.csv]"
                           " [--checkpoint-every ms]"
                           " [--checkpoint-file path]");
        }
    }
    return o;
}

/**
 * Cluster run honoring the checkpoint options: with
 * --checkpoint-every, resume from an existing checkpoint file if one
 * matches this run's configuration, otherwise run from t=0 while
 * checkpointing periodically. Results are byte-identical to a plain
 * runCluster either way (the snapshot determinism contract).
 */
inline hh::cluster::ClusterResults
runClusterResumable(const hh::cluster::SystemConfig &cfg,
                    unsigned servers, std::uint64_t seed,
                    unsigned workers, const ObsOptions &o)
{
    if (!o.checkpointEnabled())
        return hh::cluster::runCluster(cfg, servers, seed, workers);
    // A missing checkpoint file is the normal first run, not an
    // error; only an existing-but-unusable file deserves a warning.
    bool exists = false;
    if (std::FILE *probe = std::fopen(o.checkpointPath.c_str(), "rb")) {
        std::fclose(probe);
        exists = true;
    }
    if (exists) {
        std::string err;
        if (auto resumed = hh::cluster::resumeCluster(
                o.checkpointPath, cfg, workers, &err)) {
            std::printf("resumed from %s\n", o.checkpointPath.c_str());
            return *std::move(resumed);
        }
        hh::sim::warn("cannot resume ", o.checkpointPath, ": ", err,
                      "; running from t=0");
    }
    const auto every =
        hh::sim::msToCycles(std::max(o.checkpointEveryMs, 0.001));
    hh::cluster::CheckpointedRun run =
        hh::cluster::runClusterCheckpointed(cfg, servers, seed,
                                            workers, every,
                                            o.checkpointPath);
    std::printf("checkpointed %u times to %s\n",
                run.checkpointsWritten, o.checkpointPath.c_str());
    if (run.preViolationDumped)
        std::printf("pre-violation state dumped to %s\n",
                    run.preViolationPath.c_str());
    return std::move(run.results);
}

/** Turn on the corresponding SystemConfig observability knobs. */
inline void
applyObs(hh::cluster::SystemConfig &cfg, const ObsOptions &o)
{
    cfg.traceEnabled = cfg.traceEnabled || o.traceEnabled();
    cfg.metricsEnabled = cfg.metricsEnabled || o.metricsEnabled();
}

/**
 * Accumulates trace buffers and metric series across the runs of one
 * bench and writes the requested output files at the end.
 */
struct ObsSink
{
    ObsOptions opts;
    std::vector<hh::trace::ServerTrace> traces;
    std::vector<hh::stats::SampledSeries> series;

    explicit ObsSink(ObsOptions o) : opts(std::move(o)) {}

    /** Take one server run's observability data (moves it out). */
    void
    collect(hh::cluster::ServerResults &res, const std::string &label)
    {
        if (opts.traceEnabled()) {
            hh::trace::ServerTrace t;
            t.pid = static_cast<unsigned>(traces.size());
            t.events = std::move(res.traceEvents);
            t.dropped = res.traceDropped;
            traces.push_back(std::move(t));
        }
        if (opts.metricsEnabled()) {
            res.metricSeries.label = label;
            series.push_back(std::move(res.metricSeries));
        }
    }

    /** Take a whole cluster run's observability data. */
    void
    collect(hh::cluster::ClusterResults &res)
    {
        for (auto &t : res.traces) {
            t.pid = static_cast<unsigned>(traces.size());
            traces.push_back(std::move(t));
        }
        for (auto &s : res.metricSeries)
            series.push_back(std::move(s));
        res.traces.clear();
        res.metricSeries.clear();
    }

    /** Write the requested files; nonzero on I/O failure. */
    int
    finish() const
    {
        int rc = 0;
        if (opts.traceEnabled()) {
            if (hh::trace::writeChromeTrace(opts.tracePath, traces)) {
                std::printf("trace: %s (%zu tracks)\n",
                            opts.tracePath.c_str(), traces.size());
            } else {
                hh::sim::warn("cannot write ", opts.tracePath);
                rc = 1;
            }
        }
        if (opts.metricsEnabled()) {
            if (hh::stats::writeMetricsCsv(opts.metricsPath, series)) {
                std::printf("metrics: %s (%zu series)\n",
                            opts.metricsPath.c_str(), series.size());
            } else {
                hh::sim::warn("cannot write ", opts.metricsPath);
                rc = 1;
            }
        }
        return rc;
    }
};

/**
 * Shared `main()` skeleton of the figure binaries: env-driven scale
 * (HH_REQUESTS / HH_SERVERS / HH_SAMPLING / HH_SEED), observability
 * argument parsing, and end-of-run trace/metrics file emission.
 * @p body receives the parsed scale, options, and sink and runs the
 * figure; the process exit code reports sink I/O failures.
 */
template <class Body>
inline int
figureMain(int argc, char **argv, Body &&body)
{
    BenchScale scale;
    const ObsOptions obs = parseObsArgs(argc, argv);
    ObsSink sink(obs);
    body(scale, obs, sink);
    return sink.finish();
}

/**
 * Run one server simulation per sweep point, in parallel (one
 * thread-pool task per point; workers from HH_THREADS or hardware
 * concurrency). Results come back in sweep order and are identical
 * to running the points sequentially.
 */
inline std::vector<hh::cluster::ServerResults>
runServerSweep(const std::vector<hh::cluster::SystemConfig> &cfgs,
               const std::string &batchApp, std::uint64_t seed)
{
    return hh::cluster::runParallel<hh::cluster::ServerResults>(
        cfgs.size(), [&cfgs, &batchApp, seed](std::size_t i) {
            const hh::sim::LogTagScope tag("sweep" +
                                           std::to_string(i));
            return hh::cluster::runServer(cfgs[i], batchApp, seed);
        });
}

/** Print a standard header naming the experiment. */
inline void
printHeader(const char *figure, const char *title)
{
    std::printf("================================================"
                "====\n");
    std::printf("%s: %s\n", figure, title);
    std::printf("================================================"
                "====\n");
}

/**
 * Print a per-service metric table: one row per service plus the
 * average, one column per labelled series.
 */
inline void
printServiceTable(
    const std::vector<std::string> &series,
    const std::vector<std::vector<hh::cluster::ServiceResult>> &runs,
    const char *metric, double (*get)(const hh::cluster::ServiceResult &))
{
    std::printf("%-10s", metric);
    for (const auto &name : series)
        std::printf(" %18s", name.c_str());
    std::printf("\n");
    if (runs.empty() || runs[0].empty())
        return;
    const std::size_t n_services = runs[0].size();
    std::vector<double> avg(series.size(), 0.0);
    for (std::size_t i = 0; i < n_services; ++i) {
        std::printf("%-10s", runs[0][i].name.c_str());
        for (std::size_t s = 0; s < runs.size(); ++s) {
            const double v = get(runs[s][i]);
            avg[s] += v;
            std::printf(" %18.3f", v);
        }
        std::printf("\n");
    }
    std::printf("%-10s", "Average");
    for (std::size_t s = 0; s < runs.size(); ++s) {
        std::printf(" %18.3f",
                    avg[s] / static_cast<double>(n_services));
    }
    std::printf("\n");
}

/**
 * One round of a parameterized schedule/cancel/pop mix: keep a
 * window of pending events; each round schedules one @p horizon
 * cycles ahead at most, cancels a superseded timer with probability
 * @p cancelProb, and pops one.
 *
 * The three workload presets the event-queue benchmarks use:
 *  - near-future-heavy: horizon 50, cancel 0.25 (the server mix —
 *    most timers land in the wheel's level-0 window);
 *  - far-future-heavy: horizon 1<<20, cancel 0.25 (events spread
 *    across coarse wheel levels and the far heap, maximizing
 *    cascade work);
 *  - cancel-heavy:     horizon 50, cancel 0.75 (dead-node skipping
 *    and compaction dominate).
 *
 * @return An accumulator defeating dead-code elimination.
 */
inline std::uint64_t
eventQueueMixRound(hh::sim::EventQueue &q, hh::sim::Rng &rng,
                   hh::sim::Cycles &now,
                   std::vector<hh::sim::EventId> &pending,
                   std::uint64_t &sink, hh::sim::Cycles horizon,
                   double cancelProb)
{
    pending.push_back(
        q.schedule(now + 1 + rng.uniformInt(std::uint64_t{horizon}),
                   [&sink] { ++sink; }));
    if (rng.bernoulli(cancelProb) && !pending.empty()) {
        const auto victim =
            rng.uniformInt(std::uint64_t{pending.size()});
        q.cancel(pending[victim]);
        pending[victim] = pending.back();
        pending.pop_back();
    }
    if (!q.empty()) {
        auto cb = q.pop(now);
        if (cb)
            cb();
    }
    return sink;
}

/** Workload presets for the event-queue benchmarks (see above). */
struct QueueMixPreset
{
    const char *name;
    hh::sim::Cycles horizon;
    double cancelProb;
};

inline constexpr QueueMixPreset kQueueMixPresets[] = {
    {"near", 50, 0.25},
    {"far", hh::sim::Cycles{1} << 20, 0.25},
    {"cancel", 50, 0.75},
};

} // namespace hh::bench

#endif // HH_BENCH_UTIL_H
