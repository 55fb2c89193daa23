/**
 * @file
 * Benchmark binary for the simulator (see perfbench/README.md).
 *
 * One process runs one workload for a fixed host-time budget: it
 * repeats the workload's batch of simulation jobs ("passes") until
 * the budget is spent, checks every pass against the first one
 * (FNV-1a digest of the canonical result serialization), and prints
 * medians. hh_harvest and fleet_graph time a measurement window, the
 * run up to a fixed amount of simulated work; their first pass
 * goes on to the end for the results, the later ones stop at the end
 * of the window and are checked there. With --trace 1 it instead
 * interleaves untraced and traced passes, all run to the end, replays
 * the workload once another way (another worker count, or job by job
 * without the scheduler) with the program's own counters, tracer and
 * auditor on and checks that it matches, snapshots a run late and
 * checks its restored copy, and times each inner layer's public API
 * on inputs drawn from the workload's config and seed.
 *
 * The simulator is driven only through public functions of
 * src/cluster/, src/svc/ and src/exp/ (plus the inner layers' public
 * types for the probes). The last line of stdout is one JSON object
 * with the keys correct, attempted, failed and metrics.
 */

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/hierarchy.h"
#include "cache/replacement.h"
#include "cache/set_assoc.h"
#include "cluster/checkpoint.h"
#include "cluster/experiment.h"
#include "cluster/parallel.h"
#include "cluster/server.h"
#include "cluster/system_config.h"
#include "cluster/telemetry_hub.h"
#include "exp/codec.h"
#include "exp/ledger.h"
#include "exp/scheduler.h"
#include "exp/spec.h"
#include "mem/dram.h"
#include "sim/event_queue.h"
#include "sim/prof.h"
#include "sim/rng.h"
#include "snapshot/archive.h"
#include "stats/histogram.h"
#include "svc/fleet.h"
#include "svc/graph_spec.h"
#include "workload/batch.h"
#include "workload/service.h"

namespace {

using hh::cluster::ClusterResults;
using hh::cluster::ServerResults;
using hh::cluster::ServerSim;
using hh::cluster::SystemConfig;
using hh::cluster::SystemKind;
using hh::sim::Cycles;
using Clock = std::chrono::steady_clock;

/** @name Workload sizes (recorded in every manifest) @{ */
constexpr unsigned kHarvestServers = 4;
constexpr unsigned kHarvestRequests = 80;
/**
 * hh_harvest's measurement window: wall_s times the run from its
 * first event until this many requests have completed on each
 * server, which every VM reaches with arrivals still to come. A whole
 * run ends with the slowest VM's last Poisson arrival, so its host
 * time moves with the seed (fleet_graph's by about 20% at 56 requests
 * per VM); a window of fixed work keeps the host work of a timed pass
 * nearly the same for every seed.
 */
constexpr std::uint64_t kHarvestTimedRequests = 240;
constexpr unsigned kSweepBudgets[] = {20, 22, 24};
/**
 * Seeds per sweep app. All jobs of one seed share its arrival draw, so
 * a sweep's host time follows the draws; each app gets seeds of its
 * own, so that the draws average out. The smallest budget, 20, keeps
 * peak RSS steady: it is mostly the warm-start donors' snapshots, and
 * with 16 it moved by up to 25% from seed to seed.
 */
constexpr const char *kSweepApps[] = {"BFS", "PRank"};
constexpr unsigned kSweepSeeds = 3;
constexpr unsigned kFleetServers = 8;
constexpr unsigned kFleetDepth = 3;
constexpr unsigned kFleetFanout = 2;
constexpr unsigned kFleetRequests = 28;
/**
 * fleet_graph's window: the front VMs' arrival rates are scaled by
 * Alibaba-like draws from the seed, so neither a fixed count of
 * completed tree nodes nor a fixed simulated time is the same host
 * work for every seed (the batch VMs' work follows simulated time).
 * Timing stops at the first barrier where the shares of these two
 * reached, completed nodes / kFleetTimedNodes + simulated time /
 * kFleetTimedMs, add up to 2. kFleetTimedMs is the median time the
 * nodes take; either alone moved host time by about 15% by seed.
 */
constexpr double kFleetTimedNodes = 2400;
constexpr double kFleetTimedMs = 14.5;
constexpr unsigned kAccessSampling = 32;
/**
 * Simulated-time slice of one ServerSim::advanceRun step, where a run
 * is advanced in slices: traced passes, and hh_harvest's window.
 */
constexpr double kSliceMs = 2.0;
/** Passes below which a run keeps going past its time budget. */
constexpr unsigned kMinPasses = 1;
/** Set-ups timed per run (passes plus set-up-only repeats)... */
constexpr unsigned kMinSetups = 9;
/** ...continued until their summed time reaches this many seconds. */
constexpr double kMinSetupSeconds = 1.0;
constexpr unsigned kMaxSetups = 201;
/** Shortest time one set-up sample spans. */
constexpr double kMinSetupSampleS = 0.05;
/** Host time of a window-only pass over its set-up plus timed part. */
constexpr double kPassOverhead = 1.1;
/** @} */

/**
 * Paper references (EXPERIMENTS.md): Fig 11 P99 of HardHarvest-Block
 * (0.72x NoHarvest) over Harvest-Block (4.1x NoHarvest), and §6.7
 * HardHarvest-Block busy cores (34.8 of 36).
 */
constexpr double kPaperFig11Ratio = 0.72 / 4.1;
constexpr double kPaperHhbBusyShare = 34.8 / 36.0;

/**
 * Fidelity error of a simulated ratio against the paper's: the factor
 * by which they differ, max(m/p, p/m). It is 1 for an exact match and
 * about 1 + |m/p - 1| near it. A plain relative error sits near 0 when
 * the model is close, where seed-to-seed noise makes its relative
 * spread unbounded; the factor keeps the same information and stays
 * gateable.
 */
double
errorFactor(double measured, double paper)
{
    if (!(measured > 0) || !(paper > 0))
        return 0;
    const double r = measured / paper;
    return r >= 1 ? r : 1 / r;
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Process user+sys CPU seconds, all threads. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** FNV-1a digest of a canonical result serialization, in hex. */
std::string
digestOf(const std::string &text)
{
    const std::uint64_t v = hh::exp::ledgerChecksum(text);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (q in [0, 1]). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            o += ' ';
            continue;
        }
        o += c;
    }
    return o;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.15g", v);
    return buf;
}

// ------------------------------------------------------------------
// Spans
// ------------------------------------------------------------------

/**
 * In-memory span log: name, start, end, parent and job of every call
 * the benchmark makes into a layer. Disabled logs record nothing, so
 * untraced passes pay one branch per call site.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0;
        double endUs = -1; //!< < 0 while open.
        int parent = -1;
        int job = -1;
        int pass = -1;
    };

    explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }
    void setPass(int pass) { pass_ = pass; }

    int
    open(const char *name, int parent, int job)
    {
        if (!enabled_)
            return -1;
        const double t = nowUs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(Span{name, t, -1, parent, job, pass_});
        return static_cast<int>(spans_.size() - 1);
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        const double t = nowUs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<std::size_t>(id)].endUs = t;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return spans_.size();
    }

    std::size_t
    openCount() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return static_cast<std::size_t>(std::count_if(
            spans_.begin(), spans_.end(),
            [](const Span &s) { return s.endUs < 0; }));
    }

    /** Durations (us) of every closed span named @p name. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<double> out;
        for (const Span &s : spans_) {
            if (s.endUs >= 0 && s.name == name)
                out.push_back(s.endUs - s.startUs);
        }
        return out;
    }

    /** Per-pass total duration (s) of spans named @p name. */
    std::map<int, double>
    totalsByPass(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::map<int, double> out;
        for (const Span &s : spans_) {
            if (s.endUs >= 0 && s.name == name)
                out[s.pass] += (s.endUs - s.startUs) * 1e-6;
        }
        return out;
    }

    /** Chrome trace_event JSON ("X" events; tid = job + 1). */
    bool
    write(const std::string &path, const std::string &manifest) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::ofstream os(path);
        os << "{\"manifest\":" << manifest << ",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? ",\n" : "\n") << "{\"name\":\""
               << jsonEscape(s.name) << "\",\"ph\":\"X\",\"pid\":0,"
               << "\"tid\":" << s.job + 1 << ",\"ts\":"
               << jsonNumber(s.startUs) << ",\"dur\":"
               << jsonNumber(s.endUs < 0 ? 0 : s.endUs - s.startUs)
               << ",\"args\":{\"id\":" << i << ",\"parent\":"
               << s.parent << ",\"job\":" << s.job
               << ",\"pass\":" << s.pass << "}}";
        }
        os << "\n]}\n";
        return static_cast<bool>(os);
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         epoch_)
            .count();
    }

    Clock::time_point epoch_;
    bool enabled_ = false;
    int pass_ = -1;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span; a no-op on a disabled log. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, int parent = -1,
               int job = -1)
        : log_(log), id_(log.open(name, parent, job))
    {
    }
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

/** Time averages of ServerSim gauges, sampled at slice boundaries. */
struct GaugeSamples
{
    double loaned = 0;   //!< Sum of cores on loan (all QMs).
    double dramUtil = 0; //!< Sum of DRAM window utilization.
    double samples = 0;

    void
    add(const GaugeSamples &o)
    {
        loaned += o.loaned;
        dramUtil += o.dramUtil;
        samples += o.samples;
    }
};

/** Requests @p sim's Primary VMs have completed so far. */
std::uint64_t
completedRequests(const ServerSim &sim)
{
    std::uint64_t n = 0;
    for (const auto &p : sim.arrivalProgress())
        n += p.completed;
    return n;
}

/**
 * Advance @p sim in fixed simulated-time slices from the slice end
 * @p t (updated), until its event queue drains or, with @p target,
 * until its Primary VMs have completed that many requests. On a
 * traced pass each ServerSim::advanceRun call gets a span and the
 * gauges are sampled after it. Run to the end, it runs the same
 * events advanceRun(horizon()) runs, including those still pending
 * when the last request completes.
 */
GaugeSamples
advanceSliced(ServerSim &sim, SpanLog &log, int parent, int job, Cycles &t,
              std::uint64_t target = 0)
{
    GaugeSamples g;
    const Cycles slice = hh::sim::msToCycles(kSliceMs);
    while (!sim.simIdle() && t < ServerSim::horizon()) {
        t += slice;
        {
            ScopedSpan sp(log, "cluster.advance", parent, job);
            sim.advanceRun(t);
        }
        if (log.enabled()) {
            for (const auto &m : sim.metrics().snapshot()) {
                if (endsWith(m.name, ".qm.loaned"))
                    g.loaned += m.value;
                else if (m.name == "dram.util")
                    g.dramUtil += m.value;
            }
            g.samples += 1;
        }
        if (target && completedRequests(sim) >= target)
            break;
    }
    return g;
}

// ------------------------------------------------------------------
// Passes
// ------------------------------------------------------------------

/** Simulated (model) results of one pass; deterministic per seed. */
struct Model
{
    double p99Ms = 0;
    double p50Ms = 0;
    double batchTput = 0;
    double util = 0;
    double fidelityErr = 0;
};

/**
 * Everything one pass produced. A windowed workload's pass times its
 * measurement window only; a full pass then runs on, untimed, to the
 * end, and a window-only pass stops there.
 */
struct PassOutcome
{
    bool full = true;
    double setupS = 0;
    double wallS = 0; //!< Host seconds of the timed run phase.
    double cpuS = 0;  //!< Host CPU seconds of the same phase.
    std::string digest; //!< Of the final results (full passes).
    std::string windowDigest; //!< Of the state where timing stopped.
    Model model;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t simRequests = 0; //!< Completed in the timed phase.
    std::vector<std::string> errors;
};

/**
 * Destroy simulations stopped inside their run (window-only passes)
 * with @p destroy. Their live requests make the request queues warn
 * on teardown; those warnings are expected here, so they go to
 * @p logPath instead of stderr.
 */
void
discardTruncated(const std::string &logPath,
                 const std::function<void()> &destroy)
{
    std::fflush(stderr);
    const int saved = ::dup(STDERR_FILENO);
    const int fd = ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    const bool redirected =
        saved >= 0 && fd >= 0 && ::dup2(fd, STDERR_FILENO) >= 0;
    if (fd >= 0)
        ::close(fd);
    destroy();
    std::fflush(stderr);
    if (redirected)
        ::dup2(saved, STDERR_FILENO);
    if (saved >= 0)
        ::close(saved);
}

/** Per-layer metrics of the traced run, by name. */
using Layers = std::map<std::string, double>;

/**
 * Fold one server's end-of-run registry snapshot into the cache,
 * DRAM, RQ, hypervisor and NIC counters (accumulated as raw sums;
 * finishRegistryLayers() turns them into rates). A rule with an empty
 * suffix matches its name exactly; otherwise it matches every
 * "<prefix><n><suffix>" instance, e.g. "core3.l2.hits".
 */
void
addRegistryLayers(Layers &acc,
                  const std::vector<hh::stats::MetricRegistry::Sample> &m)
{
    struct Rule
    {
        const char *prefix;
        const char *suffix;
        const char *key;
    };
    static const Rule kRules[] = {
        {"core", ".l1d.hits", "raw.l1d.hits"},
        {"core", ".l1d.misses", "raw.l1d.misses"},
        {"core", ".l2.hits", "raw.l2.hits"},
        {"core", ".l2.misses", "raw.l2.misses"},
        {"core", ".l2.evictions", "cache.l2.evictions"},
        {"vm", ".l3.hits", "raw.llc.hits"},
        {"vm", ".l3.misses", "raw.llc.misses"},
        {"vm", ".qm.rq.enqueues", "core.rq.enqueues"},
        {"vm", ".qm.rq.overflows", "core.rq.overflows"},
        {"dram.accesses", "", "mem.dram.accesses"},
        {"dram.queue_delay.avg", "", "raw.dram.queue_delay"},
        {"hv.wbinvd", "", "vm.hv.wbinvd"},
        {"hv.lock.acquisitions", "", "vm.hv.lock_acquisitions"},
        {"hv.lock.wait_cycles", "", "vm.hv.lock_wait_cycles"},
        {"nic.packets", "", "net.nic.packets"},
    };
    for (const auto &sample : m) {
        for (const Rule &r : kRules) {
            const bool hit = *r.suffix ? startsWith(sample.name, r.prefix) &&
                                             endsWith(sample.name, r.suffix)
                                       : sample.name == r.prefix;
            if (hit)
                acc[r.key] += sample.value;
        }
    }
    acc["raw.servers"] += 1;
}

void
finishRegistryLayers(Layers &acc, Layers &out)
{
    auto rate = [](double h, double m) {
        return h + m > 0 ? h / (h + m) : 0.0;
    };
    out["cache.l1d.hit_rate"] =
        rate(acc["raw.l1d.hits"], acc["raw.l1d.misses"]);
    out["cache.l2.hit_rate"] =
        rate(acc["raw.l2.hits"], acc["raw.l2.misses"]);
    out["cache.llc.hit_rate"] =
        rate(acc["raw.llc.hits"], acc["raw.llc.misses"]);
    const double servers = std::max(1.0, acc["raw.servers"]);
    out["mem.dram.queue_delay_avg"] = acc["raw.dram.queue_delay"] / servers;
    for (const char *k :
         {"cache.l2.evictions", "mem.dram.accesses", "core.rq.enqueues",
          "core.rq.overflows", "vm.hv.wbinvd", "vm.hv.lock_acquisitions",
          "vm.hv.lock_wait_cycles", "net.nic.packets"})
        out[k] = acc[k];
}

/** Per-server time averages of the sampled gauges. */
void
setGaugeLayers(const GaugeSamples &g, Layers &out)
{
    out["core.qm.loaned"] = g.samples ? g.loaned / g.samples : 0.0;
    out["mem.dram.util"] = g.samples ? g.dramUtil / g.samples : 0.0;
}

/** Exact hit counts of the program's own profiler sites. */
void
readProfCounts(Layers &out)
{
    std::uint64_t probes = 0, hier = 0, zipf = 0;
    for (const auto &s : hh::sim::prof::snapshot()) {
        const std::string n = s.name;
        if (n == "cache.array_access")
            probes += s.hits;
        else if (n == "cache.hierarchy_access")
            hier += s.hits;
        else if (n == "workload.zipf_sample")
            zipf += s.hits;
    }
    out["cache.array_probes"] = static_cast<double>(probes);
    out["cache.hier_accesses"] = static_cast<double>(hier);
    out["cache.probes_per_access"] =
        hier ? static_cast<double>(probes) / static_cast<double>(hier)
             : 0.0;
    out["workload.zipf_samples"] = static_cast<double>(zipf);
}

/** Worker threads where host time is not measured: up to 4. */
unsigned
parallelWorkers()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/** Shared state of one benchmark process. */
struct Context
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned workers = 1; //!< The workload's simulation threads.
    std::string outDir;
    std::string stamp; //!< Caller-provided manifest fields (JSON).
    Clock::time_point epoch = Clock::now();
    SpanLog spans{epoch};
    int pass = 0;

    /** First seed of the workload's simulations. */
    std::uint64_t baseSeed() const { return 100 * seed + 1; }
};

/** One workload: a pass, a set-up-only repeat and its traced extras. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /**
     * Run the batch once. A windowed workload stops at its window
     * unless @p full; the others always run to the end.
     */
    virtual PassOutcome pass(Context &ctx, bool full) = 0;
    /**
     * Whether wall_s times a measurement window (see
     * kHarvestTimedRequests and kFleetTimedNodes), so that passes
     * after the first can stop at its end.
     */
    virtual bool windowed() const { return true; }
    /** Build the system as a pass would, then discard it. */
    virtual double setupOnly(Context &ctx) = 0;
    /**
     * Traced-run extras: replay the batch another way (another worker
     * count, or job by job) with the program's counters, tracer and
     * auditor on; compare against @p digest.
     */
    virtual void count(Context &ctx, const std::string &digest,
                       Layers &out, std::vector<std::string> &errors) = 0;
    /** Snapshot save/load probe late in a run. */
    virtual void snapshot(Context &ctx, Layers &out,
                          std::vector<std::string> &errors) = 0;
    /** Config the layer probes draw from. */
    virtual SystemConfig probeConfig() const = 0;
    /** Sizes for the manifest (JSON object body). */
    virtual std::string sizes() const = 0;
    /**
     * Simulation worker threads of the timed phases. A pass's servers
     * or jobs run independently, so they could use every thread of
     * the host; but on a shared 4-thread host, 4 workers made the
     * time of a pass jump by up to 40% within one run, as other load
     * came and went, and the same sweep on 2 workers spread about
     * twice as much as a smaller one on 1. FleetSim builds a thread
     * pool for every window, and at 2 workers its wall time swung by
     * up to 2x.
     */
    virtual unsigned workers() const { return 1; }
};

/** Share of a run's simulated time after which snapshots are taken:
 *  late, so that finishing the donor and its copy stays cheap. */
constexpr double kSnapshotAt = 0.8;

/**
 * ServerSim::saveState at @p at (simulated), then loadState into a
 * fresh sim; both must finish identically (the snapshot byte-identity
 * contract).
 */
void
snapshotProbe(const SystemConfig &cfg, const std::string &app,
              std::uint64_t seed, Cycles at, Layers &out,
              std::vector<std::string> &errors, const std::string &who)
{
    ServerSim donor(cfg, app, seed);
    donor.startRun();
    donor.advanceRun(at);
    std::vector<double> saveS;
    std::vector<std::uint8_t> bytes;
    for (int rep = 0; rep < 3; ++rep) {
        auto ar = hh::snap::Archive::forSave();
        const auto t0 = Clock::now();
        donor.saveState(ar);
        saveS.push_back(secondsBetween(t0, Clock::now()));
        bytes = ar.take();
    }
    // One load: a sim can only be restored fresh, and discarding
    // unfinished ones floods stderr with teardown warnings.
    ServerSim restored(cfg, app, seed);
    auto in = hh::snap::Archive::forLoad(bytes);
    const auto t1 = Clock::now();
    restored.loadState(in);
    out["snapshot.load_s"] = secondsBetween(t1, Clock::now());
    if (!in.ok())
        errors.push_back(who + ": snapshot load failed");
    out["snapshot.save_s"] = median(saveS);
    out["snapshot.bytes"] = static_cast<double>(bytes.size());
    donor.advanceRun(ServerSim::horizon());
    restored.advanceRun(ServerSim::horizon());
    if (hh::exp::encodeServerResults(donor.finishRun()) !=
        hh::exp::encodeServerResults(restored.finishRun()))
        errors.push_back(who + ": resumed run differs from donor");
}

// ---------------------------- hh_harvest ---------------------------

SystemConfig
harvestConfig()
{
    SystemConfig cfg = hh::cluster::makeSystem(SystemKind::HardHarvestBlock);
    cfg.policy = "hysteresis";
    cfg.cacheLendEnabled = true;
    cfg.telemetryEnabled = true;
    cfg.accessSampling = kAccessSampling;
    cfg.requestsPerVm = kHarvestRequests;
    cfg.burst.enabled = false;
    return cfg;
}

/** Figure-facing digest input: observability payloads stripped. */
std::string
strippedSerialized(ClusterResults r)
{
    r.traces.clear();
    r.traceOpenSpans = r.traceUnbalanced = 0;
    r.serverMetrics.clear();
    r.metricSeries.clear();
    r.auditsRun = r.auditViolations = r.faultsInjected = 0;
    r.auditReports.clear();
    return r.serialized();
}

class HarvestWorkload : public Workload
{
  public:
    PassOutcome
    pass(Context &ctx, bool full) override
    {
        const SystemConfig cfg = harvestConfig();
        const auto batch = hh::workload::batchApplications();
        const std::uint64_t base = ctx.baseSeed();
        PassOutcome o;
        o.full = full;
        SpanLog &log = ctx.spans;
        ScopedSpan root(log, "pass");

        const auto t0 = Clock::now();
        std::vector<std::unique_ptr<ServerSim>> sims =
            hh::cluster::runParallel<std::unique_ptr<ServerSim>>(
                kHarvestServers,
                [&](std::size_t s) {
                    const int job = static_cast<int>(s);
                    std::unique_ptr<ServerSim> sim;
                    {
                        ScopedSpan sp(log, "cluster.ctor", root.id(), job);
                        sim = std::make_unique<ServerSim>(
                            cfg, batch[s].name, base + s);
                    }
                    ScopedSpan sp(log, "cluster.start", root.id(), job);
                    sim->startRun();
                    return sim;
                },
                ctx.workers);
        const auto t1 = Clock::now();
        const double c1 = cpuSeconds();

        // Timed: every server from its first event until its VMs have
        // completed kHarvestTimedRequests requests.
        std::vector<Cycles> reached(kHarvestServers, 0);
        std::vector<GaugeSamples> gauges(kHarvestServers);
        hh::cluster::runParallel<int>(
            kHarvestServers,
            [&](std::size_t s) {
                gauges[s] = advanceSliced(*sims[s], log, root.id(),
                                          static_cast<int>(s), reached[s],
                                          kHarvestTimedRequests);
                return 0;
            },
            ctx.workers);
        o.wallS = secondsBetween(t1, Clock::now());
        o.cpuS = cpuSeconds() - c1;
        o.setupS = secondsBetween(t0, t1);
        std::string state;
        for (const auto &sim : sims) {
            state += std::to_string(sim->now());
            for (const auto &p : sim->arrivalProgress()) {
                o.simRequests += p.completed;
                state += ' ' + std::to_string(p.consumed) + '/' +
                         std::to_string(p.completed);
            }
            state += '\n';
        }
        o.windowDigest = digestOf(state);
        if (!full) {
            o.attempted = o.simRequests;
            discardTruncated(ctx.outDir + "/teardown.log",
                             [&] { sims.clear(); });
            return o;
        }

        // Untimed, so on more workers: on to the end, results and
        // telemetry.
        std::vector<std::uint64_t> completed(kHarvestServers, 0);
        std::vector<ServerResults> runs =
            hh::cluster::runParallel<ServerResults>(
                kHarvestServers,
                [&](std::size_t s) {
                    const int job = static_cast<int>(s);
                    ServerSim &sim = *sims[s];
                    if (log.enabled())
                        gauges[s].add(advanceSliced(sim, log, root.id(),
                                                    job, reached[s]));
                    else
                        sim.advanceRun(ServerSim::horizon());
                    for (const auto &p : sim.arrivalProgress())
                        completed[s] += p.completed;
                    ScopedSpan sp(log, "cluster.finish", root.id(), job);
                    return sim.finishRun();
                },
                parallelWorkers());
        ClusterResults res;
        {
            ScopedSpan sp(log, "cluster.aggregate", root.id());
            res = hh::cluster::aggregateClusterResults(
                cfg, kHarvestServers, std::move(runs));
        }
        std::string text;
        {
            ScopedSpan sp(log, "cluster.serialize", root.id());
            text = res.serialized();
        }
        {
            ScopedSpan sp(log, "stats.hub", root.id());
            hh::cluster::TelemetryHub hub(cfg);
            for (const auto &t : res.serverTelemetry)
                hub.addServer(t);
            const std::string jsonl = hub.jsonl();
            telemetryRows_ = hub.timeline().size();
            if (jsonl.empty())
                o.errors.push_back("hh_harvest: empty telemetry JSONL");
        }
        sims.clear();

        o.digest = digestOf(text);
        o.model.p99Ms = res.avgP99Ms();
        o.model.p50Ms = res.avgP50Ms();
        for (const auto &b : res.batchThroughput)
            o.model.batchTput += b.second;
        o.model.util = res.utilization;
        o.model.fidelityErr =
            errorFactor(res.utilization, kPaperHhbBusyShare);
        o.attempted = std::uint64_t{kHarvestServers} * cfg.primaryVms *
                      cfg.requestsPerVm;
        std::uint64_t done = 0;
        for (auto c : completed)
            done += c;
        o.failed = o.attempted - std::min(o.attempted, done);
        if (o.failed)
            o.errors.push_back("hh_harvest: " + std::to_string(o.failed) +
                               " requests unfinished");
        if (log.enabled()) {
            gauges_ = GaugeSamples{};
            for (const auto &g : gauges)
                gauges_.add(g);
        }
        last_ = std::move(res);
        return o;
    }

    double
    setupOnly(Context &ctx) override
    {
        const SystemConfig cfg = harvestConfig();
        const auto batch = hh::workload::batchApplications();
        const auto t0 = Clock::now();
        auto sims = hh::cluster::runParallel<std::unique_ptr<ServerSim>>(
            kHarvestServers,
            [&](std::size_t s) {
                auto sim = std::make_unique<ServerSim>(
                    cfg, batch[s].name, ctx.baseSeed() + s);
                sim->startRun();
                return sim;
            },
            ctx.workers);
        const double t = secondsBetween(t0, Clock::now());
        sims.clear();
        return t;
    }

    void
    count(Context &ctx, const std::string &digest, Layers &out,
          std::vector<std::string> &errors) override
    {
        SystemConfig cfg = harvestConfig();
        cfg.metricsEnabled = true;
        cfg.traceEnabled = true;
        cfg.auditEnabled = true;
        hh::sim::prof::reset();
        hh::sim::prof::setEnabled(true);
        // The timed phases run on 1 worker, so the replay uses more.
        ClusterResults res;
        {
            ScopedSpan sp(ctx.spans, "cluster.run_cluster");
            res = hh::cluster::runCluster(cfg, kHarvestServers,
                                          ctx.baseSeed(), parallelWorkers());
        }
        hh::sim::prof::setEnabled(false);
        readProfCounts(out);

        const std::string d = digestOf(strippedSerialized(res));
        out["check.digest_match"] = d == digest ? 1 : 0;
        if (d != digest)
            errors.push_back("hh_harvest: runCluster at " +
                             std::to_string(parallelWorkers()) +
                             " workers digest " + d + " != timed digest " +
                             digest);
        Layers acc;
        for (const auto &m : res.serverMetrics)
            addRegistryLayers(acc, m);
        finishRegistryLayers(acc, out);

        std::uint64_t events = 0, dropped = 0, epochs = 0;
        for (const auto &t : res.traces) {
            events += t.events.size();
            dropped += t.dropped;
        }
        for (const auto &t : res.serverTelemetry)
            epochs += t.endTime / cfg.policyPeriod;
        out["trace.events"] = static_cast<double>(events);
        out["trace.dropped"] = static_cast<double>(dropped);
        out["trace.open_spans"] = static_cast<double>(res.traceOpenSpans);
        out["check.audits"] = static_cast<double>(res.auditsRun);
        out["check.violations"] = static_cast<double>(res.auditViolations);
        out["policy.epochs"] = static_cast<double>(epochs);
        out["lease.grants"] = static_cast<double>(last_.leaseGrants);
        out["lease.recalls"] = static_cast<double>(last_.leaseRecalls);
        out["lease.expiries"] = static_cast<double>(last_.leaseExpiries);
        out["lease.flushed_lines"] =
            static_cast<double>(last_.leaseFlushedLines);
        out["lease.way_cycles"] = static_cast<double>(last_.leaseWayCycles);
        out["stats.telemetry_rows"] = static_cast<double>(telemetryRows_);
        setGaugeLayers(gauges_, out);
        const auto hub = ctx.spans.durations("stats.hub");
        out["stats.hub_s"] = median(hub) * 1e-6;
    }

    void
    snapshot(Context &ctx, Layers &out,
             std::vector<std::string> &errors) override
    {
        const auto end = last_.serverTelemetry.front().endTime;
        snapshotProbe(harvestConfig(),
                      hh::workload::batchApplications().front().name,
                      ctx.baseSeed(),
                      static_cast<Cycles>(kSnapshotAt *
                                          static_cast<double>(end)),
                      out, errors, "hh_harvest");
    }

    SystemConfig
    probeConfig() const override
    {
        return harvestConfig();
    }

    std::string
    sizes() const override
    {
        return "\"servers\":" + std::to_string(kHarvestServers) +
               ",\"requests_per_vm\":" + std::to_string(kHarvestRequests) +
               ",\"timed_requests_per_server\":" +
               std::to_string(kHarvestTimedRequests) +
               ",\"access_sampling\":" + std::to_string(kAccessSampling) +
               ",\"policy\":\"hysteresis\",\"cache_lend\":true"
               ",\"telemetry\":true";
    }

  private:
    std::size_t telemetryRows_ = 0;
    GaugeSamples gauges_;
    ClusterResults last_; //!< Results of the latest pass.
};

// ----------------------------- sw_sweep ----------------------------

std::string
sweepSpecText(const char *app, std::uint64_t firstSeed)
{
    std::ostringstream os;
    os << "name = sw_sweep." << app << "\n"
       << "systems = HarvestBlock HardHarvestBlock\n"
       << "apps = " << app << "\n"
       << "seeds =";
    for (unsigned i = 0; i < kSweepSeeds; ++i)
        os << ' ' << firstSeed + i;
    os << "\n"
       << "accessSampling = " << kAccessSampling << "\n"
       << "sweep.requestsPerVm =";
    for (unsigned b : kSweepBudgets)
        os << ' ' << b;
    os << "\n";
    return os.str();
}

/**
 * Parse the sweep's specs, one per batch app with seeds of its own,
 * and expand them into points with Poisson arrivals (the burst
 * modulation is not a spec key, so it is switched off here, before
 * submission). False, with @p err set, when a spec is rejected.
 */
bool
sweepPoints(std::uint64_t base, std::vector<hh::exp::ExperimentPoint> &points,
            std::string *err)
{
    points.clear();
    for (std::size_t a = 0; a < std::size(kSweepApps); ++a) {
        hh::exp::ExperimentSpec spec;
        if (!hh::exp::parseSpec(
                sweepSpecText(kSweepApps[a], base + a * kSweepSeeds), &spec,
                err))
            return false;
        for (auto &p : spec.points()) {
            p.cfg.burst.enabled = false;
            points.push_back(std::move(p));
        }
    }
    return true;
}

class SweepWorkload : public Workload
{
  public:
    PassOutcome
    pass(Context &ctx, bool) override
    {
        PassOutcome o;
        SpanLog &log = ctx.spans;
        ScopedSpan root(log, "pass");
        const std::string ledgerPath =
            ctx.outDir + "/ledger-" + std::to_string(::getpid()) + ".jsonl";
        std::filesystem::remove(ledgerPath);

        // A fresh ledger per pass; opening it is not part of set-up.
        std::string err;
        hh::exp::ResultLedger::Meta meta;
        meta.command = "perfbench sw_sweep";
        meta.hardwareThreads = std::thread::hardware_concurrency();
        meta.poolWorkers = ctx.workers;
        auto ledger = hh::exp::ResultLedger::open(ledgerPath, meta, &err);
        if (!ledger)
            o.errors.push_back("sw_sweep: ledger: " + err);

        const auto t0 = Clock::now();
        std::vector<hh::exp::ExperimentPoint> points;
        std::unique_ptr<hh::exp::JobScheduler> sched;
        std::vector<hh::exp::JobScheduler::Handle> handles;
        {
            ScopedSpan sp(log, "exp.submit", root.id());
            submit(ctx, ledger.get(), points, sched, handles,
                   o.errors);
        }
        const auto t1 = Clock::now();
        const double c1 = cpuSeconds();
        {
            ScopedSpan sp(log, "exp.run", root.id());
            sched->run();
        }
        std::string text;
        std::vector<ServerResults> results;
        {
            ScopedSpan sp(log, "exp.encode", root.id());
            for (auto h : handles) {
                results.push_back(sched->serverResult(h));
                text += hh::exp::encodeServerResults(results.back());
                text += '\n';
            }
        }
        const auto t2 = Clock::now();
        stats_ = sched->stats();
        lastElapsedS_ = results.empty() ? 0.0 : results.back().elapsedSec;
        sched.reset();
        ledger.reset();
        std::filesystem::remove(ledgerPath);

        o.setupS = secondsBetween(t0, t1);
        o.wallS = secondsBetween(t1, t2);
        o.cpuS = cpuSeconds() - c1;
        o.digest = o.windowDigest = digestOf(text);

        double p99 = 0, p50 = 0, util = 0;
        double hbP99 = 0, hhbP99 = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const ServerResults &r = results[i];
            const SystemConfig &cfg = points[i].cfg;
            p99 += r.avgP99Ms();
            p50 += r.avgP50Ms();
            util += r.utilization;
            o.model.batchTput += r.batchThroughput;
            if (cfg.kind == SystemKind::HarvestBlock)
                hbP99 += r.avgP99Ms();
            else
                hhbP99 += r.avgP99Ms();
            const unsigned expected =
                cfg.requestsPerVm -
                static_cast<unsigned>(cfg.warmupFraction *
                                      static_cast<double>(cfg.requestsPerVm));
            o.attempted += std::uint64_t{cfg.primaryVms} * cfg.requestsPerVm;
            std::uint64_t done = 0;
            for (const auto &s : r.services)
                done += s.count;
            const std::uint64_t want =
                std::uint64_t{expected} * cfg.primaryVms;
            const std::uint64_t missing = want - std::min(want, done);
            if (missing || done > want)
                o.errors.push_back("sw_sweep: " + points[i].label + " has " +
                                   std::to_string(done) + "/" +
                                   std::to_string(want) +
                                   " post-warmup completions");
            o.failed += missing;
            o.simRequests += std::uint64_t{cfg.primaryVms} * cfg.requestsPerVm -
                             missing;
        }
        const double n = static_cast<double>(std::max<std::size_t>(
            results.size(), 1));
        o.model.p99Ms = p99 / n;
        o.model.p50Ms = p50 / n;
        o.model.util = util / n;
        o.model.fidelityErr =
            hbP99 > 0 ? errorFactor(hhbP99 / hbP99, kPaperFig11Ratio) : 0.0;
        runS_.push_back(o.wallS);
        return o;
    }

    double
    setupOnly(Context &ctx) override
    {
        std::vector<hh::exp::ExperimentPoint> points;
        std::unique_ptr<hh::exp::JobScheduler> sched;
        std::vector<hh::exp::JobScheduler::Handle> handles;
        std::vector<std::string> errors;
        const auto t0 = Clock::now();
        submit(ctx, nullptr, points, sched, handles, errors);
        return secondsBetween(t0, Clock::now());
    }

    void
    count(Context &ctx, const std::string &digest, Layers &out,
          std::vector<std::string> &errors) override
    {
        // Cold replay of every job straight through ServerSim, each
        // on one thread, on up to 4 workers (it is untimed): the
        // scheduler's deduplicated, warm-started results must equal it
        // byte for byte (exp codec).
        std::vector<hh::exp::ExperimentPoint> points;
        std::string err;
        if (!sweepPoints(ctx.baseSeed(), points, &err)) {
            errors.push_back("sw_sweep: " + err);
            return;
        }
        struct Replay
        {
            ServerResults results;
            std::vector<hh::stats::MetricRegistry::Sample> metrics;
            GaugeSamples gauges;
            double ctor = 0, start = 0, advance = 0, finish = 0;
        };
        SpanLog &log = ctx.spans;
        hh::sim::prof::reset();
        hh::sim::prof::setEnabled(true);
        const std::vector<Replay> replays = hh::cluster::runParallel<Replay>(
            points.size(),
            [&](std::size_t i) {
                const int job = static_cast<int>(i);
                SystemConfig cfg = points[i].cfg;
                cfg.traceEnabled = true;
                cfg.auditEnabled = true;
                Replay rp;
                const auto t0 = Clock::now();
                std::unique_ptr<ServerSim> sim;
                {
                    ScopedSpan sp(log, "cluster.ctor", -1, job);
                    sim = std::make_unique<ServerSim>(cfg, points[i].batchApp,
                                                      points[i].seed);
                }
                const auto t1 = Clock::now();
                {
                    ScopedSpan sp(log, "cluster.start", -1, job);
                    sim->startRun();
                }
                const auto t2 = Clock::now();
                Cycles t = 0;
                rp.gauges = advanceSliced(*sim, log, -1, job, t);
                const auto t3 = Clock::now();
                rp.metrics = sim->metrics().snapshot();
                {
                    ScopedSpan sp(log, "cluster.finish", -1, job);
                    rp.results = sim->finishRun();
                }
                rp.ctor = secondsBetween(t0, t1);
                rp.start = secondsBetween(t1, t2);
                rp.advance = secondsBetween(t2, t3);
                rp.finish = secondsBetween(t3, Clock::now());
                return rp;
            },
            parallelWorkers());
        hh::sim::prof::setEnabled(false);

        Layers acc;
        GaugeSamples gauges;
        std::string text;
        std::uint64_t events = 0, dropped = 0, open = 0, audits = 0,
                      violations = 0;
        double ctor = 0, start = 0, advance = 0, finish = 0;
        const auto s0 = Clock::now();
        for (const Replay &rp : replays) {
            text += hh::exp::encodeServerResults(rp.results);
            text += '\n';
        }
        const double serialize = secondsBetween(s0, Clock::now());
        for (const Replay &rp : replays) {
            addRegistryLayers(acc, rp.metrics);
            gauges.add(rp.gauges);
            events += rp.results.traceEvents.size();
            dropped += rp.results.traceDropped;
            open += rp.results.traceOpenSpans;
            audits += rp.results.auditsRun;
            violations += rp.results.auditViolations;
            ctor += rp.ctor;
            start += rp.start;
            advance += rp.advance;
            finish += rp.finish;
        }
        readProfCounts(out);
        finishRegistryLayers(acc, out);
        setGaugeLayers(gauges, out);
        out["cluster.ctor_s"] = ctor;
        out["cluster.start_s"] = start;
        out["cluster.advance_s"] = advance;
        out["cluster.finish_s"] = finish;
        out["cluster.serialize_s"] = serialize;
        const std::string d = digestOf(text);
        out["check.digest_match"] = d == digest ? 1 : 0;
        if (d != digest)
            errors.push_back("sw_sweep: cold ServerSim replay digest " + d +
                             " != scheduler digest " + digest);
        out["trace.events"] = static_cast<double>(events);
        out["trace.dropped"] = static_cast<double>(dropped);
        out["trace.open_spans"] = static_cast<double>(open);
        out["check.audits"] = static_cast<double>(audits);
        out["check.violations"] = static_cast<double>(violations);
        out["exp.jobs"] = static_cast<double>(stats_.submitted);
        out["exp.unique"] = static_cast<double>(stats_.unique);
        out["exp.simulated"] = static_cast<double>(stats_.simulated);
        out["exp.warm_started"] = static_cast<double>(stats_.warmStarted);
        out["exp.prefix_groups"] = static_cast<double>(stats_.prefixGroups);
        out["exp.run_s"] = median(runS_);
    }

    void
    snapshot(Context &ctx, Layers &out,
             std::vector<std::string> &errors) override
    {
        std::vector<hh::exp::ExperimentPoint> points;
        std::string err;
        if (!sweepPoints(ctx.baseSeed(), points, &err)) {
            errors.push_back("sw_sweep: " + err);
            return;
        }
        const auto &p = points.back();
        snapshotProbe(p.cfg, p.batchApp, p.seed,
                      hh::sim::secToCycles(kSnapshotAt * lastElapsedS_), out,
                      errors, "sw_sweep");
    }

    /** The scheduler runs every job to its end: no window. */
    bool windowed() const override { return false; }

    SystemConfig
    probeConfig() const override
    {
        SystemConfig cfg = hh::cluster::makeSystem(SystemKind::HarvestBlock);
        cfg.accessSampling = kAccessSampling;
        return cfg;
    }

    std::string
    sizes() const override
    {
        std::ostringstream os;
        os << "\"systems\":[\"Harvest-Block\",\"HardHarvest-Block\"],"
              "\"apps\":[\"BFS\",\"PRank\"],\"seeds_per_app\":"
           << kSweepSeeds << ",\"requests_per_vm\":[";
        for (std::size_t i = 0; i < std::size(kSweepBudgets); ++i)
            os << (i ? "," : "") << kSweepBudgets[i];
        os << "],\"access_sampling\":" << kAccessSampling
           << ",\"scheduler\":\"defaults + fresh ledger\"";
        return os.str();
    }

  private:
    /** Set-up: parse the specs and submit every point. */
    static void
    submit(Context &ctx, hh::exp::ResultLedger *ledger,
           std::vector<hh::exp::ExperimentPoint> &points,
           std::unique_ptr<hh::exp::JobScheduler> &sched,
           std::vector<hh::exp::JobScheduler::Handle> &handles,
           std::vector<std::string> &errors)
    {
        std::string err;
        if (!sweepPoints(ctx.baseSeed(), points, &err))
            errors.push_back("sw_sweep: spec rejected: " + err);
        hh::exp::JobScheduler::Options opts;
        opts.workers = ctx.workers;
        opts.ledger = ledger;
        sched = std::make_unique<hh::exp::JobScheduler>(opts);
        for (const auto &p : points)
            handles.push_back(sched->addServer(p.cfg, p.batchApp, p.seed));
    }

    hh::exp::JobScheduler::Stats stats_;
    std::vector<double> runS_;
    double lastElapsedS_ = 0; //!< Simulated length of the last job.
};

// ---------------------------- fleet_graph --------------------------

SystemConfig
fleetConfig()
{
    SystemConfig cfg = hh::cluster::makeSystem(SystemKind::HardHarvestBlock);
    cfg.accessSampling = kAccessSampling;
    cfg.requestsPerVm = kFleetRequests;
    cfg.burst.enabled = false;
    return cfg;
}

hh::svc::ServiceGraphSpec
fleetSpec()
{
    return hh::svc::makeLayeredGraphSpec(kFleetDepth, kFleetFanout,
                                         kFleetServers);
}

/** Figure-facing digest input: audit counters zeroed. */
std::string
strippedSerialized(hh::svc::FleetResults r)
{
    r.auditsRun = r.auditViolations = 0;
    return r.serialized();
}

class FleetWorkload : public Workload
{
  public:
    PassOutcome
    pass(Context &ctx, bool full) override
    {
        PassOutcome o;
        o.full = full;
        SpanLog &log = ctx.spans;
        ScopedSpan root(log, "pass");
        const auto spec = fleetSpec();
        const SystemConfig cfg = fleetConfig();

        const auto t0 = Clock::now();
        std::unique_ptr<hh::svc::FleetSim> fleet;
        {
            ScopedSpan sp(log, "cluster.ctor", root.id());
            fleet = std::make_unique<hh::svc::FleetSim>(spec, cfg,
                                                        ctx.baseSeed());
        }
        {
            ScopedSpan sp(log, "cluster.start", root.id());
            fleet->start();
        }
        const auto t1 = Clock::now();
        const double c1 = cpuSeconds();

        // Timed: from the first event to the end of the window.
        {
            ScopedSpan adv(log, "cluster.advance", root.id());
            advance(ctx, *fleet, true, adv.id());
        }
        o.wallS = secondsBetween(t1, Clock::now());
        o.cpuS = cpuSeconds() - c1;
        o.setupS = secondsBetween(t0, t1);
        std::string state = std::to_string(fleet->barrier()) + ' ' +
                            std::to_string(fleet->totalLiveNodes());
        for (const auto &eng : fleet->engines()) {
            state += '\n' + std::to_string(eng->rootsDone()) + ' ' +
                     std::to_string(eng->rootsShed()) + ' ' +
                     std::to_string(eng->wireSent());
            for (auto n : eng->tierNodes())
                state += ' ' + std::to_string(n);
        }
        o.simRequests = completedNodes(*fleet);
        o.windowDigest = digestOf(state);
        if (!full) {
            o.attempted = o.simRequests;
            discardTruncated(ctx.outDir + "/teardown.log",
                             [&] { fleet.reset(); });
            return o;
        }

        // Untimed: drain every tree, then results.
        {
            ScopedSpan adv(log, "cluster.advance", root.id());
            advance(ctx, *fleet, false, adv.id());
        }
        const bool drained = fleet->drained();
        hh::svc::FleetResults res;
        {
            ScopedSpan sp(log, "cluster.finish", root.id());
            res = fleet->finish(ctx.workers);
        }
        std::string text;
        {
            ScopedSpan sp(log, "cluster.serialize", root.id());
            text = res.serialized();
        }
        hh::stats::LogHistogram e2e;
        for (const auto &eng : fleet->engines())
            e2e.merge(eng->e2eHist());
        fleet.reset();

        o.digest = digestOf(text);
        o.model.p99Ms = interpolatedPercentile(e2e, 0.99) * 1e-3;
        o.model.p50Ms = interpolatedPercentile(e2e, 0.50) * 1e-3;
        o.model.batchTput = res.batchThroughput;
        o.model.util = res.avgUtilization;
        o.model.fidelityErr =
            errorFactor(res.avgUtilization, kPaperHhbBusyShare);
        o.attempted = res.rootsDone + res.rootsShed;
        o.failed = res.rootsShed + (drained ? 0 : res.rootsDone);
        if (!drained)
            o.errors.push_back("fleet_graph: trees not drained");
        if (res.rootsShed)
            o.errors.push_back("fleet_graph: " +
                               std::to_string(res.rootsShed) +
                               " roots shed");
        last_ = res;
        return o;
    }

    double
    setupOnly(Context &ctx) override
    {
        const auto t0 = Clock::now();
        auto fleet = std::make_unique<hh::svc::FleetSim>(
            fleetSpec(), fleetConfig(), ctx.baseSeed());
        fleet->start();
        const double t = secondsBetween(t0, Clock::now());
        fleet.reset();
        return t;
    }

    void
    count(Context &ctx, const std::string &digest, Layers &out,
          std::vector<std::string> &errors) override
    {
        SystemConfig cfg = fleetConfig();
        cfg.auditEnabled = true;
        hh::sim::prof::reset();
        hh::sim::prof::setEnabled(true);
        // The timed passes run on 1 worker, so the replay uses 2.
        constexpr unsigned kReplayWorkers = 2;
        hh::svc::FleetResults res;
        {
            ScopedSpan sp(ctx.spans, "cluster.run_fleet");
            hh::svc::FleetSim fleet(fleetSpec(), cfg, ctx.baseSeed());
            fleet.start();
            fleet.advanceWindows(kReplayWorkers);
            res = fleet.finish(kReplayWorkers);
        }
        hh::sim::prof::setEnabled(false);
        readProfCounts(out);
        const std::string d = digestOf(strippedSerialized(res));
        out["check.digest_match"] = d == digest ? 1 : 0;
        if (d != digest)
            errors.push_back("fleet_graph: 2-worker digest " + d +
                             " != timed digest " + digest);
        out["check.audits"] = static_cast<double>(res.auditsRun);
        out["check.violations"] = static_cast<double>(res.auditViolations);
        out["svc.windows"] = static_cast<double>(last_.windows);
        out["svc.wire_messages"] = static_cast<double>(last_.wireMessages);
        out["svc.peak_live_nodes"] =
            static_cast<double>(last_.maxPeakLiveNodes);
        out["svc.footprint_bytes"] =
            static_cast<double>(last_.maxFootprintBytes);
        out["svc.roots_shed"] = static_cast<double>(last_.rootsShed);
        const auto windows = ctx.spans.durations("svc.window");
        out["svc.window_us.p50"] = percentile(windows, 0.50);
        out["svc.window_us.p99"] = percentile(windows, 0.99);
    }

    void
    snapshot(Context &ctx, Layers &out,
             std::vector<std::string> &errors) override
    {
        const auto spec = fleetSpec();
        const SystemConfig cfg = fleetConfig();
        const std::string path = ctx.outDir + "/fleet-" +
                                 std::to_string(::getpid()) + ".hhcp";
        hh::svc::FleetSim donor(spec, cfg, ctx.baseSeed());
        donor.start();
        donor.advanceWindows(
            ctx.workers, hh::sim::secToCycles(kSnapshotAt * last_.elapsedSec));
        std::vector<double> saveS;
        std::string err;
        for (int rep = 0; rep < 3; ++rep) {
            auto t0 = Clock::now();
            if (!donor.save(path, &err))
                errors.push_back("fleet_graph: save: " + err);
            saveS.push_back(secondsBetween(t0, Clock::now()));
        }
        hh::svc::FleetSim resumed(spec, cfg, ctx.baseSeed());
        auto t1 = Clock::now();
        if (!resumed.resume(path, &err))
            errors.push_back("fleet_graph: resume: " + err);
        out["snapshot.load_s"] = secondsBetween(t1, Clock::now());
        // The resumed fleet must finish exactly like the donor.
        donor.advanceWindows(ctx.workers);
        resumed.advanceWindows(ctx.workers);
        if (donor.finish(ctx.workers).serialized() !=
            resumed.finish(ctx.workers).serialized())
            errors.push_back("fleet_graph: resumed fleet differs from donor");
        std::error_code ec;
        out["snapshot.save_s"] = median(saveS);
        out["snapshot.bytes"] =
            static_cast<double>(std::filesystem::file_size(path, ec));
        std::filesystem::remove(path);
    }

    SystemConfig
    probeConfig() const override
    {
        return fleetConfig();
    }

    std::string
    sizes() const override
    {
        return "\"servers\":" + std::to_string(kFleetServers) +
               ",\"depth\":" + std::to_string(kFleetDepth) +
               ",\"fanout\":" + std::to_string(kFleetFanout) +
               ",\"requests_per_vm\":" + std::to_string(kFleetRequests) +
               ",\"timed_nodes\":" + jsonNumber(kFleetTimedNodes) +
               ",\"timed_ms\":" + jsonNumber(kFleetTimedMs) +
               ",\"access_sampling\":" + std::to_string(kAccessSampling);
    }

  private:
    /** Tree nodes the fleet has completed so far. */
    static std::uint64_t
    completedNodes(const hh::svc::FleetSim &fleet)
    {
        std::uint64_t n = 0;
        for (const auto &eng : fleet.engines())
            for (auto t : eng->tierNodes())
                n += t;
        return n;
    }

    /** Whether the fleet has reached the end of its window. */
    static bool
    windowDone(const hh::svc::FleetSim &fleet)
    {
        return static_cast<double>(completedNodes(fleet)) / kFleetTimedNodes +
                   hh::sim::cyclesToMs(fleet.barrier()) / kFleetTimedMs >=
               2.0;
    }

    /**
     * Run windows one barrier at a time until the end of the window
     * (@p window) or until every tree drained; on a traced pass, one
     * span per barrier step.
     */
    static void
    advance(Context &ctx, hh::svc::FleetSim &fleet, bool window, int parent)
    {
        if (!window && !ctx.spans.enabled()) {
            fleet.advanceWindows(ctx.workers);
            return;
        }
        while (!fleet.drained() && !(window && windowDone(fleet))) {
            ScopedSpan sp(ctx.spans, "svc.window", parent);
            fleet.advanceWindows(ctx.workers, fleet.barrier() + 1);
        }
    }

    /**
     * Percentile of a log2-bucketed histogram, interpolated linearly
     * inside the bucket holding the rank. FleetResults reports bucket
     * bounds, which repeat across seeds and so cannot show a shift
     * smaller than a factor of two.
     */
    static double
    interpolatedPercentile(const hh::stats::LogHistogram &h, double q)
    {
        const double total = static_cast<double>(h.totalCount());
        if (total == 0)
            return 0;
        const double rank = q * total;
        double below = 0;
        for (std::size_t i = 0; i < h.numBuckets(); ++i) {
            const double n = static_cast<double>(h.bucketCount(i));
            if (n > 0 && below + n >= rank) {
                using hh::stats::LogHistogram;
                const double lo = LogHistogram::bucketLow(i);
                const double hi = i + 1 < h.numBuckets()
                                      ? LogHistogram::bucketLow(i + 1)
                                      : 2 * lo;
                return lo + (hi - lo) * (rank - below) / n;
            }
            below += n;
        }
        return 0;
    }

    hh::svc::FleetResults last_; //!< Results of the latest pass.
};

// ------------------------------------------------------------------
// Layer probes: ns per call into each inner layer's public API
// ------------------------------------------------------------------

/** L3 partition shape the server gives a Primary VM. */
hh::cache::Geometry
l3Geometry(const SystemConfig &cfg)
{
    const double bytes =
        cfg.llcMbPerCore * 1024.0 * 1024.0 * cfg.coresPerPrimary;
    const auto sets = static_cast<std::uint32_t>(
        std::max(1.0, bytes / (hh::cache::kLineBytes * 16.0)));
    return hh::cache::Geometry{sets, 16, hh::cache::kL3PerCore.latency};
}

hh::cache::HierarchyConfig
hierarchyConfig(const SystemConfig &cfg)
{
    hh::cache::HierarchyConfig h;
    h.repl = cfg.repl;
    h.candidateFraction = cfg.repl == hh::cache::ReplKind::HardHarvest
                              ? cfg.candidateFraction
                              : 1.0;
    h.harvestWayFraction = cfg.harvestWayFraction;
    h.partitioning = cfg.partitioning;
    h.waysFraction = cfg.waysFraction;
    h.infinite = cfg.infiniteCaches;
    h.accessWeight = std::max(1u, cfg.accessSampling);
    return h;
}

/** Results of probed calls, kept observable so none is elided. */
volatile std::uint64_t g_sink = 0;

/** Time @p body over @p reps repeats; median seconds per repeat. */
double
timeMedian(int reps, const std::function<void()> &body)
{
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        body();
        t.push_back(secondsBetween(t0, Clock::now()));
    }
    return median(t);
}

void
runProbes(const Context &ctx, const SystemConfig &cfg, Layers &out)
{
    constexpr std::size_t kAccesses = 1u << 20;
    constexpr int kReps = 5;
    const auto services = hh::workload::deathStarBenchServices();
    const auto &svc = services.front();

    // Access stream of the workload's first service, in invocation
    // order, with its segment compute lengths.
    hh::workload::ServiceWorkload work(svc, 1, ctx.baseSeed());
    std::vector<hh::cache::MemAccess> stream;
    std::vector<Cycles> compute;
    stream.reserve(kAccesses);
    while (stream.size() < kAccesses) {
        const auto plan = work.planInvocation();
        for (const auto &seg : plan.segments) {
            compute.push_back(seg.compute);
            for (std::uint32_t i = 0; i < seg.accesses &&
                                      stream.size() < kAccesses;
                 ++i)
                stream.push_back(work.nextAccess(plan));
        }
    }
    // Simulated cycles between probe accesses (DRAM queueing clock).
    constexpr Cycles kGap = 40;

    // CoreHierarchy::access.
    {
        hh::mem::Dram dram;
        hh::cache::SetAssocArray l3(
            l3Geometry(cfg), hh::cache::makePolicy(hh::cache::ReplKind::LRU));
        hh::cache::CoreHierarchy hier(hierarchyConfig(cfg), &l3, &dram);
        std::uint64_t sink = 0;
        Cycles now = 0;
        const double s = timeMedian(kReps, [&] {
            for (const auto &a : stream) {
                sink += hier.access(now, a);
                now += kGap;
            }
        });
        out["cache.ns_per_access"] =
            s * 1e9 / static_cast<double>(stream.size());

        // flushAll (wbinvd) and flushHarvestRegion of a warm hierarchy.
        const std::size_t refill = 1u << 14;
        auto warm = [&](std::size_t off) {
            for (std::size_t i = 0; i < refill; ++i)
                sink += hier.access(now,
                                    stream[(off + i) % stream.size()]);
        };
        std::vector<double> all, region;
        for (std::size_t r = 0; r < 21; ++r) {
            warm(r * refill);
            auto t0 = Clock::now();
            hier.flushAll();
            all.push_back(secondsBetween(t0, Clock::now()));
        }
        // Region flushes need a partitioned hierarchy in harvest mode.
        SystemConfig partCfg = cfg;
        partCfg.partitioning = true;
        hh::cache::CoreHierarchy part(hierarchyConfig(partCfg), &l3, &dram);
        part.setHarvestMode(true);
        for (std::size_t r = 0; r < 21; ++r) {
            for (std::size_t i = 0; i < refill; ++i)
                sink += part.access(now,
                                    stream[(r * refill + i) % stream.size()]);
            auto t0 = Clock::now();
            part.flushHarvestRegion(now, 1000);
            region.push_back(secondsBetween(t0, Clock::now()));
        }
        out["cache.flush_ns"] = median(all) * 1e9;
        out["cache.region_flush_ns"] = median(region) * 1e9;
        g_sink = g_sink + sink;
    }

    // The service's code-page Zipf sampler.
    {
        const auto zipf =
            hh::sim::sharedZipfSampler(svc.codePages, svc.zipfTheta);
        hh::sim::Rng rng(ctx.baseSeed(), 0x21);
        std::uint64_t sink = 0;
        const double s = timeMedian(kReps, [&] {
            for (std::size_t i = 0; i < kAccesses; ++i)
                sink += zipf->sample(rng);
        });
        out["workload.ns_per_zipf"] =
            s * 1e9 / static_cast<double>(kAccesses);
        g_sink = g_sink + sink;
    }

    // EventQueue schedule/cancel/pop mix: each round schedules one
    // event with a delay drawn from the service's segment compute
    // lengths, cancels a random pending id with probability 1/4 (the
    // mix of bench/micro_eventqueue), and pops the earliest event.
    {
        hh::sim::Rng rng(ctx.baseSeed(), 0x22);
        std::uint64_t sink = 0;
        std::size_t ops = 0;
        const double s = timeMedian(kReps, [&] {
            hh::sim::EventQueue q;
            std::vector<hh::sim::EventId> pending;
            Cycles now = 0;
            ops = 0;
            for (int i = 0; i < 64; ++i)
                pending.push_back(q.schedule(
                    now + 1 + compute[static_cast<std::size_t>(i) %
                                      compute.size()],
                    [&sink] { ++sink; }));
            for (std::size_t i = 0; i < kAccesses / 4; ++i) {
                const Cycles d =
                    compute[rng.uniformInt(std::uint64_t{compute.size()})];
                pending.push_back(q.schedule(now + 1 + d, [&sink] { ++sink; }));
                ++ops;
                if (rng.bernoulli(0.25) && !pending.empty()) {
                    const auto v =
                        rng.uniformInt(std::uint64_t{pending.size()});
                    q.cancel(pending[v]);
                    pending[v] = pending.back();
                    pending.pop_back();
                    ++ops;
                }
                if (!q.empty()) {
                    auto cb = q.pop(now);
                    if (cb)
                        cb();
                    ++ops;
                }
                if (pending.size() > 4096)
                    pending.erase(pending.begin(), pending.begin() + 2048);
            }
        });
        out["sim.queue_ns_per_op"] =
            s * 1e9 / static_cast<double>(std::max<std::size_t>(ops, 1));
        g_sink = g_sink + sink;
    }

    // Dram::access on the stream's pages.
    {
        hh::mem::Dram dram;
        std::uint64_t sink = 0;
        Cycles now = 0;
        const unsigned weight = std::max(1u, cfg.accessSampling);
        const double s = timeMedian(kReps, [&] {
            for (const auto &a : stream) {
                sink += dram.access(now, a.page * 64 + a.line, weight);
                now += kGap;
            }
        });
        out["mem.ns_per_access"] =
            s * 1e9 / static_cast<double>(stream.size());
        g_sink = g_sink + sink;
    }
}

// ------------------------------------------------------------------
// Entry point
// ------------------------------------------------------------------

/** Every per-layer metric with its unit, in report order. */
const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"cluster.ctor_s", "s"},
        {"cluster.start_s", "s"},
        {"cluster.advance_s", "s"},
        {"cluster.finish_s", "s"},
        {"cluster.serialize_s", "s"},
        {"cache.array_probes", "count"},
        {"cache.hier_accesses", "count"},
        {"cache.probes_per_access", "ratio"},
        {"cache.l1d.hit_rate", "ratio"},
        {"cache.l2.hit_rate", "ratio"},
        {"cache.llc.hit_rate", "ratio"},
        {"cache.l2.evictions", "count"},
        {"cache.ns_per_access", "ns"},
        {"cache.flush_ns", "ns"},
        {"cache.region_flush_ns", "ns"},
        {"workload.zipf_samples", "count"},
        {"workload.ns_per_zipf", "ns"},
        {"sim.queue_ns_per_op", "ns"},
        {"mem.dram.accesses", "count"},
        {"mem.dram.queue_delay_avg", "cycles"},
        {"mem.dram.util", "ratio"},
        {"mem.ns_per_access", "ns"},
        {"core.rq.enqueues", "count"},
        {"core.rq.overflows", "count"},
        {"core.qm.loaned", "cores"},
        {"vm.hv.wbinvd", "count"},
        {"vm.hv.lock_acquisitions", "count"},
        {"vm.hv.lock_wait_cycles", "cycles"},
        {"policy.epochs", "count"},
        {"lease.grants", "count"},
        {"lease.recalls", "count"},
        {"lease.expiries", "count"},
        {"lease.flushed_lines", "count"},
        {"lease.way_cycles", "cycles"},
        {"stats.telemetry_rows", "count"},
        {"stats.hub_s", "s"},
        {"snapshot.save_s", "s"},
        {"snapshot.load_s", "s"},
        {"snapshot.bytes", "bytes"},
        {"exp.jobs", "count"},
        {"exp.unique", "count"},
        {"exp.simulated", "count"},
        {"exp.warm_started", "count"},
        {"exp.prefix_groups", "count"},
        {"exp.run_s", "s"},
        {"svc.windows", "count"},
        {"svc.window_us.p50", "us"},
        {"svc.window_us.p99", "us"},
        {"svc.wire_messages", "count"},
        {"svc.peak_live_nodes", "count"},
        {"svc.footprint_bytes", "bytes"},
        {"svc.roots_shed", "count"},
        {"net.nic.packets", "count"},
        {"trace.events", "count"},
        {"trace.dropped", "count"},
        {"trace.open_spans", "count"},
        {"trace.overhead_pct", "%"},
        {"trace.bench_spans", "count"},
        {"check.audits", "count"},
        {"check.violations", "count"},
        {"check.digest_match", "ratio"},
    };
    return m;
}

std::string
metricJson(const std::string &name, double v, const std::string &unit)
{
    return "\"" + name + "\":{\"value\":" + jsonNumber(v) +
           ",\"unit\":\"" + unit + "\"}";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: hh_perfbench --workload hh_harvest|sw_sweep|"
                 "fleet_graph --seed N --seconds S --trace 0|1 "
                 "--out DIR [--stamp JSON]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Context ctx;
    bool haveWorkload = false, haveOut = false;
    ctx.stamp = "{}";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            ctx.workload = v;
            haveWorkload = true;
        } else if (k == "--seed") {
            ctx.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end)
                return usage();
        } else if (k == "--seconds") {
            ctx.seconds = std::strtod(v.c_str(), &end);
            if (*end || !(ctx.seconds > 0))
                return usage();
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return usage();
            ctx.trace = v == "1";
        } else if (k == "--out") {
            ctx.outDir = v;
            haveOut = true;
        } else if (k == "--stamp") {
            ctx.stamp = v;
        } else {
            return usage();
        }
    }
    if (!haveWorkload || !haveOut || argc % 2 == 0)
        return usage();

    std::unique_ptr<Workload> wl;
    if (ctx.workload == "hh_harvest")
        wl = std::make_unique<HarvestWorkload>();
    else if (ctx.workload == "sw_sweep")
        wl = std::make_unique<SweepWorkload>();
    else if (ctx.workload == "fleet_graph")
        wl = std::make_unique<FleetWorkload>();
    else
        return usage();
    ctx.workers = wl->workers();
    std::filesystem::create_directories(ctx.outDir);

    const std::string manifest =
        "{\"stamp\":" + ctx.stamp + ",\"build_type\":\"" HH_BENCH_BUILD_TYPE
        "\",\"cxx_flags\":\"" + jsonEscape(HH_BENCH_CXX_FLAGS) +
        "\",\"compiler\":\"" HH_BENCH_COMPILER "\",\"nproc\":" +
        std::to_string(std::thread::hardware_concurrency()) +
        ",\"workers\":" + std::to_string(ctx.workers) +
        ",\"workload\":\"" + ctx.workload + "\",\"seed\":" +
        std::to_string(ctx.seed) + ",\"sim_seed\":" +
        std::to_string(ctx.baseSeed()) + ",\"seconds\":" +
        jsonNumber(ctx.seconds) + ",\"trace\":" + (ctx.trace ? "1" : "0") +
        ",\"sizes\":{" + wl->sizes() + "}}";

    // Set-up alone, repeated first in a fresh process so every run
    // times it from the same state; pass set-ups join the median.
    // A sample is the mean of back-to-back set-ups lasting at least
    // kMinSetupSampleS, so that a sub-millisecond set-up is not
    // timer and cache noise.
    std::vector<double> setups;
    double setupTotal = 0;
    while (setups.size() < kMaxSetups &&
           (setups.size() < kMinSetups || setupTotal < kMinSetupSeconds)) {
        double t = 0;
        unsigned n = 0;
        do {
            t += wl->setupOnly(ctx);
            ++n;
        } while (t < kMinSetupSampleS);
        setups.push_back(t / n);
        setupTotal += t;
    }

    std::vector<PassOutcome> passes;
    std::vector<PassOutcome> traced;
    std::vector<std::string> errors;
    const auto start = Clock::now();
    // Timed passes, stopping before one that would end past the
    // budget. The first runs to the end, for the digest and the model
    // metrics, and warms the process up: it is left out of the
    // medians when later passes exist. A windowed workload's later
    // passes stop at the end of their timed phase. With --trace 1
    // every pass runs to the end, and they alternate untraced and
    // traced (at least one of each), so both see the same host
    // conditions.
    double nextPassS = 0; //!< Expected host time of the next pass.
    while (passes.size() < kMinPasses || (ctx.trace && traced.empty()) ||
           secondsBetween(start, Clock::now()) + nextPassS <= ctx.seconds) {
        const auto p0 = Clock::now();
        const bool tracedPass = ctx.trace && passes.size() > traced.size();
        const bool full = ctx.trace || passes.empty() || !wl->windowed();
        ctx.spans.setEnabled(tracedPass);
        ctx.spans.setPass(ctx.pass++);
        PassOutcome o = wl->pass(ctx, full);
        ctx.spans.setEnabled(false);
        // A window-only pass costs about the timed part of a full one.
        nextPassS = full && !ctx.trace && wl->windowed()
                        ? kPassOverhead * (o.setupS + o.wallS)
                        : secondsBetween(p0, Clock::now());
        (tracedPass ? traced : passes).push_back(std::move(o));
    }
    for (const auto &p : passes)
        setups.push_back(p.setupS);
    for (const auto &p : traced)
        setups.push_back(p.setupS);

    // Correctness: every repeat agrees with the first, at the end of
    // the timed phase and, if it ran that far, at the end of the run.
    const std::string digest = passes.front().digest;
    const std::string windowDigest = passes.front().windowDigest;
    std::uint64_t attempted = 0, failed = 0;
    for (const auto *set : {&passes, &traced}) {
        for (const auto &p : *set) {
            attempted += p.attempted;
            bool bad = !p.errors.empty();
            for (const auto &e : p.errors)
                errors.push_back(e);
            if (p.windowDigest != windowDigest) {
                errors.push_back("window digest " + p.windowDigest +
                                 " != " + windowDigest);
                bad = true;
            }
            if (p.full && p.digest != digest) {
                errors.push_back("digest " + p.digest + " != " + digest);
                bad = true;
            }
            failed += bad ? p.attempted : p.failed;
        }
    }
    // Medians leave out the first, warm-up pass when others exist.
    const std::size_t firstTimed = passes.size() > 1 ? 1 : 0;

    Layers layers;
    if (ctx.trace) {
        std::vector<double> u, t;
        for (std::size_t i = firstTimed; i < passes.size(); ++i)
            u.push_back(passes[i].wallS);
        for (const auto &p : traced)
            t.push_back(p.wallS);
        layers["trace.overhead_pct"] = (median(t) / median(u) - 1.0) * 100.0;
        // Phase times of the traced passes (medians of per-pass sums).
        for (const char *ph : {"ctor", "start", "advance", "finish",
                               "serialize"}) {
            std::vector<double> v;
            for (const auto &[pass, s] :
                 ctx.spans.totalsByPass(std::string("cluster.") + ph))
                v.push_back(s);
            layers[std::string("cluster.") + ph + "_s"] = median(v);
        }
        std::vector<std::string> cerr;
        // The replay is traced too, as a pass of its own.
        ctx.spans.setEnabled(true);
        ctx.spans.setPass(ctx.pass++);
        wl->count(ctx, digest, layers, cerr);
        ctx.spans.setEnabled(false);
        wl->snapshot(ctx, layers, cerr);
        runProbes(ctx, wl->probeConfig(), layers);
        if (layers["check.violations"] != 0)
            cerr.push_back("auditor reported " +
                           jsonNumber(layers["check.violations"]) +
                           " violations");
        if (layers["trace.open_spans"] != 0)
            cerr.push_back("simulator tracer left open spans");
        if (ctx.spans.openCount() != 0)
            cerr.push_back("benchmark span log left open spans");
        layers["trace.bench_spans"] = static_cast<double>(ctx.spans.size());
        if (!cerr.empty()) {
            // A failed traced check fails every operation of the run.
            failed = attempted;
            for (auto &e : cerr)
                errors.push_back(std::move(e));
        }
        const std::string spanPath = ctx.outDir + "/" + ctx.workload +
                                     "-seed" + std::to_string(ctx.seed) +
                                     "-spans.json";
        if (!ctx.spans.write(spanPath, manifest))
            errors.push_back("cannot write " + spanPath);
    }

    const bool correct = errors.empty();
    for (const auto &e : errors)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());

    std::vector<double> wall, cpu;
    for (std::size_t i = firstTimed; i < passes.size(); ++i) {
        wall.push_back(passes[i].wallS);
        cpu.push_back(passes[i].cpuS);
    }
    const PassOutcome &first = passes.front();
    const double wallMed = median(wall);
    std::string metrics;
    auto add = [&](const std::string &name, double v,
                   const std::string &unit) {
        metrics += (metrics.empty() ? "" : ",") + metricJson(name, v, unit);
    };
    if (!ctx.trace) {
        add("wall_s", wallMed, "s");
        add("setup_s", median(setups), "s");
        add("cpu_s", median(cpu), "s");
        add("peak_rss_mb", peakRssMb(), "MB");
        add("sim_req_per_s",
            wallMed > 0 ? static_cast<double>(first.simRequests) / wallMed
                        : 0.0,
            "1/s");
        add("model_p99_ms", first.model.p99Ms, "ms");
        add("model_p50_ms", first.model.p50Ms, "ms");
        add("model_batch_tput", first.model.batchTput, "tasks/s");
        add("model_util", first.model.util, "ratio");
        add("fidelity_err", first.model.fidelityErr, "ratio");
    } else {
        for (const auto &[name, unit] : perLayerMetrics())
            add(name, layers.count(name) ? layers[name] : 0.0, unit);
    }

    // Human-readable summary and manifest precede the result line.
    std::printf("manifest %s\n", manifest.c_str());
    std::printf("digest %s window_digest %s passes=%zu traced=%zu "
                "wall_s=[",
                digest.c_str(), windowDigest.c_str(), passes.size(),
                traced.size());
    for (std::size_t i = 0; i < passes.size(); ++i)
        std::printf("%s%.4f", i ? " " : "", passes[i].wallS);
    std::printf("]\n");
    {
        std::ofstream os(ctx.outDir + "/" + ctx.workload + "-seed" +
                         std::to_string(ctx.seed) +
                         (ctx.trace ? "-trace" : "") + ".json");
        os << "{\"manifest\":" << manifest << ",\"digest\":\"" << digest
           << "\",\"metrics\":{" << metrics << "}}\n";
    }
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    return 0;
}
