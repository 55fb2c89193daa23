/**
 * @file
 * Simulator speed tracker: measures the wall-clock of the parallel
 * cluster engine against the sequential baseline and the event
 * queue's ops/sec under three schedule/cancel/pop mixes, then writes
 * the numbers as machine-readable JSON so the perf trajectory is
 * tracked across changes.
 *
 * Usage:  bench_speed [output.json]
 *   default output: BENCH_sim_speed.json in the current directory.
 * Honors HH_REQUESTS / HH_SERVERS / HH_SAMPLING / HH_SEED /
 * HH_THREADS; the cluster run uses all 8 batch apps unless
 * HH_SERVERS says otherwise.
 *
 * Also measures the wall-clock overhead of the observability layer
 * (request-span tracing + metric sampling, both enabled), of the
 * invariant auditor (every cross-component check sweeping at the
 * default period), of the harvest telemetry plane (per-epoch
 * ObservationView rows), of an epoch-ticking harvest policy
 * (hysteresis), and of the cache-lease plane armed but idle
 * (src/lease/, zero-way grant budget — must stay bit-identical to
 * the disabled baseline) against the everything-off parallel run. Set
 * HH_OVERHEAD_GATE=<percent> to make the binary fail when either
 * measured overhead exceeds the gate (used by CI; off by default
 * because single-core containers are noisy).
 *
 * The "graph" section runs a service-graph fleet (src/svc/, 64
 * servers x 3 tiers by default; HH_GRAPH_SERVERS / HH_GRAPH_REQUESTS
 * rescale it) and records its wall-clock plus the per-server resident
 * footprint: peak RSS growth (VmHWM) divided by the fleet size, and
 * the RPC engine's own accounting. The footprint is judged against a
 * fixed 128 MiB/server budget under the same HH_OVERHEAD_GATE knob —
 * the bounded-state contract for 64-128 server fleets.
 */

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exp/codec.h"
#include "exp/scheduler.h"
#include "sim/event_queue.h"
#include "sim/prof.h"
#include "sim/thread_pool.h"
#include "snapshot/archive.h"
#include "svc/fleet.h"
#include "workload/batch.h"

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/** Ops/sec of one schedule/cancel/pop mix over @p rounds rounds. */
double
measureQueueMix(std::uint64_t rounds,
                const hh::bench::QueueMixPreset &p)
{
    std::uint64_t sink = 0;
    hh::sim::Rng rng(7, 0xE0);
    hh::sim::EventQueue q;
    hh::sim::Cycles now = 0;
    std::vector<hh::sim::EventId> pending;
    for (int i = 0; i < 64; ++i)
        pending.push_back(
            q.schedule(now + 1 + (i % 13), [&sink] { ++sink; }));
    const auto start = Clock::now();
    for (std::uint64_t r = 0; r < rounds; ++r)
        hh::bench::eventQueueMixRound(q, rng, now, pending, sink,
                                      p.horizon, p.cancelProb);
    const double sec = secondsSince(start);
    return sec > 0 ? static_cast<double>(rounds) / sec : 0.0;
}

/** The event queue's ops/sec across the three workload presets. */
std::array<double, 3>
measureQueueMixes(std::uint64_t rounds)
{
    std::array<double, 3> ops{};
    for (std::size_t i = 0; i < 3; ++i)
        ops[i] = measureQueueMix(rounds,
                                 hh::bench::kQueueMixPresets[i]);
    return ops;
}

/** A /proc/self/status field in kB (0 when unreadable, e.g. !linux). */
std::uint64_t
procStatusKb(const char *key)
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    std::uint64_t kb = 0;
    const std::size_t len = std::strlen(key);
    while (std::fgets(line, sizeof line, f)) {
        if (std::strncmp(line, key, len) == 0 && line[len] == ':') {
            kb = std::strtoull(line + len + 1, nullptr, 10);
            break;
        }
    }
    std::fclose(f);
    return kb;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hh::bench;
    using namespace hh::cluster;

    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_sim_speed.json";

    BenchScale scale(/*def_servers=*/8);
    SystemConfig cfg = makeSystem(SystemKind::HardHarvestBlock);
    applyScale(cfg, scale);

    const unsigned workers =
        resolveWorkers(0, scale.servers);

    printHeader("bench_speed", "simulator wall-clock tracker");
    std::printf("servers=%u requests/VM=%u workers=%u\n",
                scale.servers, scale.requests, workers);

    // Sequential baseline: thread pool pinned to one worker (the
    // runParallel fast path runs tasks inline on the calling thread).
    std::printf("sequential cluster run...\n");
    const auto t_seq = Clock::now();
    const ClusterResults seq =
        runCluster(cfg, scale.servers, scale.seed, 1);
    const double seq_sec = secondsSince(t_seq);

    std::printf("parallel cluster run (%u workers)...\n", workers);
    const auto t_par = Clock::now();
    const ClusterResults par =
        runCluster(cfg, scale.servers, scale.seed, workers);
    const double par_sec = secondsSince(t_par);

    const bool identical = seq.serialized() == par.serialized();
    const double speedup = par_sec > 0 ? seq_sec / par_sec : 0.0;

    // Observability overhead: identical run with tracing + metric
    // sampling enabled. The span/timeline hot paths branch on a null
    // tracer pointer when disabled, so par_sec above is the true
    // zero-cost baseline.
    std::printf("parallel cluster run, tracing on...\n");
    SystemConfig traced = cfg;
    traced.traceEnabled = true;
    traced.metricsEnabled = true;
    const auto t_trc = Clock::now();
    const ClusterResults trc =
        runCluster(traced, scale.servers, scale.seed, workers);
    const double trc_sec = secondsSince(t_trc);
    const double trace_overhead_pct =
        par_sec > 0 ? 100.0 * (trc_sec / par_sec - 1.0) : 0.0;
    std::uint64_t trace_events = 0;
    for (const auto &t : trc.traces)
        trace_events += t.events.size() + t.dropped;

    // Auditor overhead: same run with every cross-component invariant
    // sweeping at the default period. When disabled (par_sec above)
    // no Auditor exists and the simulator's audit hook is null, so
    // the baseline is the true zero-cost path.
    std::printf("parallel cluster run, auditing on...\n");
    SystemConfig audited = cfg;
    audited.auditEnabled = true;
    const auto t_aud = Clock::now();
    const ClusterResults aud =
        runCluster(audited, scale.servers, scale.seed, workers);
    const double aud_sec = secondsSince(t_aud);
    const double audit_overhead_pct =
        par_sec > 0 ? 100.0 * (aud_sec / par_sec - 1.0) : 0.0;

    // Telemetry overhead: same run with the per-epoch ObservationView
    // materializing feature rows. When disabled (par_sec above) no
    // view exists and no epoch tick is ever scheduled, so the
    // baseline is again the true zero-cost path.
    std::printf("parallel cluster run, telemetry on...\n");
    SystemConfig telemetered = cfg;
    telemetered.telemetryEnabled = true;
    const auto t_tel = Clock::now();
    const ClusterResults tel =
        runCluster(telemetered, scale.servers, scale.seed, workers);
    const double tel_sec = secondsSince(t_tel);
    const double telemetry_overhead_pct =
        par_sec > 0 ? 100.0 * (tel_sec / par_sec - 1.0) : 0.0;
    std::uint64_t telemetry_rows = 0;
    for (const auto &t : tel.serverTelemetry)
        telemetry_rows += t.rows.size();

    // Policy-decision overhead: same run with an epoch-ticking
    // harvest policy (hysteresis — per-epoch feature rows plus EWMA
    // updates and decision application). The default "static" policy
    // never schedules an epoch tick and reads frozen decisions, so
    // par_sec above is again the zero-cost baseline. The thresholds
    // are neutralized (strict comparisons never leave the sticky
    // band) so decisions stay at the static seed and the run
    // simulates identical work — this measures the decision *plane*
    // (tick + observe + decide), not the cost of lending differently;
    // that behavioural delta is the frontier's job to report.
    std::printf("parallel cluster run, hysteresis policy on...\n");
    SystemConfig policed = cfg;
    policed.policy = "hysteresis";
    policed.policyLendUtil = 0.0;
    policed.policyHoldUtil = 1.0;
    const auto t_pol = Clock::now();
    const ClusterResults pol =
        runCluster(policed, scale.servers, scale.seed, workers);
    const double pol_sec = secondsSince(t_pol);
    const double policy_overhead_pct =
        par_sec > 0 ? 100.0 * (pol_sec / par_sec - 1.0) : 0.0;
    (void)pol;

    // Cache-lease plane overhead: same run with the CacheLeaseManager
    // constructed and its periodic tick armed, but a zero-way grant
    // budget so no lease is ever granted — the enabled-but-idle cost
    // of the tick, the overflow-probe rebinds and the per-access
    // lease branch. With no grants the simulated work is unchanged,
    // so the runs must stay bit-identical; when disabled (par_sec
    // above) no manager exists and no tick is scheduled, so the
    // baseline is again the true zero-cost path. Like every wall-
    // clock number here, single-core hosts make the absolute times
    // noisy (host.single_core_host in the JSON flags that).
    std::printf("parallel cluster run, cache lease idle...\n");
    SystemConfig leased = cfg;
    leased.cacheLendEnabled = true;
    leased.cacheLendL3Ways = 0;
    leased.cacheLendL2WayFraction = 0.0;
    const auto t_lease = Clock::now();
    const ClusterResults lease =
        runCluster(leased, scale.servers, scale.seed, workers);
    const double lease_sec = secondsSince(t_lease);
    const double lease_overhead_pct =
        par_sec > 0 ? 100.0 * (lease_sec / par_sec - 1.0) : 0.0;
    const bool lease_identical =
        lease.serialized() == par.serialized();

    // Snapshot subsystem: cost of one full-state save and load at the
    // server level, then the cluster-level warm-start path — snapshot
    // the whole cluster after a warm-up prefix, resume it, and compare
    // the resumed wall-clock against re-running the prefix (the win a
    // checkpoint-sharing sweep gets per fork).
    std::printf("snapshot save/load + warm-start resume...\n");
    const hh::sim::Cycles t_warm = hh::sim::msToCycles(
        envDouble("HH_WARMUP_MS", 2.0));
    double save_sec = 0;
    double load_sec = 0;
    std::size_t state_bytes = 0;
    {
        const auto apps = hh::workload::batchApplications();
        ServerSim warm(cfg, apps.front().name, scale.seed);
        warm.startRun();
        warm.advanceRun(t_warm);
        const auto t_sv = Clock::now();
        auto ar = hh::snap::Archive::forSave();
        warm.saveState(ar);
        save_sec = secondsSince(t_sv);
        const std::vector<std::uint8_t> blob = ar.take();
        state_bytes = blob.size();
        ServerSim cold(cfg, apps.front().name, scale.seed);
        const auto t_ld = Clock::now();
        auto lr = hh::snap::Archive::forLoad(blob);
        cold.loadState(lr);
        load_sec = secondsSince(t_ld);
        if (!lr.ok())
            hh::sim::fatal("snapshot bench load failed: ", lr.error());
    }
    const std::string ckpt_path = out_path + ".hhcp";
    std::string ckpt_err;
    const auto t_ck = Clock::now();
    const bool ckpt_ok = checkpointClusterAt(
        cfg, scale.servers, scale.seed, workers, t_warm, ckpt_path,
        &ckpt_err);
    const double ckpt_sec = secondsSince(t_ck);
    if (!ckpt_ok)
        hh::sim::fatal("cluster checkpoint failed: ", ckpt_err);
    const auto t_rs = Clock::now();
    const auto resumed =
        resumeCluster(ckpt_path, cfg, workers, &ckpt_err);
    const double resume_sec = secondsSince(t_rs);
    if (!resumed)
        hh::sim::fatal("cluster resume failed: ", ckpt_err);
    std::remove(ckpt_path.c_str());
    const bool snap_identical =
        resumed->serialized() == par.serialized();
    const double warm_speedup =
        resume_sec > 0 ? par_sec / resume_sec : 0.0;
    const double snap_overhead_pct =
        par_sec > 0 ? 100.0 * (save_sec + load_sec) / par_sec : 0.0;

    // Experiment-engine warm starts: a 3-point arrival-budget sweep
    // {R/2, 3R/4, R} run cold (every point from t=0) vs through the
    // JobScheduler's config-prefix warm start (donor R simulates once;
    // the smaller budgets resume from its snapshot). Unlike the
    // cluster speedup, the win here survives a single-core host — warm
    // starts skip simulated work, they don't add parallelism.
    std::printf("experiment warm-start sweep (cold vs warm)...\n");
    const std::vector<unsigned> budgets = {
        std::max(scale.requests / 2, 1u),
        std::max(3 * scale.requests / 4, 2u), scale.requests};
    const std::string sweep_app =
        hh::workload::batchApplications().front().name;
    const auto submitSweep = [&](hh::exp::JobScheduler &s) {
        std::vector<hh::exp::JobScheduler::Handle> hs;
        for (const unsigned b : budgets) {
            SystemConfig c = cfg;
            c.requestsPerVm = b;
            // The shareable prefix ends when the *fastest* primary VM
            // reaches the smallest member's warmup boundary
            // (bit-identity: samples past it must be recorded by the
            // member, not the donor). The default 10% warmup leaves
            // nothing worth sharing, and the heterogeneous 8-service
            // mix caps the prefix at the fastest service's rate — so
            // the sweep uses a steady-state warmup share and a
            // uniform single-primary config, the regime prefix
            // sharing is built for.
            c.warmupFraction = 0.5;
            c.primaryVms = 1;
            hs.push_back(s.addServer(c, sweep_app, scale.seed));
        }
        return hs;
    };
    hh::exp::JobScheduler::Options cold_opts;
    cold_opts.warmStart = false;
    hh::exp::JobScheduler cold_sched(cold_opts);
    const auto cold_handles = submitSweep(cold_sched);
    const auto t_cold = Clock::now();
    cold_sched.run();
    const double exp_cold_sec = secondsSince(t_cold);

    hh::exp::JobScheduler warm_sched;
    const auto warm_handles = submitSweep(warm_sched);
    const auto t_wstart = Clock::now();
    warm_sched.run();
    const double exp_warm_sec = secondsSince(t_wstart);

    bool exp_identical = true;
    for (std::size_t i = 0; i < budgets.size(); ++i) {
        exp_identical =
            exp_identical &&
            hh::exp::encodeServerResults(
                cold_sched.serverResult(cold_handles[i])) ==
                hh::exp::encodeServerResults(
                    warm_sched.serverResult(warm_handles[i]));
    }
    const double exp_speedup =
        exp_warm_sec > 0 ? exp_cold_sec / exp_warm_sec : 0.0;
    const auto &warm_stats = warm_sched.stats();

    // Service-graph fleet footprint: a 64-server three-tier RPC-DAG
    // fleet at a reduced arrival budget. The interesting number is
    // resident state per server — the fleet must stay bounded at
    // 64-128 servers — measured as peak-RSS growth over the resident
    // set just before the fleet existed, divided by the fleet size.
    const unsigned graph_servers = envUnsigned("HH_GRAPH_SERVERS", 64);
    const unsigned graph_requests = envUnsigned("HH_GRAPH_REQUESTS", 8);
    std::printf("graph fleet run (%u servers, 3 tiers, %u req/VM)"
                "...\n",
                graph_servers, graph_requests);
    const hh::svc::ServiceGraphSpec gspec =
        hh::svc::makeLayeredGraphSpec(/*depth=*/3, /*fanout=*/2,
                                      graph_servers);
    SystemConfig gcfg = cfg;
    gcfg.requestsPerVm = graph_requests;
    const std::uint64_t rss_before_kb = procStatusKb("VmRSS");
    const auto t_gr = Clock::now();
    const hh::svc::FleetResults gres =
        hh::svc::runFleet(gspec, gcfg, scale.seed, workers);
    const double graph_sec = secondsSince(t_gr);
    const std::uint64_t hwm_after_kb = procStatusKb("VmHWM");
    const double graph_rss_per_server_kb =
        (hwm_after_kb > rss_before_kb && graph_servers > 0)
            ? static_cast<double>(hwm_after_kb - rss_before_kb) /
                  graph_servers
            : 0.0;
    // Judged as "overhead" against a fixed 128 MiB/server budget so
    // the one HH_OVERHEAD_GATE knob covers it: positive means the
    // budget is exceeded.
    constexpr double kGraphRssBudgetKb = 128.0 * 1024.0;
    const double graph_rss_overhead_pct =
        graph_rss_per_server_kb > 0
            ? 100.0 * (graph_rss_per_server_kb / kGraphRssBudgetKb -
                       1.0)
            : -100.0;

    std::printf("event-queue mixes (near / far / cancel)...\n");
    const std::uint64_t rounds = 4'000'000;
    const auto wheel_ops = measureQueueMixes(rounds);

    // Profile pass: re-run a reduced sequential slice with the
    // scoped cycle counters on, then report where kernel time goes.
    // Separate from the timed runs above so the (small) rdtsc +
    // atomic-add overhead never pollutes the tracked numbers.
    std::printf("profile pass (scoped cycle counters on)...\n");
    hh::sim::prof::reset();
    hh::sim::prof::setEnabled(true);
    const auto t_prof = Clock::now();
    SystemConfig prof_cfg = cfg;
    prof_cfg.requestsPerVm = std::max(scale.requests / 4, 10u);
    const ClusterResults prof_res =
        runCluster(prof_cfg, 1, scale.seed, 1);
    const double prof_sec = secondsSince(t_prof);
    hh::sim::prof::setEnabled(false);
    (void)prof_res;
    const auto prof_sites = hh::sim::prof::snapshot();

    std::printf("\ncluster:  seq %.2fs  par %.2fs  speedup %.2fx  "
                "bit-identical %s\n",
                seq_sec, par_sec, speedup,
                identical ? "yes" : "NO");
    for (std::size_t i = 0; i < 3; ++i) {
        std::printf("eventq/%-6s wheel %6.2f Mops/s\n",
                    hh::bench::kQueueMixPresets[i].name,
                    wheel_ops[i] / 1e6);
    }
    std::printf("profile:  %.2fs instrumented slice, top sites:\n",
                prof_sec);
    for (std::size_t i = 0; i < prof_sites.size() && i < 5; ++i) {
        const auto &s = prof_sites[i];
        std::printf("  %-28s %12.0f Mcycles  %10llu hits\n",
                    s.name.c_str(),
                    static_cast<double>(s.cycles) / 1e6,
                    static_cast<unsigned long long>(s.hits));
    }
    std::printf("tracing:  off %.2fs  on %.2fs  overhead %+.1f%%  "
                "(%llu events)\n",
                par_sec, trc_sec, trace_overhead_pct,
                static_cast<unsigned long long>(trace_events));
    std::printf("auditing: off %.2fs  on %.2fs  overhead %+.1f%%  "
                "(%llu sweeps, %llu violations)\n",
                par_sec, aud_sec, audit_overhead_pct,
                static_cast<unsigned long long>(aud.auditsRun),
                static_cast<unsigned long long>(aud.auditViolations));
    std::printf("telemetry: off %.2fs  on %.2fs  overhead %+.1f%%  "
                "(%llu epoch rows)\n",
                par_sec, tel_sec, telemetry_overhead_pct,
                static_cast<unsigned long long>(telemetry_rows));
    std::printf("policy:   off %.2fs  on %.2fs  overhead %+.1f%%  "
                "(hysteresis)\n",
                par_sec, pol_sec, policy_overhead_pct);
    std::printf("cache-lease: off %.2fs  idle %.2fs  overhead "
                "%+.1f%%  (%llu grants)  bit-identical %s\n",
                par_sec, lease_sec, lease_overhead_pct,
                static_cast<unsigned long long>(lease.leaseGrants),
                lease_identical ? "yes" : "NO");
    std::printf("snapshot: save %.1fms  load %.1fms  (%zu KiB)  "
                "warm-start %.2fs vs full %.2fs  speedup %.2fx  "
                "bit-identical %s\n",
                save_sec * 1e3, load_sec * 1e3, state_bytes / 1024,
                resume_sec, par_sec, warm_speedup,
                snap_identical ? "yes" : "NO");
    std::printf("experiment: budget sweep cold %.2fs  warm %.2fs  "
                "speedup %.2fx  (%zu warm-started, %zu groups)  "
                "bit-identical %s\n",
                exp_cold_sec, exp_warm_sec, exp_speedup,
                warm_stats.warmStarted, warm_stats.prefixGroups,
                exp_identical ? "yes" : "NO");
    std::printf("graph:    %u servers x %u tiers in %.2fs  "
                "%.1f MiB/server resident (budget %.0f)  "
                "peakLiveNodes/server %llu  engine %llu B/server\n",
                gres.servers, gres.depth, graph_sec,
                graph_rss_per_server_kb / 1024.0,
                kGraphRssBudgetKb / 1024.0,
                static_cast<unsigned long long>(
                    gres.maxPeakLiveNodes),
                static_cast<unsigned long long>(
                    gres.maxFootprintBytes));

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    // single_core_host makes the ROADMAP's "~1x cluster speedup on a
    // single-core container" caveat machine-readable: consumers of
    // this JSON can discount the cluster speedup when it is true.
    const unsigned hw_threads = std::thread::hardware_concurrency();
    std::fprintf(f, "  \"host\": {\n");
    std::fprintf(f, "    \"hardware_threads\": %u,\n", hw_threads);
    std::fprintf(f, "    \"single_core_host\": %s,\n",
                 hw_threads <= 1 ? "true" : "false");
    std::fprintf(f, "    \"pool_workers\": %u\n", workers);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"scale\": {\n");
    std::fprintf(f, "    \"servers\": %u,\n", scale.servers);
    std::fprintf(f, "    \"requests_per_vm\": %u,\n", scale.requests);
    std::fprintf(f, "    \"access_sampling\": %u,\n", scale.sampling);
    std::fprintf(f, "    \"seed\": %llu\n",
                 static_cast<unsigned long long>(scale.seed));
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"cluster\": {\n");
    std::fprintf(f, "    \"sequential_sec\": %.4f,\n", seq_sec);
    std::fprintf(f, "    \"parallel_sec\": %.4f,\n", par_sec);
    std::fprintf(f, "    \"speedup\": %.3f,\n", speedup);
    std::fprintf(f, "    \"bit_identical\": %s\n",
                 identical ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"event_queue\": {\n");
    std::fprintf(f, "    \"mix_rounds\": %llu,\n",
                 static_cast<unsigned long long>(rounds));
    std::fprintf(f, "    \"wheel\": {\n");
    for (std::size_t i = 0; i < 3; ++i) {
        std::fprintf(f, "      \"%s_ops_per_sec\": %.0f%s\n",
                     hh::bench::kQueueMixPresets[i].name, wheel_ops[i],
                     i + 1 < 3 ? "," : "");
    }
    std::fprintf(f, "    }\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"profile\": {\n");
    std::fprintf(f, "    \"instrumented_sec\": %.4f,\n", prof_sec);
    std::fprintf(f, "    \"sites\": [\n");
    for (std::size_t i = 0; i < prof_sites.size(); ++i) {
        const auto &s = prof_sites[i];
        std::fprintf(
            f,
            "      {\"name\": \"%s\", \"cycles\": %llu, "
            "\"hits\": %llu}%s\n",
            s.name.c_str(),
            static_cast<unsigned long long>(s.cycles),
            static_cast<unsigned long long>(s.hits),
            i + 1 < prof_sites.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"tracing\": {\n");
    std::fprintf(f, "    \"baseline_sec\": %.4f,\n", par_sec);
    std::fprintf(f, "    \"traced_sec\": %.4f,\n", trc_sec);
    std::fprintf(f, "    \"overhead_pct\": %.2f,\n",
                 trace_overhead_pct);
    std::fprintf(f, "    \"events\": %llu\n",
                 static_cast<unsigned long long>(trace_events));
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"auditing\": {\n");
    std::fprintf(f, "    \"baseline_sec\": %.4f,\n", par_sec);
    std::fprintf(f, "    \"audited_sec\": %.4f,\n", aud_sec);
    std::fprintf(f, "    \"overhead_pct\": %.2f,\n",
                 audit_overhead_pct);
    std::fprintf(f, "    \"sweeps\": %llu,\n",
                 static_cast<unsigned long long>(aud.auditsRun));
    std::fprintf(f, "    \"violations\": %llu\n",
                 static_cast<unsigned long long>(aud.auditViolations));
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"telemetry\": {\n");
    std::fprintf(f, "    \"baseline_sec\": %.4f,\n", par_sec);
    std::fprintf(f, "    \"telemetered_sec\": %.4f,\n", tel_sec);
    std::fprintf(f, "    \"overhead_pct\": %.2f,\n",
                 telemetry_overhead_pct);
    std::fprintf(f, "    \"epoch_rows\": %llu\n",
                 static_cast<unsigned long long>(telemetry_rows));
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"policy\": {\n");
    std::fprintf(f, "    \"policy\": \"hysteresis\",\n");
    std::fprintf(f, "    \"baseline_sec\": %.4f,\n", par_sec);
    std::fprintf(f, "    \"policy_sec\": %.4f,\n", pol_sec);
    std::fprintf(f, "    \"overhead_pct\": %.2f\n",
                 policy_overhead_pct);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"cache_harvest\": {\n");
    std::fprintf(f, "    \"baseline_sec\": %.4f,\n", par_sec);
    std::fprintf(f, "    \"lease_idle_sec\": %.4f,\n", lease_sec);
    std::fprintf(f, "    \"overhead_pct\": %.2f,\n",
                 lease_overhead_pct);
    std::fprintf(f, "    \"lease_grants\": %llu,\n",
                 static_cast<unsigned long long>(lease.leaseGrants));
    std::fprintf(f, "    \"bit_identical\": %s\n",
                 lease_identical ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"snapshot\": {\n");
    std::fprintf(f, "    \"warmup_ms\": %.3f,\n",
                 hh::sim::cyclesToMs(t_warm));
    std::fprintf(f, "    \"state_bytes\": %zu,\n", state_bytes);
    std::fprintf(f, "    \"save_sec\": %.6f,\n", save_sec);
    std::fprintf(f, "    \"load_sec\": %.6f,\n", load_sec);
    std::fprintf(f, "    \"overhead_pct\": %.2f,\n",
                 snap_overhead_pct);
    std::fprintf(f, "    \"checkpoint_run_sec\": %.4f,\n", ckpt_sec);
    std::fprintf(f, "    \"full_sec\": %.4f,\n", par_sec);
    std::fprintf(f, "    \"resume_sec\": %.4f,\n", resume_sec);
    std::fprintf(f, "    \"warm_start_speedup\": %.3f,\n",
                 warm_speedup);
    std::fprintf(f, "    \"bit_identical\": %s\n",
                 snap_identical ? "true" : "false");
    std::fprintf(f, "  },\n");
    // Warm-start wins hold on a single-core host (less simulated
    // work); host.single_core_host only discounts the cluster speedup.
    std::fprintf(f, "  \"experiment\": {\n");
    std::fprintf(f, "    \"budgets\": [%u, %u, %u],\n", budgets[0],
                 budgets[1], budgets[2]);
    std::fprintf(f, "    \"cold_sec\": %.4f,\n", exp_cold_sec);
    std::fprintf(f, "    \"warm_sec\": %.4f,\n", exp_warm_sec);
    std::fprintf(f, "    \"warm_start_speedup\": %.3f,\n",
                 exp_speedup);
    std::fprintf(f, "    \"warm_started\": %zu,\n",
                 warm_stats.warmStarted);
    std::fprintf(f, "    \"prefix_groups\": %zu,\n",
                 warm_stats.prefixGroups);
    std::fprintf(f, "    \"bit_identical\": %s\n",
                 exp_identical ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"graph\": {\n");
    std::fprintf(f, "    \"servers\": %u,\n", gres.servers);
    std::fprintf(f, "    \"depth\": %u,\n", gres.depth);
    std::fprintf(f, "    \"requests_per_vm\": %u,\n", graph_requests);
    std::fprintf(f, "    \"run_sec\": %.4f,\n", graph_sec);
    std::fprintf(f, "    \"windows\": %llu,\n",
                 static_cast<unsigned long long>(gres.windows));
    std::fprintf(f, "    \"wire_messages\": %llu,\n",
                 static_cast<unsigned long long>(gres.wireMessages));
    std::fprintf(f, "    \"peak_rss_per_server_kb\": %.1f,\n",
                 graph_rss_per_server_kb);
    std::fprintf(f, "    \"rss_budget_per_server_kb\": %.0f,\n",
                 kGraphRssBudgetKb);
    std::fprintf(f, "    \"rss_overhead_pct\": %.2f,\n",
                 graph_rss_overhead_pct);
    std::fprintf(f, "    \"peak_live_nodes_per_server\": %llu,\n",
                 static_cast<unsigned long long>(
                     gres.maxPeakLiveNodes));
    std::fprintf(f, "    \"engine_bytes_per_server\": %llu\n",
                 static_cast<unsigned long long>(
                     gres.maxFootprintBytes));
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());

    const double gate_limit = envDouble("HH_OVERHEAD_GATE", 0);
    if (gate_limit > 0) {
        if (trace_overhead_pct > gate_limit) {
            std::fprintf(stderr,
                         "tracing overhead %.1f%% exceeds gate "
                         "%.1f%%\n",
                         trace_overhead_pct, gate_limit);
            return 1;
        }
        if (audit_overhead_pct > gate_limit) {
            std::fprintf(stderr,
                         "auditing overhead %.1f%% exceeds gate "
                         "%.1f%%\n",
                         audit_overhead_pct, gate_limit);
            return 1;
        }
        if (telemetry_overhead_pct > gate_limit) {
            std::fprintf(stderr,
                         "telemetry overhead %.1f%% exceeds gate "
                         "%.1f%%\n",
                         telemetry_overhead_pct, gate_limit);
            return 1;
        }
        if (policy_overhead_pct > gate_limit) {
            std::fprintf(stderr,
                         "policy-decision overhead %.1f%% exceeds "
                         "gate %.1f%%\n",
                         policy_overhead_pct, gate_limit);
            return 1;
        }
        if (lease_overhead_pct > gate_limit) {
            std::fprintf(stderr,
                         "cache-lease idle overhead %.1f%% exceeds "
                         "gate %.1f%%\n",
                         lease_overhead_pct, gate_limit);
            return 1;
        }
        if (snap_overhead_pct > gate_limit) {
            std::fprintf(stderr,
                         "snapshot save+load overhead %.1f%% exceeds "
                         "gate %.1f%%\n",
                         snap_overhead_pct, gate_limit);
            return 1;
        }
        if (graph_rss_overhead_pct > gate_limit) {
            std::fprintf(stderr,
                         "graph fleet resident state %.1f MiB/server "
                         "exceeds the %.0f MiB budget by %.1f%% "
                         "(gate %.1f%%)\n",
                         graph_rss_per_server_kb / 1024.0,
                         kGraphRssBudgetKb / 1024.0,
                         graph_rss_overhead_pct, gate_limit);
            return 1;
        }
    }
    if (aud.auditViolations != 0) {
        std::fprintf(stderr,
                     "audited bench run reported %llu invariant "
                     "violations\n",
                     static_cast<unsigned long long>(
                         aud.auditViolations));
        return 1;
    }
    if (!lease_identical) {
        std::fprintf(stderr,
                     "cache-lease idle run is not bit-identical to "
                     "the disabled baseline\n");
        return 1;
    }
    if (!snap_identical) {
        std::fprintf(stderr,
                     "warm-start resume is not bit-identical to the "
                     "full run\n");
        return 1;
    }
    if (!exp_identical) {
        std::fprintf(stderr,
                     "experiment warm-start sweep is not "
                     "bit-identical to the cold sweep\n");
        return 1;
    }
    return identical ? 0 : 1;
}
