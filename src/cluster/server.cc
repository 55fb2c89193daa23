#include "cluster/server.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <unordered_set>

#include "cluster/checkpoint.h"
#include "sim/log.h"
#include "sim/prof.h"

namespace hh::cluster {

using hh::sim::Cycles;
using hh::snap::SnapTag;
using hh::snap::tag;

namespace {

/** L3 partition geometry for a VM (CAT-style per-VM partition). */
hh::cache::Geometry
l3PartitionGeometry(double mbPerCore, unsigned vmCores)
{
    const double bytes = mbPerCore * 1024.0 * 1024.0 * vmCores;
    const auto sets = static_cast<std::uint32_t>(std::max(
        1.0, bytes / (hh::cache::kLineBytes * 16.0)));
    return hh::cache::Geometry{sets, 16, hh::cache::kL3PerCore.latency};
}

} // namespace

double
ServerResults::avgP99Ms() const
{
    if (services.empty())
        return 0;
    double s = 0;
    for (const auto &r : services)
        s += r.p99Ms;
    return s / static_cast<double>(services.size());
}

double
ServerResults::avgP50Ms() const
{
    if (services.empty())
        return 0;
    double s = 0;
    for (const auto &r : services)
        s += r.p50Ms;
    return s / static_cast<double>(services.size());
}

ServerSim::ServerSim(const SystemConfig &cfg, const std::string &batchApp,
                     std::uint64_t seed)
    : ServerSim(cfg, batchApp, GraphServerPlan{}, seed)
{}

ServerSim::ServerSim(const SystemConfig &cfg, const std::string &batchApp,
                     const GraphServerPlan &plan, std::uint64_t seed)
    : cfg_(cfg), seed_(seed ? seed : cfg.seed), dram_(),
      mesh_(6, 6), fabric_(), rng_(seed_, 0x5E8FULL), graph_plan_(plan)
{
    nic_ = std::make_unique<hh::net::Nic>(sim_);
    ctrl_ = std::make_unique<hh::core::HardHarvestController>(
        hh::core::ControllerConfig{}, cfg_.cores);
    ctxmem_ = std::make_unique<hh::core::RequestContextMemory>(mesh_);
    hyp_ = std::make_unique<hh::vm::Hypervisor>(cfg_.swCosts, seed_);

    buildVms(batchApp);
    buildCores();

    // Harvest policy: constructed eagerly so snapshot restore always
    // finds its re-arm target. Never null past this point.
    std::string policy_err;
    policy_ = hh::policy::makeHarvestPolicy(policyConfig(),
                                            &policy_err);
    if (!policy_err.empty())
        hh::sim::fatal("ServerSim: ", policy_err);
    policy_applied_fraction_.assign(vms_.size(),
                                    cfg_.harvestWayFraction);

    // Cache-capacity leasing (src/lease/): constructed only when the
    // second harvest dimension is on, so disabled runs carry no lease
    // state and their snapshots stay layout-compatible.
    if (cfg_.cacheLendEnabled)
        lease_mgr_ = std::make_unique<hh::lease::CacheLeaseManager>(
            static_cast<unsigned>(vms_.size()), cfg_.cacheLendTerm);

    if (cfg_.traceEnabled)
        tracer_ = std::make_unique<hh::trace::Tracer>(
            cfg_.traceCapacity);
    registerMetrics();

    // Invariant auditing (config flag or HH_AUDIT=1). Mirrors the
    // tracing gating: disabled means no Auditor exists and the
    // simulator's audit hook stays null.
    const char *audit_env = std::getenv("HH_AUDIT");
    if (cfg_.auditEnabled ||
        (audit_env && *audit_env && *audit_env != '0')) {
        auditor_ = std::make_unique<hh::check::Auditor>();
        auditor_->setPanicOnViolation(cfg_.auditPanic);
        registerInvariants();
        auditor_->registerMetrics(registry_, "audit");
        sim_.setAuditHook(
            [this](Cycles t) {
                auditor_->audit(t);
                if (cfg_.auditStopOnViolation &&
                    auditor_->violationCount() > 0)
                    sim_.requestStop();
            },
            std::max<std::uint64_t>(1, cfg_.auditPeriod));
    }
    if (cfg_.faults.enabled) {
        injector_ = std::make_unique<hh::check::FaultInjector>(
            sim_, seed_, cfg_.faults);
        registerFaultActions();
        injector_->registerMetrics(registry_, "faults");
    }

    nic_->setHandler([this](const hh::net::Packet &p) { onPacket(p); });
    nic_->setLlcLookup([this](std::uint32_t vm)
                           -> hh::cache::SetAssocArray * {
        return vm < vms_.size() ? vms_[vm].l3.get() : nullptr;
    });
}

ServerSim::~ServerSim() = default;

void
ServerSim::buildVms(const std::string &batchApp)
{
    const auto layout = hh::vm::defaultServerLayout(
        cfg_.cores, cfg_.primaryVms, cfg_.coresPerPrimary);
    const auto services = hh::workload::deathStarBenchServices();
    harvest_vm_ = cfg_.primaryVms;

    pending_reclaims_.assign(layout.size(), 0);
    last_reclaim_at_.assign(layout.size(), 0);
    ewma_block_cycles_.assign(layout.size(), 0.0);
    vm_lent_cycles_.assign(layout.size(), 0);
    vm_reclaims_.assign(layout.size(), 0);
    vm_reclaim_cycles_.assign(layout.size(), 0);
    for (const auto &desc : layout) {
        VmCtx v;
        v.desc = desc;
        v.latencies = hh::stats::LatencyRecorder(
            "vm" + std::to_string(desc.id) + ".latency_ms");
        v.l3 = std::make_unique<hh::cache::SetAssocArray>(
            l3PartitionGeometry(cfg_.llcMbPerCore,
                                static_cast<unsigned>(
                                    desc.cores.size())),
            hh::cache::makePolicy(hh::cache::ReplKind::LRU));
        if (desc.isPrimary() && graph_plan_.enabled) {
            // Graph mode: the placement plan decides which slots host
            // a tier service and which of those generate open-loop
            // arrivals (front tier only). Unused slots stay idle —
            // their cores are harvestable capacity.
            const GraphVmPlan gp =
                desc.id < graph_plan_.vms.size()
                    ? graph_plan_.vms[desc.id]
                    : GraphVmPlan{};
            if (gp.used) {
                const auto &spec =
                    hh::workload::serviceByName(gp.service);
                v.service =
                    std::make_unique<hh::workload::ServiceWorkload>(
                        spec, desc.asid, seed_);
                if (gp.front) {
                    const double rate =
                        spec.rpsPerCore *
                        static_cast<double>(desc.cores.size()) *
                        cfg_.loadScale * gp.rateScale;
                    v.loadgen =
                        std::make_unique<hh::workload::LoadGenerator>(
                            rate, cfg_.burst, seed_, desc.id);
                    v.arrivalsRemaining = cfg_.requestsPerVm;
                    v.warmupSkip = static_cast<unsigned>(
                        cfg_.warmupFraction *
                        static_cast<double>(cfg_.requestsPerVm));
                }
            }
        } else if (desc.isPrimary()) {
            const auto &spec = services[desc.id % services.size()];
            v.service = std::make_unique<hh::workload::ServiceWorkload>(
                spec, desc.asid, seed_);
            const double rate = spec.rpsPerCore *
                                static_cast<double>(desc.cores.size()) *
                                cfg_.loadScale;
            v.loadgen = std::make_unique<hh::workload::LoadGenerator>(
                rate, cfg_.burst, seed_, desc.id);
            v.arrivalsRemaining = cfg_.requestsPerVm;
            v.warmupSkip = static_cast<unsigned>(
                cfg_.warmupFraction *
                static_cast<double>(cfg_.requestsPerVm));
        }
        ctrl_->registerVm(desc.id, desc.isPrimary(),
                          static_cast<unsigned>(desc.cores.size()));
        auto *qm = ctrl_->qmFor(desc.id);
        qm->harvestMask().setFraction(cfg_.harvestWayFraction);
        for (unsigned c : desc.cores)
            qm->bindCore(c);
        vms_.push_back(std::move(v));
    }

    batch_ = std::make_unique<hh::workload::BatchWorkload>(
        hh::workload::batchByName(batchApp),
        vms_[harvest_vm_].desc.asid, seed_);
}

void
ServerSim::buildCores()
{
    hh::cache::HierarchyConfig hcfg;
    hcfg.repl = cfg_.repl;
    hcfg.candidateFraction =
        cfg_.repl == hh::cache::ReplKind::HardHarvest
            ? cfg_.candidateFraction
            : 1.0;
    hcfg.harvestWayFraction = cfg_.harvestWayFraction;
    hcfg.partitioning = cfg_.partitioning;
    hcfg.waysFraction = cfg_.waysFraction;
    hcfg.infinite = cfg_.infiniteCaches;
    hcfg.accessWeight = std::max(1u, cfg_.accessSampling);

    core_ctx_.assign(cfg_.cores, CoreCtx{});
    core_loan_start_.assign(cfg_.cores, kNotLent);
    for (const auto &v : vms_) {
        for (unsigned c : v.desc.cores) {
            while (cores_.size() <= c)
                cores_.push_back(nullptr);
        }
    }
    cores_.resize(cfg_.cores);
    for (const auto &v : vms_) {
        for (unsigned c : v.desc.cores) {
            cores_[c] = std::make_unique<hh::cpu::Core>(
                c, hcfg, v.l3.get(), &dram_);
            cores_[c]->setBoundVm(v.desc.id);
        }
    }
}

void
ServerSim::registerMetrics()
{
    // Hierarchical dotted names; the server prefix ("server0.") is
    // added by the exporter/cluster layer so names can be aggregated
    // by suffix across servers.
    const auto now = [this] { return sim_.now(); };
    nic_->registerMetrics(registry_, "nic");
    dram_.registerMetrics(registry_, "dram", now);
    hyp_->registerMetrics(registry_, "hv");
    ctrl_->registerMetrics(registry_, "ctrl");
    registry_.registerCounter("server.loans", loans_);
    registry_.registerCounter("server.reclaims", reclaims_);
    registry_.registerCounter("server.batch_tasks", batch_tasks_done_);
    for (auto &v : vms_) {
        const std::string p = "vm" + std::to_string(v.desc.id);
        ctrl_->qmFor(v.desc.id)->registerMetrics(registry_, p + ".qm");
        v.l3->registerMetrics(registry_, p + ".l3");
        if (v.desc.isPrimary())
            registry_.registerLatency(p + ".latency_ms", v.latencies);
    }
    for (const auto &core : cores_) {
        core->registerMetrics(
            registry_, "core" + std::to_string(core->id()), now);
    }
}

void
ServerSim::registerInvariants()
{
    using hh::sim::detail::concat;
    auto &aud = *auditor_;

    // Core ownership and scheduling-phase consistency: every core is
    // bound to exactly one QM (its VM's), the core's loan flag agrees
    // with the controller's, and each phase implies a coherent
    // (runningRequest, slice) pair.
    aud.addInvariant("core", [this]() -> std::optional<std::string> {
        using hh::sim::detail::concat;
        for (unsigned c = 0; c < cores_.size(); ++c) {
            const CoreCtx &ctx = core_ctx_[c];
            const std::uint32_t bound = cores_[c]->boundVm();
            unsigned owners = 0;
            bool owner_is_vm = false;
            bool qm_loan = false;
            ctrl_->forEachQm([&](const hh::core::QueueManager &qm) {
                if (!qm.isBound(c))
                    return;
                ++owners;
                if (qm.vm() == bound) {
                    owner_is_vm = true;
                    qm_loan = qm.isOnLoan(c);
                }
            });
            if (owners != 1 || !owner_is_vm)
                return concat("core ", c, " bound by ", owners,
                              " QM(s), expected exactly one (vm ",
                              bound, ")");
            if (ctx.onLoan != qm_loan)
                return concat("core ", c, " onLoan=", ctx.onLoan,
                              " disagrees with its QM's loan state ",
                              qm_loan);
            switch (ctx.phase) {
            case Phase::Idle:
            case Phase::Transition:
                if (ctx.runningRequest != 0)
                    return concat("core ", c, " is ",
                                  ctx.phase == Phase::Idle
                                      ? "Idle"
                                      : "in Transition",
                                  " but still claims request ",
                                  ctx.runningRequest);
                if (ctx.slice)
                    return concat("core ", c,
                                  " holds a harvest slice outside "
                                  "RunHarvest");
                break;
            case Phase::RunPrimary: {
                if (ctx.runningRequest == 0)
                    return concat("core ", c,
                                  " RunPrimary without a request");
                if (ctx.slice)
                    return concat("core ", c,
                                  " RunPrimary with a harvest slice");
                const auto *req = requests_.find(ctx.runningRequest);
                if (!req)
                    return concat("core ", c, " runs unknown request ",
                                  ctx.runningRequest);
                if (req->state != hh::cpu::RequestState::Running)
                    return concat("request ", ctx.runningRequest,
                                  " on core ", c,
                                  " is not in Running state");
                const auto *qm = ctrl_->qmFor(req->vm);
                if (!qm || qm->queue().runningEntries().count(
                               ctx.runningRequest) == 0)
                    return concat("request ", ctx.runningRequest,
                                  " on core ", c,
                                  " missing from its subqueue's "
                                  "running set");
                break;
            }
            case Phase::RunHarvest:
                if (!ctx.slice)
                    return concat("core ", c,
                                  " RunHarvest without a slice");
                if (ctx.runningRequest != 0)
                    return concat("core ", c,
                                  " RunHarvest while claiming "
                                  "request ",
                                  ctx.runningRequest);
                break;
            }
        }
        return std::nullopt;
    });

    // Request-state cross-check: every Running request executes on
    // exactly one core (the PR-1 race orphaned requests here), and
    // every payload a subqueue holds maps back to a live request in
    // the matching state.
    aud.addInvariant("request", [this]() -> std::optional<std::string> {
        using hh::sim::detail::concat;
        std::unordered_map<std::uint64_t, unsigned> claims;
        for (const CoreCtx &ctx : core_ctx_) {
            if (ctx.phase == Phase::RunPrimary &&
                ctx.runningRequest != 0)
                ++claims[ctx.runningRequest];
        }
        std::optional<std::string> req_err;
        requests_.forEach([&](std::uint64_t id,
                              const hh::cpu::Request &req) {
            if (req_err)
                return;
            const auto it = claims.find(id);
            const unsigned n = it == claims.end() ? 0 : it->second;
            switch (req.state) {
            case hh::cpu::RequestState::Running:
                if (n != 1)
                    req_err = concat(
                        "request ", id, " (vm ", req.vm,
                        ") is Running on ", n,
                        " cores (orphaned or duplicated)");
                break;
            case hh::cpu::RequestState::Queued:
            case hh::cpu::RequestState::Blocked:
                if (n != 0)
                    req_err = concat(
                        "request ", id, " (vm ", req.vm,
                        ") claimed by a core while ",
                        req.state == hh::cpu::RequestState::Queued
                            ? "Queued"
                            : "Blocked");
                break;
            case hh::cpu::RequestState::Done:
                req_err = concat("request ", id,
                                 " lingers in Done state");
                break;
            }
        });
        if (req_err)
            return req_err;
        std::optional<std::string> err;
        ctrl_->forEachQm([&](const hh::core::QueueManager &qm) {
            if (err)
                return;
            const auto &q = qm.queue();
            const auto check = [&](std::uint64_t id,
                                   hh::cpu::RequestState want,
                                   const char *where) {
                const auto *req = requests_.find(id);
                if (!req)
                    err = concat("vm ", qm.vm(), " ", where,
                                 " holds unknown request ", id);
                else if (req->vm != qm.vm())
                    err = concat("request ", id, " of vm ", req->vm,
                                 " found in vm ", qm.vm(),
                                 "'s subqueue");
                else if (req->state != want)
                    err = concat("request ", id, " in ", where,
                                 " of vm ", qm.vm(),
                                 " has inconsistent state");
            };
            for (const auto id : q.readyEntries())
                check(id, hh::cpu::RequestState::Queued, "ready");
            for (const auto id : q.overflowEntries())
                check(id, hh::cpu::RequestState::Queued, "overflow");
            for (const auto id : q.runningEntries())
                check(id, hh::cpu::RequestState::Running, "running");
            for (const auto id : q.blockedEntries())
                check(id, hh::cpu::RequestState::Blocked, "blocked");
        });
        return err;
    });

    // RQ chunk accounting: every allocated chunk is mapped by exactly
    // one subqueue and vice versa; no payload sits in two containers
    // of a subqueue; the overflow queue only backs a full subqueue
    // (the FIFO guarantee behind SubQueue::enqueue's contract).
    aud.addInvariant("rq", [this]() -> std::optional<std::string> {
        using hh::sim::detail::concat;
        const auto &rq = ctrl_->rq();
        std::vector<unsigned> owners(rq.numChunks(), 0);
        std::size_t mapped = 0;
        std::optional<std::string> err;
        ctrl_->forEachQm([&](const hh::core::QueueManager &qm) {
            if (err)
                return;
            const auto &q = qm.queue();
            for (const unsigned chunk : q.rqMap()) {
                if (chunk >= rq.numChunks()) {
                    err = concat("vm ", qm.vm(),
                                 " maps nonexistent chunk ", chunk);
                    return;
                }
                if (++owners[chunk] > 1) {
                    err = concat("chunk ", chunk,
                                 " mapped by more than one subqueue");
                    return;
                }
                if (!rq.isAllocated(chunk)) {
                    err = concat("chunk ", chunk, " mapped by vm ",
                                 qm.vm(), " but marked free");
                    return;
                }
                ++mapped;
            }
            std::unordered_set<std::uint64_t> seen;
            const auto dup = [&](std::uint64_t id) {
                return !seen.insert(id).second;
            };
            for (const auto id : q.readyEntries())
                if (dup(id)) {
                    err = concat("request ", id,
                                 " present twice in vm ", qm.vm(),
                                 "'s subqueue");
                    return;
                }
            for (const auto id : q.runningEntries())
                if (dup(id)) {
                    err = concat("request ", id,
                                 " in two containers of vm ",
                                 qm.vm(), "'s subqueue");
                    return;
                }
            for (const auto id : q.blockedEntries())
                if (dup(id)) {
                    err = concat("request ", id,
                                 " in two containers of vm ",
                                 qm.vm(), "'s subqueue");
                    return;
                }
            for (const auto id : q.overflowEntries())
                if (dup(id)) {
                    err = concat("request ", id,
                                 " both in hardware and overflow of "
                                 "vm ",
                                 qm.vm());
                    return;
                }
            if (!q.overflowEntries().empty() &&
                q.occupancy() < q.capacity()) {
                err = concat("vm ", qm.vm(),
                             " has overflow entries while hardware "
                             "slots are free");
                return;
            }
        });
        if (err)
            return err;
        if (mapped != rq.allocatedChunks() ||
            mapped + rq.freeChunks() != rq.numChunks())
            return concat("chunk accounting broken: ", mapped,
                          " mapped, ", rq.allocatedChunks(),
                          " allocated, ", rq.freeChunks(),
                          " free of ", rq.numChunks());
        return std::nullopt;
    });

    // Cache way partitioning: per structure, the harvest region is a
    // subset of the way set, and under partitioning both the harvest
    // and non-harvest regions are non-empty (they must cover the
    // allowed mask between them).
    aud.addInvariant("cache", [this]() -> std::optional<std::string> {
        using hh::sim::detail::concat;
        for (unsigned c = 0; c < cores_.size(); ++c) {
            auto &h = cores_[c]->hierarchy();
            hh::cache::SetAssocArray *arrs[] = {
                &h.l1d(), &h.l1i(), &h.l2(), &h.l1tlb(), &h.l2tlb()};
            const char *names[] = {"l1d", "l1i", "l2", "l1tlb",
                                   "l2tlb"};
            for (unsigned i = 0; i < 5; ++i) {
                const auto hw = arrs[i]->harvestWays();
                const auto all = arrs[i]->allWays();
                if (hw & ~all)
                    return concat("core ", c, " ", names[i],
                                  " harvest region escapes the way "
                                  "set");
                // Single-way structures (extreme waysFraction) are
                // legitimately left unpartitioned.
                const bool partitionable = (all & (all - 1)) != 0;
                if (cfg_.partitioning && partitionable && hw == 0)
                    return concat("core ", c, " ", names[i],
                                  " has an empty harvest region");
                if (cfg_.partitioning && partitionable &&
                    (all & ~hw) == 0)
                    return concat("core ", c, " ", names[i],
                                  " harvest region covers every way");
            }
        }
        return std::nullopt;
    });

    // Per-VM HarvestMask registers: masks fit their structures and
    // actually partition when partitioning is on.
    aud.addInvariant("qm", [this]() -> std::optional<std::string> {
        using hh::sim::detail::concat;
        std::optional<std::string> err;
        ctrl_->forEachQm([&](const hh::core::QueueManager &qm) {
            if (err)
                return;
            const auto &m = qm.harvestMask();
            for (unsigned s = 0; s < hh::core::kNumMaskedStructs;
                 ++s) {
                const auto ms =
                    static_cast<hh::core::MaskedStruct>(s);
                const auto mask = m.mask(ms);
                const auto full = static_cast<hh::cache::WayMask>(
                    (1u << m.wayCount(ms)) - 1);
                if (mask & ~full) {
                    err = concat("vm ", qm.vm(),
                                 " harvest mask wider than "
                                 "structure ",
                                 s);
                    return;
                }
                if (cfg_.partitioning &&
                    (mask == 0 || mask == full)) {
                    err = concat("vm ", qm.vm(),
                                 " harvest mask for structure ", s,
                                 " does not partition");
                    return;
                }
            }
        });
        return err;
    });

    // Harvesting bookkeeping: pending reclaims equal the cores in a
    // reclaim transition, anchors balance, and reclaims never exceed
    // loans.
    aud.addInvariant("hv", [this]() -> std::optional<std::string> {
        using hh::sim::detail::concat;
        for (const auto &v : vms_) {
            if (!v.desc.isPrimary())
                continue;
            unsigned restoring = 0;
            for (const unsigned c : v.desc.cores) {
                if (core_ctx_[c].phase == Phase::Transition &&
                    !core_ctx_[c].onLoan)
                    ++restoring;
            }
            if (pending_reclaims_[v.desc.id] != restoring)
                return concat("vm ", v.desc.id, " counts ",
                              pending_reclaims_[v.desc.id],
                              " pending reclaims but ", restoring,
                              " cores are in a reclaim transition");
        }
        if (reclaims_.value() > loans_.value())
            return concat("more reclaims (", reclaims_.value(),
                          ") than loans (", loans_.value(), ")");
        std::size_t anchored = 0;
        for (const CoreCtx &ctx : core_ctx_)
            anchored += ctx.anchoredBlocked;
        if (anchored != anchor_.size())
            return concat("anchor accounting broken: ",
                          anchor_.size(), " anchors vs ", anchored,
                          " anchored-blocked marks");
        for (const auto &[id, core] : anchor_) {
            const auto *req = requests_.find(id);
            if (!req)
                return concat("anchored request ", id,
                              " does not exist");
            if (req->state != hh::cpu::RequestState::Blocked &&
                req->state != hh::cpu::RequestState::Queued)
                return concat("anchored request ", id,
                              " neither blocked nor awaiting "
                              "redispatch");
        }
        return std::nullopt;
    });

    // Request Context Memory is leak-free: with hardware context
    // switching, exactly the anchored (preempted-while-blocked)
    // requests have a saved context.
    aud.addInvariant("ctxmem", [this]() -> std::optional<std::string> {
        using hh::sim::detail::concat;
        if (!cfg_.hwCtxtSwitch)
            return std::nullopt;
        if (ctxmem_->occupancy() != anchor_.size())
            return concat("context memory holds ",
                          ctxmem_->occupancy(), " contexts but ",
                          anchor_.size(), " requests are anchored");
        for (const auto &[id, core] : anchor_) {
            if (!ctxmem_->contains(id))
                return concat("anchored request ", id,
                              " has no saved context");
        }
        if (done_ && ctxmem_->occupancy() != 0)
            return concat("run complete with ", ctxmem_->occupancy(),
                          " leaked context slots");
        return std::nullopt;
    });

    // Event-queue sanity: timestamps never went backwards.
    aud.addInvariant("sim", [this]() -> std::optional<std::string> {
        using hh::sim::detail::concat;
        if (sim_.monotonicViolations() != 0)
            return concat(sim_.monotonicViolations(),
                          " event pops went backwards in time");
        return std::nullopt;
    });

    // End-state: once every request completed, nothing may linger in
    // the request map, the anchors, or any subqueue.
    aud.addInvariant("final", [this]() -> std::optional<std::string> {
        using hh::sim::detail::concat;
        if (!done_)
            return std::nullopt;
        if (!requests_.empty())
            return concat(requests_.size(),
                          " requests alive after completion");
        if (!anchor_.empty())
            return concat(anchor_.size(),
                          " anchors alive after completion");
        std::optional<std::string> err;
        ctrl_->forEachQm([&](const hh::core::QueueManager &qm) {
            if (err)
                return;
            if (qm.queue().occupancy() != 0 ||
                qm.queue().overflowSize() != 0)
                err = concat("vm ", qm.vm(),
                             " subqueue not empty after completion");
        });
        return err;
    });

    // Service-graph tree consistency: delegate to the engine, which
    // cross-checks its nodes against this server's request states
    // (registered unconditionally — the hook null-check keeps classic
    // runs and the window between construction and setGraphHooks()
    // free of it).
    aud.addInvariant("svc", [this]() -> std::optional<std::string> {
        if (!graph_hooks_)
            return std::nullopt;
        return graph_hooks_->auditInvariant();
    });

    // Cache-lease consistency: every lender L3's harvest mask agrees
    // with its lease slot, and no borrower (batch-ASID) line survives
    // in ways whose lease ended — "no harvested line outlives its
    // lease". Registered unconditionally (null-check) so invariant
    // order is config-independent.
    aud.addInvariant("lease", [this]() -> std::optional<std::string> {
        using hh::sim::detail::concat;
        if (!lease_mgr_)
            return std::nullopt;
        const std::uint32_t batchAsid = vms_[harvest_vm_].desc.asid;
        for (const auto &v : vms_) {
            if (!v.desc.isPrimary() || !v.l3)
                continue;
            const auto &l = lease_mgr_->lease(v.desc.id);
            const hh::cache::WayMask held =
                l.active ? l.l3Ways : hh::cache::WayMask{0};
            if (v.l3->harvestWays() != held)
                return concat("vm ", v.desc.id,
                              " L3 harvest mask disagrees with its "
                              "lease slot");
            std::optional<std::string> err;
            v.l3->forEachValidInWays(
                l.everLeased & ~held,
                [&](std::uint32_t, unsigned way, hh::cache::Addr t) {
                    if (err)
                        return;
                    if (static_cast<std::uint32_t>(t >> 48) ==
                        batchAsid)
                        err = concat("vm ", v.desc.id, " L3 way ", way,
                                     " holds a batch line after its "
                                     "lease ended");
                });
            if (err)
                return err;
        }
        return std::nullopt;
    });
}

void
ServerSim::registerFaultActions()
{
    auto &inj = *injector_;

    // Lend storm: lend most idle Primary cores at once, deliberately
    // bypassing the emergency-buffer and anchored-request guards the
    // normal path honours (they are performance heuristics, not
    // correctness requirements).
    inj.addAction("lend_storm", [this](hh::sim::Rng &rng) {
        if (done_ || !cfg_.harvesting)
            return;
        for (const auto &v : vms_) {
            if (!v.desc.isPrimary())
                continue;
            for (const unsigned c : v.desc.cores) {
                const CoreCtx &ctx = core_ctx_[c];
                if (ctx.phase == Phase::Idle && !ctx.onLoan &&
                    rng.bernoulli(0.75))
                    lendCore(c);
            }
        }
    });

    // Reclaim storm: interrupt-reclaim a random subset of loaned
    // cores, whatever they are doing.
    inj.addAction("reclaim_storm", [this](hh::sim::Rng &rng) {
        if (done_ || !cfg_.harvesting)
            return;
        for (const auto &v : vms_) {
            if (!v.desc.isPrimary())
                continue;
            for (const unsigned c : v.desc.cores) {
                if (core_ctx_[c].onLoan && rng.bernoulli(0.5))
                    reclaimCore(c, v.desc.id);
            }
        }
    });

    // Reclaim-during-flush: reclaim exactly the cores still paying
    // their lend-transition costs — the window of the seed's
    // lend/reclaim race.
    inj.addAction("reclaim_during_flush", [this](hh::sim::Rng &) {
        if (done_ || !cfg_.harvesting)
            return;
        for (const auto &v : vms_) {
            if (!v.desc.isPrimary())
                continue;
            for (const unsigned c : v.desc.cores) {
                const CoreCtx &ctx = core_ctx_[c];
                if (ctx.onLoan && ctx.phase == Phase::Transition)
                    reclaimCore(c, v.desc.id);
            }
        }
    });

    // Bursty arrivals: pull a few future arrivals forward through
    // the normal NIC path. Shares the per-VM arrival budget, so the
    // total request count is unchanged.
    inj.addAction("burst", [this](hh::sim::Rng &rng) {
        if (done_)
            return;
        const std::uint64_t extra = 1 + rng.uniformInt(4);
        for (std::uint64_t i = 0; i < extra; ++i) {
            std::vector<std::uint32_t> cands;
            for (const auto &v : vms_) {
                if (v.desc.isPrimary() && v.arrivalsRemaining > 0)
                    cands.push_back(v.desc.id);
            }
            if (cands.empty())
                return;
            onArrival(cands[rng.uniformInt(cands.size())]);
        }
    });

    // Chunk-exhaustion pressure: register/remove ghost VMs so the
    // controller keeps rebalancing RQ chunks under load, forcing
    // subqueue tails to spill to overflow and drain back.
    inj.addAction("chunk_pressure", [this](hh::sim::Rng &rng) {
        if (done_)
            return;
        const bool remove = !ghost_vms_.empty() &&
                            (rng.bernoulli(0.5) ||
                             ctrl_->numVms() >=
                                 ctrl_->config().maxQms);
        if (remove) {
            const std::uint32_t id = ghost_vms_.back();
            ghost_vms_.pop_back();
            ctrl_->removeVm(id);
            return;
        }
        if (ctrl_->numVms() >= ctrl_->config().maxQms)
            return;
        const std::uint32_t id = 1000 + next_ghost_++;
        auto &qm = ctrl_->registerVm(
            id, true,
            1 + static_cast<unsigned>(rng.uniformInt(6)));
        qm.harvestMask().setFraction(cfg_.harvestWayFraction);
        ghost_vms_.push_back(id);
    });

    // Delayed completion: stretch one in-flight Primary segment by
    // rescheduling its completion event further out.
    inj.addAction("delayed_completion", [this](hh::sim::Rng &rng) {
        if (done_)
            return;
        std::vector<unsigned> cands;
        for (unsigned c = 0; c < core_ctx_.size(); ++c) {
            const CoreCtx &ctx = core_ctx_[c];
            if (ctx.phase == Phase::RunPrimary &&
                ctx.runningRequest != 0 &&
                ctx.pendingEvent != hh::sim::kInvalidEventId)
                cands.push_back(c);
        }
        if (cands.empty())
            return;
        const unsigned core = cands[rng.uniformInt(cands.size())];
        CoreCtx &ctx = core_ctx_[core];
        if (!sim_.cancel(ctx.pendingEvent))
            return;
        const std::uint64_t reqId = ctx.runningRequest;
        const Cycles remaining = ctx.segmentEnd > sim_.now()
                                     ? ctx.segmentEnd - sim_.now()
                                     : 0;
        const auto delay =
            remaining +
            1 +
            static_cast<Cycles>(rng.exponential(
                static_cast<double>(hh::sim::usToCycles(10))));
        ctx.segmentEnd = sim_.now() + delay;
        ctx.pendingEvent = sim_.schedule(
            delay, tag(SnapTag::kSegmentDone, core, reqId),
            [this, core, reqId] { onSegmentDone(core, reqId); });
    });

    // Lease overstay: plant a batch-ASID line in an L3 way whose
    // lease has ended — the positive control for the auditor's
    // "lease" invariant (flush-on-return must normally make this
    // state unreachable). Registered unconditionally so the action
    // roster (and the injector's serialized fire counts) does not
    // depend on the cache-lease config; without a returned leased
    // way it is a no-op.
    inj.addAction("lease_overstay", [this](hh::sim::Rng &rng) {
        if (done_ || !lease_mgr_)
            return;
        for (const auto &v : vms_) {
            if (!v.desc.isPrimary() || !v.l3)
                continue;
            const auto &l = lease_mgr_->lease(v.desc.id);
            const hh::cache::WayMask held =
                l.active ? l.l3Ways : hh::cache::WayMask{0};
            const hh::cache::WayMask returned = l.everLeased & ~held;
            if (!returned)
                continue;
            const auto way = static_cast<unsigned>(
                std::countr_zero(returned));
            const hh::cache::Addr page =
                (static_cast<hh::cache::Addr>(
                     vms_[harvest_vm_].desc.asid)
                 << 42) |
                rng.uniformInt(std::uint64_t{1} << 20);
            v.l3->access(page * hh::cache::kLinesPerPage, true,
                         hh::cache::WayMask{1} << way);
            return;
        }
    });
}

void
ServerSim::scheduleFirstArrivals()
{
    for (auto &v : vms_) {
        if (!v.desc.isPrimary() || v.arrivalsRemaining == 0 ||
            !v.loadgen)
            continue;
        const std::uint32_t vm = v.desc.id;
        const Cycles t = v.loadgen->next();
        sim_.scheduleAt(std::max(t, sim_.now()),
                        tag(SnapTag::kArrival, vm),
                        [this, vm] { onArrival(vm); });
    }
}

void
ServerSim::onArrival(std::uint32_t vm)
{
    VmCtx &v = vmCtx(vm);
    if (v.arrivalsRemaining == 0)
        return;
    --v.arrivalsRemaining;

    if (graph_hooks_) {
        // Graph mode: an arrival is a tree root. A saturated front VM
        // sheds it (budget spent either way — open-loop load does not
        // wait); the engine accounts both outcomes.
        if (graph_hooks_->admitRoot(vm)) {
            const std::uint64_t id = graphInjectRequest(vm);
            graph_hooks_->onRootArrival(vm, id);
        }
    } else {
        graphInjectRequest(vm);
    }

    if (v.arrivalsRemaining > 0) {
        const Cycles t =
            std::max(v.loadgen->next(), sim_.now() + 1);
        sim_.scheduleAt(t, tag(SnapTag::kArrival, vm),
                        [this, vm] { onArrival(vm); });
    }
}

std::uint64_t
ServerSim::graphInjectRequest(std::uint32_t vm)
{
    VmCtx &v = vmCtx(vm);
    const std::uint64_t id = next_request_id_++;
    hh::cpu::Request &req = requests_.create(id);
    req.id = id;
    req.vm = vm;
    req.plan = v.service->planInvocation();
    req.arrival = sim_.now();
    req.readySince = sim_.now();

    if (tracer_)
        tracer_->openSpan(id);

    hh::net::Packet pkt;
    pkt.kind = hh::net::PacketKind::NewRequest;
    pkt.dstVm = vm;
    pkt.requestId = id;
    nic_->receive(pkt);
    return id;
}

void
ServerSim::onPacket(const hh::net::Packet &pkt)
{
    // Multi-hop RPC packets target a tree node in the engine, not a
    // live request on this server — divert before the request lookup.
    if (pkt.kind == hh::net::PacketKind::GraphCall ||
        pkt.kind == hh::net::PacketKind::GraphDone) {
        if (!graph_hooks_)
            hh::sim::panic("ServerSim::onPacket: graph packet "
                           "without an installed engine");
        graph_hooks_->onGraphPacket(pkt);
        return;
    }

    const std::uint32_t vm = pkt.dstVm;
    hh::cpu::Request *found = requests_.find(pkt.requestId);
    if (!found)
        hh::sim::panic("ServerSim::onPacket: unknown request ",
                       pkt.requestId);
    hh::cpu::Request &req = *found;

    if (pkt.kind == hh::net::PacketKind::NewRequest) {
        ctrl_->enqueue(vm, req.id);
        req.state = hh::cpu::RequestState::Queued;
        if (tracer_)
            tracer_->instant(hh::trace::EventType::RqEnqueue,
                             sim_.now(), requestTrack(vm), req.id);
    } else {
        ctrl_->markReady(vm, req.id);
        req.state = hh::cpu::RequestState::Queued;
        req.readySince = sim_.now();
    }
    tryDispatch(vm);
}

ServerSim::VmCtx &
ServerSim::vmCtx(std::uint32_t vm)
{
    if (vm >= vms_.size())
        hh::sim::panic("ServerSim: bad VM id ", vm);
    return vms_[vm];
}

int
ServerSim::idleBoundCore(std::uint32_t vm) const
{
    for (unsigned c : vms_[vm].desc.cores) {
        const CoreCtx &ctx = core_ctx_[c];
        if (ctx.phase == Phase::Idle && !ctx.onLoan)
            return static_cast<int>(c);
    }
    return -1;
}

unsigned
ServerSim::idleBoundCores(std::uint32_t vm) const
{
    unsigned n = 0;
    for (unsigned c : vms_[vm].desc.cores) {
        const CoreCtx &ctx = core_ctx_[c];
        if (ctx.phase == Phase::Idle && !ctx.onLoan)
            ++n;
    }
    return n;
}

unsigned
ServerSim::busyPrimaryCores(std::uint32_t vm) const
{
    unsigned n = 0;
    for (unsigned c : vms_[vm].desc.cores) {
        if (core_ctx_[c].phase == Phase::RunPrimary ||
            core_ctx_[c].phase == Phase::Transition)
            ++n;
    }
    return n;
}

hh::sim::Cycles
ServerSim::dispatchOverhead(std::uint32_t vm)
{
    Cycles c = 0;
    // Scheduling: hardware notification vs discovering work by
    // polling a memory location.
    c += cfg_.hwSched ? ctrl_->notifyLatency() : hyp_->pollDelay();
    // Queue access: dedicated SRAM vs memory-mapped queue (which
    // also suffers lock contention when several cores poll it).
    if (cfg_.hwQueue) {
        c += ctrl_->queueOpLatency();
    } else {
        c += cfg_.swCosts.queueOp;
        if (idleBoundCores(vm) > 1)
            c += cfg_.swCosts.lockContention;
    }
    return c;
}

hh::sim::Cycles
ServerSim::ctxSwitchCost(unsigned core) const
{
    if (cfg_.hwCtxtSwitch)
        return ctxmem_->saveCost(core) + ctxmem_->restoreCost(core);
    return cfg_.swCosts.processCtxSwitch;
}

void
ServerSim::tryDispatch(std::uint32_t vm)
{
    if (vm == harvest_vm_)
        return;
    auto *qm = ctrl_->qmFor(vm);
    while (qm->queue().readyCount() > pending_reclaims_[vm]) {
        const int core = idleBoundCore(vm);
        if (core >= 0) {
            const auto id = ctrl_->dequeue(vm);
            if (!id)
                break;
            startRequestOnCore(static_cast<unsigned>(core), *id,
                               dispatchOverhead(vm), 0, 0);
            continue;
        }
        if (cfg_.harvesting && qm->hasLoanedCore()) {
            const int loaned = qm->loanedCoreToReclaim();
            if (loaned < 0)
                break;
            reclaimCore(static_cast<unsigned>(loaned), vm);
            continue;
        }
        break;
    }
}

void
ServerSim::startRequestOnCore(unsigned core, std::uint64_t reqId,
                              Cycles overhead, Cycles reassignPart,
                              Cycles flushPart)
{
    hh::cpu::Request *found = requests_.find(reqId);
    if (!found)
        hh::sim::panic("startRequestOnCore: unknown request ", reqId);
    hh::cpu::Request &req = *found;
    CoreCtx &ctx = core_ctx_[core];
    if (ctx.phase != Phase::Idle && ctx.phase != Phase::Transition)
        hh::sim::panic("startRequestOnCore: core ", core, " not idle");

    // Release the blocked-request anchor, if resuming.
    const auto a = anchor_.find(reqId);
    if (a != anchor_.end()) {
        if (core_ctx_[a->second].anchoredBlocked > 0)
            --core_ctx_[a->second].anchoredBlocked;
        anchor_.erase(a);
        if (cfg_.hwCtxtSwitch)
            ctxmem_->release(reqId);
    }

    const Cycles ctx_cost = ctxSwitchCost(core);
    req.state = hh::cpu::RequestState::Running;
    req.breakdown.queueing += (sim_.now() - req.readySince) + overhead;
    req.breakdown.reassign += reassignPart;
    req.breakdown.flush += flushPart;
    req.breakdown.queueing += ctx_cost;

    if (tracer_) {
        const std::uint32_t track = requestTrack(req.vm);
        if (sim_.now() > req.readySince)
            tracer_->record(hh::trace::EventType::QueueWait,
                            req.readySince,
                            sim_.now() - req.readySince, track, reqId);
        tracer_->instant(hh::trace::EventType::Dispatch, sim_.now(),
                         track, reqId);
        if (flushPart > 0)
            tracer_->record(hh::trace::EventType::HarvestFlush,
                            sim_.now(), flushPart, core, reqId);
        if (overhead + ctx_cost > 0)
            tracer_->record(hh::trace::EventType::CtxSwitchStall,
                            sim_.now(), overhead + ctx_cost, track,
                            reqId);
    }

    ctx.phase = Phase::RunPrimary;
    ctx.runningRequest = reqId;
    cores_[core]->setState(sim_.now(), hh::cpu::CoreState::RunningPrimary);
    cores_[core]->setCurrentRequest(reqId);

    sim_.schedule(overhead + ctx_cost,
                  tag(SnapTag::kExecSegment, core, reqId),
                  [this, core, reqId] { executeSegment(core, reqId); });
}

hh::sim::Cycles
ServerSim::replaySegment(unsigned core, std::uint64_t reqId,
                         const hh::workload::Segment &seg)
{
    HH_PROF_SCOPE("server.replay_segment");
    auto &req = requests_.at(reqId);
    auto &wl = *vms_[req.vm].service;
    const unsigned sampling = std::max(1u, cfg_.accessSampling);
    // Round to nearest and carry the residual weight forward so the
    // request's replayed access total converges to accesses/sampling
    // (plain truncation loses up to sampling-1 accesses per segment,
    // biasing short-segment services fast).
    const std::int64_t pool =
        static_cast<std::int64_t>(seg.accesses) + req.samplingCarry;
    const auto n = static_cast<std::uint32_t>(
        (pool + sampling / 2) / sampling);
    req.samplingCarry = static_cast<std::int32_t>(
        pool - static_cast<std::int64_t>(n) * sampling);
    // The cursor advances with the accumulated (de-sampled) memory
    // time so DRAM bandwidth sees correctly spaced traffic instead
    // of an artificial same-instant burst.
    Cycles t = sim_.now();
    for (std::uint32_t i = 0; i < n; ++i) {
        t += sampling * cores_[core]->hierarchy().access(
                            t, wl.nextAccess(req.plan));
    }
    return seg.compute + (t - sim_.now());
}

void
ServerSim::executeSegment(unsigned core, std::uint64_t reqId)
{
    hh::cpu::Request *found = requests_.find(reqId);
    if (!found)
        hh::sim::panic("executeSegment: unknown request ", reqId);
    hh::cpu::Request &req = *found;
    const auto &seg = req.plan.segments[req.nextSegment];

    const Cycles dur = replaySegment(core, reqId, seg);
    req.breakdown.execution += dur;
    if (tracer_)
        tracer_->record(hh::trace::EventType::ExecSegment, sim_.now(),
                        dur, requestTrack(req.vm), reqId);
    core_ctx_[core].segmentEnd = sim_.now() + dur;
    core_ctx_[core].pendingEvent = sim_.schedule(
        dur, tag(SnapTag::kSegmentDone, core, reqId),
        [this, core, reqId] { onSegmentDone(core, reqId); });
}

void
ServerSim::onSegmentDone(unsigned core, std::uint64_t reqId)
{
    hh::cpu::Request *found = requests_.find(reqId);
    if (!found)
        hh::sim::panic("onSegmentDone: unknown request ", reqId);
    hh::cpu::Request &req = *found;
    const auto seg = req.plan.segments[req.nextSegment];
    ++req.nextSegment;

    CoreCtx &ctx = core_ctx_[core];
    ctx.pendingEvent = hh::sim::kInvalidEventId;

    if (!req.finished() && seg.endsInIo) {
        // Block on a synchronous backend RPC.
        req.state = hh::cpu::RequestState::Blocked;
        ctrl_->markBlocked(req.vm, reqId);
        anchor_[reqId] = core;
        ++ctx.anchoredBlocked;
        if (cfg_.hwCtxtSwitch)
            ctxmem_->store(reqId);

        // Graph mode: the engine may claim this call site and fan out
        // real child RPCs instead of the synthetic backend. The I/O
        // duration is then the tree's — breakdown, EWMA and trace
        // accrue at graphUnblock() with the actual wait.
        if (graph_hooks_ && graph_hooks_->onCallSite(reqId)) {
            ctx.phase = Phase::Idle;
            ctx.runningRequest = 0;
            ctx.idleSince = sim_.now();
            cores_[core]->setState(sim_.now(),
                                   hh::cpu::CoreState::Idle);
            onCoreIdle(core);
            return;
        }

        const Cycles io_total =
            fabric_.roundTrip(256) + seg.ioTime;
        req.breakdown.io += io_total;
        if (tracer_)
            tracer_->record(hh::trace::EventType::IoBlocked,
                            sim_.now(), io_total,
                            requestTrack(req.vm), reqId);
        ewma_block_cycles_[req.vm] =
            0.2 * static_cast<double>(io_total) +
            0.8 * ewma_block_cycles_[req.vm];
        const std::uint32_t vm = req.vm;
        sim_.schedule(io_total, tag(SnapTag::kIoResponse, vm, reqId),
                      [this, vm, reqId] {
                          deliverIoResponse(vm, reqId);
                      });

        ctx.phase = Phase::Idle;
        ctx.runningRequest = 0;
        ctx.idleSince = sim_.now();
        cores_[core]->setState(sim_.now(), hh::cpu::CoreState::Idle);
        onCoreIdle(core);
        return;
    }

    if (!req.finished()) {
        // Consecutive segments without I/O execute back to back.
        executeSegment(core, reqId);
        return;
    }
    completeRequest(core, reqId);
}

void
ServerSim::completeRequest(unsigned core, std::uint64_t reqId)
{
    hh::cpu::Request &req = requests_.at(reqId);
    req.state = hh::cpu::RequestState::Done;
    req.completion = sim_.now();
    ctrl_->complete(req.vm, reqId);

    if (tracer_) {
        tracer_->record(hh::trace::EventType::RequestSpan, req.arrival,
                        sim_.now() - req.arrival, requestTrack(req.vm),
                        reqId);
        tracer_->closeSpan(reqId);
    }

    VmCtx &v = vmCtx(req.vm);
    ++v.completed;
    if (graph_hooks_) {
        // Graph mode: the engine drains the tree node and records
        // per-tier / end-to-end latencies into bounded histograms
        // (no per-sample vectors — the footprint must stay flat at
        // fleet scale). End-to-end roots tap latency_hist_us_ via
        // graphRecordE2e(), keeping the TelemetryHub fleet P99 an
        // end-to-end number.
        graph_hooks_->onComplete(reqId);
    } else if (v.completed > v.warmupSkip) {
        v.latencies.record(hh::sim::cyclesToMs(req.latency()));
        // Telemetry tap: epoch-resolved latency distribution for the
        // fleet P99-vs-harvest timeline (same warmup cut as p99Ms).
        latency_hist_us_.add(hh::sim::cyclesToMs(req.latency()) *
                             1000.0);
        v.breakdownSum.queueing += req.breakdown.queueing;
        v.breakdownSum.reassign += req.breakdown.reassign;
        v.breakdownSum.flush += req.breakdown.flush;
        v.breakdownSum.execution += req.breakdown.execution;
        v.breakdownSum.io += req.breakdown.io;
        ++v.breakdownCount;
    }
    requests_.erase(reqId);

    CoreCtx &ctx = core_ctx_[core];
    ctx.phase = Phase::Idle;
    ctx.runningRequest = 0;
    ctx.idleSince = sim_.now();
    cores_[core]->setState(sim_.now(), hh::cpu::CoreState::Idle);
    cores_[core]->setCurrentRequest(0);

    noteDoneMaybeFinish();
    onCoreIdle(core);
}

bool
ServerSim::blockHarvestAllowed(std::uint32_t vm) const
{
    switch (policy_->decision(vm).blockMode) {
    case hh::policy::BlockHarvestMode::Never:
        return false;
    case hh::policy::BlockHarvestMode::AdaptiveEwma:
        // Adaptive extension (§4.1.5): when this VM's requests block
        // only briefly, harvesting the core is a net loss. The EWMA
        // updates at I/O block time, between policy epochs, so it is
        // evaluated here at lend time rather than frozen into the
        // decision.
        return ewma_block_cycles_[vm] >=
               static_cast<double>(cfg_.adaptiveBlockThreshold);
    case hh::policy::BlockHarvestMode::Always:
        return true;
    }
    return true;
}

bool
ServerSim::coreLendable(unsigned core) const
{
    const CoreCtx &ctx = core_ctx_[core];
    const std::uint32_t vm = cores_[core]->boundVm();
    if (vm == harvest_vm_)
        return false;
    if (ctx.phase != Phase::Idle || ctx.onLoan)
        return false;
    // Policy gate: a held VM lends nothing at all.
    if (!policy_->decision(vm).lendAllowed)
        return false;
    // Term-style harvesting never lends a core whose request is
    // blocked on I/O (the core is kept for the response).
    if (!blockHarvestAllowed(vm) && ctx.anchoredBlocked > 0)
        return false;
    // Burst-buffer extension (§4.1.5): keep some idle cores ready.
    const unsigned ebuf = policy_->decision(vm).emergencyBuffer;
    if (ebuf > 0 && idleBoundCores(vm) <= ebuf)
        return false;
    const auto *qm = ctrl_->qmFor(vm);
    return !qm->queue().hasReady();
}

void
ServerSim::onCoreIdle(unsigned core)
{
    if (done_)
        return;
    CoreCtx &ctx = core_ctx_[core];
    if (ctx.phase != Phase::Idle)
        return;
    const std::uint32_t vm = cores_[core]->boundVm();

    if (ctx.onLoan || vm == harvest_vm_) {
        // A Harvest-side core looks for the next slice.
        beginHarvestWork(core);
        return;
    }

    // First serve the core's own Primary VM.
    tryDispatch(vm);
    if (core_ctx_[core].phase != Phase::Idle)
        return;

    // Hardware harvesting lends instantly on idle; software lending
    // happens at agent ticks.
    if (cfg_.harvesting && cfg_.hwSched && coreLendable(core) &&
        !cfg_.harvestVmIdle) {
        lendCore(core);
    }
}

void
ServerSim::lendCore(unsigned core)
{
    CoreCtx &ctx = core_ctx_[core];
    const std::uint32_t vm = cores_[core]->boundVm();
    auto *qm = ctrl_->qmFor(vm);
    qm->noteLoan(core);
    loans_.inc();
    ctx.onLoan = true;
    ctx.phase = Phase::Transition;
    // Telemetry tap: harvested core-time accrues from the moment the
    // owner gives the core up, transition costs included.
    core_loan_start_[core] = sim_.now();

    Cycles cost = 0;
    if (!cfg_.hwSched && !cfg_.swReassignFree) {
        // The hypercall path serializes on the hypervisor's global
        // reassignment lock (§4.1.1).
        cost += hyp_->acquireReassignLock(
            sim_.now(), hyp_->reassignCost(cfg_.swImpl));
        cost += hyp_->reassignCost(cfg_.swImpl);
    }
    if (cfg_.hwSched)
        cost += ctrl_->notifyLatency();
    cost += ctxSwitchCost(core);

    // Flush semantics on the Primary -> Harvest transition: only the
    // harvest region is flushed under partitioning (and the Harvest
    // VM additionally waits out the worst-case flush bound to close
    // the timing side channel); otherwise a full wbinvd-style flush.
    auto &hier = cores_[core]->hierarchy();
    Cycles flush_cost = 0;
    if (cfg_.partitioning) {
        hier.flushHarvestRegion(sim_.now(), 0);
        flush_cost = cfg_.efficientFlush
                         ? ctrl_->flushBound()
                         : hyp_->wbinvdCost() / 2;
    } else if (cfg_.swFlushOnReassign) {
        hier.flushAll();
        flush_cost = hyp_->wbinvdCost();
    }
    cost += flush_cost;

    if (tracer_) {
        tracer_->instant(hh::trace::EventType::Lend, sim_.now(), core,
                         core);
        tracer_->record(hh::trace::EventType::LendTransition,
                        sim_.now(), cost, core, core);
        if (flush_cost > 0)
            tracer_->record(hh::trace::EventType::HarvestFlush,
                            sim_.now() + (cost - flush_cost),
                            flush_cost, core, core);
        tracer_->openSpan(lendKey(core));
    }

    if (cfg_.faults.resurrectLendRace) {
        // Deliberately resurrected seed bug (auditor regression
        // harness): the completion is NOT tracked in pendingEvent, so
        // a reclaim arriving mid-transition cannot cancel it and the
        // onLoan guard alone decides whether it fires. After
        // lend -> reclaim-in-transition -> lend, two completions are
        // in flight, both see onLoan=true, and two concurrent slice
        // chains run on one core; the rogue chain later clobbers the
        // core while it runs a Primary request, orphaning it.
        sim_.schedule(cost, tag(SnapTag::kLendDoneRace, core),
                      [this, core] { onLendDoneRace(core); });
        return;
    }

    // Track the completion so a reclaim arriving mid-transition
    // cancels it (via preemptHarvestSlice). The `onLoan` guard alone
    // is not enough: after lend -> reclaim-in-transition -> lend, two
    // completions would be in flight and both would see onLoan=true,
    // spawning two concurrent slice chains on one core — the second
    // chain's slice-done events escape cancellation and later clobber
    // the core while it runs a Primary request, orphaning it.
    ctx.pendingEvent =
        sim_.schedule(cost, tag(SnapTag::kLendDone, core),
                      [this, core] { onLendDone(core); });
}

void
ServerSim::onLendDone(unsigned core)
{
    CoreCtx &c = core_ctx_[core];
    c.pendingEvent = hh::sim::kInvalidEventId;
    if (!c.onLoan)
        return; // reclaimed while transitioning
    if (tracer_)
        tracer_->closeSpan(lendKey(core));
    c.phase = Phase::Idle;
    if (cfg_.harvestVmIdle) {
        // Fig 4 study: the Harvest VM has no work; the core sits
        // lent but idle until reclaimed.
        c.idleSince = sim_.now();
        return;
    }
    beginHarvestWork(core);
}

void
ServerSim::onLendDoneRace(unsigned core)
{
    CoreCtx &c = core_ctx_[core];
    if (!c.onLoan)
        return;
    if (tracer_)
        tracer_->closeSpan(lendKey(core));
    c.phase = Phase::Idle;
    if (cfg_.harvestVmIdle) {
        c.idleSince = sim_.now();
        return;
    }
    beginHarvestWork(core);
}

void
ServerSim::deliverIoResponse(std::uint32_t vm, std::uint64_t reqId)
{
    hh::net::Packet pkt;
    pkt.kind = hh::net::PacketKind::IoResponse;
    pkt.dstVm = vm;
    pkt.requestId = reqId;
    nic_->receive(pkt);
}

void
ServerSim::graphUnblock(std::uint32_t vm, std::uint64_t reqId,
                        hh::sim::Cycles blockedAt)
{
    hh::cpu::Request *found = requests_.find(reqId);
    if (!found)
        hh::sim::panic("graphUnblock: unknown request ", reqId);
    hh::cpu::Request &req = *found;

    // The synthetic-backend path charges its fixed io_total up front;
    // here the wait was the subtree's drain time, known only now.
    const Cycles io_total = sim_.now() - blockedAt;
    req.breakdown.io += io_total;
    if (tracer_)
        tracer_->record(hh::trace::EventType::IoBlocked, blockedAt,
                        io_total, requestTrack(req.vm), reqId);
    ewma_block_cycles_[req.vm] =
        0.2 * static_cast<double>(io_total) +
        0.8 * ewma_block_cycles_[req.vm];
    deliverIoResponse(vm, reqId);
}

void
ServerSim::graphLoopback(const hh::net::Packet &pkt)
{
    // Same-server tier: keep NIC processing and the DDIO deposit but
    // skip the fabric — the message never leaves the machine.
    nic_->receive(pkt);
}

void
ServerSim::graphScheduleWireArrival(const hh::net::Packet &pkt,
                                    hh::sim::Cycles when)
{
    sim_.scheduleAt(when, pkt.wireTag(),
                    [this, pkt] { nic_->receive(pkt); });
}

void
ServerSim::setGraphDone(hh::sim::Cycles end)
{
    if (done_)
        return;
    done_ = true;
    end_time_ = end;
    if (sampler_)
        sampler_->stop();
    if (injector_)
        injector_->stop();
    stopTelemetry();
    stopPolicy();
    stopLease();
}

bool
ServerSim::requestBlocked(std::uint64_t reqId) const
{
    const auto *req = requests_.find(reqId);
    return req && req->state == hh::cpu::RequestState::Blocked;
}

void
ServerSim::configureCoreForHarvest(unsigned core)
{
    auto &hier = cores_[core]->hierarchy();
    hier.setL3(vms_[harvest_vm_].l3.get());
    const bool borrowed = cores_[core]->boundVm() != harvest_vm_;
    hier.setHarvestMode(cfg_.partitioning && borrowed);
    // The core now runs batch work: point it at leased overflow ways.
    rebindLeaseOverflow();
}

void
ServerSim::configureCoreForPrimary(unsigned core)
{
    auto &hier = cores_[core]->hierarchy();
    hier.setL3(vms_[cores_[core]->boundVm()].l3.get());
    hier.setHarvestMode(false);
    // Reclaimed cores lose their overflow binding with the loan.
    rebindLeaseOverflow();
}

void
ServerSim::beginHarvestWork(unsigned core)
{
    if (done_) {
        core_ctx_[core].phase = Phase::Idle;
        cores_[core]->setState(sim_.now(), hh::cpu::CoreState::Idle);
        return;
    }
    configureCoreForHarvest(core);
    startHarvestSlice(core);
}

void
ServerSim::startHarvestSlice(unsigned core)
{
    CoreCtx &ctx = core_ctx_[core];
    HarvestSlice slice;
    if (!harvest_queue_.empty()) {
        slice = harvest_queue_.front();
        harvest_queue_.pop_front();
    } else {
        const auto task = batch_->planTask();
        slice.id = next_slice_id_++;
        slice.remainingCompute = task.compute;
        slice.remainingAccesses = task.accesses;
    }

    const Cycles dur = replayHarvest(core, slice);
    ctx.slice = slice;
    ctx.sliceStart = sim_.now();
    ctx.sliceDuration = std::max<Cycles>(1, dur);
    ctx.phase = Phase::RunHarvest;
    cores_[core]->setState(sim_.now(),
                           hh::cpu::CoreState::RunningHarvest);
    ctx.pendingEvent = sim_.schedule(
        ctx.sliceDuration, tag(SnapTag::kHarvestSliceDone, core),
        [this, core] { onHarvestSliceDone(core); });
}

hh::sim::Cycles
ServerSim::replayHarvest(unsigned core, HarvestSlice &slice)
{
    HH_PROF_SCOPE("server.replay_harvest");
    const unsigned sampling = std::max(1u, cfg_.accessSampling);
    // Same round-to-nearest + residual-carry scheme as
    // replaySegment, banked per slice across preemption resumes.
    const std::int64_t pool =
        static_cast<std::int64_t>(slice.remainingAccesses) +
        slice.samplingCarry;
    const auto n = static_cast<std::uint32_t>(
        (pool + sampling / 2) / sampling);
    slice.samplingCarry = static_cast<std::int32_t>(
        pool - static_cast<std::int64_t>(n) * sampling);
    Cycles t = sim_.now();
    for (std::uint32_t i = 0; i < n; ++i) {
        t += sampling *
             cores_[core]->hierarchy().access(t, batch_->nextAccess());
    }
    return slice.remainingCompute + (t - sim_.now());
}

void
ServerSim::onHarvestSliceDone(unsigned core)
{
    CoreCtx &ctx = core_ctx_[core];
    ctx.pendingEvent = hh::sim::kInvalidEventId;
    if (tracer_ && ctx.slice)
        tracer_->record(hh::trace::EventType::HarvestSlice,
                        ctx.sliceStart, sim_.now() - ctx.sliceStart,
                        core, ctx.slice->id);
    ctx.slice.reset();
    ++batch_tasks_done_;
    if (ctx.onLoan)
        ++batch_tasks_loaned_; // absorbed by a borrowed core

    ctx.phase = Phase::Idle;
    ctx.idleSince = sim_.now();
    cores_[core]->setState(sim_.now(), hh::cpu::CoreState::Idle);

    const std::uint32_t bound = cores_[core]->boundVm();
    if (ctx.onLoan) {
        // The owner reclaims through interrupts, but double-check:
        // if the Primary VM accumulated work, return voluntarily.
        auto *qm = ctrl_->qmFor(bound);
        if (qm->queue().hasReady()) {
            reclaimCore(core, bound);
            return;
        }
    }
    onCoreIdle(core);
}

void
ServerSim::preemptHarvestSlice(unsigned core)
{
    CoreCtx &ctx = core_ctx_[core];
    if (ctx.pendingEvent != hh::sim::kInvalidEventId) {
        sim_.cancel(ctx.pendingEvent);
        ctx.pendingEvent = hh::sim::kInvalidEventId;
    }
    if (!ctx.slice)
        return;
    if (tracer_) {
        tracer_->record(hh::trace::EventType::HarvestSlice,
                        ctx.sliceStart, sim_.now() - ctx.sliceStart,
                        core, ctx.slice->id);
        tracer_->instant(hh::trace::EventType::Preempt, sim_.now(),
                         core, ctx.slice->id);
    }
    // Return the unexecuted remainder to the Harvest VM's vCPU queue
    // (Fig 10: the preempted request becomes ready for another core).
    const double f =
        ctx.sliceDuration == 0
            ? 1.0
            : std::clamp(static_cast<double>(sim_.now() -
                                             ctx.sliceStart) /
                             static_cast<double>(ctx.sliceDuration),
                         0.0, 1.0);
    HarvestSlice rest = *ctx.slice;
    rest.remainingCompute = static_cast<Cycles>(
        static_cast<double>(rest.remainingCompute) * (1.0 - f));
    rest.remainingAccesses = static_cast<std::uint32_t>(
        static_cast<double>(rest.remainingAccesses) * (1.0 - f));
    if (rest.remainingCompute > 0 || rest.remainingAccesses > 0) {
        harvest_queue_.push_front(rest);
    } else {
        ++batch_tasks_done_; // effectively finished at preemption
        if (ctx.onLoan)
            ++batch_tasks_loaned_;
    }
    ctx.slice.reset();
}

void
ServerSim::reclaimCore(unsigned core, std::uint32_t vm)
{
    CoreCtx &ctx = core_ctx_[core];
    auto *qm = ctrl_->qmFor(vm);
    qm->noteReturn(core);
    reclaims_.inc();
    ++pending_reclaims_[vm];
    last_reclaim_at_[vm] = sim_.now();

    // A reclaim arriving while the lend transition is still paying
    // its costs cancels that lend; its span must close here or it
    // would be reported as an orphan.
    const bool lend_in_flight =
        ctx.onLoan && ctx.phase == Phase::Transition &&
        ctx.pendingEvent != hh::sim::kInvalidEventId;
    if (tracer_) {
        tracer_->instant(hh::trace::EventType::Reclaim, sim_.now(),
                         core, core);
        if (lend_in_flight) {
            tracer_->instant(hh::trace::EventType::LendCancelled,
                             sim_.now(), core, core);
            tracer_->closeSpan(lendKey(core));
        }
        tracer_->openSpan(reclaimKey(core));
    }

    preemptHarvestSlice(core);
    ctx.onLoan = false;
    ctx.phase = Phase::Transition;
    cores_[core]->setState(sim_.now(), hh::cpu::CoreState::Idle);

    Cycles reassign_cost = 0;
    if (cfg_.hwSched) {
        reassign_cost += ctrl_->notifyLatency();
    } else if (!cfg_.swReassignFree) {
        reassign_cost += hyp_->acquireReassignLock(
            sim_.now(), hyp_->reassignCost(cfg_.swImpl));
        reassign_cost += hyp_->reassignCost(cfg_.swImpl);
    }
    reassign_cost += ctxSwitchCost(core);

    Cycles flush_cost = 0;
    auto &hier = cores_[core]->hierarchy();
    if (cfg_.partitioning) {
        // Only the harvest region is flushed, in the background; the
        // Primary VM restarts right away on the non-harvest state.
        const Cycles bound = cfg_.efficientFlush
                                 ? ctrl_->flushBound()
                                 : hyp_->wbinvdCost() / 2;
        hier.flushHarvestRegion(sim_.now(), bound);
        if (tracer_)
            tracer_->record(hh::trace::EventType::HarvestFlush,
                            sim_.now(), bound, core, core);
    } else if (cfg_.swFlushOnReassign) {
        hier.flushAll();
        flush_cost = hyp_->wbinvdCost();
        if (tracer_)
            tracer_->record(hh::trace::EventType::HarvestFlush,
                            sim_.now(), flush_cost, core, core);
    }
    configureCoreForPrimary(core);

    const Cycles total = reassign_cost + flush_cost;
    // Telemetry taps, recorded at schedule time where the reclaim's
    // full latency is already deterministic: the latency histogram,
    // the per-VM reclaim accumulators, and the end of the core's
    // harvested-time interval.
    reclaim_hist_.add(static_cast<double>(total));
    ++vm_reclaims_[vm];
    vm_reclaim_cycles_[vm] += total;
    if (core_loan_start_[core] != kNotLent) {
        vm_lent_cycles_[vm] += sim_.now() - core_loan_start_[core];
        core_loan_start_[core] = kNotLent;
    }
    if (tracer_)
        tracer_->record(hh::trace::EventType::ReclaimTransition,
                        sim_.now(), total, core, core);
    sim_.schedule(total,
                  tag(SnapTag::kReclaimDone, core, vm, reassign_cost,
                      flush_cost),
                  [this, core, vm, reassign_cost, flush_cost] {
                      onReclaimDone(core, vm, reassign_cost,
                                    flush_cost);
                  });
}

void
ServerSim::onReclaimDone(unsigned core, std::uint32_t vm,
                         Cycles reassignCost, Cycles flushCost)
{
    CoreCtx &c = core_ctx_[core];
    if (pending_reclaims_[vm] > 0)
        --pending_reclaims_[vm];
    if (tracer_) {
        tracer_->closeSpan(reclaimKey(core));
        tracer_->instant(hh::trace::EventType::Restore, sim_.now(),
                         core, core);
    }
    c.phase = Phase::Idle;
    c.idleSince = sim_.now();
    const auto id = ctrl_->dequeue(vm);
    if (id) {
        startRequestOnCore(core, *id, 0, reassignCost, flushCost);
    } else {
        onCoreIdle(core);
    }
}

void
ServerSim::agentTick()
{
    if (done_)
        return;
    const Cycles now = sim_.now();
    for (auto &v : vms_) {
        if (!v.desc.isPrimary())
            continue;
        const std::uint32_t vm = v.desc.id;
        sw_policy_.observe(vm, busyPrimaryCores(vm));
        if (!cfg_.harvesting)
            continue;
        // Policy gate mirroring coreLendable's: a held VM lends
        // nothing through the software agent either.
        if (!policy_->decision(vm).lendAllowed)
            continue;

        // Thrash avoidance: after a reclaim, wait out a backoff
        // proportional to the cost of a core move before lending
        // this VM's cores again.
        Cycles move_cost = ctxSwitchCost(0);
        if (!cfg_.swReassignFree)
            move_cost += hyp_->reassignCost(cfg_.swImpl);
        if (cfg_.swFlushOnReassign)
            move_cost += cfg_.swCosts.wbinvdMax;
        // A rational agent only moves a core when the expected idle
        // time amortizes the move. Sub-millisecond movers
        // (SmartHarvest) can chase short gaps; millisecond movers
        // (vanilla KVM) must wait for long troughs, which caps them
        // at the handful of moves per second the paper observes.
        const bool cheap_mover =
            move_cost < hh::sim::msToCycles(1.0);
        const Cycles backoff = std::max(
            sw_policy_.config().reclaimBackoff,
            (cheap_mover ? 4 : 18) * move_cost);
        if (sim_.now() - last_reclaim_at_[vm] < backoff &&
            last_reclaim_at_[vm] != 0) {
            continue;
        }

        unsigned idle = 0;
        unsigned idle_long = 0;
        std::vector<unsigned> candidates;
        for (unsigned c : v.desc.cores) {
            const CoreCtx &ctx = core_ctx_[c];
            if (ctx.phase == Phase::Idle && !ctx.onLoan) {
                ++idle;
                // Block-mode's defining aggression: a core whose
                // request just blocked on I/O is taken right away;
                // otherwise idleness must persist past the
                // prediction threshold. Expensive movers (KVM) only
                // ever take long-idle cores, which naturally caps
                // their reassignment rate at the handful per second
                // the paper's motivation study observes.
                const bool anchored = ctx.anchoredBlocked > 0;
                if (!blockHarvestAllowed(vm) && anchored)
                    continue;
                const Cycles idle_needed =
                    std::max(sw_policy_.config().idleThreshold,
                             (cheap_mover ? 2 : 9) * move_cost);
                const bool eager_ok = cheap_mover;
                const bool long_enough =
                    (blockHarvestAllowed(vm) && anchored &&
                     eager_ok) ||
                    now - ctx.idleSince >= idle_needed;
                if (long_enough) {
                    ++idle_long;
                    candidates.push_back(c);
                }
            }
        }
        const unsigned n = sw_policy_.lendableCores(
            vm, static_cast<unsigned>(v.desc.cores.size()), idle,
            idle_long);
        for (unsigned i = 0; i < n && i < candidates.size(); ++i)
            lendCore(candidates[i]);
    }
    sim_.schedule(sw_policy_.config().agentPeriod,
                  tag(SnapTag::kAgentTick), [this] { agentTick(); });
}

hh::stats::ServerCounters
ServerSim::telemetryCounters()
{
    hh::stats::ServerCounters s;
    s.t = sim_.now();
    s.vms.resize(vms_.size());

    // Per-core counters accumulate into the *owning* VM: a core keeps
    // its boundVm while on loan, so a lent core's busy time and cache
    // behaviour are attributed to the owner whose capacity is being
    // harvested (the loan itself is visible via coresLent/lentCycles).
    for (unsigned c = 0; c < cores_.size(); ++c) {
        const auto &core = *cores_[c];
        hh::stats::VmCounters &vc = s.vms[core.boundVm()];
        ++vc.coresBound;
        vc.busyCycles += cores_[c]->busy().busyCycles(s.t);
        auto &h = cores_[c]->hierarchy();
        vc.accesses += h.accesses();
        vc.misses += h.l2().misses();
        vc.validLines += h.l1d().validCount() +
                         h.l1i().validCount() + h.l2().validCount();
        vc.lineCapacity += h.l1d().geometry().entries() +
                           h.l1i().geometry().entries() +
                           h.l2().geometry().entries();
        if (core_ctx_[c].onLoan)
            ++vc.coresLent;
        if (core_loan_start_[c] != kNotLent)
            vc.lentCycles += s.t - core_loan_start_[c];
    }
    for (std::size_t v = 0; v < vms_.size(); ++v) {
        hh::stats::VmCounters &vc = s.vms[v];
        const auto *qm = ctrl_->qmFor(vms_[v].desc.id);
        vc.rqReady = qm->queue().readyCount();
        vc.rqOccupancy = qm->queue().occupancy();
        vc.rqOverflow = qm->queue().overflowSize();
        vc.pendingReclaims = pending_reclaims_[v];
        vc.lentCycles += vm_lent_cycles_[v];
        vc.reclaims = vm_reclaims_[v];
        vc.reclaimCycles = vm_reclaim_cycles_[v];
        if (lease_mgr_ && lease_mgr_->active(vms_[v].desc.id)) {
            const auto &l = lease_mgr_->lease(vms_[v].desc.id);
            vc.leasedWays = static_cast<std::uint32_t>(
                std::popcount(l.l3Ways));
            vc.leasedOccupancy =
                vms_[v].l3->validCountInWays(l.l3Ways);
        }
    }
    s.batchLoaned = batch_tasks_loaned_;
    s.batchNative = batch_tasks_done_ - batch_tasks_loaned_;
    s.reclaimHist = reclaim_hist_.counts();
    s.latencyHist = latency_hist_us_.counts();
    if (lease_mgr_) {
        s.leaseGrants = lease_mgr_->grants();
        s.leaseRecalls = lease_mgr_->recalls();
        s.leaseExpiries = lease_mgr_->expiries();
        s.leaseFlushedLines = lease_mgr_->flushedLines();
        s.leaseWayCycles = lease_mgr_->wayCycles(s.t);
    }
    return s;
}

void
ServerSim::telemetryTick()
{
    telemetry_pending_ = hh::sim::kInvalidEventId;
    if (!telemetry_running_)
        return;
    telemetry_->record(telemetryCounters());
    telemetry_pending_ = sim_.schedule(
        cfg_.telemetryPeriod, tag(SnapTag::kTelemetryTick),
        [this] { telemetryTick(); });
}

void
ServerSim::stopTelemetry()
{
    if (!telemetry_running_)
        return;
    telemetry_running_ = false;
    if (telemetry_pending_ != hh::sim::kInvalidEventId) {
        sim_.cancel(telemetry_pending_);
        telemetry_pending_ = hh::sim::kInvalidEventId;
    }
    // Final partial epoch; the view ignores the call when a periodic
    // tick already materialized this exact time.
    telemetry_->record(telemetryCounters());
}

hh::policy::PolicyConfig
ServerSim::policyConfig() const
{
    hh::policy::PolicyConfig pc;
    pc.kind = cfg_.policy;
    pc.vmCount = static_cast<std::uint32_t>(cfg_.primaryVms + 1);
    pc.harvestVm = harvest_vm_;
    pc.seed = seed_;
    pc.harvestOnBlock = cfg_.harvestOnBlock;
    pc.adaptiveHarvest = cfg_.adaptiveHarvest;
    pc.hwEmergencyBuffer = cfg_.hwEmergencyBuffer;
    pc.harvestWayFraction = cfg_.harvestWayFraction;
    pc.cacheLendEnabled = cfg_.cacheLendEnabled;
    pc.cacheLendL2WayFraction = cfg_.cacheLendL2WayFraction;
    pc.cacheLendL3Ways = cfg_.cacheLendL3Ways;
    pc.lendUtil = cfg_.policyLendUtil;
    pc.holdUtil = cfg_.policyHoldUtil;
    pc.ewmaAlpha = cfg_.policyEwmaAlpha;
    pc.clusters = cfg_.policyClusters;
    pc.epsilon = cfg_.policyEpsilon;
    pc.p99TargetMs = cfg_.policyP99TargetMs;
    pc.p99Penalty = cfg_.policyP99Penalty;
    return pc;
}

void
ServerSim::policyTick()
{
    policy_pending_ = hh::sim::kInvalidEventId;
    if (!policy_running_)
        return;
    // The policy rides its own ObservationView so its epoch cadence
    // is independent of (and composable with) the telemetry plane's.
    policy_view_->record(telemetryCounters());
    const auto rows = policy_view_->takeRows();
    for (const auto &row : rows)
        policy_->observe(row);
    applyPolicyDecisions();
    policy_pending_ = sim_.schedule(
        cfg_.policyPeriod, tag(SnapTag::kPolicyTick),
        [this] { policyTick(); });
}

void
ServerSim::stopPolicy()
{
    if (!policy_running_)
        return;
    policy_running_ = false;
    if (policy_pending_ != hh::sim::kInvalidEventId) {
        sim_.cancel(policy_pending_);
        policy_pending_ = hh::sim::kInvalidEventId;
    }
}

void
ServerSim::applyPolicyDecisions()
{
    for (auto &v : vms_) {
        if (!v.desc.isPrimary())
            continue;
        const std::uint32_t vm = v.desc.id;
        const double f = policy_->decision(vm).harvestWayFraction;
        if (f == policy_applied_fraction_[vm])
            continue;
        policy_applied_fraction_[vm] = f;
        ctrl_->qmFor(vm)->harvestMask().setFraction(f);
        if (cfg_.partitioning) {
            for (unsigned c : v.desc.cores)
                cores_[c]->hierarchy().setHarvestWayFraction(f);
        }
    }
}

// ---------------------------------------------------- cache leasing

bool
ServerSim::vmHasIdleCapacity(std::uint32_t vm) const
{
    // A VM with an idle or lent core is not using its full cache
    // footprint either — that is the capacity the lease harvests.
    for (unsigned c : vms_[vm].desc.cores) {
        const CoreCtx &ctx = core_ctx_[c];
        if (ctx.onLoan || ctx.phase == Phase::Idle)
            return true;
    }
    return false;
}

void
ServerSim::leaseTick()
{
    lease_pending_ = hh::sim::kInvalidEventId;
    if (!lease_running_)
        return;
    for (const auto &v : vms_) {
        if (!v.desc.isPrimary())
            continue;
        const std::uint32_t vm = v.desc.id;
        const auto &d = policy_->decision(vm);
        if (lease_mgr_->active(vm)) {
            if (!d.cacheLendAllowed)
                leaseRelease(vm, false);
            else if (lease_mgr_->expired(vm, sim_.now()))
                leaseRelease(vm, true); // eligible to re-grant below
        }
        if (!lease_mgr_->active(vm) && d.cacheLendAllowed &&
            d.cacheLendL3Ways > 0 && vmHasIdleCapacity(vm))
            leaseGrant(vm, d.cacheLendL2Fraction, d.cacheLendL3Ways);
    }
    lease_pending_ = sim_.schedule(
        std::max<Cycles>(1, cfg_.cacheLendPeriod),
        tag(SnapTag::kLeaseTick), [this] { leaseTick(); });
}

void
ServerSim::stopLease()
{
    if (!lease_running_)
        return;
    lease_running_ = false;
    if (lease_pending_ != hh::sim::kInvalidEventId) {
        sim_.cancel(lease_pending_);
        lease_pending_ = hh::sim::kInvalidEventId;
    }
}

void
ServerSim::leaseGrant(std::uint32_t vm, double l2Fraction,
                      unsigned l3Ways)
{
    auto &v = vms_[vm];
    auto &l3 = *v.l3;
    // Lease the low ways, capped so the owner always keeps one.
    const unsigned ways = std::min<unsigned>(
        l3Ways, l3.geometry().ways - 1);
    if (ways == 0)
        return;
    const auto mask = static_cast<hh::cache::WayMask>(
        (hh::cache::WayMask{1} << ways) - 1);
    // L2 bonus: extra harvest ways on the lender's cores, so batch
    // work landing there sees more private capacity. Only meaningful
    // under partitioning (the mask is a no-op otherwise).
    std::uint32_t bonus = 0;
    if (cfg_.partitioning && l2Fraction > 0.0 &&
        !v.desc.cores.empty()) {
        const auto &l2g = cores_[v.desc.cores.front()]
                              ->hierarchy()
                              .l2()
                              .geometry();
        bonus = static_cast<std::uint32_t>(
            std::lround(l2Fraction * l2g.ways));
    }
    lease_mgr_->grant(vm, l3, sim_.now(), mask, bonus);
    if (bonus) {
        for (unsigned c : v.desc.cores)
            cores_[c]->hierarchy().setL2LeaseBonus(bonus);
    }
    rebindLeaseOverflow();
}

void
ServerSim::leaseRelease(std::uint32_t vm, bool expired)
{
    auto &v = vms_[vm];
    const std::uint32_t bonus = lease_mgr_->lease(vm).l2Bonus;
    lease_mgr_->release(vm, *v.l3, sim_.now(), expired);
    if (bonus) {
        for (unsigned c : v.desc.cores)
            cores_[c]->hierarchy().setL2LeaseBonus(0);
    }
    rebindLeaseOverflow();
}

void
ServerSim::rebindLeaseOverflow()
{
    if (!lease_mgr_)
        return;
    // Round-robin the batch-running cores over the active lenders'
    // leased ways. Pure function of (lease set, loan set), so the
    // binding is derived state: recomputed here on every change and
    // after snapshot load, never serialized.
    const auto lenders = lease_mgr_->activeLenders();
    for (unsigned c = 0; c < cores_.size(); ++c) {
        auto &hier = cores_[c]->hierarchy();
        const bool batchSide =
            cores_[c]->boundVm() == harvest_vm_ || core_ctx_[c].onLoan;
        if (!batchSide || lenders.empty()) {
            hier.setLeaseL3(nullptr, 0);
            continue;
        }
        const unsigned lender = lenders[c % lenders.size()];
        hier.setLeaseL3(vms_[lender].l3.get(),
                        lease_mgr_->lease(lender).l3Ways);
    }
}

bool
ServerSim::allDone() const
{
    for (const auto &v : vms_) {
        if (!v.desc.isPrimary())
            continue;
        if (v.arrivalsRemaining > 0 ||
            v.completed < cfg_.requestsPerVm)
            return false;
    }
    return true;
}

void
ServerSim::noteDoneMaybeFinish()
{
    // In graph mode a server never declares itself done: a back tier
    // with an empty queue may still receive RPCs over the wire. The
    // fleet coordinator calls setGraphDone() once every tree drained.
    if (graph_hooks_)
        return;
    if (!done_ && allDone()) {
        done_ = true;
        end_time_ = sim_.now();
        // The sampler's self-rescheduling tick would otherwise keep
        // the event queue non-empty all the way to the horizon.
        if (sampler_)
            sampler_->stop();
        // Likewise the injector's self-rescheduling perturbation tick.
        if (injector_)
            injector_->stop();
        // And the telemetry epoch tick (records the partial epoch).
        stopTelemetry();
        // And the policy epoch tick (decisions after the last
        // request are moot; the drain tail lends nothing new).
        stopPolicy();
        // And the lease tick (active leases stay put; the drain
        // tail grants and recalls nothing new).
        stopLease();
    }
}

ServerResults
ServerSim::run()
{
    startRun();
    advanceRun(horizon());
    return finishRun();
}

std::vector<ServerSim::ArrivalProgress>
ServerSim::arrivalProgress() const
{
    std::vector<ArrivalProgress> out;
    for (const auto &v : vms_) {
        if (!v.desc.isPrimary())
            continue;
        ArrivalProgress p;
        p.consumed = cfg_.requestsPerVm - v.arrivalsRemaining;
        p.completed = v.completed;
        out.push_back(p);
    }
    return out;
}

bool
ServerSim::retargetArrivalBudget(const SystemConfig &donorCfg,
                                 std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error)
            *error = "retargetArrivalBudget: " + what;
        return false;
    };
    if (donorCfg.requestsPerVm < cfg_.requestsPerVm)
        return fail("donor budget " +
                    std::to_string(donorCfg.requestsPerVm) +
                    " is smaller than target budget " +
                    std::to_string(cfg_.requestsPerVm));
    SystemConfig donor_prefix = donorCfg;
    SystemConfig target_prefix = cfg_;
    donor_prefix.requestsPerVm = 0;
    target_prefix.requestsPerVm = 0;
    if (configFingerprint(donor_prefix) !=
        configFingerprint(target_prefix))
        return fail("donor config differs beyond the arrival budget");

    const unsigned delta = donorCfg.requestsPerVm - cfg_.requestsPerVm;
    const unsigned donor_warm = static_cast<unsigned>(
        donorCfg.warmupFraction *
        static_cast<double>(donorCfg.requestsPerVm));
    const unsigned target_warm = static_cast<unsigned>(
        cfg_.warmupFraction * static_cast<double>(cfg_.requestsPerVm));
    const unsigned warm_cap = std::min(donor_warm, target_warm);

    // Validate every VM before touching any: a half-retargeted sim
    // would be unusable.
    for (const auto &v : vms_) {
        if (!v.desc.isPrimary())
            continue;
        if (v.arrivalsRemaining <= delta)
            return fail("vm" + std::to_string(v.desc.id) +
                        " consumed arrivals past the target budget");
        if (v.completed > warm_cap)
            return fail("vm" + std::to_string(v.desc.id) +
                        " completed past the warmup boundary");
    }
    for (auto &v : vms_) {
        if (!v.desc.isPrimary())
            continue;
        v.arrivalsRemaining -= delta;
        v.warmupSkip = target_warm;
    }
    return true;
}

void
ServerSim::startRun()
{
    if (cfg_.metricsEnabled) {
        sampler_ = std::make_unique<hh::stats::MetricSampler>(
            sim_, registry_, cfg_.metricsPeriod);
        sampler_->start();
    }
    if (cfg_.telemetryEnabled) {
        telemetry_ = std::make_unique<hh::stats::ObservationView>();
        telemetry_running_ = true;
        // No row at t=0 (it would be all zeros); the first epoch is
        // materialized at t=telemetryPeriod against an implicit
        // all-zero baseline.
        telemetry_pending_ = sim_.schedule(
            cfg_.telemetryPeriod, tag(SnapTag::kTelemetryTick),
            [this] { telemetryTick(); });
    }
    // Policy epoch tick. The static policy wants no tick, so its
    // runs schedule no policy events at all.
    if (policy_->wantsEpochTick()) {
        policy_view_ = std::make_unique<hh::stats::ObservationView>();
        policy_running_ = true;
        policy_pending_ = sim_.schedule(
            cfg_.policyPeriod, tag(SnapTag::kPolicyTick),
            [this] { policyTick(); });
    }
    // Cache-lease grant/recall tick (second harvest dimension).
    if (lease_mgr_) {
        lease_running_ = true;
        lease_pending_ = sim_.schedule(
            std::max<Cycles>(1, cfg_.cacheLendPeriod),
            tag(SnapTag::kLeaseTick), [this] { leaseTick(); });
    }

    // Harvest VM's own cores start working immediately.
    for (unsigned c : vms_[harvest_vm_].desc.cores)
        sim_.schedule(0, tag(SnapTag::kCoreIdle, c),
                      [this, c] { onCoreIdle(c); });

    // The Fig 4 idle-harvest study still lends cores via the agent,
    // so only the hardware scheduler skips the software tick.
    if (!cfg_.hwSched && cfg_.harvesting) {
        sim_.schedule(sw_policy_.config().agentPeriod,
                      tag(SnapTag::kAgentTick),
                      [this] { agentTick(); });
    }
    scheduleFirstArrivals();
    if (injector_)
        injector_->start();
}

void
ServerSim::advanceRun(hh::sim::Cycles until)
{
    // The hard horizon guards against pathological configurations.
    sim_.run(std::min(until, horizon()));
}

ServerResults
ServerSim::finishRun()
{
    // A final sweep so end-state invariants ("final", leak checks)
    // run even when the last event lands between audit periods.
    if (auditor_)
        auditor_->audit(sim_.now());
    if (!done_) {
        if (auditor_ && auditor_->violationCount() > 0 &&
            cfg_.auditStopOnViolation) {
            hh::sim::warn("ServerSim: run aborted by the invariant "
                          "auditor at t=", sim_.now(), " cycles");
        } else {
            hh::sim::warn("ServerSim: horizon reached before all "
                          "requests completed");
        }
        end_time_ = sim_.now();
    }
    if (sampler_)
        sampler_->stop();
    if (injector_)
        injector_->stop();
    stopTelemetry();
    stopPolicy();
    stopLease();
    // Batch slices still in flight when all requests completed drain
    // after the all-done stop; one more row at the drain time captures
    // that tail, so the fleet timeline's deltas sum exactly to the
    // run totals (the same-time guard makes this a no-op otherwise).
    if (telemetry_)
        telemetry_->record(telemetryCounters());

    ServerResults res;
    const Cycles end = end_time_ ? end_time_ : sim_.now();
    for (auto &v : vms_) {
        // Graph mode leaves unused Primary slots without a service;
        // non-front tier VMs also record nothing here (the engine
        // owns their latency accounting).
        if (!v.desc.isPrimary() || !v.service)
            continue;
        ServiceResult r;
        r.name = v.service->spec().name;
        r.count = v.latencies.count();
        r.meanMs = v.latencies.mean();
        r.p50Ms = v.latencies.p50();
        r.p99Ms = v.latencies.p99();
        if (v.breakdownCount > 0) {
            const double n = static_cast<double>(v.breakdownCount);
            r.queueMs = hh::sim::cyclesToMs(
                            static_cast<Cycles>(0) +
                            v.breakdownSum.queueing) / n;
            r.reassignMs =
                hh::sim::cyclesToMs(v.breakdownSum.reassign) / n;
            r.flushMs = hh::sim::cyclesToMs(v.breakdownSum.flush) / n;
            r.execMs =
                hh::sim::cyclesToMs(v.breakdownSum.execution) / n;
            r.ioMs = hh::sim::cyclesToMs(v.breakdownSum.io) / n;
        }
        res.services.push_back(std::move(r));
    }

    res.elapsedSec = hh::sim::cyclesToSec(end);
    res.batchTasksCompleted = batch_tasks_done_;
    res.batchThroughput =
        res.elapsedSec > 0
            ? static_cast<double>(batch_tasks_done_) / res.elapsedSec
            : 0;

    double busy = 0;
    std::uint64_t l2_hits = 0;
    std::uint64_t l2_misses = 0;
    for (const auto &core : cores_) {
        busy += static_cast<double>(core->busy().busyCycles(end));
        if (core->boundVm() != harvest_vm_) {
            l2_hits += core->hierarchy().l2().hits();
            l2_misses += core->hierarchy().l2().misses();
        }
    }
    res.avgBusyCores = end > 0 ? busy / static_cast<double>(end) : 0;
    res.utilization =
        res.avgBusyCores / static_cast<double>(cfg_.cores);
    res.coreLoans = loans_.value();
    res.coreReclaims = reclaims_.value();
    res.primaryL2HitRate =
        (l2_hits + l2_misses) > 0
            ? static_cast<double>(l2_hits) /
                  static_cast<double>(l2_hits + l2_misses)
            : 0;

    if (tracer_) {
        res.traceEvents = tracer_->events();
        res.traceDropped = tracer_->dropped();
        res.traceOpenSpans = tracer_->openSpans();
        res.traceUnbalanced = tracer_->unbalancedCloses();
    }
    if (cfg_.metricsEnabled) {
        res.metricsFinal = registry_.snapshot();
        if (sampler_)
            res.metricSeries = sampler_->takeSeries();
    }
    if (auditor_) {
        res.auditsRun = auditor_->auditsRun();
        res.auditViolations = auditor_->violationCount();
        res.auditReports = auditor_->violations();
        for (std::size_t i = 0;
             i < res.auditReports.size() && i < 5; ++i) {
            const auto &v = res.auditReports[i];
            hh::sim::warn("invariant violation [", v.component,
                          "] at t=", v.time, ": ", v.message);
        }
    }
    if (injector_)
        res.faultsInjected = injector_->actionsFired();

    // Harvest-economics payload: always-on tap totals plus, when the
    // telemetry plane is enabled, the per-epoch observation rows.
    res.telemetry.enabled = cfg_.telemetryEnabled;
    res.telemetry.reclaimHist = reclaim_hist_.counts();
    res.telemetry.latencyHist = latency_hist_us_.counts();
    res.telemetry.reclaims = reclaim_hist_.totalCount();
    res.telemetry.batchLoaned = batch_tasks_loaned_;
    res.telemetry.batchNative =
        batch_tasks_done_ - batch_tasks_loaned_;
    std::uint64_t harvested = 0;
    for (const std::uint64_t c : vm_lent_cycles_)
        harvested += c;
    for (unsigned c = 0; c < cores_.size(); ++c) {
        // Loans still out at run end count up to the end time.
        if (core_loan_start_[c] != kNotLent &&
            end > core_loan_start_[c])
            harvested += end - core_loan_start_[c];
    }
    res.telemetry.harvestedCycles = harvested;
    res.telemetry.endTime = end;
    if (lease_mgr_) {
        res.telemetry.leaseGrants = lease_mgr_->grants();
        res.telemetry.leaseRecalls = lease_mgr_->recalls();
        res.telemetry.leaseExpiries = lease_mgr_->expiries();
        res.telemetry.leaseFlushedLines = lease_mgr_->flushedLines();
        res.telemetry.leaseWayCycles = lease_mgr_->wayCycles(end);
    }
    if (telemetry_)
        res.telemetry.rows = telemetry_->takeRows();
    return res;
}

hh::sim::Simulator::Callback
ServerSim::rearmEvent(const SnapTag &t)
{
    switch (t.kind) {
    case SnapTag::kArrival: {
        const auto vm = static_cast<std::uint32_t>(t.a);
        return [this, vm] { onArrival(vm); };
    }
    case SnapTag::kExecSegment: {
        const auto core = static_cast<unsigned>(t.a);
        const std::uint64_t reqId = t.b;
        return [this, core, reqId] { executeSegment(core, reqId); };
    }
    case SnapTag::kSegmentDone: {
        const auto core = static_cast<unsigned>(t.a);
        const std::uint64_t reqId = t.b;
        return [this, core, reqId] { onSegmentDone(core, reqId); };
    }
    case SnapTag::kIoResponse: {
        const auto vm = static_cast<std::uint32_t>(t.a);
        const std::uint64_t reqId = t.b;
        return [this, vm, reqId] { deliverIoResponse(vm, reqId); };
    }
    case SnapTag::kLendDone: {
        const auto core = static_cast<unsigned>(t.a);
        return [this, core] { onLendDone(core); };
    }
    case SnapTag::kLendDoneRace: {
        const auto core = static_cast<unsigned>(t.a);
        return [this, core] { onLendDoneRace(core); };
    }
    case SnapTag::kHarvestSliceDone: {
        const auto core = static_cast<unsigned>(t.a);
        return [this, core] { onHarvestSliceDone(core); };
    }
    case SnapTag::kReclaimDone: {
        const auto core = static_cast<unsigned>(t.a);
        const auto vm = static_cast<std::uint32_t>(t.b);
        const Cycles reassign = t.c;
        const Cycles flush = t.d;
        return [this, core, vm, reassign, flush] {
            onReclaimDone(core, vm, reassign, flush);
        };
    }
    case SnapTag::kAgentTick:
        return [this] { agentTick(); };
    case SnapTag::kCoreIdle: {
        const auto core = static_cast<unsigned>(t.a);
        return [this, core] { onCoreIdle(core); };
    }
    case SnapTag::kNicDeliver:
        return nic_->rearmDelivery(
            hh::net::Packet::fromDeliveryTag(t));
    case SnapTag::kGraphWireArrive: {
        // A cross-server RPC still on the wire: the tag packs the
        // whole packet, so replaying Nic::receive needs no engine
        // state at all.
        const auto pkt = hh::net::Packet::fromDeliveryTag(t);
        return [this, pkt] { nic_->receive(pkt); };
    }
    case SnapTag::kSamplerTick:
        return sampler_ ? sampler_->rearmTick()
                        : hh::sim::Simulator::Callback{};
    case SnapTag::kFaultTick:
        return injector_ ? injector_->rearmTick()
                         : hh::sim::Simulator::Callback{};
    case SnapTag::kTelemetryTick:
        return telemetry_ ? rearmTelemetryTick()
                          : hh::sim::Simulator::Callback{};
    case SnapTag::kPolicyTick:
        return policy_view_ ? rearmPolicyTick()
                            : hh::sim::Simulator::Callback{};
    case SnapTag::kLeaseTick:
        return lease_mgr_ ? rearmLeaseTick()
                          : hh::sim::Simulator::Callback{};
    default:
        // Empty: the event queue turns this into a hard error naming
        // the tag, which is how unknown kinds surface.
        return {};
    }
}

void
ServerSim::serializeState(hh::snap::Archive &ar)
{
    // The sampler is created lazily in startRun(); a freshly
    // constructed ServerSim being restored must have it before the
    // event queue re-arms a pending kSamplerTick. No start() — the
    // pending tick is restored with the queue, the collected rows in
    // section 0x14 below.
    if (ar.loading() && cfg_.metricsEnabled && !sampler_) {
        sampler_ = std::make_unique<hh::stats::MetricSampler>(
            sim_, registry_, cfg_.metricsPeriod);
    }
    // Same lazy construction for the telemetry view: a pending
    // kTelemetryTick must find its re-arm target. State arrives in
    // section 0x15 below.
    if (ar.loading() && cfg_.telemetryEnabled && !telemetry_)
        telemetry_ = std::make_unique<hh::stats::ObservationView>();
    // And for the policy's epoch view (pending kPolicyTick re-arm
    // target); policy state arrives in section 0x16 below.
    if (ar.loading() && policy_->wantsEpochTick() && !policy_view_)
        policy_view_ = std::make_unique<hh::stats::ObservationView>();

    ar.section(0x10, "simulator");
    sim_.serialize(ar,
                   [this](const SnapTag &t) { return rearmEvent(t); });
    if (!ar.ok())
        return;

    ar.section(0x11, "components");
    ar.io(rng_);
    ar.io(dram_);
    ar.io(*nic_);
    ctrl_->serialize(ar);
    ar.io(*ctxmem_);
    ar.io(*hyp_);
    ar.io(sw_policy_);
    if (!ar.ok())
        return;

    ar.section(0x12, "vms");
    for (auto &v : vms_) {
        ar.io(*v.l3);
        // Graph mode leaves unused slots without a service and
        // non-front tiers without a loadgen; presence is decided by
        // the placement plan at construction, so it always matches.
        if (v.desc.isPrimary() && v.service)
            ar.io(*v.service);
        if (v.desc.isPrimary() && v.loadgen)
            ar.io(*v.loadgen);
        ar.io(v.arrivalsRemaining);
        ar.io(v.completed);
        ar.io(v.warmupSkip);
        ar.io(v.latencies);
        ar.io(v.breakdownSum);
        ar.io(v.breakdownCount);
    }
    ar.io(*batch_);
    ar.io(harvest_queue_);
    ar.io(next_slice_id_);
    ar.io(batch_tasks_done_);
    if (!ar.ok())
        return;

    ar.section(0x13, "cores");
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        ar.io(*cores_[c]);
        // The hierarchy's L3 binding is a raw pointer into vms_;
        // persist *which* partition it pointed at (the harvest VM's
        // during lent execution, the bound VM's otherwise) and rebind
        // on load, mirroring configureCoreForHarvest/Primary.
        bool harvest_l3 = false;
        if (ar.saving())
            harvest_l3 = cores_[c]->hierarchy().l3Partition() ==
                         vms_[harvest_vm_].l3.get();
        ar.io(harvest_l3);
        if (ar.loading()) {
            cores_[c]->hierarchy().setL3(
                harvest_l3
                    ? vms_[harvest_vm_].l3.get()
                    : vms_[cores_[c]->boundVm()].l3.get());
        }
    }
    ar.io(core_ctx_);
    requests_.serialize(ar);
    ar.io(next_request_id_);
    ar.io(anchor_);
    ar.io(pending_reclaims_);
    ar.io(last_reclaim_at_);
    ar.io(ghost_vms_);
    ar.io(next_ghost_);
    ar.io(ewma_block_cycles_);
    ar.io(loans_);
    ar.io(reclaims_);
    ar.io(done_);
    ar.io(end_time_);
    if (!ar.ok())
        return;

    // Observability presence depends on env toggles (HH_TRACE,
    // HH_METRICS, HH_AUDIT) that are not part of the SystemConfig
    // fingerprint, so the mismatch check lives here.
    ar.section(0x14, "observability");
    bool have_tracer = tracer_ != nullptr;
    bool have_sampler = sampler_ != nullptr;
    bool have_auditor = auditor_ != nullptr;
    bool have_injector = injector_ != nullptr;
    ar.io(have_tracer);
    ar.io(have_sampler);
    ar.io(have_auditor);
    ar.io(have_injector);
    if (ar.loading() &&
        (have_tracer != (tracer_ != nullptr) ||
         have_sampler != (sampler_ != nullptr) ||
         have_auditor != (auditor_ != nullptr) ||
         have_injector != (injector_ != nullptr))) {
        ar.fail("checkpoint observability set (tracer/sampler/"
                "auditor/injector) does not match this run; restore "
                "with the same HH_TRACE/HH_METRICS/HH_AUDIT and fault "
                "settings the saving run used");
        return;
    }
    if (tracer_)
        ar.io(*tracer_);
    if (sampler_)
        ar.io(*sampler_);
    if (auditor_)
        ar.io(*auditor_);
    if (injector_)
        injector_->serialize(ar);
    if (!ar.ok())
        return;

    // Telemetry plane: the always-on economics taps, then (behind a
    // presence flag, like section 0x14) the per-epoch view and its
    // tick state. telemetryEnabled is part of the config fingerprint,
    // so cluster-level restores reject mismatches before reaching
    // this check.
    ar.section(0x15, "telemetry");
    ar.io(reclaim_hist_);
    ar.io(latency_hist_us_);
    ar.io(vm_lent_cycles_);
    ar.io(vm_reclaims_);
    ar.io(vm_reclaim_cycles_);
    ar.io(core_loan_start_);
    ar.io(batch_tasks_loaned_);
    bool have_telemetry = telemetry_ != nullptr;
    ar.io(have_telemetry);
    if (ar.loading() && have_telemetry != (telemetry_ != nullptr)) {
        ar.fail("checkpoint telemetry state does not match this run; "
                "restore with the same telemetryEnabled setting the "
                "saving run used");
        return;
    }
    if (telemetry_) {
        ar.io(telemetry_running_);
        ar.io(telemetry_pending_);
        ar.io(*telemetry_);
    }
    if (!ar.ok())
        return;

    // Harvest policy. cfg_.policy is part of the config fingerprint,
    // so cluster-level restores reject a policy mismatch up front.
    // The presence byte is always true now; checkpoints keep it so
    // their bytes are unchanged, and a false one can only come from
    // the removed "legacy" selector, which had no policy object.
    ar.section(0x16, "policy");
    bool have_policy = true;
    ar.io(have_policy);
    if (!have_policy) {
        ar.fail("checkpoint was saved under the removed policy=legacy "
                "selector; re-run it with policy=static, which "
                "produces the same results");
        return;
    }
    policy_->serialize(ar);
    ar.io(policy_applied_fraction_);
    // The repartitioned way masks themselves ride sections 0x11
    // (QM masks) and 0x13 (core hierarchies), so nothing is
    // re-applied here; policy_applied_fraction_ keeps the
    // change-detection in applyPolicyDecisions coherent.
    if (policy_->wantsEpochTick()) {
        ar.io(policy_running_);
        ar.io(policy_pending_);
        ar.io(*policy_view_);
    }
    if (!ar.ok())
        return;

    // Service-graph engine (src/svc/ RpcEngine). The graph spec rides
    // the config fingerprint, so cluster-level restores reject shape
    // mismatches early; the presence flag guards direct users.
    ar.section(0x17, "svc");
    bool have_graph = graph_hooks_ != nullptr;
    ar.io(have_graph);
    if (ar.loading() && have_graph != (graph_hooks_ != nullptr)) {
        ar.fail("checkpoint service-graph state does not match this "
                "run; restore a graph checkpoint into a graph-mode "
                "fleet with the same spec");
        return;
    }
    if (graph_hooks_)
        graph_hooks_->serialize(ar);
    if (!ar.ok())
        return;

    // Cache-capacity leasing (src/lease/). cacheLendEnabled rides the
    // config fingerprint, so cluster-level restores reject mismatches
    // early; the presence flag guards direct saveState/loadState
    // users like sections 0x15-0x17 do. The lender L3 harvest masks
    // and the lenders' L2 bonus masks ride sections 0x12/0x13 with
    // their arrays; the core->lender overflow bindings are derived
    // state recomputed below.
    ar.section(0x18, "lease");
    bool have_lease = lease_mgr_ != nullptr;
    ar.io(have_lease);
    if (ar.loading() && have_lease != (lease_mgr_ != nullptr)) {
        ar.fail("checkpoint cache-lease state does not match this "
                "run; restore with the same cacheLendEnabled setting "
                "the saving run used");
        return;
    }
    if (lease_mgr_) {
        lease_mgr_->serialize(ar);
        ar.io(lease_running_);
        ar.io(lease_pending_);
        if (ar.loading())
            rebindLeaseOverflow();
    }
}

} // namespace hh::cluster
