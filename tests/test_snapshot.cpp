/**
 * @file
 * Unit tests for the snapshot subsystem's component round-trips: Rng
 * position-exactness and stream independence, SubQueue state with
 * overflow pending, a cache hierarchy mid-flush (hidden harvest
 * ways), a full server saved while a lend/reclaim race is in flight
 * (the PR-1 regression state), and the event queue: byte-identical
 * round trips, pinned bytes, and corrupt streams that must fail the
 * archive without touching the queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/hierarchy.h"
#include "sim/event_queue.h"
#include "cluster/server.h"
#include "cluster/system_config.h"
#include "core/rq.h"
#include "sim/rng.h"
#include "snapshot/archive.h"

using hh::snap::Archive;

namespace {

std::vector<std::uint8_t>
saveRng(hh::sim::Rng &rng)
{
    auto ar = Archive::forSave();
    rng.serialize(ar);
    EXPECT_TRUE(ar.ok());
    return ar.take();
}

void
loadRng(hh::sim::Rng &rng, const std::vector<std::uint8_t> &bytes)
{
    auto ar = Archive::forLoad(bytes);
    rng.serialize(ar);
    EXPECT_TRUE(ar.ok());
}

} // namespace

TEST(SnapshotRng, RestoreIsPositionExact)
{
    hh::sim::Rng rng(42, 7);
    for (int i = 0; i < 1000; ++i)
        rng.next();

    const auto bytes = saveRng(rng);

    // Reference continuation from the save point.
    std::vector<std::uint64_t> want;
    for (int i = 0; i < 64; ++i)
        want.push_back(rng.next());

    // Restore into a generator with a completely different identity.
    hh::sim::Rng other(999, 123);
    loadRng(other, bytes);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(other.next(), want[i]) << "draw " << i;
}

TEST(SnapshotRng, CachedBoxMullerNormalSurvives)
{
    hh::sim::Rng rng(7, 1);
    // An odd number of normal() draws leaves one cached variate.
    rng.normal();

    const auto bytes = saveRng(rng);
    const double want_n = rng.normal();
    const std::uint64_t want_u = rng.next();

    hh::sim::Rng other(1, 2);
    loadRng(other, bytes);
    EXPECT_EQ(other.normal(), want_n);
    EXPECT_EQ(other.next(), want_u);
}

TEST(SnapshotRng, RestoreDoesNotPerturbOtherStreams)
{
    // Two independent streams of one experiment seed.
    hh::sim::Rng a(5, 1);
    hh::sim::Rng b(5, 2);
    for (int i = 0; i < 10; ++i)
        a.next();

    // b's future draws must be the same whether or not a is
    // saved/restored around them.
    hh::sim::Rng b_ref(5, 2);
    const auto bytes = saveRng(a);
    loadRng(a, bytes);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(b.next(), b_ref.next());

    // And distinct streams stay distinct after a restore.
    hh::sim::Rng c(5, 3);
    EXPECT_NE(a.next(), c.next());
}

TEST(SnapshotRq, OverflowPendingRoundTrip)
{
    // 2 chunks of 4 entries; give the subqueue one chunk so pushing
    // 7 requests leaves 3 waiting in the in-memory overflow subqueue.
    hh::core::RequestQueue rq(2, 4);
    hh::core::SubQueue q(rq);
    const int chunk = rq.allocChunk();
    ASSERT_GE(chunk, 0);
    ASSERT_TRUE(q.addChunk(static_cast<unsigned>(chunk)));
    for (std::uint64_t p = 1; p <= 7; ++p)
        q.enqueue(p);
    // Put one entry in each non-ready state too.
    ASSERT_TRUE(q.dequeue().has_value()); // payload 1 -> running
    ASSERT_TRUE(q.dequeue().has_value()); // payload 2 -> running
    q.markBlocked(2);
    ASSERT_EQ(q.overflowSize(), 3u);

    auto save = Archive::forSave();
    rq.serialize(save);
    q.serialize(save);
    ASSERT_TRUE(save.ok());

    hh::core::RequestQueue rq2(2, 4);
    hh::core::SubQueue q2(rq2);
    auto load = Archive::forLoad(save.take());
    rq2.serialize(load);
    q2.serialize(load);
    ASSERT_TRUE(load.ok());

    EXPECT_EQ(rq2.freeChunks(), rq.freeChunks());
    EXPECT_EQ(q2.rqMap(), q.rqMap());
    EXPECT_EQ(q2.readyEntries(), q.readyEntries());
    EXPECT_EQ(q2.runningEntries(), q.runningEntries());
    EXPECT_EQ(q2.blockedEntries(), q.blockedEntries());
    EXPECT_EQ(q2.overflowEntries(), q.overflowEntries());

    // Both queues must now evolve identically: completing the running
    // request frees a slot and drains the oldest overflow entry.
    q.complete(1);
    q2.complete(1);
    EXPECT_EQ(q2.overflowEntries(), q.overflowEntries());
    EXPECT_EQ(q2.readyEntries(), q.readyEntries());
    while (auto id = q.dequeue()) {
        auto id2 = q2.dequeue();
        ASSERT_TRUE(id2.has_value());
        EXPECT_EQ(*id2, *id);
        q.complete(*id);
        q2.complete(*id2);
    }
    EXPECT_FALSE(q2.dequeue().has_value());
    // Drain the remaining bookkeeping so teardown doesn't count the
    // test's synthetic payloads as leaks.
    q.markReady(2);
    q2.markReady(2);
    while (auto id = q.dequeue()) {
        q.complete(*id);
        auto id2 = q2.dequeue();
        ASSERT_TRUE(id2.has_value());
        q2.complete(*id2);
    }
}

namespace {

hh::cache::HierarchyConfig
partitionedConfig()
{
    hh::cache::HierarchyConfig cfg;
    cfg.l1d = hh::cache::Geometry{8, 4, 5};
    cfg.l1i = hh::cache::Geometry{8, 4, 5};
    cfg.l2 = hh::cache::Geometry{16, 4, 13};
    cfg.l1tlb = hh::cache::Geometry{4, 4, 2};
    cfg.l2tlb = hh::cache::Geometry{8, 4, 12};
    cfg.partitioning = true;
    return cfg;
}

hh::cache::MemAccess
dataAccess(hh::cache::Addr page, std::uint32_t line = 0)
{
    hh::cache::MemAccess a;
    a.page = page;
    a.line = line;
    a.isInstr = false;
    a.shared = true;
    return a;
}

} // namespace

TEST(SnapshotHierarchy, MidFlushHiddenWaysRoundTrip)
{
    using hh::sim::Cycles;
    auto cfg = partitionedConfig();
    hh::cache::CoreHierarchy h(cfg, nullptr, nullptr);

    // Warm a working set, then flush the harvest region with the
    // hiding window still open at save time.
    for (hh::cache::Addr p = 1; p <= 16; ++p)
        h.access(100, dataAccess(p, static_cast<std::uint32_t>(p)));
    const Cycles flush_at = 2000;
    const Cycles bound = 100000;
    h.flushHarvestRegion(flush_at, bound);

    auto save = Archive::forSave();
    h.serialize(save);
    ASSERT_TRUE(save.ok());

    hh::cache::CoreHierarchy h2(cfg, nullptr, nullptr);
    auto load = Archive::forLoad(save.take());
    h2.serialize(load);
    ASSERT_TRUE(load.ok());

    // Identical access streams both inside the hiding window and
    // after it expires must cost identical latencies: the restored
    // hierarchy carries the same contents, replacement state and
    // harvest_visible_at_.
    Cycles t = flush_at + 10;
    for (hh::cache::Addr p = 1; p <= 24; ++p) {
        const auto a =
            dataAccess(p, static_cast<std::uint32_t>(7 * p));
        EXPECT_EQ(h2.access(t, a), h.access(t, a)) << "page " << p;
        t += 50;
    }
    t = flush_at + bound + 10; // window expired
    for (hh::cache::Addr p = 1; p <= 24; ++p) {
        const auto a =
            dataAccess(p, static_cast<std::uint32_t>(3 * p));
        EXPECT_EQ(h2.access(t, a), h.access(t, a)) << "page " << p;
        t += 50;
    }
    EXPECT_EQ(h2.accesses(), h.accesses());
}

TEST(SnapshotServer, RaceStateMidRunRoundTrip)
{
    // The PR-1 regression state: untracked lend completions (the
    // resurrected race) with fault injection stirring reclaims into
    // transitions, auditing on. A snapshot taken mid-run must capture
    // the in-flight lend/reclaim events and replay to the same
    // violations, fault schedule and results.
    hh::cluster::SystemConfig cfg = hh::cluster::makeSystem(
        hh::cluster::SystemKind::HardHarvestBlock);
    cfg.requestsPerVm = 30;
    cfg.accessSampling = 32;
    cfg.auditEnabled = true;
    cfg.auditPeriod = 64;
    cfg.auditStopOnViolation = true;
    cfg.faults.enabled = true;
    cfg.faults.resurrectLendRace = true;
    cfg.faults.meanPeriod = hh::sim::usToCycles(5);
    cfg.faults.startAt = hh::sim::usToCycles(10);
    cfg.faults.actionsPerTick = 6;

    const hh::sim::Cycles T = hh::sim::usToCycles(60);

    hh::cluster::ServerSim a(cfg, "BFS", 2);
    a.startRun();
    a.advanceRun(T);
    auto save = Archive::forSave();
    a.saveState(save);
    ASSERT_TRUE(save.ok()) << save.error();

    a.advanceRun(hh::cluster::ServerSim::horizon());
    const hh::cluster::ServerResults ra = a.finishRun();

    hh::cluster::ServerSim b(cfg, "BFS", 2);
    auto load = Archive::forLoad(save.take());
    b.loadState(load);
    ASSERT_TRUE(load.ok()) << load.error();
    b.advanceRun(hh::cluster::ServerSim::horizon());
    const hh::cluster::ServerResults rb = b.finishRun();

    EXPECT_EQ(rb.auditViolations, ra.auditViolations);
    EXPECT_EQ(rb.auditsRun, ra.auditsRun);
    EXPECT_EQ(rb.faultsInjected, ra.faultsInjected);
    EXPECT_EQ(rb.coreLoans, ra.coreLoans);
    EXPECT_EQ(rb.coreReclaims, ra.coreReclaims);
    EXPECT_EQ(rb.elapsedSec, ra.elapsedSec);
    ASSERT_EQ(rb.services.size(), ra.services.size());
    for (std::size_t i = 0; i < ra.services.size(); ++i) {
        EXPECT_EQ(rb.services[i].count, ra.services[i].count);
        EXPECT_EQ(rb.services[i].p99Ms, ra.services[i].p99Ms);
        EXPECT_EQ(rb.services[i].meanMs, ra.services[i].meanMs);
    }
    ASSERT_EQ(rb.auditReports.size(), ra.auditReports.size());
    for (std::size_t i = 0; i < ra.auditReports.size(); ++i) {
        EXPECT_EQ(rb.auditReports[i].time, ra.auditReports[i].time);
        EXPECT_EQ(rb.auditReports[i].message,
                  ra.auditReports[i].message);
    }
}

TEST(SnapshotServer, ObservabilityMismatchIsRejected)
{
    hh::cluster::SystemConfig cfg = hh::cluster::makeSystem(
        hh::cluster::SystemKind::HardHarvestBlock);
    cfg.requestsPerVm = 40;
    cfg.auditEnabled = true;

    hh::cluster::ServerSim a(cfg, "BFS", 3);
    a.startRun();
    a.advanceRun(hh::sim::msToCycles(0.5));
    auto save = Archive::forSave();
    a.saveState(save);
    ASSERT_TRUE(save.ok());

    // Restore into a server without the auditor: clear error, not
    // silent divergence.
    hh::cluster::SystemConfig plain = cfg;
    plain.auditEnabled = false;
    hh::cluster::ServerSim b(plain, "BFS", 3);
    auto load = Archive::forLoad(save.take());
    b.loadState(load);
    EXPECT_FALSE(load.ok());
    EXPECT_NE(load.error().find("observability"), std::string::npos)
        << load.error();
}

// Section 0x16 still carries a policy-presence byte, always true; a
// false one (a checkpoint from the removed "legacy" selector) must
// fail the archive with a message naming the selector.
TEST(SnapshotServer, PolicyAbsentCheckpointIsRejected)
{
    hh::cluster::SystemConfig cfg = hh::cluster::makeSystem(
        hh::cluster::SystemKind::HardHarvestBlock);
    cfg.requestsPerVm = 40;

    hh::cluster::ServerSim a(cfg, "BFS", 3);
    a.startRun();
    a.advanceRun(hh::sim::msToCycles(0.5));
    auto save = Archive::forSave();
    a.saveState(save);
    ASSERT_TRUE(save.ok());
    std::vector<std::uint8_t> bytes = save.take();

    // Locate the section head: marker 0x16, presence byte, then the
    // u64 length of the policy's per-VM decision vector.
    auto head = Archive::forSave();
    head.section(0x16, "policy");
    bool present = true;
    head.io(present);
    std::uint64_t vms = a.harvestPolicy()->vmCount();
    head.io(vms);
    const std::vector<std::uint8_t> needle = head.take();
    std::vector<std::size_t> hits;
    for (auto it = bytes.begin();
         (it = std::search(it, bytes.end(), needle.begin(),
                           needle.end())) != bytes.end();
         ++it)
        hits.push_back(static_cast<std::size_t>(it - bytes.begin()));
    ASSERT_EQ(hits.size(), 1u);
    bytes[hits[0] + 4] = 0; // the presence byte follows the u32 marker

    hh::cluster::ServerSim b(cfg, "BFS", 3);
    auto load = Archive::forLoad(std::move(bytes));
    b.loadState(load);
    EXPECT_FALSE(load.ok());
    EXPECT_NE(load.error().find("policy=legacy"), std::string::npos)
        << load.error();
}

namespace {

/** FNV-1a 64-bit digest of a byte stream. */
std::uint64_t
fnv1a64(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Deadline of populateQueue's event @p i. */
hh::sim::Cycles
populatedWhen(std::uint64_t i)
{
    return (i % 4 == 0)   ? 100
           : (i % 4 == 1) ? 100 + i
           : (i % 4 == 2) ? 5000 + 17 * i
                          : (hh::sim::Cycles{1} << 21) + i;
}

/**
 * Build a queue with a mix of live and cancelled tagged events.
 * The schedule pattern lands events across wheel levels: ties, near,
 * mid and far deadlines. Every fifth event is cancelled.
 */
std::vector<hh::sim::EventId>
populateQueue(hh::sim::EventQueue &q)
{
    using hh::snap::SnapTag;
    std::vector<hh::sim::EventId> ids;
    for (std::uint64_t i = 0; i < 40; ++i) {
        SnapTag tag;
        tag.kind = SnapTag::kCoreIdle;
        tag.a = i; // ordinal; checked by the rearm callbacks
        ids.push_back(q.schedule(populatedWhen(i), tag, [] {}));
    }
    // Tombstones: cancelled events must vanish from the snapshot
    // without perturbing the surviving (time, seq) order.
    for (std::size_t i = 0; i < ids.size(); i += 5)
        EXPECT_TRUE(q.cancel(ids[i]));
    return ids;
}

/** The (time, ordinal) stream populateQueue's survivors pop in. */
std::vector<std::pair<hh::sim::Cycles, std::uint64_t>>
populatedStream()
{
    std::vector<std::pair<hh::sim::Cycles, std::uint64_t>> out;
    for (std::uint64_t i = 0; i < 40; ++i) {
        if (i % 5 != 0)
            out.emplace_back(populatedWhen(i), i);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::uint8_t>
saveQueue(hh::sim::EventQueue &q)
{
    auto ar = Archive::forSave();
    q.serialize(ar, nullptr);
    EXPECT_TRUE(ar.ok());
    return ar.take();
}

/** Load @p bytes into @p q, rearming each event to log tag.a. */
Archive
tryLoadQueue(hh::sim::EventQueue &q,
             const std::vector<std::uint8_t> &bytes,
             std::vector<std::uint64_t> &log)
{
    auto ar = Archive::forLoad(bytes);
    q.serialize(ar, [&log](const hh::snap::SnapTag &tag) {
        const std::uint64_t ord = tag.a;
        return hh::sim::EventQueue::Callback(
            [&log, ord] { log.push_back(ord); });
    });
    return ar;
}

void
loadQueue(hh::sim::EventQueue &q, const std::vector<std::uint8_t> &bytes,
          std::vector<std::uint64_t> &log)
{
    const Archive ar = tryLoadQueue(q, bytes, log);
    ASSERT_TRUE(ar.ok()) << ar.error();
}

std::vector<std::pair<hh::sim::Cycles, std::uint64_t>>
drainQueue(hh::sim::EventQueue &q, std::vector<std::uint64_t> &log)
{
    std::vector<std::pair<hh::sim::Cycles, std::uint64_t>> out;
    while (!q.empty()) {
        hh::sim::Cycles when = 0;
        auto cb = q.pop(when);
        cb();
        out.emplace_back(when, log.back());
    }
    return out;
}

} // namespace

// A checkpoint restores into a fresh queue that re-serializes
// byte-identically and pops the saved (time, seq) stream.
TEST(SnapshotEventQueue, CheckpointRoundTripsByteIdentically)
{
    hh::sim::EventQueue q;
    populateQueue(q);
    const auto bytes = saveQueue(q);

    std::vector<std::uint64_t> log;
    hh::sim::EventQueue restored;
    loadQueue(restored, bytes, log);
    EXPECT_EQ(restored.size(), q.size());
    EXPECT_EQ(saveQueue(restored), bytes);
    EXPECT_EQ(drainQueue(restored, log), populatedStream());
}

// EventIds held across a restore stay valid verbatim: the restored
// queue hands out the same ids, cancels the same events and keeps
// serializing the same bytes as the queue it was saved from.
TEST(SnapshotEventQueue, RestoredQueueContinuesLikeTheOriginal)
{
    hh::sim::EventQueue q;
    const auto ids = populateQueue(q);
    std::vector<std::uint64_t> log;
    hh::sim::EventQueue restored;
    loadQueue(restored, saveQueue(q), log);

    hh::snap::SnapTag tag;
    tag.kind = hh::snap::SnapTag::kCoreIdle;
    tag.a = 40;
    EXPECT_EQ(restored.schedule(100, tag, [] {}),
              q.schedule(100, tag, [] {}));
    EXPECT_TRUE(q.cancel(ids[1]));
    EXPECT_TRUE(restored.cancel(ids[1]));
    EXPECT_FALSE(restored.cancel(ids[0])); // cancelled before saving
    EXPECT_EQ(saveQueue(restored), saveQueue(q));
}

// Identical schedule/cancel histories write identical bytes, and the
// encoding is pinned: the digest is the one the binary heap this
// queue replaced wrote for the same history.
TEST(SnapshotEventQueue, IdenticalHistoryIdenticalBytes)
{
    hh::sim::EventQueue a;
    hh::sim::EventQueue b;
    populateQueue(a);
    populateQueue(b);
    const auto bytes = saveQueue(a);
    EXPECT_EQ(saveQueue(b), bytes);
    EXPECT_EQ(fnv1a64(bytes), 0x579a48028ae107d3ULL)
        << std::hex << "0x" << fnv1a64(bytes);
}

namespace {

/**
 * A hand-built event-queue stream in the serialize() layout, so a
 * test can corrupt one field at a time. The default image is the
 * queue validImageQueue() builds: one live event in slot 0 and a
 * cancelled one whose slot 1 is free.
 */
struct QueueImage
{
    struct Live
    {
        hh::sim::Cycles when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };
    std::vector<Live> live{{100, 0, 0, 1}};
    std::vector<std::uint32_t> gens{1, 2};
    std::vector<std::uint32_t> freeSlots{1};
    std::uint64_t nextSeq = 2;
    /** Written instead of live.size() / gens.size() when nonzero. */
    std::uint64_t liveCount = 0;
    std::uint64_t slabCount = 0;

    std::vector<std::uint8_t>
    bytes() const
    {
        auto ar = Archive::forSave();
        ar.section(0x45565451u, "event_queue");
        std::uint64_t n = liveCount ? liveCount : live.size();
        ar.io(n);
        for (Live e : live) {
            hh::snap::SnapTag tag;
            tag.kind = hh::snap::SnapTag::kCoreIdle;
            ar.io(e.when);
            ar.io(e.seq);
            ar.io(e.slot);
            ar.io(e.gen);
            ar.io(tag);
        }
        std::uint64_t slots = slabCount ? slabCount : gens.size();
        ar.io(slots);
        for (std::uint32_t g : gens)
            ar.io(g);
        std::vector<std::uint32_t> free_slots = freeSlots;
        ar.io(free_slots);
        std::uint64_t next_seq = nextSeq;
        std::uint64_t zero = 0;
        ar.io(next_seq);
        ar.io(zero); // last popped
        ar.io(zero); // monotonic violations
        return ar.take();
    }
};

/** The real queue QueueImage{} describes. */
void
validImageQueue(hh::sim::EventQueue &q)
{
    hh::snap::SnapTag tag;
    tag.kind = hh::snap::SnapTag::kCoreIdle;
    q.schedule(100, tag, [] {});
    EXPECT_TRUE(q.cancel(q.schedule(200, tag, [] {})));
}

/** Loading @p img fails cleanly with @p needle in the message and
 *  leaves the target queue as it was. */
void
expectLoadFails(const QueueImage &img, const std::string &needle)
{
    hh::sim::EventQueue q;
    validImageQueue(q);
    const auto before = saveQueue(q);
    std::vector<std::uint64_t> log;
    const Archive ar = tryLoadQueue(q, img.bytes(), log);
    EXPECT_FALSE(ar.ok());
    EXPECT_NE(ar.error().find(needle), std::string::npos)
        << ar.error();
    EXPECT_EQ(saveQueue(q), before);
}

} // namespace

TEST(SnapshotEventQueue, HandBuiltImageMatchesARealQueue)
{
    hh::sim::EventQueue q;
    validImageQueue(q);
    EXPECT_EQ(saveQueue(q), QueueImage{}.bytes());
    std::vector<std::uint64_t> log;
    hh::sim::EventQueue restored;
    loadQueue(restored, QueueImage{}.bytes(), log);
    EXPECT_EQ(restored.size(), 1u);
}

TEST(SnapshotEventQueue, FreeSlotOutOfRangeFailsTheArchive)
{
    QueueImage img;
    img.freeSlots = {999};
    expectLoadFails(img, "free slot 999");
}

TEST(SnapshotEventQueue, RepeatedFreeSlotFailsTheArchive)
{
    QueueImage img;
    img.gens = {1, 2, 1};
    img.freeSlots = {1, 1};
    expectLoadFails(img, "free slot 1");
}

TEST(SnapshotEventQueue, FreeSlotNamingALiveSlotFailsTheArchive)
{
    QueueImage img;
    img.freeSlots = {1, 0};
    expectLoadFails(img, "free slot 0");
}

TEST(SnapshotEventQueue, HugeLiveCountFailsTheArchive)
{
    QueueImage img;
    img.liveCount = std::uint64_t{1} << 61;
    expectLoadFails(img, "live events exceed");
}

TEST(SnapshotEventQueue, LargeSlabCountFailsTheArchive)
{
    QueueImage img;
    img.slabCount = std::uint64_t{1} << 27;
    expectLoadFails(img, "exceeds");
}

TEST(SnapshotEventQueue, RepeatedLiveSlotFailsTheArchive)
{
    QueueImage img;
    img.live.push_back({150, 1, 0, 1});
    expectLoadFails(img, "live event slot 0");
}

TEST(SnapshotEventQueue, StaleLiveGenerationFailsTheArchive)
{
    QueueImage img;
    img.live[0].gen = 5;
    expectLoadFails(img, "generation 5");
}

TEST(SnapshotEventQueue, LiveSeqAtOrPastNextSeqFailsTheArchive)
{
    QueueImage img;
    img.live[0].seq = 2;
    expectLoadFails(img, "seq 2");
}
