/**
 * @file
 * Model-checked fuzz of the hierarchical timing wheel (`EventQueue`)
 * under randomized interleavings of schedule / cancel / pop.
 *
 * Every operation is mirrored into a small reference model: an
 * ordered set of live events keyed by (when, seq), where seq is the
 * schedule-order ordinal baked into each callback. Each pop must
 * deliver the model's minimum, nextTime() must agree with it, and
 * each cancel must agree on whether its target was still live.
 *
 * Each profile's (when, ordinal) pop stream and cancel results are
 * also folded into an FNV-1a-64 digest pinned to the value the binary
 * heap the wheel replaced produced for the same operation sequence,
 * so any change in delivery order fails loudly even if the model
 * itself were wrong in the same way.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"

using hh::sim::Cycles;
using hh::sim::EventQueue;

namespace {

/** FNV-1a-64 over the little-endian bytes of the values fed in. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t v, unsigned bytes = 8)
    {
        for (unsigned i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
};

/** Live events of the reference model: (when, ordinal). */
using Model = std::set<std::pair<Cycles, std::uint64_t>>;

/** Pop one event from @p q, check it against @p model, digest it. */
void
popAndCheck(EventQueue &q, Model &model, Digest &d,
            std::vector<std::uint64_t> &fired, Cycles &now)
{
    ASSERT_FALSE(model.empty()) << "queue has events the model lacks";
    const auto want = *model.begin();
    ASSERT_EQ(q.nextTime(), want.first);
    Cycles when = 0;
    auto cb = q.pop(when);
    const std::size_t before = fired.size();
    cb();
    ASSERT_EQ(fired.size(), before + 1) << "callback did not fire";
    ASSERT_EQ(when, want.first);
    ASSERT_EQ(fired.back(), want.second)
        << "pop at t=" << when << " delivered the wrong event";
    model.erase(model.begin());
    d.add(when);
    d.add(fired.back());
    now = when;
}

/**
 * Drive the wheel through @p ops random operations against the
 * reference model and fold the result into @p d. The delay mix is
 * shaped by @p nearWeight / @p farWeight / @p cancelProb so distinct
 * profiles stress the level-0 fast path, the far heap + cascade path,
 * and the tombstone path respectively.
 */
void
fuzzRound(std::uint64_t seed, int ops, double nearWeight,
          double farWeight, double cancelProb, Digest &d)
{
    hh::sim::Rng rng(seed, 77);
    EventQueue q;
    Model model;

    std::vector<std::uint64_t> fired;
    // Per-ordinal ids and deadlines; an ordinal is "live" until
    // cancelled or popped.
    std::vector<hh::sim::EventId> ids;
    std::vector<Cycles> whens;
    std::vector<std::uint64_t> cancellable;

    Cycles now = 0;

    for (int i = 0; i < ops; ++i) {
        const double r = rng.uniform();
        if (r < cancelProb && !cancellable.empty()) {
            const std::size_t pick = static_cast<std::size_t>(
                rng.uniformInt(cancellable.size()));
            const std::uint64_t ord = cancellable[pick];
            cancellable[pick] = cancellable.back();
            cancellable.pop_back();
            const bool live = model.erase({whens[ord], ord}) == 1;
            ASSERT_EQ(q.cancel(ids[ord]), live)
                << "cancel liveness diverged, op " << i;
            d.add(live ? 1 : 0, 1);
            continue;
        }
        if (r < cancelProb + 0.25 && !q.empty()) {
            popAndCheck(q, model, d, fired, now);
            if (::testing::Test::HasFatalFailure())
                return;
            continue;
        }
        // Schedule. Delay mix: ties at `now` exercise FIFO order,
        // near hits level 0, far lands in higher levels / far heap.
        Cycles delay = 0;
        const double u = rng.uniform();
        if (u < 0.15)
            delay = 0;
        else if (u < 0.15 + nearWeight)
            delay = rng.uniformInt(std::uint64_t{256});
        else if (u < 0.15 + nearWeight + farWeight)
            delay = rng.uniformInt(std::uint64_t{1} << 22);
        else
            delay = rng.uniformInt(std::uint64_t{1} << 14);
        const Cycles when = now + delay;
        const std::uint64_t ord = ids.size();
        ids.push_back(q.schedule(when, [&fired, ord] {
            fired.push_back(ord);
        }));
        whens.push_back(when);
        model.emplace(when, ord);
        cancellable.push_back(ord);
        ASSERT_EQ(q.size(), model.size());
    }

    // Drain everything that is left.
    while (!q.empty()) {
        popAndCheck(q, model, d, fired, now);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_TRUE(model.empty());
    EXPECT_EQ(q.monotonicViolations(), 0u);
}

} // namespace

// Each expected digest was captured by running the same rounds on the
// binary heap the wheel replaced; both queues produced it.

TEST(EventQueueFuzz, NearFutureHeavy)
{
    Digest d;
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        fuzzRound(seed, 4000, 0.70, 0.05, 0.10, d);
    EXPECT_EQ(d.h, 0x098f2a5e4b4ac409ULL) << std::hex << "0x" << d.h;
}

TEST(EventQueueFuzz, FarFutureHeavy)
{
    Digest d;
    for (std::uint64_t seed = 11; seed <= 16; ++seed)
        fuzzRound(seed, 4000, 0.05, 0.70, 0.10, d);
    EXPECT_EQ(d.h, 0xffb759cc4023f921ULL) << std::hex << "0x" << d.h;
}

TEST(EventQueueFuzz, CancelHeavy)
{
    Digest d;
    for (std::uint64_t seed = 21; seed <= 26; ++seed)
        fuzzRound(seed, 4000, 0.30, 0.20, 0.45, d);
    EXPECT_EQ(d.h, 0xe1165485b0d27ef6ULL) << std::hex << "0x" << d.h;
}

TEST(EventQueueFuzz, MixedLongRun)
{
    Digest d;
    fuzzRound(99, 40000, 0.35, 0.25, 0.20, d);
    EXPECT_EQ(d.h, 0xc8d406b622ba0a47ULL) << std::hex << "0x" << d.h;
}
