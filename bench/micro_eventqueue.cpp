/**
 * @file
 * google-benchmark microbenchmarks of the discrete-event queue hot
 * path (the hierarchical timing wheel): schedule/pop cycles,
 * schedule/cancel churn, and the three workload mixes that stress
 * different structures: near-future-heavy (the server mix),
 * far-future-heavy (spread across coarse wheel levels), and
 * cancel-heavy (dead-node skipping/compaction).
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "sim/event_queue.h"
#include "sim/inline_function.h"
#include "sim/rng.h"

namespace {

using hh::sim::Cycles;
using hh::sim::EventQueue;

/** The parameterized schedule/cancel/pop workload mix. */
void
runMix(benchmark::State &state, const hh::bench::QueueMixPreset &p)
{
    std::uint64_t sink = 0;
    hh::sim::Rng rng(7, 0xE0);
    EventQueue q;
    Cycles now = 0;
    std::vector<hh::sim::EventId> pending;
    // Prime a window so pops always succeed.
    for (int i = 0; i < 64; ++i)
        pending.push_back(
            q.schedule(now + 1 + (i % 13), [&sink] { ++sink; }));
    for (auto _ : state) {
        benchmark::DoNotOptimize(hh::bench::eventQueueMixRound(
            q, rng, now, pending, sink, p.horizon, p.cancelProb));
    }
    state.SetItemsProcessed(state.iterations());
}

const hh::bench::QueueMixPreset &
preset(const char *name)
{
    for (const auto &p : hh::bench::kQueueMixPresets) {
        if (std::string_view(p.name) == name)
            return p;
    }
    __builtin_trap(); // presets are compile-time constants
}

#define HH_MIX_BENCH(Mix)                                            \
    void BM_EventQueueMix_##Mix(benchmark::State &state)             \
    {                                                                \
        runMix(state, preset(#Mix));                                 \
    }                                                                \
    BENCHMARK(BM_EventQueueMix_##Mix)

HH_MIX_BENCH(near);
HH_MIX_BENCH(far);
HH_MIX_BENCH(cancel);

#undef HH_MIX_BENCH

/** Pure schedule/pop cycles, no cancellation. */
void
BM_EventQueueSchedulePop(benchmark::State &state)
{
    std::uint64_t sink = 0;
    EventQueue q;
    Cycles now = 0;
    for (int i = 0; i < 64; ++i)
        q.schedule(now + 1 + (i % 7), [&sink] { ++sink; });
    for (auto _ : state) {
        q.schedule(now + 5, [&sink] { ++sink; });
        q.pop(now)();
    }
    state.SetItemsProcessed(state.iterations());
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueSchedulePop);

/** Schedule + immediate cancel churn (superseded timers). */
void
BM_EventQueueScheduleCancel(benchmark::State &state)
{
    EventQueue q;
    std::uint64_t sink = 0;
    Cycles t = 1;
    for (auto _ : state) {
        const auto id = q.schedule(t++, [&sink] { ++sink; });
        benchmark::DoNotOptimize(q.cancel(id));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueScheduleCancel);

/** Callback wrapper cost in isolation: construct + invoke. */
void
BM_CallbackWrap_StdFunction(benchmark::State &state)
{
    std::uint64_t sink = 0;
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    for (auto _ : state) {
        std::function<void()> f =
            [&sink, a, b, c, d] { sink += a + b + c + d; };
        f();
        benchmark::DoNotOptimize(f);
    }
}
BENCHMARK(BM_CallbackWrap_StdFunction);

void
BM_CallbackWrap_InlineFunction(benchmark::State &state)
{
    std::uint64_t sink = 0;
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    for (auto _ : state) {
        hh::sim::InlineFunction<void()> f =
            [&sink, a, b, c, d] { sink += a + b + c + d; };
        f();
        benchmark::DoNotOptimize(f);
    }
}
BENCHMARK(BM_CallbackWrap_InlineFunction);

} // namespace

BENCHMARK_MAIN();
