/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are arbitrary callbacks ordered by (time, insertion sequence);
 * ties are broken FIFO so the simulation is deterministic. Events can
 * be cancelled by id (used for timers that are superseded, e.g. a
 * polling core that gets a hardware notification first).
 *
 * Hot-path design: a three-level hierarchical timing wheel. Level g
 * covers 256 buckets of 2^(8g)-cycle granularity, so the wheel spans
 * 2^24 cycles (~5.6 ms at 3 GHz) from its origin; later events wait
 * in an overflow min-heap ("far list") ordered by (when, seq).
 * Bucket occupancy is tracked in 256-bit bitmaps, so
 * finding the earliest event is a handful of countr_zero scans, and a
 * level-0 bucket holds exactly one timestamp, making same-cycle pops
 * a bump of the bucket cursor — the property `Simulator::run()`'s
 * batched dispatch exploits.
 *
 * Callbacks live in a slab of reusable records and are stored in a
 * small-buffer-optimised `InlineFunction`, so the schedule/pop cycle
 * performs no heap allocation for typical events. An `EventId`
 * encodes (generation, slot); cancellation bumps the slot's
 * generation, which is O(1) and needs no hash-map lookup — stale
 * wheel nodes are recognised by a generation mismatch and discarded
 * lazily, with periodic compaction keeping stored nodes proportional
 * to the number of live events.
 *
 * Determinism contract: pops deliver the globally minimal (when, seq)
 * pair, where seq is the schedule-order sequence number. Cascading
 * preserves this because (a) within any bucket, equal-time nodes
 * appear in ascending seq order — schedules append in seq order,
 * cascades redistribute in stored order, and the far heap drains in
 * (when, seq) order — and (b) every node moved by a cascade was
 * scheduled before any node a later schedule() appends behind it.
 * The serialize() encoding is structure-independent (live events
 * sorted by seq, plus the slab generation/free-slot state); it is the
 * encoding the binary heap that preceded the wheel wrote, so older
 * checkpoints still load.
 */

#ifndef HH_SIM_EVENT_QUEUE_H
#define HH_SIM_EVENT_QUEUE_H

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/inline_function.h"
#include "sim/time.h"
#include "snapshot/tag.h"

namespace hh::snap {
class Archive;
} // namespace hh::snap

namespace hh::sim {

/**
 * Opaque handle identifying a scheduled event.
 *
 * Encodes (generation << 32) | (slot + 1); the +1 keeps 0 free as the
 * invalid sentinel. Generations make stale ids safe: cancelling or
 * running an event invalidates every outstanding id for its slot.
 */
using EventId = std::uint64_t;

/** Sentinel id returned for operations that cannot be cancelled. */
inline constexpr EventId kInvalidEventId = 0;

/**
 * Hierarchical timing wheel of timestamped callbacks with stable
 * FIFO tie-breaking.
 */
class EventQueue
{
  public:
    using Callback = InlineFunction<void()>;
    /** Member alias so generic code can name the id type. */
    using EventId = hh::sim::EventId;

    /**
     * Schedule a callback at an absolute time.
     *
     * @param when Absolute simulated time; must be >= the time of the
     *             most recently popped event.
     * @param cb   The callback to run.
     * @return An id that can be passed to cancel().
     */
    EventId schedule(Cycles when, Callback cb);

    /**
     * Schedule a callback carrying a snapshot tag.
     *
     * The tag is the serializable identity of the closure: a
     * checkpoint stores it instead of the callback, and the owning
     * component's re-arm hook rebuilds an equivalent closure from it
     * on restore. Events scheduled without a tag cannot be
     * checkpointed — serialize() panics if one is live.
     */
    EventId schedule(Cycles when, const hh::snap::SnapTag &tag,
                     Callback cb);

    /**
     * Cancel a previously scheduled event.
     *
     * @return true if the event existed and had not yet run.
     */
    bool cancel(EventId id);

    /** True when no live events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live (non-cancelled, not-yet-run) events. */
    std::size_t size() const { return live_; }

    /** Time of the earliest live event. @pre !empty(). */
    Cycles nextTime() const;

    /**
     * Pop and return the earliest live event.
     *
     * @param[out] when Receives the event's timestamp.
     * @return The callback to execute.
     * @pre !empty().
     */
    Callback pop(Cycles &when);

    /** @name Introspection (tests/benchmarks) @{ */
    /** Nodes currently stored across all wheel levels and the far
     *  list, including not-yet-reaped cancelled ones. Bounded by
     *  compaction to O(live). */
    std::size_t heapEntries() const { return live_ + dead_; }
    /** Slab records allocated (high-water mark of concurrent
     *  events, live or reusable). */
    std::size_t slabSlots() const { return slab_.size(); }
    /** Pops whose timestamp went backwards relative to the previous
     *  pop. Always 0 for a correct queue; the invariant auditor
     *  asserts it (a regression in the wheel/cascade logic would
     *  silently reorder the simulation otherwise). */
    std::uint64_t monotonicViolations() const
    {
        return monotonic_violations_;
    }
    /** @} */

    /** Maps a stored snap-tag back to an equivalent callback. */
    using RearmFn =
        std::function<Callback(const hh::snap::SnapTag &)>;

    /**
     * Save or restore the queue through @p ar.
     *
     * The structural encoding preserves slot numbers, generations,
     * sequence numbers and the free-slot order, so `EventId`s held by
     * components (e.g. a core's pending completion) remain valid
     * verbatim across a restore. Saving panics on a live untagged
     * event; loading invokes @p rearm once per live event to rebuild
     * its callback into the original slot. Dead (cancelled) nodes
     * are dropped at save, which is observationally equivalent to
     * compaction having run. Loading validates the stream before
     * replacing any state: counts must fit in the remaining bytes,
     * every live slot must be in range, unique and carry its slot's
     * generation, seqs must ascend below next_seq, and free slots
     * must be in range, unique and not live; otherwise the archive
     * fails and the queue is left as it was.
     */
    void serialize(hh::snap::Archive &ar, const RearmFn &rearm);

  private:
    /** Buckets per wheel level (one byte of the timestamp each). */
    static constexpr unsigned kSlots = 256;
    static constexpr unsigned kLevels = 3;

    /** One reusable event record. */
    struct Record
    {
        Callback cb;
        /** Serializable identity of cb; kNone for untagged events. */
        hh::snap::SnapTag tag;
        /** Bumped on cancel/pop; mismatching nodes are dead. */
        std::uint32_t gen = 1;
    };

    /** Wheel node: plain data, no callback, no hashing. */
    struct Node
    {
        Cycles when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /** Min-heap order on (when, seq) via std::*_heap's max-heap. */
    struct Later
    {
        bool
        operator()(const Node &a, const Node &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** A bucket: append-only vector drained through a cursor. */
    struct Bucket
    {
        std::vector<Node> v;
        std::uint32_t head = 0;

        bool drained() const { return head >= v.size(); }
        void
        reset()
        {
            v.clear();
            head = 0;
        }
    };

    /** 256-bit occupancy bitmap, one bit per bucket. */
    struct Occupancy
    {
        std::array<std::uint64_t, 4> w{};

        void set(unsigned s) { w[s >> 6] |= 1ull << (s & 63); }
        void clear(unsigned s) { w[s >> 6] &= ~(1ull << (s & 63)); }
        bool
        any() const
        {
            return (w[0] | w[1] | w[2] | w[3]) != 0;
        }
        /** Lowest set bit, or kSlots when empty. */
        unsigned first() const;
    };

    bool dead(const Node &n) const
    {
        return slab_[n.slot].gen != n.gen;
    }

    /** Wheel level and bucket for @p when. @pre when >= org_. */
    void place(const Node &n);

    /** Move the earliest occupied coarse bucket down one level,
     *  advancing org_. @pre level 0 is drained. */
    void cascade();

    /** Advance a bucket's cursor past dead nodes; false if it
     *  drained (bucket reset, occupancy cleared). */
    bool skipDeadL0(unsigned s) const;

    /** Drop dead far-list tops. */
    void skipDeadFar() const;

    /** Re-anchor the wheel at @p when's window (contract-violating
     *  schedule into the past; O(n), never hit by legal callers). */
    void rebaseDown(Cycles when);

    /** Sweep cancelled nodes out of every bucket and the far list
     *  once they dominate. */
    void maybeCompact();

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t slot);

    /** Level-0 window base; multiple of kSlots, only advances
     *  (except in rebaseDown). Every stored node has when >= org_. */
    Cycles org_ = 0;
    mutable std::array<std::array<Bucket, kSlots>, kLevels> wheel_{};
    mutable std::array<Occupancy, kLevels> occ_{};
    /** Overflow events >= 2^24 cycles past org_; (when, seq) heap. */
    mutable std::vector<Node> far_;

    std::vector<Record> slab_;
    std::vector<std::uint32_t> free_slots_;
    std::uint64_t next_seq_ = 0;
    std::size_t live_ = 0;
    /** Cancelled nodes still stored in buckets or the far list. */
    mutable std::size_t dead_ = 0;
    Cycles last_popped_ = 0;
    std::uint64_t monotonic_violations_ = 0;
};

} // namespace hh::sim

#endif // HH_SIM_EVENT_QUEUE_H
