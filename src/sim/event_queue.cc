#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <string>

#include "sim/log.h"
#include "snapshot/archive.h"

namespace hh::sim {

namespace {

constexpr std::uint32_t kGenShift = 32;

inline EventId
makeId(std::uint32_t gen, std::uint32_t slot)
{
    return (static_cast<EventId>(gen) << kGenShift) |
           (static_cast<EventId>(slot) + 1);
}

} // namespace

unsigned
EventQueue::Occupancy::first() const
{
    for (unsigned i = 0; i < 4; ++i) {
        if (w[i])
            return i * 64 +
                   static_cast<unsigned>(std::countr_zero(w[i]));
    }
    return kSlots;
}

std::uint32_t
EventQueue::allocSlot()
{
    if (!free_slots_.empty()) {
        const std::uint32_t slot = free_slots_.back();
        free_slots_.pop_back();
        return slot;
    }
    slab_.emplace_back();
    return static_cast<std::uint32_t>(slab_.size() - 1);
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    Record &rec = slab_[slot];
    rec.cb.reset();
    rec.tag = hh::snap::SnapTag{};
    ++rec.gen;
    free_slots_.push_back(slot);
}

void
EventQueue::place(const Node &n)
{
    const Cycles t = n.when;
    unsigned lvl;
    unsigned slot;
    if ((t >> 8) == (org_ >> 8)) {
        lvl = 0;
        slot = static_cast<unsigned>(t & 0xff);
    } else if ((t >> 16) == (org_ >> 16)) {
        lvl = 1;
        slot = static_cast<unsigned>((t >> 8) & 0xff);
    } else if ((t >> 24) == (org_ >> 24)) {
        lvl = 2;
        slot = static_cast<unsigned>((t >> 16) & 0xff);
    } else {
        far_.push_back(n);
        std::push_heap(far_.begin(), far_.end(), Later{});
        return;
    }
    wheel_[lvl][slot].v.push_back(n);
    occ_[lvl].set(slot);
}

EventId
EventQueue::schedule(Cycles when, Callback cb)
{
    const std::uint32_t slot = allocSlot();
    Record &rec = slab_[slot];
    rec.cb = std::move(cb);
    // Contract-violating schedules into the past (when < org_ can
    // only follow when < last_popped_) re-anchor the whole wheel so
    // pop still delivers the global (when, seq) minimum.
    if (when < org_)
        rebaseDown(when);
    place(Node{when, next_seq_++, slot, rec.gen});
    ++live_;
    return makeId(rec.gen, slot);
}

EventId
EventQueue::schedule(Cycles when, const hh::snap::SnapTag &tag,
                     Callback cb)
{
    const EventId id = schedule(when, std::move(cb));
    slab_[static_cast<std::uint32_t>((id & 0xffffffffu) - 1)].tag =
        tag;
    return id;
}

bool
EventQueue::cancel(EventId id)
{
    if (id == kInvalidEventId)
        return false;
    const std::uint32_t slot =
        static_cast<std::uint32_t>((id & 0xffffffffu) - 1);
    const std::uint32_t gen =
        static_cast<std::uint32_t>(id >> kGenShift);
    if (slot >= slab_.size() || slab_[slot].gen != gen ||
        !slab_[slot].cb)
        return false;
    // Invalidate the slot; its wheel node becomes dead and is reaped
    // lazily on pop/cascade/compaction.
    freeSlot(slot);
    --live_;
    ++dead_;
    maybeCompact();
    return true;
}

bool
EventQueue::skipDeadL0(unsigned s) const
{
    Bucket &b = wheel_[0][s];
    while (b.head < b.v.size() && dead(b.v[b.head])) {
        ++b.head;
        --dead_;
    }
    if (b.drained()) {
        b.reset();
        occ_[0].clear(s);
        return false;
    }
    return true;
}

void
EventQueue::skipDeadFar() const
{
    while (!far_.empty() && dead(far_.front())) {
        std::pop_heap(far_.begin(), far_.end(), Later{});
        far_.pop_back();
        --dead_;
    }
}

void
EventQueue::cascade()
{
    for (unsigned lvl = 1; lvl < kLevels; ++lvl) {
        if (!occ_[lvl].any())
            continue;
        const unsigned s = occ_[lvl].first();
        // The bucket being opened becomes the new current window.
        // All legal nodes sit at or past org_, so s is past the
        // window the old org_ named and org_ only moves forward.
        if (lvl == 1)
            org_ = (org_ & ~Cycles{0xffff}) | (Cycles{s} << 8);
        else
            org_ = (org_ & ~Cycles{0xffffff}) | (Cycles{s} << 16);
        Bucket &b = wheel_[lvl][s];
        occ_[lvl].clear(s);
        // Redistribute in stored order: equal-time nodes keep their
        // ascending-seq order, preserving FIFO tie-breaking.
        for (std::size_t i = b.head; i < b.v.size(); ++i) {
            if (dead(b.v[i]))
                --dead_;
            else
                place(b.v[i]);
        }
        b.reset();
        return;
    }

    skipDeadFar();
    if (far_.empty())
        panic("EventQueue::cascade: no events to promote");
    // Open the far list's earliest 2^24 window and pour every event
    // in it into the wheel. The heap drains in (when, seq) order, so
    // equal-time nodes land in their buckets in ascending seq order.
    const Cycles window = far_.front().when >> 24;
    org_ = window << 24;
    while (!far_.empty() && (far_.front().when >> 24) == window) {
        std::pop_heap(far_.begin(), far_.end(), Later{});
        const Node n = far_.back();
        far_.pop_back();
        if (dead(n))
            --dead_;
        else
            place(n);
    }
}

void
EventQueue::rebaseDown(Cycles when)
{
    // Collect every live node, re-anchor the wheel at `when`'s
    // window, and re-place them. Replacing in ascending seq order
    // keeps equal-time nodes FIFO within their new buckets.
    std::vector<Node> alive;
    alive.reserve(live_);
    for (auto &level : wheel_) {
        for (auto &b : level) {
            for (std::size_t i = b.head; i < b.v.size(); ++i) {
                if (!dead(b.v[i]))
                    alive.push_back(b.v[i]);
            }
            b.reset();
        }
    }
    for (const Node &n : far_) {
        if (!dead(n))
            alive.push_back(n);
    }
    far_.clear();
    occ_ = {};
    dead_ = 0;
    std::sort(alive.begin(), alive.end(),
              [](const Node &a, const Node &b) {
                  return a.seq < b.seq;
              });
    org_ = (when >> 8) << 8;
    for (const Node &n : alive)
        place(n);
}

void
EventQueue::maybeCompact()
{
    // Sweep once cancelled nodes dominate. The threshold of 64
    // avoids sweeping tiny queues; the > live_ condition makes the
    // O(n) sweep amortised O(1) per cancel while capping stored
    // nodes at ~2x the live event count.
    if (dead_ <= 64 || dead_ <= live_)
        return;
    for (unsigned lvl = 0; lvl < kLevels; ++lvl) {
        // Visit only occupied buckets via the bitmap; a full
        // 256-slot walk per level would dwarf the sweep itself.
        for (unsigned word = 0; word < 4; ++word) {
            std::uint64_t bits = occ_[lvl].w[word];
            while (bits) {
                const unsigned s =
                    word * 64 +
                    static_cast<unsigned>(std::countr_zero(bits));
                bits &= bits - 1;
                Bucket &b = wheel_[lvl][s];
                std::size_t w = 0;
                for (std::size_t i = b.head; i < b.v.size(); ++i) {
                    if (!dead(b.v[i]))
                        b.v[w++] = b.v[i];
                }
                b.v.resize(w);
                b.head = 0;
                if (w == 0)
                    occ_[lvl].clear(s);
            }
        }
    }
    far_.erase(std::remove_if(far_.begin(), far_.end(),
                              [this](const Node &n) {
                                  return dead(n);
                              }),
               far_.end());
    std::make_heap(far_.begin(), far_.end(), Later{});
    dead_ = 0;
}

Cycles
EventQueue::nextTime() const
{
    if (live_ == 0)
        panic("EventQueue::nextTime on empty queue");
    // Level 0 fast path: the earliest occupied bucket holds exactly
    // one timestamp, so this is a bitmap scan plus a cursor read.
    for (;;) {
        const unsigned s = occ_[0].first();
        if (s >= kSlots)
            break;
        if (!skipDeadL0(s))
            continue;
        const Bucket &b = wheel_[0][s];
        return b.v[b.head].when;
    }
    // Coarse levels: every node in the earliest occupied bucket
    // precedes every node in later buckets and levels, so the
    // minimum live timestamp within that bucket is the answer. No
    // cascade here — org_ must not move before the matching pop, or
    // a legal schedule could land below the wheel origin.
    for (unsigned lvl = 1; lvl < kLevels; ++lvl) {
        while (occ_[lvl].any()) {
            const unsigned s = occ_[lvl].first();
            Bucket &b = wheel_[lvl][s];
            Cycles best = ~Cycles{0};
            bool found = false;
            for (std::size_t i = b.head; i < b.v.size(); ++i) {
                if (!dead(b.v[i])) {
                    found = true;
                    best = std::min(best, b.v[i].when);
                }
            }
            if (found)
                return best;
            dead_ -= b.v.size() - b.head;
            b.reset();
            occ_[lvl].clear(s);
        }
    }
    skipDeadFar();
    if (far_.empty())
        panic("EventQueue::nextTime: live count out of sync");
    return far_.front().when;
}

EventQueue::Callback
EventQueue::pop(Cycles &when)
{
    if (live_ == 0)
        panic("EventQueue::pop on empty queue");
    for (;;) {
        const unsigned s = occ_[0].first();
        if (s >= kSlots) {
            cascade();
            continue;
        }
        if (!skipDeadL0(s))
            continue;
        Bucket &b = wheel_[0][s];
        const Node n = b.v[b.head++];
        if (b.drained()) {
            b.reset();
            occ_[0].clear(s);
        }
        when = n.when;
        if (when < last_popped_)
            ++monotonic_violations_;
        last_popped_ = when;
        Callback cb = std::move(slab_[n.slot].cb);
        freeSlot(n.slot);
        --live_;
        return cb;
    }
}

void
EventQueue::serialize(hh::snap::Archive &ar, const RearmFn &rearm)
{
    ar.section(0x45565451u, "event_queue"); // 'EVTQ'
    if (ar.saving()) {
        // Live nodes in deterministic (seq) order; dead nodes are
        // dropped, which a resumed run cannot observe. This is the
        // exact encoding the heap implementation wrote, so existing
        // 'HHCP' checkpoints stay byte-identical.
        std::vector<Node> alive;
        alive.reserve(live_);
        for (auto &level : wheel_) {
            for (auto &b : level) {
                for (std::size_t i = b.head; i < b.v.size(); ++i) {
                    if (!dead(b.v[i]))
                        alive.push_back(b.v[i]);
                }
            }
        }
        for (const Node &n : far_) {
            if (!dead(n))
                alive.push_back(n);
        }
        std::sort(alive.begin(), alive.end(),
                  [](const Node &a, const Node &b) {
                      return a.seq < b.seq;
                  });
        std::uint64_t n = alive.size();
        ar.io(n);
        for (Node &e : alive) {
            Record &rec = slab_[e.slot];
            if (rec.tag.kind == hh::snap::SnapTag::kNone) {
                panic("EventQueue snapshot: live event at t=",
                      e.when, " (slot ", e.slot,
                      ") was scheduled without a snap tag");
            }
            ar.io(e.when);
            ar.io(e.seq);
            ar.io(e.slot);
            ar.io(e.gen);
            ar.io(rec.tag);
        }
        // Slot generations (all slots, so stale EventIds stay
        // invalid after restore) and the free-slot order (so slot
        // allocation resumes identically).
        std::uint64_t slots = slab_.size();
        ar.io(slots);
        for (Record &rec : slab_)
            ar.io(rec.gen);
        ar.io(free_slots_);
        ar.io(next_seq_);
        ar.io(last_popped_);
        ar.io(monotonic_violations_);
        return;
    }

    // Every count is bounded by the bytes left before anything is
    // allocated for it, and the slab bookkeeping is cross-checked
    // before any state is replaced: a corrupt stream fails the
    // archive and leaves the queue untouched.
    std::uint64_t n = 0;
    ar.io(n);
    if (ar.ok() && n > ar.remaining()) {
        ar.fail("event queue snapshot: " + std::to_string(n) +
                " live events exceed " +
                std::to_string(ar.remaining()) + " remaining bytes");
        return;
    }
    struct Saved
    {
        Node node;
        hh::snap::SnapTag tag;
    };
    std::vector<Saved> saved;
    saved.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n && ar.ok(); ++i) {
        Saved s{};
        ar.io(s.node.when);
        ar.io(s.node.seq);
        ar.io(s.node.slot);
        ar.io(s.node.gen);
        ar.io(s.tag);
        saved.push_back(s);
    }
    // Same encoding as the save side's count + per-slot loop.
    std::vector<std::uint32_t> gens;
    ar.io(gens);
    std::vector<std::uint32_t> free_slots;
    ar.io(free_slots);
    std::uint64_t next_seq = 0;
    Cycles last_popped = 0;
    std::uint64_t monotonic = 0;
    ar.io(next_seq);
    ar.io(last_popped);
    ar.io(monotonic);
    if (!ar.ok())
        return;

    // Each slot is live at most once or free at most once, never
    // both; live entries carry their slot's generation and strictly
    // ascending seqs below next_seq (the order placement relies on).
    std::vector<bool> taken(gens.size(), false);
    for (std::size_t i = 0; i < saved.size(); ++i) {
        const Node &e = saved[i].node;
        if (e.slot >= gens.size() || taken[e.slot]) {
            ar.fail("event queue snapshot: live event slot " +
                    std::to_string(e.slot) +
                    " is out of range or repeated (slab of " +
                    std::to_string(gens.size()) + ")");
            return;
        }
        if (e.gen != gens[e.slot]) {
            ar.fail("event queue snapshot: live event generation " +
                    std::to_string(e.gen) + " does not match slot " +
                    std::to_string(e.slot) + "'s " +
                    std::to_string(gens[e.slot]));
            return;
        }
        if (e.seq >= next_seq ||
            (i > 0 && e.seq <= saved[i - 1].node.seq)) {
            ar.fail("event queue snapshot: live event seq " +
                    std::to_string(e.seq) +
                    " is out of order or not below next seq " +
                    std::to_string(next_seq));
            return;
        }
        taken[e.slot] = true;
    }
    for (const std::uint32_t f : free_slots) {
        if (f >= gens.size() || taken[f]) {
            ar.fail("event queue snapshot: free slot " +
                    std::to_string(f) +
                    " is out of range, repeated or live (slab of " +
                    std::to_string(gens.size()) + ")");
            return;
        }
        taken[f] = true;
    }

    for (auto &level : wheel_) {
        for (auto &b : level)
            b.reset();
    }
    occ_ = {};
    far_.clear();
    slab_.clear();
    slab_.resize(gens.size());
    for (std::size_t i = 0; i < gens.size(); ++i)
        slab_[i].gen = gens[i];
    // Re-anchor at the origin; saved nodes are in ascending seq
    // order, so placing them in stream order restores FIFO
    // tie-breaking, and the first pop cascades the wheel forward.
    org_ = 0;
    for (const Saved &s : saved) {
        Record &rec = slab_[s.node.slot];
        rec.tag = s.tag;
        rec.cb = rearm(s.tag);
        if (!rec.cb) {
            panic("EventQueue restore: re-arm hook returned no "
                  "callback for tag kind ", s.tag.kind);
        }
        place(s.node);
    }
    free_slots_ = std::move(free_slots);
    next_seq_ = next_seq;
    live_ = saved.size();
    dead_ = 0;
    last_popped_ = last_popped;
    monotonic_violations_ = monotonic;
}

} // namespace hh::sim
