#include "cache/repl_rrip.h"

namespace hh::cache {

unsigned
RripPolicy::victim(const SetContext &ctx, bool incoming_shared)
{
    (void)incoming_shared;
    const WayMask inv = ctx.allowedMask & ~ctx.validMask;
    if (inv)
        return static_cast<unsigned>(std::countr_zero(inv));
    // SRRIP would age every way until one reaches kMaxRrpv; the way
    // that gets there first is the one with the maximum current
    // RRPV, so select that without mutating anything (LRU, then the
    // lowest index, breaks ties).
    unsigned best = 64;
    int best_rrpv = -1;
    std::uint64_t best_use = ~0ULL;
    for (WayMask m = ctx.allowedMask; m; m &= m - 1) {
        const auto w = static_cast<unsigned>(std::countr_zero(m));
        const int rrpv = ctx.rrpv[w];
        if (rrpv > best_rrpv ||
            (rrpv == best_rrpv && ctx.lastUse[w] < best_use)) {
            best_rrpv = rrpv;
            best_use = ctx.lastUse[w];
            best = w;
        }
    }
    return best;
}

void
RripPolicy::touch(std::uint8_t &rrpv)
{
    rrpv = 0;
}

void
RripPolicy::fill(std::uint8_t &rrpv)
{
    rrpv = kInsertRrpv;
}

} // namespace hh::cache
