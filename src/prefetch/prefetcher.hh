/**
 * @file
 * Common interface for the TLB prefetching mechanisms.
 *
 * Every mechanism, as in the paper, sits *after* the TLB: it sees only
 * the miss stream (plus the PC of the missing reference, which ASP
 * needs) and the identity of the entry the TLB evicted (which RP
 * needs).  It never sees TLB hits.
 */

#ifndef TLBPF_PREFETCH_PREFETCHER_HH
#define TLBPF_PREFETCH_PREFETCHER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/page_table.hh"
#include "trace/ref_stream.hh"
#include "util/snapshot.hh"

namespace tlbpf
{

/** Everything a mechanism may observe about one TLB miss. */
struct TlbMiss
{
    Vpn vpn = 0;          ///< the missing virtual page
    Addr pc = 0;          ///< PC of the missing reference (ASP)
    bool pbHit = false;   ///< the miss was satisfied by the buffer
    Vpn evictedVpn = kNoPage; ///< page evicted from the TLB, if any
};

/** What a mechanism wants done about one TLB miss. */
struct PrefetchDecision
{
    /** Pages to bring into the prefetch buffer. */
    std::vector<Vpn> targets;
    /**
     * Memory word operations needed to maintain prediction state
     * (RP's pointer manipulations; 0 for the on-chip schemes).
     */
    unsigned stateOps = 0;

    void
    clear()
    {
        targets.clear();
        stateOps = 0;
    }
};

/** Hardware-cost summary for the paper's Table 1. */
struct HardwareProfile
{
    std::string rows;          ///< number of rows expression
    std::string rowContents;   ///< what one row stores
    std::string tableLocation; ///< "On-Chip" or "In Memory"
    std::string indexedBy;     ///< PC / Page # / Distance
    unsigned memOpsPerMiss = 0;///< state-maintenance ops (excl. prefetch)
    std::string maxPrefetches; ///< prefetches per miss
};

/** Abstract TLB prefetching mechanism. */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /**
     * Observe one TLB miss and fill @p decision (cleared first by the
     * caller contract; implementations may assume it is empty).
     */
    virtual void onMiss(const TlbMiss &miss,
                        PrefetchDecision &decision) = 0;

    /** Forget all prediction state (context switch). */
    virtual void reset() = 0;

    /** Mechanism short name: SP, ASP, MP, RP, DP. */
    virtual std::string name() const = 0;

    /** Parameterised label, e.g. "DP,256,D". */
    virtual std::string label() const = 0;

    /** Table 1 row for this mechanism. */
    virtual HardwareProfile hardwareProfile() const = 0;

    /**
     * Timing-model policy: when the prefetch channel is still busy at
     * miss time, should the prefetch fetches be skipped (state updates
     * still charged)?  The paper grants RP this benefit of the doubt.
     */
    virtual bool dropPrefetchesWhenBusy() const { return false; }

    /**
     * Size families (sim/core.hh): take over the state of @p smaller,
     * built from the same registry entry and parameters apart from
     * fewer table rows, which has never evicted a table row, as this
     * mechanism's own table geometry would hold it.  Returns false,
     * changing nothing, if the mechanism does not take part (the
     * default) or @p smaller is of another kind.
     */
    virtual bool adopt(const Prefetcher &smaller)
    {
        (void)smaller;
        return false;
    }

    /**
     * Size families: whether onMiss() for a miss to @p vpn by @p pc
     * would evict a row of the mechanism's table.  Only asked of a
     * mechanism whose adopt() takes part; the default, true, is
     * always safe.
     */
    virtual bool
    wouldEvict(Vpn vpn, Addr pc) const
    {
        (void)vpn;
        (void)pc;
        return true;
    }

    /**
     * Whether this mechanism implements exact state snapshot/restore.
     * Mechanisms registered through the open MechanismRegistry opt in
     * by overriding the three checkpoint hooks (every in-tree
     * mechanism and the bench-registered dpx do); the sweep engine
     * falls back to prefix replay for shards of a mechanism that does
     * not, preserving bit-identity either way.
     */
    virtual bool checkpointable() const { return false; }

    /**
     * Serialize all prediction state into @p out.  Only called when
     * checkpointable(); the default throws std::invalid_argument
     * naming the mechanism.
     */
    virtual void snapshotState(SnapshotWriter &out) const;

    /**
     * Restore state written by snapshotState() into a mechanism built
     * from the same spec; throws std::invalid_argument on mismatch.
     */
    virtual void restoreState(SnapshotReader &in);
};

} // namespace tlbpf

#endif // TLBPF_PREFETCH_PREFETCHER_HH
