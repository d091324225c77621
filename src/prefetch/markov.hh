/**
 * @file
 * Markov Prefetching (MP), paper Section 2.3, after Joseph & Grunwald,
 * adapted to the TLB miss stream.
 *
 * The table is indexed by the missing virtual page number.  Each row
 * holds up to @c s pages that missed immediately after this page in the
 * past (LRU-ordered).  On a miss, the row for the missing page supplies
 * the prefetch candidates, and the row for the *previous* missing page
 * learns the current page as a successor.
 */

#ifndef TLBPF_PREFETCH_MARKOV_HH
#define TLBPF_PREFETCH_MARKOV_HH

#include "core/prediction_table.hh"
#include "prefetch/prefetcher.hh"

namespace tlbpf
{

/** Markov (page-successor) prefetcher. */
class MarkovPrefetcher : public Prefetcher
{
  public:
    /**
     * @param table table geometry (the paper's r and associativity)
     * @param slots successors kept per row (the paper's s, default 2)
     */
    MarkovPrefetcher(const TableConfig &table, std::uint32_t slots = 2);

    void onMiss(const TlbMiss &miss, PrefetchDecision &decision) override;
    void reset() override;

    std::string name() const override { return "MP"; }
    std::string label() const override;
    HardwareProfile hardwareProfile() const override;

    bool adopt(const Prefetcher &smaller) override;
    bool wouldEvict(Vpn vpn, Addr pc) const override;

    bool checkpointable() const override { return true; }
    void snapshotState(SnapshotWriter &out) const override;
    void restoreState(SnapshotReader &in) override;

    /** Successors currently recorded for @p vpn (tests). */
    std::vector<Vpn> successorsOf(Vpn vpn) const;

  private:
    using Slots = SlotLru<Vpn>;

    TableConfig _tableConfig;
    std::uint32_t _slots;
    PredictionTable<Slots> _table;

    Vpn _prevMiss = kNoPage;
};

} // namespace tlbpf

#endif // TLBPF_PREFETCH_MARKOV_HH
