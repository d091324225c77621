/**
 * @file
 * Arbitrary Stride Prefetching (ASP), paper Section 2.2, after Chen &
 * Baer's Reference Prediction Table.
 *
 * The RPT is indexed by the PC of the missing reference.  Each row
 * stores the page last missed by that PC, the stride between its last
 * two misses, and a two-bit state.  A prefetch (one page: last + stride)
 * is issued only in the Steady state, i.e. after the stride has been
 * confirmed at least twice — the paper's safeguard against spurious
 * stride changes.
 */

#ifndef TLBPF_PREFETCH_ASP_HH
#define TLBPF_PREFETCH_ASP_HH

#include "core/prediction_table.hh"
#include "prefetch/prefetcher.hh"

namespace tlbpf
{

/** Chen-Baer RPT states. */
enum class RptState : std::uint8_t
{
    Initial,   ///< first sighting, stride unconfirmed
    Transient, ///< stride just changed
    Steady,    ///< stride confirmed; prefetching enabled
    NoPred     ///< stride keeps changing; prefetching disabled
};

/** Arbitrary stride prefetcher. */
class AspPrefetcher : public Prefetcher
{
  public:
    explicit AspPrefetcher(const TableConfig &table);

    void onMiss(const TlbMiss &miss, PrefetchDecision &decision) override;
    void reset() override;

    std::string name() const override { return "ASP"; }
    std::string label() const override;
    HardwareProfile hardwareProfile() const override;

    bool adopt(const Prefetcher &smaller) override;
    bool wouldEvict(Vpn vpn, Addr pc) const override;

    bool checkpointable() const override { return true; }
    void snapshotState(SnapshotWriter &out) const override;
    void restoreState(SnapshotReader &in) override;

    /** Expose a row's state for white-box tests. */
    struct RowView
    {
        Vpn prevPage;
        std::int64_t stride;
        RptState state;
        bool valid;
    };
    RowView inspect(Addr pc) const;

  private:
    struct RptRow
    {
        Vpn prevPage = 0;
        std::int64_t stride = 0;
        RptState state = RptState::Initial;
    };

    PredictionTable<RptRow> _table;
};

} // namespace tlbpf

#endif // TLBPF_PREFETCH_ASP_HH
