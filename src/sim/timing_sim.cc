#include "sim/timing_sim.hh"

#include <algorithm>
#include <cmath>

#include "mem/prefetch_channel.hh"

namespace tlbpf
{

namespace
{

/**
 * The cycle model as a back-end clock.  Time at a reference is its
 * compute progress plus every stall so far; it is read once as the
 * reference arrives at the back-end and holds for everything that
 * reference triggers.
 */
class CycleClock
{
  public:
    static constexpr bool kPerReference = true;

    explicit CycleClock(const TimingConfig &timing)
        : _timing(timing), _channel(timing.memOpCost)
    {
    }

    void reference(std::uint64_t icount) { _icount = icount; }
    void arrive() { _now = computeCycles() + _result.stallCycles; }

    void
    bufferHit(Tick ready_at)
    {
        if (ready_at > _now) {
            // Prefetch still in flight: stall until it lands.
            _result.stallCycles += ready_at - _now;
            ++_result.inFlightHits;
        }
    }

    void
    demandFetch()
    {
        // The demand fetch is delayed by in-flight prefetch traffic.
        Tick start = std::max(_now, _channel.busyUntil());
        _result.stallCycles += start + _timing.missPenalty - _now;
    }

    bool busy() const { return _channel.busyAt(_now); }

    void
    stateOps(unsigned ops)
    {
        if (ops > 0) {
            _channel.issue(_now, ops);
            _result.memoryOps += ops;
        }
    }

    void
    skipped(std::size_t targets)
    {
        _result.prefetchesSkippedBusy += targets;
    }

    /** When a prefetch issued now would land. */
    Tick
    prefetchReady() const
    {
        return std::max(_now, _channel.busyUntil()) + _channel.opCost();
    }

    void
    prefetchIssued()
    {
        _channel.issue(_now, 1);
        ++_result.memoryOps;
    }

    TimingResult
    result(const SimResult &functional) const
    {
        TimingResult r = _result;
        r.functional = functional;
        r.computeCycles = computeCycles();
        r.cycles = r.computeCycles + r.stallCycles;
        return r;
    }

  private:
    Tick
    computeCycles() const
    {
        return static_cast<Tick>(std::llround(
            static_cast<double>(_icount) * _timing.baseCpi));
    }

    TimingConfig _timing;
    PrefetchChannel _channel;
    TimingResult _result;
    /** The latest reference's instruction count. */
    std::uint64_t _icount = 0;
    Tick _now = 0;
};

} // namespace

TimingResult
simulateTimed(const SimConfig &config, const TimingConfig &timing,
              const MechanismSpec &spec, RefStream &stream)
{
    FrontEnd<CycleClock> core(config,
                              std::span<const MechanismSpec>(&spec, 1),
                              CycleClock(timing));
    core.feed(stream, UINT64_MAX);
    return core.back(0).clock().result(core.result(0));
}

} // namespace tlbpf
