/**
 * @file
 * The sweep service's wire protocol: length-prefixed JSON frames.
 *
 * A frame is a 4-byte little-endian payload length followed by that
 * many bytes of UTF-8 JSON — one message per frame, one JSON object
 * per message, discriminated by a "type" member.  The framing layer
 * is deliberately dumb (no compression, no multiplexing): the
 * payloads are small and the value of the service is the result
 * cache and the warm checkpoints behind it, not wire cleverness.
 *
 * Client -> server requests:
 *   {"type":"sweep", "workloads":[...], "mechanisms":[...],
 *    "refs":N, "mode":"functional"|"timed", "shards":N,
 *    "shard_warmup":"replay"|"checkpoint",
 *    "pass_mode":"per-mechanism"|"single-pass", "config":{...}?}
 *   {"type":"stats"}     {"type":"ping"}     {"type":"shutdown"}
 *
 * Server -> client responses (sweep answers are a *stream*):
 *   {"type":"batch","cells":N}            then, in submission order,
 *   {"type":"cell","index":i,...}         one per cell as it
 *                                         completes (cache hits
 *                                         arrive first, instantly),
 *   {"type":"done","cells":N,"cache_hits":H,"simulated":M}
 *   {"type":"stats",...}   {"type":"pong"}   {"type":"error",...}
 *   {"type":"bye"}         acknowledges a shutdown request
 *
 * Decoding is strict: a missing or wrongly-typed member, an unknown
 * "type", an oversized length prefix, a truncated frame, or trailing
 * bytes after the JSON document all throw std::invalid_argument with
 * an actionable message.  The server answers a decode failure with
 * an "error" frame and drops only that connection; transport
 * failures (peer vanished mid-frame) throw TransportError so callers
 * can tell a hostile frame from a dead socket.
 *
 * Counter exactness: all simulation counters are emitted as bare
 * JSON integers and re-parsed from their digit text (JsonValue::
 * asU64), so a result that crossed the wire is bit-identical to one
 * computed locally — the property the client's byte-identical
 * CSV/JSON output contract rests on.
 */

#ifndef TLBPF_SERVICE_PROTOCOL_HH
#define TLBPF_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "run/job.hh"
#include "run/sweep_engine.hh"
#include "service/json.hh"

namespace tlbpf
{

/** Default TCP port of tlbpf-server (loopback service). */
constexpr std::uint16_t kDefaultServicePort = 7733;

/**
 * Hard ceiling on one frame's payload.  Large enough for any real
 * sweep batch (a 10k-cell request is ~1 MB), small enough that a
 * hostile length prefix cannot make the server allocate the moon.
 */
constexpr std::uint32_t kMaxFrameBytes = 1u << 26;

/** The socket died mid-conversation (EOF inside a frame, EPIPE...). */
class TransportError : public std::runtime_error
{
  public:
    explicit TransportError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Owning file descriptor (socket) with close-on-destroy. */
class OwnedFd
{
  public:
    OwnedFd() = default;
    explicit OwnedFd(int fd) : _fd(fd) {}
    OwnedFd(OwnedFd &&other) noexcept : _fd(other.release()) {}
    OwnedFd &operator=(OwnedFd &&other) noexcept;
    OwnedFd(const OwnedFd &) = delete;
    OwnedFd &operator=(const OwnedFd &) = delete;
    ~OwnedFd() { close(); }

    int fd() const { return _fd; }
    bool valid() const { return _fd >= 0; }
    int release();
    void close();

  private:
    int _fd = -1;
};

/**
 * Write one frame — length prefix and payload in a single write, so
 * a small frame leaves as one segment; throws TransportError on any
 * short/failed write (SIGPIPE is suppressed per-call, so a vanished
 * peer surfaces as an exception, not a process signal).
 */
void writeFrame(int fd, const std::string &payload);

/**
 * Connect a TCP socket to @p host (dotted-quad IPv4) : @p port, with
 * Nagle's algorithm off (setNoDelay).  Throws std::invalid_argument
 * on a malformed address and TransportError when the socket cannot
 * be created or the connect fails.
 */
OwnedFd connectTcp(const std::string &host, std::uint16_t port);

/**
 * Disable Nagle's algorithm on a connected TCP socket.  The protocol
 * is request/reply: a frame held back waiting for the ACK of the
 * previous one stalls a round trip by the peer's delayed-ACK timer.
 * Best effort — a non-TCP fd is left as it is.
 */
void setNoDelay(int fd);

/**
 * Read one frame payload.  Returns false on a clean EOF *between*
 * frames (the peer closed politely).  Throws std::invalid_argument
 * on an oversized length prefix and TransportError on EOF or a read
 * failure mid-frame.
 */
bool readFrame(int fd, std::string &payload);

/** readFrame + JsonValue::parse + require an object with "type". */
bool readMessage(int fd, JsonValue &message, std::string &type);

/** Canonical wire value of a JobMode: "functional" or "timed". */
const char *jobModeName(JobMode mode);

/**
 * Parse a job-mode wire value; throws std::invalid_argument on
 * anything but "functional"/"timed".
 */
JobMode parseJobMode(const std::string &text);

/**
 * Reject members outside @p allowed, so a typo'd request field fails
 * loudly instead of silently running with a default — the strict-
 * decode backbone of every protocol struct (including the dispatch
 * subsystem's worker verbs).
 */
void requireKnownKeys(const JsonValue &object, const char *what,
                      const std::vector<std::string> &allowed);

/** Simulator geometry as a JSON object (exact integers). */
std::string encodeConfig(const SimConfig &config);

/** Strict inverse of encodeConfig(); throws std::invalid_argument. */
SimConfig decodeConfig(const JsonValue &object);

/** One simulation counter block as a JSON object (exact integers). */
std::string encodeCounters(const SimResult &counters);

/** Strict inverse of encodeCounters(); throws std::invalid_argument. */
SimResult decodeCounters(const JsonValue &object);

/** One timing counter block as a JSON object (exact integers). */
std::string encodeTiming(const TimingResult &timed);

/** Strict inverse of encodeTiming(); throws std::invalid_argument. */
TimingResult decodeTiming(const JsonValue &object);

/** A sweep batch request: the (workload x mechanism) grid to run. */
struct SweepRequest
{
    std::vector<std::string> workloads;  ///< WorkloadSpec strings
    std::vector<std::string> mechanisms; ///< MechanismSpec strings
    std::uint64_t refs = 0;
    JobMode mode = JobMode::Functional;
    std::uint32_t shards = 1;
    ShardWarmup shardWarmup = ShardWarmup::Checkpoint;
    PassMode passMode = PassMode::SinglePass;
    SimConfig config{}; ///< geometry (paper defaults when omitted)

    std::string encode() const;
    /** Strict decode; throws std::invalid_argument on any violation. */
    static SweepRequest decode(const JsonValue &message);

    /**
     * Expand into the submission-order job grid (workload-major, the
     * same order the direct bench path uses) after parsing and
     * validating every spec string; throws std::invalid_argument.
     */
    std::vector<SweepJob> expand() const;
};

/** One streamed per-cell answer. */
struct CellReply
{
    std::uint64_t index = 0; ///< submission index within the batch
    std::string workload;    ///< resolved workload label
    std::string mechanism;   ///< figure-legend mechanism label
    JobMode mode = JobMode::Functional;
    bool cached = false;     ///< served from the result cache
    SimResult counters;
    TimingResult timed;      ///< valid only in timed mode

    std::string encode() const;
    static CellReply decode(const JsonValue &message);

    /** Convert to the engine's result type (for shared rendering). */
    SweepResult toResult() const;
};

/** Terminal frame of a sweep stream. */
struct DoneReply
{
    std::uint64_t cells = 0;
    std::uint64_t cacheHits = 0; ///< served without simulation
    std::uint64_t simulated = 0; ///< cells actually run

    std::string encode() const;
    static DoneReply decode(const JsonValue &message);
};

/** Server counters (the "stats" reply). */
struct StatsReply
{
    std::uint64_t requests = 0;   ///< sweep requests handled
    std::uint64_t cells = 0;      ///< cells answered in total
    std::uint64_t cacheHits = 0;  ///< of which from the result cache
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheEvictions = 0;
    std::uint64_t cacheEntries = 0;   ///< resident entries now
    std::uint64_t cacheCapacity = 0;  ///< LRU bound
    std::uint64_t checkpointsStored = 0;
    std::uint64_t checkpointsLoaded = 0;
    /* Dispatch-subsystem counters (worker fleet). */
    std::uint64_t workers = 0;        ///< workers registered now
    std::uint64_t leasesGranted = 0;  ///< lifetime lease grants
    std::uint64_t leaseReclaims = 0;  ///< expired/dead-worker reclaims
    std::uint64_t cellsDispatched = 0; ///< cells completed remotely
    /* On-disk store eviction counters (--store-max-bytes/--store-ttl). */
    std::uint64_t storeEvictedFiles = 0;
    std::uint64_t storeEvictedBytes = 0;

    std::string encode() const;
    static StatsReply decode(const JsonValue &message);
};

/** {"type":"error","message":...} */
std::string encodeError(const std::string &message);

/** {"type":"batch","cells":N} */
std::string encodeBatch(std::uint64_t cells);

} // namespace tlbpf

#endif // TLBPF_SERVICE_PROTOCOL_HH
