/**
 * @file
 * Small bit-manipulation helpers shared across the simulator.
 */

#ifndef TLBPF_UTIL_BITS_HH
#define TLBPF_UTIL_BITS_HH

#include <bit>
#include <cstdint>

namespace tlbpf
{

/** True iff x is a power of two (0 is not). */
constexpr bool
isPowerOfTwo(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** log2 of a power of two. */
constexpr unsigned
floorLog2(std::uint64_t x)
{
    return 63u - static_cast<unsigned>(std::countl_zero(x | 1));
}

/** Smallest power of two >= x (x > 0). */
constexpr std::uint64_t
ceilPowerOfTwo(std::uint64_t x)
{
    return std::bit_ceil(x);
}

/**
 * splitmix64 finalizer, the hash of the simulator's open-addressing
 * tables: strong enough that linear probes stay short.
 */
constexpr std::uint64_t
hashKey(std::uint64_t key)
{
    std::uint64_t x = key + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * ZigZag-encode a signed value into an unsigned one so that small
 * magnitudes (positive or negative) map to small codes.  Used to index
 * prediction tables by signed page distances.
 */
constexpr std::uint64_t
zigZagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** Inverse of zigZagEncode. */
constexpr std::int64_t
zigZagDecode(std::uint64_t u)
{
    return static_cast<std::int64_t>(u >> 1) ^
           -static_cast<std::int64_t>(u & 1);
}

} // namespace tlbpf

#endif // TLBPF_UTIL_BITS_HH
