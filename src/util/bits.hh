/**
 * @file
 * Small bit-manipulation helpers shared across the simulator.
 */

#ifndef TLBPF_UTIL_BITS_HH
#define TLBPF_UTIL_BITS_HH

#include <bit>
#include <cstddef>
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
 * Bucket of @p key in an open-addressing table of 2^@p bits buckets
 * (1 <= bits <= 63), the hash of the simulator's key indexes.
 * Fibonacci hashing: one multiply by 2^64 / golden ratio, then the
 * product's high bits.  Every key bit feeds those bits, so consecutive
 * pages, power-of-two strides and page-aligned addresses spread as
 * well as random keys; the low bits would not (a stride of 2^k leaves
 * the product's k low bits zero).
 */
constexpr std::size_t
hashBucket(std::uint64_t key, unsigned bits)
{
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                    (64 - bits));
}

/**
 * Unsigned division by a divisor fixed at construction, as a multiply
 * and two shifts (Granlund & Montgomery, PLDI 1994, Figure 4.1):
 * exact for every 64-bit dividend and every divisor >= 1, with no
 * hardware divide after construction.
 */
class Divisor
{
  public:
    constexpr explicit Divisor(std::uint64_t d = 1)
    {
        // l = ceil(log2 d); magic = floor(2^64 (2^l - d) / d) + 1,
        // which fits in 64 bits because 2^l - d < d.
        unsigned l = d <= 1 ? 0 : 64 - std::countl_zero(d - 1);
        Wide excess = (Wide{1} << l) - d;
        _magic = static_cast<std::uint64_t>((excess << 64) / d + 1);
        _shift1 = l == 0 ? 0 : 1;
        _shift2 = l == 0 ? 0 : l - 1;
    }

    /** n / d. */
    constexpr std::uint64_t
    quotient(std::uint64_t n) const
    {
        std::uint64_t t =
            static_cast<std::uint64_t>((Wide{_magic} * n) >> 64);
        return (t + ((n - t) >> _shift1)) >> _shift2;
    }

  private:
    using Wide = unsigned __int128;

    std::uint64_t _magic = 0;
    unsigned _shift1 = 0;
    unsigned _shift2 = 0;
};

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
