/**
 * @file
 * FNV-1a content hashing helpers and the byte-stream checksum.
 *
 * The compile cache keys jobs by a 64-bit content hash of their
 * inputs (Pauli blocks, coupling graph, compiler options). These
 * helpers provide the mixing primitives; each value type exposes a
 * contentHash() built on top of them. Collisions are possible in
 * principle but negligible at cache scale (< 2^20 entries).
 *
 * checksum64() is the separate, word-at-a-time integrity check the
 * .tca artifact and TSP1 frame trailers carry. Its value is part of
 * both wire formats; the fnvMix* values are part of every job key.
 */

#ifndef TETRIS_COMMON_HASH_HH
#define TETRIS_COMMON_HASH_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "common/endian.hh"

namespace tetris
{

/** FNV-1a 64-bit offset basis. */
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
/** FNV-1a 64-bit prime. */
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/** Mix a raw byte buffer into a running FNV-1a hash. */
inline uint64_t
fnvMixBytes(uint64_t h, const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** Mix one trivially-copyable value into a running hash. */
template <typename T>
inline uint64_t
fnvMix(uint64_t h, const T &v)
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "fnvMix needs a trivially copyable value");
    return fnvMixBytes(h, &v, sizeof(T));
}

/** Mix a string (length-prefixed so "ab","c" != "a","bc"). */
inline uint64_t
fnvMixString(uint64_t h, const std::string &s)
{
    h = fnvMix(h, s.size());
    return fnvMixBytes(h, s.data(), s.size());
}

namespace detail
{

/** One checksum step: absorb a word, then fold the high half down. */
inline uint64_t
checksumStep(uint64_t h, uint64_t word)
{
    h = (h ^ word) * kFnvPrime;
    return h ^ (h >> 32);
}

} // namespace detail

/**
 * 64-bit checksum of a byte buffer, read a word at a time.
 *
 * Four independent lanes each absorb every fourth little-endian u64
 * of the 32-byte strides as lane = (lane ^ word) * kFnvPrime, then
 * fold the product's high half into its low half. A multiply only
 * carries upward, so without that fold two flips of a word's top bit
 * in one lane would cancel exactly. The lanes are folded in order
 * into a length-seeded state by the same step, and the n % 32 tail
 * bytes are mixed in with fnvMixBytes.
 *
 * Every step is a bijection of its input word for a fixed state and
 * of the state for a fixed word, so any change confined to one word
 * (every single-bit flip in particular) changes the result. The
 * lanes do not depend on each other, so their multiplies overlap.
 * Alignment of `data` does not matter.
 */
inline uint64_t
checksum64(const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    uint64_t lane0 = kFnvOffset;
    uint64_t lane1 = kFnvOffset ^ 1;
    uint64_t lane2 = kFnvOffset ^ 2;
    uint64_t lane3 = kFnvOffset ^ 3;
    const size_t strides = n / 32;
    for (size_t i = 0; i < strides; ++i, p += 32) {
        lane0 = detail::checksumStep(lane0, loadLe<uint64_t>(p));
        lane1 = detail::checksumStep(lane1, loadLe<uint64_t>(p + 8));
        lane2 = detail::checksumStep(lane2, loadLe<uint64_t>(p + 16));
        lane3 = detail::checksumStep(lane3, loadLe<uint64_t>(p + 24));
    }
    uint64_t h = detail::checksumStep(kFnvOffset, n);
    h = detail::checksumStep(h, lane0);
    h = detail::checksumStep(h, lane1);
    h = detail::checksumStep(h, lane2);
    h = detail::checksumStep(h, lane3);
    return fnvMixBytes(h, p, n % 32);
}

} // namespace tetris

#endif // TETRIS_COMMON_HASH_HH
