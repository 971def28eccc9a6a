/**
 * @file
 * Little-endian loads and stores of fixed-width integers.
 *
 * Every on-wire integer (the .tca and TSP1 codecs, checksum64's
 * words) is little-endian whatever the host. On little-endian hosts
 * each access is one memcpy, which compilers emit as a single
 * unaligned move; elsewhere an explicit byte loop keeps the format.
 */

#ifndef TETRIS_COMMON_ENDIAN_HH
#define TETRIS_COMMON_ENDIAN_HH

#include <bit>
#include <cstddef>
#include <cstring>
#include <type_traits>

namespace tetris
{

/** Load an unsigned U stored little-endian at `p` (any alignment). */
template <typename U>
inline U
loadLe(const void *p)
{
    static_assert(std::is_unsigned_v<U>, "loadLe reads unsigned words");
    U v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, sizeof v);
    } else {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < sizeof v; ++i)
            v |= static_cast<U>(b[i]) << (8 * i);
    }
    return v;
}

/** Store unsigned `v` little-endian at `p` (any alignment). */
template <typename U>
inline void
storeLe(void *p, U v)
{
    static_assert(std::is_unsigned_v<U>, "storeLe writes unsigned words");
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(p, &v, sizeof v);
    } else {
        auto *b = static_cast<unsigned char *>(p);
        for (size_t i = 0; i < sizeof v; ++i)
            b[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
    }
}

} // namespace tetris

#endif // TETRIS_COMMON_ENDIAN_HH
