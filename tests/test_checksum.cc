/**
 * @file
 * checksum64 (common/hash.hh) against a plainly written reference.
 *
 * The reference assembles every little-endian word byte by byte and
 * walks the lanes with an index, so it shares no load or loop code
 * with the word-at-a-time implementation. Equality is checked for
 * every length 0..257 at every start offset 0..7 (unaligned loads
 * must agree). A known-answer value pins the trailer format of .tca
 * artifacts and TSP1 frames; changing it is a wire-format change
 * that must bump kArtifactVersion and kProtocolVersion. The FNV-1a
 * mixers the job keys are built on are pinned by the standard
 * FNV-1a test vectors, so checksum work cannot move a cache key.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.hh"

namespace tetris
{
namespace
{

uint64_t
referenceStep(uint64_t h, uint64_t word)
{
    h = (h ^ word) * kFnvPrime;
    return h ^ (h >> 32);
}

uint64_t
referenceChecksum(const unsigned char *p, size_t n)
{
    uint64_t lane[4] = {kFnvOffset, kFnvOffset ^ 1, kFnvOffset ^ 2,
                        kFnvOffset ^ 3};
    const size_t body = n - n % 32;
    for (size_t at = 0; at < body; at += 8) {
        uint64_t word = 0;
        for (size_t b = 0; b < 8; ++b)
            word |= static_cast<uint64_t>(p[at + b]) << (8 * b);
        const size_t which = (at / 8) % 4;
        lane[which] = referenceStep(lane[which], word);
    }
    uint64_t h = referenceStep(kFnvOffset, n);
    for (uint64_t l : lane)
        h = referenceStep(h, l);
    for (size_t i = body; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** Deterministic, non-repeating-looking test bytes. */
std::vector<unsigned char>
patternBytes(size_t n)
{
    std::vector<unsigned char> out(n);
    uint64_t s = 0x9e3779b97f4a7c15ull;
    for (auto &b : out) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        b = static_cast<unsigned char>(s >> 56);
    }
    return out;
}

TEST(Checksum, MatchesReferenceAtEveryLengthAndOffset)
{
    const auto bytes = patternBytes(257 + 8);
    for (size_t offset = 0; offset < 8; ++offset) {
        for (size_t n = 0; n <= 257; ++n) {
            const unsigned char *p = bytes.data() + offset;
            ASSERT_EQ(checksum64(p, n), referenceChecksum(p, n))
                << "length " << n << " offset " << offset;
        }
    }
}

TEST(Checksum, KnownAnswer)
{
    // Changing this value changes the .tca and TSP1 trailers.
    const auto bytes = patternBytes(1000);
    EXPECT_EQ(checksum64(bytes.data(), bytes.size()),
              0xd56aed9359e48b60ull);
    EXPECT_EQ(checksum64(nullptr, 0), referenceChecksum(nullptr, 0));
}

TEST(Checksum, EverySingleBitFlipIsDetected)
{
    auto bytes = patternBytes(1024);
    const uint64_t base = checksum64(bytes.data(), bytes.size());
    for (size_t i = 0; i < bytes.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            bytes[i] ^= static_cast<unsigned char>(1u << bit);
            ASSERT_NE(checksum64(bytes.data(), bytes.size()), base)
                << "byte " << i << " bit " << bit;
            bytes[i] ^= static_cast<unsigned char>(1u << bit);
        }
    }
}

TEST(Checksum, TopBitFlipPairsAreDetected)
{
    // Without the fold of each product's high half, two flips of a
    // word's top bit in the same lane would cancel exactly.
    auto bytes = patternBytes(1024);
    const uint64_t base = checksum64(bytes.data(), bytes.size());
    const size_t words = bytes.size() / 8;
    for (size_t a = 0; a < words; ++a) {
        for (size_t b = a + 1; b < words; ++b) {
            bytes[8 * a + 7] ^= 0x80;
            bytes[8 * b + 7] ^= 0x80;
            ASSERT_NE(checksum64(bytes.data(), bytes.size()), base)
                << "words " << a << " and " << b;
            bytes[8 * a + 7] ^= 0x80;
            bytes[8 * b + 7] ^= 0x80;
        }
    }
}

TEST(Checksum, LengthIsPartOfTheValue)
{
    // Trailing zero bytes must not be absorbed silently.
    const std::vector<unsigned char> zeros(64, 0);
    EXPECT_NE(checksum64(zeros.data(), 32), checksum64(zeros.data(), 33));
    EXPECT_NE(checksum64(zeros.data(), 32), checksum64(zeros.data(), 64));
}

TEST(FnvMix, StandardVectorsAreUnchanged)
{
    // Job keys and the golden schedule digests are built on these.
    auto fnv = [](const std::string &s) {
        return fnvMixBytes(kFnvOffset, s.data(), s.size());
    };
    EXPECT_EQ(fnv(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv("foobar"), 0x85944171f73967e8ull);
}

} // namespace
} // namespace tetris
