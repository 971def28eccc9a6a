/**
 * @file
 * Artifact codec: golden bytes and a large round trip.
 *
 * Two synthetic CompileResults, built from a fixed generator that
 * uses nothing but this file, are encoded as .tca images. Each
 * image's FNV-1a digest and length must match the line committed in
 * tests/data/golden/artifact_digests.txt, so a codec refactor proves
 * it writes the same bytes (a deliberate format change bumps
 * kArtifactVersion and updates the file). On a mismatch the failure
 * prints the line the current code produces.
 *
 * The larger result has more than 100k gates, covers every GateKind
 * and carries NaN, +-inf, -0.0 and subnormal angles. It must decode
 * to the same result field by field (angles compared bit for bit)
 * and re-encode to the same bytes.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "serialize/artifact.hh"

namespace tetris
{
namespace
{

const char *kDigestFile =
    TETRIS_TEST_DATA_DIR "/golden/artifact_digests.txt";

constexpr int kNumKinds = static_cast<int>(GateKind::RESET) + 1;

/** Tiny self-contained LCG, so the golden bytes never depend on
 *  another module's random number generator. */
struct Lcg
{
    uint64_t s;
    uint64_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return s >> 33;
    }
    int below(int n) { return static_cast<int>(next() % n); }
};

/** Angles that a byte-wise codec could plausibly mangle. */
double
specialAngle(size_t i, Lcg &rng)
{
    switch (i % 9) {
      case 0: return std::numeric_limits<double>::quiet_NaN();
      case 1: return std::bit_cast<double>(0x7ff8dead00000001ull);
      case 2: return std::numeric_limits<double>::infinity();
      case 3: return -std::numeric_limits<double>::infinity();
      case 4: return -0.0;
      case 5: return std::numeric_limits<double>::denorm_min();
      case 6: return std::numeric_limits<double>::max();
      case 7: return std::numbers::pi / 3.0;
      default:
        return static_cast<double>(rng.next()) / 1024.0 - 1e6;
    }
}

/** A permutation of `num_logical` of the `num_physical` slots. */
Layout
scrambledLayout(int num_logical, int num_physical, Lcg &rng)
{
    std::vector<int> slots(static_cast<size_t>(num_physical));
    for (int i = 0; i < num_physical; ++i)
        slots[static_cast<size_t>(i)] = i;
    for (int i = num_physical - 1; i > 0; --i)
        std::swap(slots[static_cast<size_t>(i)],
                  slots[static_cast<size_t>(rng.below(i + 1))]);
    slots.resize(static_cast<size_t>(num_logical));
    slots.back() = -1; // one unplaced logical qubit
    return *Layout::fromMapping(slots, num_physical);
}

CompileResult
makeResult(size_t num_gates, int num_qubits, uint64_t seed)
{
    Lcg rng{seed};
    CompileResult r;
    r.circuit = Circuit(num_qubits);
    for (size_t i = 0; i < num_gates; ++i) {
        Gate g;
        g.kind = static_cast<GateKind>(i % kNumKinds);
        g.q0 = rng.below(num_qubits);
        g.q1 = -1;
        if (g.isTwoQubit())
            g.q1 = (g.q0 + 1 + rng.below(num_qubits - 1)) % num_qubits;
        g.angle = specialAngle(i / kNumKinds, rng);
        r.circuit.add(g);
    }
    CompileStats &s = r.stats;
    s.cnotCount = rng.next();
    s.oneQubitCount = rng.next();
    s.totalGateCount = num_gates;
    s.depth = rng.next();
    s.durationDt = -0.0;
    s.swapCount = 3;
    s.swapCnots = 9;
    s.logicalCnots = rng.next();
    s.originalCnots = rng.next();
    s.cancelRatio = std::numeric_limits<double>::quiet_NaN();
    s.compileSeconds = 0.25;
    s.scheduleSeconds = std::numeric_limits<double>::infinity();
    s.synthSeconds = 1e-300;
    s.peepholeSeconds = 0.125;
    s.synthesis.insertedSwaps = 3;
    s.synthesis.emittedCx = rng.next();
    s.synthesis.bridgeNodes = 5;
    s.synthesis.blocksWithCancellation = 6;
    s.synthesis.blocksFallback = 7;
    r.initialLayout = scrambledLayout(num_qubits - 2, num_qubits, rng);
    r.finalLayout = scrambledLayout(num_qubits - 2, num_qubits, rng);
    r.blockOrder.resize(num_gates / 7);
    for (size_t &idx : r.blockOrder)
        idx = static_cast<size_t>(rng.next()) << 20;
    return r;
}

/** "<name> <fnv digest> bytes=<n>" for one encoded image. */
std::string
digestLine(const std::string &name, const std::string &bytes)
{
    std::ostringstream os;
    os << name << " " << std::hex
       << fnvMixBytes(kFnvOffset, bytes.data(), bytes.size()) << std::dec
       << " bytes=" << bytes.size();
    return os.str();
}

std::map<std::string, std::string>
loadDigests()
{
    std::map<std::string, std::string> out;
    std::ifstream in(kDigestFile);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        out[line.substr(0, line.find(' '))] = line;
    }
    return out;
}

void
expectGolden(const std::string &name, const std::string &bytes)
{
    static const auto digests = loadDigests();
    const std::string got = digestLine(name, bytes);
    auto it = digests.find(name);
    ASSERT_NE(it, digests.end())
        << "no golden line for " << name << " in " << kDigestFile
        << "; current: " << got;
    EXPECT_EQ(got, it->second);
}

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

void
expectSameResult(const CompileResult &a, const CompileResult &b)
{
    ASSERT_EQ(a.circuit.numQubits(), b.circuit.numQubits());
    ASSERT_EQ(a.circuit.size(), b.circuit.size());
    for (size_t i = 0; i < a.circuit.size(); ++i) {
        const Gate &ga = a.circuit.gates()[i];
        const Gate &gb = b.circuit.gates()[i];
        ASSERT_TRUE(ga.kind == gb.kind && ga.q0 == gb.q0 &&
                    ga.q1 == gb.q1 && bits(ga.angle) == bits(gb.angle))
            << "gate " << i;
    }
    const CompileStats &s = a.stats, &t = b.stats;
    EXPECT_EQ(s.cnotCount, t.cnotCount);
    EXPECT_EQ(s.oneQubitCount, t.oneQubitCount);
    EXPECT_EQ(s.totalGateCount, t.totalGateCount);
    EXPECT_EQ(s.depth, t.depth);
    EXPECT_EQ(bits(s.durationDt), bits(t.durationDt));
    EXPECT_EQ(s.swapCount, t.swapCount);
    EXPECT_EQ(s.swapCnots, t.swapCnots);
    EXPECT_EQ(s.logicalCnots, t.logicalCnots);
    EXPECT_EQ(s.originalCnots, t.originalCnots);
    EXPECT_EQ(bits(s.cancelRatio), bits(t.cancelRatio));
    EXPECT_EQ(bits(s.compileSeconds), bits(t.compileSeconds));
    EXPECT_EQ(bits(s.scheduleSeconds), bits(t.scheduleSeconds));
    EXPECT_EQ(bits(s.synthSeconds), bits(t.synthSeconds));
    EXPECT_EQ(bits(s.peepholeSeconds), bits(t.peepholeSeconds));
    EXPECT_EQ(s.synthesis.insertedSwaps, t.synthesis.insertedSwaps);
    EXPECT_EQ(s.synthesis.emittedCx, t.synthesis.emittedCx);
    EXPECT_EQ(s.synthesis.bridgeNodes, t.synthesis.bridgeNodes);
    EXPECT_EQ(s.synthesis.blocksWithCancellation,
              t.synthesis.blocksWithCancellation);
    EXPECT_EQ(s.synthesis.blocksFallback, t.synthesis.blocksFallback);
    EXPECT_EQ(a.initialLayout, b.initialLayout);
    EXPECT_EQ(a.finalLayout, b.finalLayout);
    EXPECT_EQ(a.blockOrder, b.blockOrder);
    EXPECT_EQ(a.cancelled, b.cancelled);
}

TEST(ArtifactGolden, SmallResultBytes)
{
    const CompileResult r = makeResult(200, 7, 17);
    expectGolden("small-200", serialize::encodeArtifact(0x5eed, r));
}

TEST(ArtifactGolden, EmptyResultBytes)
{
    CompileResult r;
    r.cancelled = true;
    expectGolden("empty-cancelled", serialize::encodeArtifact(1, r));
}

TEST(ArtifactGolden, StressResultRoundTrips)
{
    const uint64_t key = 0x0123456789abcdefull;
    const CompileResult r = makeResult(120000, 65, 9001);
    std::vector<bool> kinds_seen(kNumKinds, false);
    for (const Gate &g : r.circuit.gates())
        kinds_seen[static_cast<size_t>(g.kind)] = true;
    for (int k = 0; k < kNumKinds; ++k)
        ASSERT_TRUE(kinds_seen[static_cast<size_t>(k)]) << "kind " << k;

    const std::string bytes = serialize::encodeArtifact(key, r);
    expectGolden("stress-120000", bytes);

    CompileResult decoded;
    ASSERT_TRUE(serialize::decodeArtifact(bytes, key, decoded));
    expectSameResult(r, decoded);
    EXPECT_EQ(serialize::encodeArtifact(key, decoded), bytes);
}

} // namespace
} // namespace tetris
