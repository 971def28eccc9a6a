/**
 * @file
 * Golden digests of the lookahead scheduler's output.
 *
 * Each case compiles a fixed program with Tetris+O3 (default
 * options, peephole on) and hashes the block order, the full gate
 * stream and the CNOT, depth and duration counts. The expected lines
 * in tests/data/golden/schedule_digests.txt were captured with the
 * reference ranking kept in core/schedule_ref. Any change to which
 * block the scheduler picks, or to the circuit synthesized from that
 * choice, shows up as a mismatch. On a mismatch the failure message prints
 * the line the current code produces.
 *
 * The same line format pins Paulihedral+O3 on the six JW molecules in
 * tests/data/golden/paulihedral_digests.txt. Paulihedral's circuits
 * lean hardest on the peephole pass, so a change to its reductions
 * shows up there first.
 *
 * tests/data/golden/synthesis_digests.txt pins Tetris+O3 on JW BeH2
 * across the synthesis options the fig20 sweep varies (swapWeight,
 * bridging, the adaptive fallback) on both evaluation devices. Its
 * lines extend the format above with the SynthStats counters and a
 * hash of the final layout, so leaf attachment cannot move a SWAP,
 * a bridge or a qubit without a mismatch.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "chem/uccsd.hh"
#include "baselines/paulihedral.hh"
#include "common/hash.hh"
#include "core/compiler.hh"
#include "hardware/topologies.hh"

namespace tetris
{
namespace
{

const char *kDigestFile = TETRIS_TEST_DATA_DIR "/golden/schedule_digests.txt";
const char *kPaulihedralDigestFile =
    TETRIS_TEST_DATA_DIR "/golden/paulihedral_digests.txt";
const char *kSynthesisDigestFile =
    TETRIS_TEST_DATA_DIR "/golden/synthesis_digests.txt";

/** "<name> <digest> cnot=<n> depth=<n> duration=<dt>" for one case. */
std::string
digestLine(const std::string &name, const CompileResult &r)
{
    uint64_t h = fnvMix(kFnvOffset, r.blockOrder.size());
    for (size_t idx : r.blockOrder)
        h = fnvMix(h, idx);
    h = fnvMix(h, r.circuit.gates().size());
    for (const Gate &g : r.circuit.gates()) {
        h = fnvMix(h, g.kind);
        h = fnvMix(h, g.q0);
        h = fnvMix(h, g.q1);
        h = fnvMix(h, g.angle);
    }
    h = fnvMix(h, r.stats.cnotCount);
    h = fnvMix(h, r.stats.depth);
    h = fnvMix(h, r.stats.durationDt);

    std::ostringstream os;
    os << name << " " << std::hex << h << std::dec
       << " cnot=" << r.stats.cnotCount << " depth=" << r.stats.depth
       << " duration=" << static_cast<uint64_t>(r.stats.durationDt);
    return os.str();
}

/** digestLine plus the SynthStats counters and the final layout. */
std::string
synthesisDigestLine(const std::string &name, const CompileResult &r)
{
    uint64_t layout_hash = fnvMix(kFnvOffset, r.finalLayout.numPhysical());
    for (int p : r.finalLayout.toPhysical())
        layout_hash = fnvMix(layout_hash, p);
    const SynthStats &s = r.stats.synthesis;
    std::ostringstream os;
    os << digestLine(name, r) << " swaps=" << s.insertedSwaps
       << " cx=" << s.emittedCx << " bridges=" << s.bridgeNodes
       << " blocks=" << s.blocksWithCancellation
       << " fallback=" << s.blocksFallback << " layout=" << std::hex
       << layout_hash;
    return os.str();
}

/** The committed digests in `path`, keyed by case name. */
std::map<std::string, std::string>
loadDigests(const char *path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        out[line.substr(0, line.find(' '))] = line;
    }
    return out;
}

class ScheduleGolden : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        digests_ = loadDigests(kDigestFile);
    }

    void expectGolden(const std::string &name,
                      const std::vector<PauliBlock> &blocks,
                      const TetrisOptions &opts = TetrisOptions())
    {
        static const CouplingGraph hw = ibmIthaca65();
        const std::string actual =
            digestLine(name, compileTetris(blocks, hw, opts));
        auto it = digests_.find(name);
        ASSERT_NE(it, digests_.end())
            << "no golden line for " << name << "; current: " << actual;
        EXPECT_EQ(actual, it->second);
    }

    static std::map<std::string, std::string> digests_;
};

std::map<std::string, std::string> ScheduleGolden::digests_;

TEST_F(ScheduleGolden, DigestFileIsPresent)
{
    ASSERT_FALSE(digests_.empty()) << "cannot read " << kDigestFile;
    // One line per case below: 6 molecules, 3 LiH K values, 1 UCC-65.
    EXPECT_EQ(digests_.size(), 10u);
}

TEST_F(ScheduleGolden, PaperMoleculesJw)
{
    for (const MoleculeSpec &spec : moleculeBenchmarks())
        expectGolden("jw/" + spec.name, buildMolecule(spec, "jw"));
}

TEST_F(ScheduleGolden, LiHLookaheadK)
{
    const auto blocks = buildMolecule(moleculeByName("LiH"), "jw");
    for (int k : {1, 3, 10}) {
        TetrisOptions opts;
        opts.lookaheadK = k;
        expectGolden("LiH/k" + std::to_string(k), blocks, opts);
    }
}

TEST_F(ScheduleGolden, SyntheticUcc65SpansTwoWords)
{
    // 65 qubits: every leaf plane spans two 64-bit words. A prefix of
    // the 4225-block program keeps the case fast.
    auto blocks = buildSyntheticUcc(65, 7);
    blocks.resize(400);
    expectGolden("ucc65/seed7/400", blocks);
}

TEST(PaulihedralGolden, PaperMoleculesJw)
{
    const auto digests = loadDigests(kPaulihedralDigestFile);
    ASSERT_EQ(digests.size(), moleculeBenchmarks().size())
        << "cannot read " << kPaulihedralDigestFile;
    const CouplingGraph hw = ibmIthaca65();
    for (const MoleculeSpec &spec : moleculeBenchmarks()) {
        const std::string name = "jw/" + spec.name;
        const std::string actual = digestLine(
            name, compilePaulihedral(buildMolecule(spec, "jw"), hw));
        auto it = digests.find(name);
        ASSERT_NE(it, digests.end())
            << "no golden line for " << name << "; current: " << actual;
        EXPECT_EQ(actual, it->second);
    }
}

TEST(SynthesisGolden, BeH2AcrossSynthesisOptions)
{
    const auto digests = loadDigests(kSynthesisDigestFile);
    // Per device: five swap weights, no bridging, no adaptive fallback.
    ASSERT_EQ(digests.size(), 14u) << "cannot read " << kSynthesisDigestFile;
    const auto blocks = buildMolecule(moleculeByName("BeH2"), "jw");
    struct Case
    {
        std::string name;
        SynthesisOptions synthesis;
    };
    std::vector<Case> cases;
    for (const char *w : {"0", "0.1", "1", "10", "100"}) {
        SynthesisOptions s;
        s.swapWeight = std::stod(w);
        cases.push_back({std::string("w") + w, s});
    }
    SynthesisOptions no_bridge;
    no_bridge.enableBridging = false;
    cases.push_back({"w3/nobridge", no_bridge});
    SynthesisOptions no_fallback;
    no_fallback.adaptiveFallbackFactor = 0.0;
    cases.push_back({"w3/adaptive0", no_fallback});

    for (const CouplingGraph &hw : {ibmIthaca65(), googleSycamore64()}) {
        for (const Case &c : cases) {
            TetrisOptions opts;
            opts.synthesis = c.synthesis;
            const std::string name = hw.name() + "/BeH2/" + c.name;
            const std::string actual =
                synthesisDigestLine(name, compileTetris(blocks, hw, opts));
            auto it = digests.find(name);
            ASSERT_NE(it, digests.end())
                << "no golden line for " << name << "; current: " << actual;
            EXPECT_EQ(actual, it->second);
        }
    }
}

} // namespace
} // namespace tetris
