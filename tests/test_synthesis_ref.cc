/**
 * @file
 * Differential tests of leaf choice against core/synthesis_ref:
 * chooseLeaf, with its distance bound and early BFS stop, must pick
 * exactly the reference's leaf, target, route kind, path and score.
 * Seeded random states (layouts with free ancillas, blocked sets,
 * pending lists) run on heavy-hex, grid, line, star, Sycamore and a
 * disconnected device, at swap weights that include zero, negative,
 * infinite and NaN values, with bridging on and off. The LiH and BeH2
 * blocks are then attached leaf by leaf under the layouts real
 * synthesis produces, both choices compared at every step.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "chem/uccsd.hh"
#include "common/rng.hh"
#include "core/synthesis.hh"
#include "core/synthesis_ref.hh"
#include "hardware/topologies.hh"

namespace tetris
{
namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

const std::vector<double> kWeights = {
    0.0, 0.1, 1.0, 3.0, 100.0, -1.0, kInf, -kInf,
    std::numeric_limits<double>::quiet_NaN()};

uint64_t
bits(double x)
{
    uint64_t b = 0;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

CouplingGraph
starTopology(int n)
{
    std::vector<std::pair<int, int>> edges;
    for (int i = 1; i < n; ++i)
        edges.emplace_back(0, i);
    return CouplingGraph(n, std::move(edges), "star");
}

/** Two 6-qubit lines: targets across the gap are unreachable. */
CouplingGraph
twoLines()
{
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i + 1 < 6; ++i) {
        edges.emplace_back(i, i + 1);
        edges.emplace_back(6 + i, 6 + i + 1);
    }
    return CouplingGraph(12, std::move(edges), "two-lines");
}

std::vector<CouplingGraph>
devices()
{
    return {ibmIthaca65(),      heavyHexTopology(3, 5),
            gridTopology(4, 5), lineTopology(12),
            starTopology(9),    googleSycamore64(),
            twoLines()};
}

/** The state attachLeaves carries from one leaf choice to the next. */
struct AttachState
{
    Layout layout;
    std::vector<char> blocked;
    std::vector<char> isRoot;
    std::vector<int> blockedList;
    std::vector<int> pending;

    explicit AttachState(const Layout &l)
        : layout(l), blocked(l.numPhysical(), 0), isRoot(l.numPhysical(), 0)
    {
    }

    void
    block(int pos)
    {
        blocked[pos] = 1;
        blockedList.push_back(pos);
    }

    void
    blockRoot(int pos)
    {
        block(pos);
        isRoot[pos] = 1;
    }

    /** Attach the chosen leaf the way attachLeaves does. */
    void
    apply(const LeafChoice &c)
    {
        const int q = pending[c.pendingIdx];
        pending.erase(pending.begin() + c.pendingIdx);
        if (c.bridge) {
            for (size_t k = 1; k < c.path.size(); ++k)
                block(c.path[k]);
            block(c.path.front());
        } else {
            for (size_t k = 1; k < c.path.size(); ++k)
                layout.applySwap(c.path[k - 1], c.path[k]);
            block(layout.physOf(q));
        }
    }
};

/** Both choices on `s`; returns the reference's. */
LeafChoice
expectSameChoice(const CouplingGraph &hw, const AttachState &s, double w,
                 bool bridging, double num_ps, const std::string &what)
{
    Arena arena;
    const LeafChoice got =
        chooseLeaf(hw, s.layout, s.pending, s.blocked, s.isRoot,
                   s.blockedList, w, bridging, num_ps, arena);
    const LeafChoice want = synthesis_ref::chooseLeafRef(
        hw, s.layout, s.pending, s.blocked, s.isRoot, w, bridging, num_ps,
        arena);
    const std::string where = what + " on " + hw.name() + " w=" +
                              std::to_string(w) + " bridging=" +
                              std::to_string(bridging) + " #ps=" +
                              std::to_string(num_ps);
    EXPECT_EQ(got.target, want.target) << where;
    EXPECT_EQ(got.pendingIdx, want.pendingIdx) << where;
    EXPECT_EQ(got.bridge, want.bridge) << where;
    EXPECT_EQ(got.path, want.path) << where;
    EXPECT_EQ(bits(got.score), bits(want.score)) << where;
    return want;
}

/**
 * A random attach state on `hw`: some logicals placed (the rest of
 * the device free), 1-4 of them roots, some already-attached leaves
 * and bridge ancillas blocked, the others pending in random order.
 */
AttachState
randomState(const CouplingGraph &hw, Rng &rng)
{
    const int v = hw.numQubits();
    const int num_logical = rng.uniformInt(2, v);
    std::vector<int> l2p;
    for (size_t p : rng.sampleIndices(v, num_logical))
        l2p.push_back(static_cast<int>(p));
    AttachState s(*Layout::fromMapping(l2p, v));

    std::vector<int> logicals(num_logical);
    for (int q = 0; q < num_logical; ++q)
        logicals[q] = q;
    rng.shuffle(logicals);
    const int roots = rng.uniformInt(1, std::min(4, num_logical - 1));
    const int attached = rng.uniformInt(0, (num_logical - roots) / 2);
    const int pending =
        rng.uniformInt(1, num_logical - roots - attached);
    for (int i = 0; i < roots; ++i)
        s.blockRoot(l2p[logicals[i]]);
    for (int i = roots; i < roots + attached; ++i)
        s.block(l2p[logicals[i]]);
    for (int i = roots + attached; i < roots + attached + pending; ++i)
        s.pending.push_back(logicals[i]);
    for (int p = 0; p < v; ++p) {
        if (s.layout.isFree(p) && rng.bernoulli(0.1))
            s.block(p);
    }
    rng.shuffle(s.blockedList);
    return s;
}

TEST(SynthesisRef, RandomStatesMatchReference)
{
    Rng rng(20240616);
    for (const CouplingGraph &hw : devices()) {
        for (int trial = 0; trial < 120; ++trial) {
            const AttachState s = randomState(hw, rng);
            const double num_ps = rng.uniformInt(2, 8);
            for (double w : kWeights) {
                for (bool bridging : {false, true}) {
                    expectSameChoice(hw, s, w, bridging, num_ps,
                                     "trial " + std::to_string(trial));
                    if (HasFailure())
                        return;
                }
            }
        }
    }
}

TEST(SynthesisRef, AttachSequencesMatchReference)
{
    // Whole attach loops: each choice changes the blocked set and the
    // layout the next one sees, as in attachLeaves.
    Rng rng(7);
    for (const CouplingGraph &hw : devices()) {
        for (int trial = 0; trial < 30; ++trial) {
            const AttachState start = randomState(hw, rng);
            const double num_ps = rng.uniformInt(2, 8);
            for (double w : kWeights) {
                for (bool bridging : {false, true}) {
                    AttachState s = start;
                    while (!s.pending.empty()) {
                        const LeafChoice c = expectSameChoice(
                            hw, s, w, bridging, num_ps,
                            "sequence " + std::to_string(trial));
                        if (HasFailure())
                            return;
                        if (c.target < 0)
                            break;
                        s.apply(c);
                    }
                }
            }
        }
    }
}

TEST(SynthesisRef, MoleculeBlocksMatchReference)
{
    // The paper's LiH and BeH2 blocks, leaves attached to their roots
    // under the layout that synthesizing the preceding blocks leaves.
    for (const char *molecule : {"LiH", "BeH2"}) {
        const auto blocks = buildMolecule(moleculeByName(molecule), "jw");
        const int num_logical = static_cast<int>(blocks.front().numQubits());
        for (const CouplingGraph &hw : {ibmIthaca65(), googleSycamore64()}) {
            for (double w : {0.0, 1.0, 3.0, 100.0}) {
                SynthesisOptions opts;
                opts.swapWeight = w;
                BlockSynthesizer synth(hw, opts);
                Layout layout(num_logical, hw.numQubits());
                Circuit circ(hw.numQubits());
                SynthStats stats;
                for (const PauliBlock &b : blocks) {
                    const TetrisBlock tb(b);
                    AttachState s(layout);
                    for (size_t q : tb.rootSet())
                        s.blockRoot(layout.physOf(static_cast<int>(q)));
                    s.pending.assign(tb.leafSet().begin(),
                                     tb.leafSet().end());
                    while (!s.pending.empty()) {
                        const LeafChoice c = expectSameChoice(
                            hw, s, w, true,
                            static_cast<double>(tb.numStrings()),
                            molecule);
                        if (HasFailure())
                            return;
                        if (c.target < 0)
                            break;
                        s.apply(c);
                    }
                    synth.synthesizeBlock(tb, layout, circ, stats);
                }
            }
        }
    }
}

} // namespace
} // namespace tetris
