/**
 * @file
 * Differential tests of the peephole pass against circuit/peephole_ref:
 * peepholeOptimize must produce the reference's gate stream exactly
 * (kinds, wires, angles bit for bit) and the same PeepholeStats,
 * passes included. Random circuits cover every GateKind, special
 * angles (0, +-pi, NaN, exact cancelling pairs) and every window,
 * pass cap and commutation setting the fixpoint's bookkeeping depends
 * on; the paper's LiH and BeH2 circuits cover real synthesis output.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "baselines/paulihedral.hh"
#include "chem/uccsd.hh"
#include "circuit/peephole.hh"
#include "circuit/peephole_ref.hh"
#include "common/rng.hh"
#include "core/compiler.hh"
#include "hardware/topologies.hh"

namespace tetris
{
namespace
{

uint64_t
angleBits(double a)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &a, sizeof bits);
    return bits;
}

/** Compare both passes on `in`; `what` names the case on failure. */
void
expectSameAsReference(const Circuit &in, const PeepholeOptions &opts,
                      const std::string &what)
{
    PeepholeStats got_stats, want_stats;
    const Circuit got = peepholeOptimize(in, &got_stats, opts);
    const Circuit want = peephole_ref::peepholeOptimize(in, &want_stats,
                                                        opts);
    ASSERT_EQ(got.numQubits(), want.numQubits()) << what;
    ASSERT_EQ(got.gates().size(), want.gates().size()) << what;
    for (size_t i = 0; i < got.gates().size(); ++i) {
        const Gate &a = got.gates()[i];
        const Gate &b = want.gates()[i];
        ASSERT_TRUE(a.kind == b.kind && a.q0 == b.q0 && a.q1 == b.q1 &&
                    angleBits(a.angle) == angleBits(b.angle))
            << what << ": gate " << i << " is " << a.toString()
            << ", reference " << b.toString();
    }
    EXPECT_EQ(got_stats.removedCx, want_stats.removedCx) << what;
    EXPECT_EQ(got_stats.removedSwap, want_stats.removedSwap) << what;
    EXPECT_EQ(got_stats.removedOneQubit, want_stats.removedOneQubit)
        << what;
    EXPECT_EQ(got_stats.mergedRotations, want_stats.mergedRotations)
        << what;
    EXPECT_EQ(got_stats.passes, want_stats.passes) << what;
}

/**
 * A rotation angle drawn so that merges hit exact zeros, +-pi
 * boundaries and NaN as well as generic values.
 */
double
randomAngle(Rng &rng)
{
    constexpr double pi = 3.14159265358979323846;
    static const std::array<double, 10> kSpecial = {
        0.0,    -0.0,   pi,     -pi,    pi / 2,
        -pi / 2, pi / 4, -pi / 4, 2 * pi,
        std::numeric_limits<double>::quiet_NaN()};
    if (rng.bernoulli(0.7))
        return kSpecial[rng.index(kSpecial.size())];
    return rng.uniform(-4.0, 4.0);
}

/**
 * A random circuit over all ten GateKinds on 1..5 qubits. Each
 * circuit draws its own kind weights, so some are dense in one
 * commutation class (long runs of diagonal gates and CX controls, or
 * of X-basis gates and CX targets) and others mix everything.
 */
Circuit
randomCircuit(Rng &rng)
{
    constexpr int kKinds = 10;
    const int n = rng.uniformInt(1, 5);
    std::array<int, kKinds> weight{};
    int total = 0;
    while (total == 0) {
        for (int k = 0; k < kKinds; ++k) {
            const bool two_qubit = k == static_cast<int>(GateKind::CX) ||
                                   k == static_cast<int>(GateKind::SWAP);
            weight[k] = n == 1 && two_qubit ? 0 : rng.uniformInt(0, 4);
            total += weight[k];
        }
    }
    Circuit c(n);
    const int len = rng.uniformInt(1, 80);
    for (int g = 0; g < len; ++g) {
        int pick = rng.uniformInt(0, total - 1);
        int k = 0;
        while (pick >= weight[k])
            pick -= weight[k++];
        const GateKind kind = static_cast<GateKind>(k);
        const int a = rng.uniformInt(0, n - 1);
        int b = a;
        if (isTwoQubit(kind)) {
            b = rng.uniformInt(0, n - 2);
            if (b >= a)
                ++b;
        }
        const bool rotation = kind == GateKind::RZ || kind == GateKind::RX;
        c.add({kind, a, isTwoQubit(kind) ? b : -1,
               rotation ? randomAngle(rng) : 0.0});
    }
    return c;
}

TEST(PeepholeRef, RandomCircuitsMatchReference)
{
    // scanWindow 1..8 and the default 96; maxPasses 1..6 and the
    // default 25; commutation on and off: 9 * 7 * 2 = 126 settings,
    // each met by about 100 of the circuits.
    constexpr std::array<int, 9> kWindows = {1, 2, 3, 4, 5, 6, 7, 8, 96};
    constexpr std::array<int, 7> kPasses = {1, 2, 3, 4, 5, 6, 25};
    constexpr int kCircuits = 12600;
    Rng rng(20240615);
    for (int i = 0; i < kCircuits; ++i) {
        PeepholeOptions opts;
        opts.scanWindow = kWindows[i % kWindows.size()];
        opts.maxPasses = kPasses[(i / kWindows.size()) % kPasses.size()];
        opts.commutationAware = (i / (kWindows.size() * kPasses.size())) %
                                    2 == 0;
        const Circuit c = randomCircuit(rng);
        expectSameAsReference(c, opts,
                              "circuit " + std::to_string(i) +
                                  " window=" +
                                  std::to_string(opts.scanWindow) +
                                  " passes=" +
                                  std::to_string(opts.maxPasses) +
                                  " commute=" +
                                  std::to_string(opts.commutationAware));
        if (HasFatalFailure() || HasFailure())
            return;
    }
}

TEST(PeepholeRef, PaperCircuitsMatchReference)
{
    const CouplingGraph hw = ibmIthaca65();
    TetrisOptions tetris_opts;
    tetris_opts.runPeephole = false;
    PaulihedralOptions ph_opts;
    ph_opts.runPeephole = false;
    PeepholeOptions narrow;
    narrow.scanWindow = 4;
    PeepholeOptions adjacent;
    adjacent.commutationAware = false;
    for (const char *name : {"LiH", "BeH2"}) {
        const auto blocks = buildMolecule(moleculeByName(name), "jw");
        const Circuit tetris =
            compileTetris(blocks, hw, tetris_opts).circuit;
        const Circuit ph = compilePaulihedral(blocks, hw, ph_opts).circuit;
        for (const PeepholeOptions &opts :
             {PeepholeOptions(), narrow, adjacent}) {
            const std::string tag =
                " window=" + std::to_string(opts.scanWindow) +
                " commute=" + std::to_string(opts.commutationAware);
            expectSameAsReference(tetris, opts,
                                  std::string("tetris/") + name + tag);
            expectSameAsReference(ph, opts,
                                  std::string("paulihedral/") + name + tag);
        }
    }
}

} // namespace
} // namespace tetris
