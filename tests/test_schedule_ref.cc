/**
 * @file
 * Differential tests of the lookahead scheduler against
 * core/schedule_ref: the leaf bit-plane similarity must equal the
 * merge-join reference bit for bit, the leaf and root planes must
 * agree with the strings' operators, and the score-once ranking must
 * pick the same block order as the partial_sort reference, including
 * on programs full of exact score ties.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "chem/uccsd.hh"
#include "common/rng.hh"
#include "core/schedule_ref.hh"
#include "hardware/topologies.hh"

namespace tetris
{
namespace
{

PauliOp
randomNonIdentity(Rng &rng)
{
    static constexpr PauliOp kOps[3] = {PauliOp::X, PauliOp::Y,
                                        PauliOp::Z};
    return kOps[rng.uniformInt(0, 2)];
}

/** The next non-identity operator in X -> Y -> Z -> X order. */
PauliOp
rotated(PauliOp p)
{
    switch (p) {
      case PauliOp::X:
        return PauliOp::Y;
      case PauliOp::Y:
        return PauliOp::Z;
      default:
        return PauliOp::X;
    }
}

/**
 * A random block on n qubits supported on [lo, hi). With `no_leaf`
 * the second string differs from the first on every qubit, so the
 * leaf set is empty; otherwise later strings re-draw a few qubits
 * (possibly to I), which makes a mix of root and leaf qubits.
 */
PauliBlock
randomBlock(Rng &rng, size_t n, size_t lo, size_t hi, bool no_leaf)
{
    PauliString first(n);
    for (size_t q = lo; q < hi; ++q) {
        if (rng.bernoulli(0.6))
            first.setOp(q, randomNonIdentity(rng));
    }
    if (first.isIdentity())
        first.setOp(lo, randomNonIdentity(rng));
    std::vector<PauliString> strings{first};
    const int extra = no_leaf ? 1 : rng.uniformInt(0, 3);
    for (int k = 0; k < extra; ++k) {
        PauliString s = first;
        for (size_t q = lo; q < hi; ++q) {
            if (no_leaf && first.op(q) != PauliOp::I)
                s.setOp(q, rotated(first.op(q)));
            else if (!no_leaf && rng.bernoulli(0.2))
                s.setOp(q, rng.bernoulli(0.2) ? PauliOp::I
                                              : randomNonIdentity(rng));
        }
        strings.push_back(s);
    }
    return PauliBlock(std::move(strings), rng.uniform(0.1, 1.0));
}

TEST(ScheduleRef, BitPlanesMatchStringOperators)
{
    Rng rng(11);
    for (size_t n : {1, 7, 64, 65, 130}) {
        for (int t = 0; t < 50; ++t) {
            TetrisBlock tb(randomBlock(rng, n, 0, n, rng.bernoulli(0.2)));
            const PauliBlock &b = tb.block();
            EXPECT_EQ(tb.activeLength(), b.activeLength());
            for (size_t q : tb.leafSet())
                EXPECT_EQ(tb.leafOp(q), b.strings().front().op(q));
            bool uniform = true;
            for (const auto &s : b.strings()) {
                for (size_t q : tb.rootSet())
                    uniform = uniform && s.op(q) != PauliOp::I;
            }
            EXPECT_EQ(tb.hasUniformRootSupport(), uniform);
        }
    }
}

TEST(ScheduleRef, SimilarityMatchesMergeJoinBitForBit)
{
    Rng rng(5);
    size_t empty_leaf = 0, disjoint = 0, identical = 0, compared = 0;
    for (size_t n : {1, 5, 63, 64, 65, 127, 130, 200}) {
        for (int t = 0; t < 30; ++t) {
            std::vector<TetrisBlock> blocks;
            // Full-width blocks, one with an empty leaf set, and two
            // on disjoint halves of the register.
            blocks.emplace_back(randomBlock(rng, n, 0, n, false));
            blocks.emplace_back(randomBlock(rng, n, 0, n, false));
            blocks.emplace_back(randomBlock(rng, n, 0, n, true));
            if (n >= 2) {
                blocks.emplace_back(randomBlock(rng, n, 0, n / 2, false));
                blocks.emplace_back(randomBlock(rng, n, n / 2, n, false));
                ++disjoint;
            }
            blocks.emplace_back(blocks.front().block());
            for (const auto &a : blocks) {
                empty_leaf += a.leafSet().empty();
                for (const auto &b : blocks) {
                    EXPECT_EQ(blockSimilarity(a, b),
                              schedule_ref::blockSimilarity(a, b))
                        << "n=" << n << " a=" << a.toText()
                        << " b=" << b.toText();
                    identical +=
                        a.block().strings() == b.block().strings();
                    ++compared;
                }
            }
        }
    }
    EXPECT_GT(empty_leaf, 0u);
    EXPECT_GT(disjoint, 0u);
    EXPECT_GT(identical, 0u);
    EXPECT_GT(compared, 1000u);
}

/**
 * A program drawn with replacement from a small pool of excitation
 * blocks: many blocks are exact copies (up to theta), so most
 * ranking steps have exact score ties that only the block index
 * breaks. Excitations on adjacent modes have empty leaf sets and tie
 * on Eq. 1 with everything. Bravyi-Kitaev pools put X as well as Z
 * operators on leaf qubits.
 */
std::vector<PauliBlock>
tiedProgram(Rng &rng, int num_qubits, int pool_size, int num_blocks,
            const FermionEncoding &enc)
{
    std::vector<PauliBlock> pool;
    for (int i = 0; i < pool_size; ++i) {
        if (rng.bernoulli(0.3)) {
            int a = rng.uniformInt(0, num_qubits - 2);
            int b = rng.uniformInt(a + 1, num_qubits - 1);
            pool.push_back(makeSingleExcitation(enc, a, b, 0.5));
        } else {
            auto picks = rng.sampleIndices(num_qubits, 4);
            std::vector<int> m(picks.begin(), picks.end());
            std::sort(m.begin(), m.end());
            pool.push_back(
                makeDoubleExcitation(enc, m[0], m[1], m[2], m[3], 0.5));
        }
    }
    pool.push_back(makeDoubleExcitation(enc, 0, 1, 2, 3, 0.5));
    std::vector<PauliBlock> out;
    for (int i = 0; i < num_blocks; ++i) {
        const PauliBlock &b = pool[rng.index(pool.size())];
        out.emplace_back(b.strings(), rng.uniform(0.1, 1.0));
    }
    return out;
}

TEST(ScheduleRef, BlockOrderMatchesPartialSortOnTiedPrograms)
{
    Rng rng(3);
    for (int trial = 0; trial < 18; ++trial) {
        const int nq = rng.uniformInt(5, 9);
        const int num_blocks = rng.uniformInt(12, 40);
        const JordanWignerEncoding jw(nq);
        const BravyiKitaevEncoding bk(nq);
        const FermionEncoding &enc =
            trial % 3 == 2 ? static_cast<const FermionEncoding &>(bk) : jw;
        const auto blocks = tiedProgram(rng, nq, rng.uniformInt(2, 6),
                                        num_blocks, enc);
        const CouplingGraph hw = trial % 2 == 0
                                     ? lineTopology(nq + 1)
                                     : gridTopology(3, (nq + 3) / 3);
        for (int k : {1, 3, 10, num_blocks + 5}) {
            TetrisOptions opts;
            opts.lookaheadK = k;
            EXPECT_EQ(compileTetris(blocks, hw, opts).blockOrder,
                      schedule_ref::lookaheadOrder(blocks, hw, opts))
                << "trial " << trial << " K=" << k;
        }
    }
}

TEST(ScheduleRef, BlockOrderMatchesPartialSortOnLiH)
{
    const auto blocks = buildMolecule(moleculeByName("LiH"), "jw");
    const CouplingGraph hw = ibmIthaca65();
    TetrisOptions opts;
    opts.reorderStringsInBlock = false;
    EXPECT_EQ(compileTetris(blocks, hw, opts).blockOrder,
              schedule_ref::lookaheadOrder(blocks, hw, opts));
}

} // namespace
} // namespace tetris
