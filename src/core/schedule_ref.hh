/**
 * @file
 * Reference lookahead-scheduler kernels.
 *
 * These are the earlier loops that the leaf bit-plane similarity and
 * the score-once ranking in compileTetris replaced: a merge-join over
 * the sorted leaf-set vectors, and a partial_sort of all remaining
 * blocks whose comparator recomputes the similarity of both operands.
 * They exist for the same reason pauli_ref does and must stay dumb:
 * tests/test_schedule_ref.cc asserts the optimized kernels agree
 * with them exactly (similarity bit for bit, block order element for
 * element).
 */

#ifndef TETRIS_CORE_SCHEDULE_REF_HH
#define TETRIS_CORE_SCHEDULE_REF_HH

#include <vector>

#include "core/compiler.hh"

namespace tetris::schedule_ref
{

/** Eq. 1 plus the boundary tie-break, by merge-joining leaf sets. */
double blockSimilarity(const TetrisBlock &a, const TetrisBlock &b);

/**
 * The block order of compileTetris's lookahead scheduler, computed
 * with the reference similarity and a partial_sort over every
 * remaining block per step. Synthesis runs as in compileTetris so
 * the layout the cluster-cost probes see evolves identically.
 */
std::vector<size_t> lookaheadOrder(const std::vector<PauliBlock> &blocks,
                                   const CouplingGraph &hw,
                                   const TetrisOptions &opts
                                   = TetrisOptions());

} // namespace tetris::schedule_ref

#endif // TETRIS_CORE_SCHEDULE_REF_HH
