/**
 * @file
 * Leaf choice of block synthesis (Algorithm 1, step 2), internal to
 * BlockSynthesizer::attachLeaves. Declared in its own header so that
 * core/synthesis_ref and tests/test_synthesis_ref.cc can compare it
 * with the unpruned reference.
 */

#ifndef TETRIS_CORE_LEAF_CHOICE_HH
#define TETRIS_CORE_LEAF_CHOICE_HH

#include <limits>
#include <span>
#include <vector>

#include "common/arena.hh"
#include "hardware/coupling_graph.hh"
#include "hardware/layout.hh"

namespace tetris
{

/** One leaf attachment picked by chooseLeaf. */
struct LeafChoice
{
    /** score(qn, qm, w) of the pick; max() when nothing attaches. */
    double score = std::numeric_limits<double>::max();
    /** Index into `pending` of the leaf to attach. */
    size_t pendingIdx = 0;
    /** Blocked position the leaf attaches to; -1 when none can. */
    int target = -1;
    /** Attach through the free ancillas on `path` (not SWAPs). */
    bool bridge = false;
    /** The leaf's position .. the node adjacent to `target`. */
    std::vector<int> path;
};

/**
 * The leaf attachment minimizing score(qn, qm, w) = (d-1)*hop +
 * (qm in root ? 2*#ps : 2) over every pending leaf qn and blocked
 * target qm. Per leaf, one BFS over unblocked nodes scores SWAP
 * routes (hop = w) and, with `bridging`, one over free ancillas
 * scores bridges (hop = 2). Ties go to the earlier leaf, then SWAP
 * before bridge, then BFS visit and neighbour order.
 *
 * `blocked` and `is_root` are per-position marks; `blocked_list`
 * holds exactly the marked positions. For hop >= 0 a scan is skipped
 * when the all-pairs distance bound over `blocked_list` cannot beat
 * the best score so far, and stopped once its BFS level cannot. The
 * result equals synthesis_ref::chooseLeafRef (the unpruned loop);
 * tests/test_synthesis_ref.cc checks that.
 */
LeafChoice chooseLeaf(const CouplingGraph &hw, const Layout &layout,
                      const std::vector<int> &pending,
                      std::span<const char> blocked,
                      std::span<const char> is_root,
                      std::span<const int> blocked_list, double w,
                      bool bridging, double num_ps, Arena &arena);

} // namespace tetris

#endif // TETRIS_CORE_LEAF_CHOICE_HH
