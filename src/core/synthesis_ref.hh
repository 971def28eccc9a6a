/**
 * @file
 * Reference leaf choice.
 *
 * This is the loop that chooseLeaf's pruned scans replaced: every
 * iteration of leaf attachment runs a full SWAP-route BFS, and with
 * bridging a full bridge-route BFS, from every pending leaf, and
 * keeps the first strictly lowest score. It exists for the same
 * reason pauli_ref, schedule_ref and peephole_ref do and must stay
 * dumb: tests/test_synthesis_ref.cc asserts chooseLeaf agrees with it
 * exactly (leaf, target, route kind, path and score).
 */

#ifndef TETRIS_CORE_SYNTHESIS_REF_HH
#define TETRIS_CORE_SYNTHESIS_REF_HH

#include "core/leaf_choice.hh"

namespace tetris::synthesis_ref
{

/** chooseLeaf without the bound, the early stop or `blocked_list`. */
LeafChoice chooseLeafRef(const CouplingGraph &hw, const Layout &layout,
                         const std::vector<int> &pending,
                         std::span<const char> blocked,
                         std::span<const char> is_root, double w,
                         bool bridging, double num_ps, Arena &arena);

} // namespace tetris::synthesis_ref

#endif // TETRIS_CORE_SYNTHESIS_REF_HH
