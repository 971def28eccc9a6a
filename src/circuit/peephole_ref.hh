/**
 * @file
 * Reference peephole fixpoint.
 *
 * This is the full-rescan loop that the dirty-set fixpoint in
 * peepholeOptimize replaced: every pass calls the reduction on every
 * live gate, until a pass changes nothing or maxPasses is reached.
 * It exists for the same reason pauli_ref and schedule_ref do and
 * must stay dumb: tests/test_peephole_ref.cc asserts the optimized
 * pass agrees with it exactly (gate stream bit for bit, every
 * PeepholeStats field including passes).
 */

#ifndef TETRIS_CIRCUIT_PEEPHOLE_REF_HH
#define TETRIS_CIRCUIT_PEEPHOLE_REF_HH

#include "circuit/circuit.hh"
#include "circuit/peephole.hh"

namespace tetris::peephole_ref
{

/** The peephole pass, rescanning every live gate on every pass. */
Circuit peepholeOptimize(const Circuit &in, PeepholeStats *stats = nullptr,
                         const PeepholeOptions &opts = PeepholeOptions());

} // namespace tetris::peephole_ref

#endif // TETRIS_CIRCUIT_PEEPHOLE_REF_HH
