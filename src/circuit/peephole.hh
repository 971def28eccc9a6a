/**
 * @file
 * Commutation-aware peephole optimizer ("Qiskit O3"-lite).
 *
 * Performs the gate-cancellation work the paper delegates to Qiskit
 * optimization level 3: adjacent inverse-pair removal (H.H, X.X,
 * S.Sdg, CX.CX, SWAP.SWAP), rotation merging (RZ.RZ, RX.RX), with
 * commutation-aware partner search (diagonal gates commute through
 * CX controls, X-basis gates through CX targets, CXs sharing a
 * control or sharing a target commute).
 *
 * The pass is unitary-preserving; tests/circuit verify this against
 * the statevector simulator on randomized circuits.
 *
 * The fixpoint runs over a dirty set. A reduction attempt on gate i
 * has no side effect when it fails, and it reads only gate i (its
 * angle, in the zero-rotation check) and the gates it meets walking
 * forward along i's wires: at most scanWindow of them, stopping at
 * the first it cannot hop. So a gate whose attempt failed fails
 * again until a gate in that forward window is removed or its own
 * angle changes. Removing gate k marks k's predecessor on each wire
 * plus the run behind it of the predecessor's commutation class
 * (Z-class: diagonal gates and CX controls; X-class: X-basis gates
 * and CX targets), capped at scanWindow gates, since a scan hops
 * exactly the gates of its own class. A merge marks the rotation it
 * merged into. Marks after the gate being tried join the current
 * pass and the rest the next one, and each pass visits its marks in
 * index order, so the reductions, the output and every
 * PeepholeStats field (passes included) equal those of rescanning
 * every gate on every pass (circuit/peephole_ref). Cost: one full
 * pass, then work proportional to the reductions times the length
 * of the class runs walked back from each removal, instead of
 * up to maxPasses full rescans.
 */

#ifndef TETRIS_CIRCUIT_PEEPHOLE_HH
#define TETRIS_CIRCUIT_PEEPHOLE_HH

#include <cstddef>

#include "circuit/circuit.hh"

namespace tetris
{

/** Knobs for the peephole pass. */
struct PeepholeOptions
{
    /** Search past commuting gates for cancellation partners. */
    bool commutationAware = true;
    /** Upper bound on fixpoint iterations. */
    int maxPasses = 25;
    /** Cap on gates skipped during one partner scan. */
    int scanWindow = 96;
};

/** Counters describing what the pass removed. */
struct PeepholeStats
{
    size_t removedCx = 0;
    size_t removedSwap = 0;
    size_t removedOneQubit = 0;
    size_t mergedRotations = 0;
    int passes = 0;
};

/** Run the optimizer and return the reduced circuit. */
Circuit peepholeOptimize(const Circuit &in, PeepholeStats *stats = nullptr,
                         const PeepholeOptions &opts = PeepholeOptions());

} // namespace tetris

#endif // TETRIS_CIRCUIT_PEEPHOLE_HH
